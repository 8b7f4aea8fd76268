"""What the traced run wraps, and the per-layer metrics computed from spans.

Times are self times in ms per round of the workload, counts are per
round, and ratios are sums over the whole traced run.  A metric whose
layer does not run on a workload reads 0.
"""

from collections import defaultdict

import numpy as np

from tracer import END, ID, INFO, NAME, START, children, self_times


def _chunk_info(args, kwargs, out):
    config, _variant, _scale, _seed, snr_idx, chunk_idx, n_frames = args[0]
    return {"snr_idx": snr_idx, "chunk": chunk_idx, "frames": n_frames,
            "min_bit_errors": config.min_bit_errors,
            "max_bits": config.max_bits,
            "result": {k: list(v) for k, v in out.items()}}


def _run_info(args, kwargs, out):
    names = ("betas_raw", "start_layer", "pair", "record")
    call = dict(zip(names, args[1:]), **kwargs)
    betas = np.atleast_1d(call["betas_raw"])
    return {"layers": int(betas.size - call.get("start_layer", 0))}


def _refine_info(args, kwargs, out):
    _gamma, _lam, _x_ab, v_ab, _x_b, v_b = args
    accepted = 1.0 / v_b - 1.0 / v_ab > 0
    return {"accepted": int(accepted.sum()), "sites": int(accepted.size)}


def _bcjr_info(args, kwargs, out):
    steps = 2 * np.shape(args[0])[1]
    posterior = out[0]
    evaluated = posterior.shape[1]
    duplicates = 0
    if len(out) == 4:
        sys_post, par_post = out[2], out[3]
        evaluated += sys_post.shape[1] + par_post.shape[1]
        k = posterior.shape[1]
        duplicates = int(np.all(sys_post[:, :k] == posterior, axis=0).sum())
    return {"steps": int(steps), "evaluated": int(evaluated),
            "distinct": int(evaluated - duplicates)}


def _schedule_info(args, kwargs, out):
    return {"epochs": int(np.size(out[1]) - 1)}


# (target, span name, hook); targets are "module:function" or
# "module:Class.method" and are wrapped at every import site
TARGETS = [
    ("epturbo.cli:main", "cli.main", None),
    ("epturbo.harness:run_sweep", "harness.run_sweep", None),
    ("epturbo.harness:_chunk_task", "harness.chunk", _chunk_info),
    ("epturbo.channel:sample_rayleigh", "channel.sample_rayleigh", None),
    ("epturbo.modem:map_bits", "modem.map_bits", None),
    ("epturbo.modem:demap_llr", "modem.demap_llr", None),
    ("epturbo.modem:prior_probs_from_llr", "modem.prior_probs_from_llr", None),
    ("epturbo.epdetect:_epnet_core", "epdetect.epnet_core", None),
    ("epturbo.epdetect:EpWorkspace.__init__", "epdetect.workspace_init", None),
    ("epturbo.epdetect:EpWorkspace.run", "epdetect.run", _run_info),
    ("epturbo.epdetect:_global_moments_batch", "epdetect.global_moments", None),
    ("epturbo.epdetect:_chol_inverse_factors", "epdetect.chol_inverse", None),
    ("epturbo.epdetect:cavity", "epdetect.cavity", None),
    ("epturbo.epdetect:discrete_moments", "epdetect.discrete_moments", None),
    ("epturbo.epdetect:refine_pair", "epdetect.refine_pair", _refine_info),
    ("epturbo.epdetect:damp", "epdetect.damp", None),
    ("epturbo.epdetect:jdd_receive_batch", "epdetect.jdd_receive_batch", None),
    ("epturbo.turbocode:encode", "turbocode.encode", None),
    ("epturbo.turbocode:_decode_batch", "turbocode.decode_batch", None),
    ("epturbo.turbocode:_bcjr_batch", "turbocode.bcjr_batch", _bcjr_info),
    ("epturbo.metaopt:meta_train", "metaopt.meta_train", None),
    ("epturbo.metaopt:online_train", "metaopt.online_train", None),
    ("epturbo.metaopt:train_schedule", "metaopt.train_schedule",
     _schedule_info),
    ("epturbo.metaopt:epnet_loss_and_grad", "metaopt.loss_and_grad", None),
    ("epturbo.metaopt:generate_training_set", "metaopt.training_set", None),
    ("epturbo.metaopt:lstm_step", "metaopt.lstm_step", None),
    ("epturbo.metaopt:_unrolled_loss_and_grads", "metaopt.unrolled", None),
    ("epturbo.metaopt:Adam.step", "metaopt.adam_step", None),
    ("epturbo.metaopt:QuadraticTask.sample", "metaopt.task_sample", None),
]


def install(tracer):
    for target, name, hook in TARGETS:
        if tracer.install(target, name, hook) < 1:
            raise RuntimeError(f"no import site found for {target}")


def useful_frame_ratio(chunks):
    """Frames a stop check after every chunk would need / frames run.

    `chunks` are the infos of the chunk spans in call order; a point's
    chunks start at chunk index 0.  The stop rule is the program's: the
    last sub-variant in sorted order has reached min_bit_errors or
    max_bits.
    """
    needed = run = 0
    points = []
    for c in chunks:
        if c["chunk"] == 0:
            points.append([])
        points[-1].append(c)
    for point in points:
        totals = defaultdict(lambda: [0, 0])
        stop_at = None
        for j, c in enumerate(point):
            for sub, (bits, errs, _frames, _ferrs) in c["result"].items():
                totals[sub][0] += bits
                totals[sub][1] += errs
            bits, errs = totals[sorted(totals)[-1]]
            if stop_at is None and (errs >= c["min_bit_errors"]
                                    or bits >= c["max_bits"]):
                stop_at = j + 1
        frames = [c["frames"] for c in point]
        needed += sum(frames[:stop_at])
        run += sum(frames)
    return needed / run if run else 0.0


def emitted_tilted_moments(spans, kids):
    """(tilted-moment evaluations followed by a cavity in the same run, all)."""
    useful = total = 0
    for s in spans:
        if s[NAME] != "epdetect.run":
            continue
        names = [spans[k][NAME] for k in kids[s[ID]]]
        last_cavity = max((i for i, n in enumerate(names)
                           if n == "epdetect.cavity"), default=-1)
        for i, n in enumerate(names):
            if n == "epdetect.discrete_moments":
                total += 1
                useful += i < last_cavity
    return useful, total


# per-layer metrics: name -> unit; the order is the report order
METRICS = {
    "process.minor_faults": "count",
    "harness.chunks": "count",
    "harness.useful_frame_ratio": "ratio",
    "harness.chunk_self_ms": "ms",
    "cli.self_ms": "ms",
    "channel.sample_ms": "ms",
    "modem.map_bits_ms": "ms",
    "modem.demap_llr_ms": "ms",
    "modem.prior_from_llr_ms": "ms",
    "epdetect.layers_run": "count",
    "epdetect.chol_inverse_ms": "ms",
    "epdetect.global_moments_ms": "ms",
    "epdetect.cavity_ms": "ms",
    "epdetect.tilted_moments_ms": "ms",
    "epdetect.site_update_ms": "ms",
    "epdetect.site_accept_ratio": "ratio",
    "epdetect.emitted_layer_ratio": "ratio",
    "epdetect.trace_stack_ms": "ms",
    "epdetect.jdd_self_ms": "ms",
    "epdetect.workspace_ms": "ms",
    "turbocode.encode_calls": "count",
    "turbocode.encode_ms": "ms",
    "turbocode.decode_ms": "ms",
    "turbocode.bcjr_calls": "count",
    "turbocode.bcjr_ms": "ms",
    "turbocode.bcjr_steps": "count",
    "turbocode.bcjr_posterior_ratio": "ratio",
    "metaopt.loss_grad_calls": "count",
    "metaopt.loss_grad_ms": "ms",
    "metaopt.layers_per_loss_eval": "count",
    "metaopt.training_set_ms": "ms",
    "metaopt.online_epochs": "count",
    "metaopt.lstm_step_ms": "ms",
    "metaopt.unrolled_ms": "ms",
    "metaopt.adam_ms": "ms",
    "metaopt.task_sample_ms": "ms",
}


def per_layer(spans, rounds, minor_faults):
    """Per-layer metric values from the spans of `rounds` traced rounds and
    the process's minor page faults during them."""
    selft = self_times(spans)
    kids = children(spans)
    ms = defaultdict(float)
    calls = defaultdict(int)
    infos = defaultdict(list)
    for s, t in zip(spans, selft):
        ms[s[NAME]] += 1e3 * t
        calls[s[NAME]] += 1
        if s[INFO] is not None:
            infos[s[NAME]].append(s[INFO])

    def total(name, key):
        return sum(i[key] for i in infos[name])

    def ratio(num, den):
        return num / den if den else 0.0

    layers_in_loss = sum(
        spans[k][INFO]["layers"]
        for s in spans if s[NAME] == "metaopt.loss_and_grad"
        for k in kids[s[ID]] if spans[k][NAME] == "epdetect.run")
    emitted, tilted = emitted_tilted_moments(spans, kids)
    per_round = {
        "process.minor_faults": minor_faults,
        "harness.chunks": calls["harness.chunk"],
        "harness.chunk_self_ms": ms["harness.chunk"],
        "cli.self_ms": ms["cli.main"],
        "channel.sample_ms": ms["channel.sample_rayleigh"],
        "modem.map_bits_ms": ms["modem.map_bits"],
        "modem.demap_llr_ms": ms["modem.demap_llr"],
        "modem.prior_from_llr_ms": ms["modem.prior_probs_from_llr"],
        "epdetect.layers_run": total("epdetect.run", "layers"),
        "epdetect.chol_inverse_ms": ms["epdetect.chol_inverse"],
        "epdetect.global_moments_ms": ms["epdetect.global_moments"],
        "epdetect.cavity_ms": ms["epdetect.cavity"],
        "epdetect.tilted_moments_ms": ms["epdetect.discrete_moments"],
        "epdetect.site_update_ms": (ms["epdetect.refine_pair"]
                                    + ms["epdetect.damp"]),
        "epdetect.trace_stack_ms": ms["epdetect.epnet_core"],
        "epdetect.jdd_self_ms": ms["epdetect.jdd_receive_batch"],
        "epdetect.workspace_ms": ms["epdetect.workspace_init"],
        "turbocode.encode_calls": calls["turbocode.encode"],
        "turbocode.encode_ms": ms["turbocode.encode"],
        "turbocode.decode_ms": ms["turbocode.decode_batch"],
        "turbocode.bcjr_calls": calls["turbocode.bcjr_batch"],
        "turbocode.bcjr_ms": ms["turbocode.bcjr_batch"],
        "turbocode.bcjr_steps": total("turbocode.bcjr_batch", "steps"),
        "metaopt.loss_grad_calls": calls["metaopt.loss_and_grad"],
        "metaopt.loss_grad_ms": sum(
            1e3 * (s[END] - s[START]) for s in spans
            if s[NAME] == "metaopt.loss_and_grad"),
        "metaopt.training_set_ms": ms["metaopt.training_set"],
        "metaopt.lstm_step_ms": ms["metaopt.lstm_step"],
        "metaopt.unrolled_ms": ms["metaopt.unrolled"],
        "metaopt.adam_ms": ms["metaopt.adam_step"],
        "metaopt.task_sample_ms": ms["metaopt.task_sample"],
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out.update({
        "harness.useful_frame_ratio": useful_frame_ratio(
            infos["harness.chunk"]),
        "epdetect.site_accept_ratio": ratio(
            total("epdetect.refine_pair", "accepted"),
            total("epdetect.refine_pair", "sites")),
        "epdetect.emitted_layer_ratio": ratio(emitted, tilted),
        "turbocode.bcjr_posterior_ratio": ratio(
            total("turbocode.bcjr_batch", "distinct"),
            total("turbocode.bcjr_batch", "evaluated")),
        "metaopt.layers_per_loss_eval": ratio(
            layers_in_loss, calls["metaopt.loss_and_grad"]),
        "metaopt.online_epochs": ratio(
            total("metaopt.train_schedule", "epochs"),
            calls["metaopt.online_train"]),
    })
    return {name: out[name] for name in METRICS}
