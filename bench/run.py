"""Receiver benchmark: BER sweeps and online adaptation, end to end and per layer.

    python3 bench/run.py --workload sweep-uncoded --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  A workload repeats whole rounds of its own activity for
`--seconds`.  With `--trace 0` it interleaves rounds of each other
activity with its own over those seconds, so that every run reports every
end-to-end metric, and prints them; with `--trace 1` it wraps the
program's functions, runs and traces its own rounds only and prints the
per-layer metrics.  The last line of standard output is the result as
one JSON object.  Run outputs (sweep configs and
CSVs, the full result and the span dump) go to
bench/out/<workload>-s<seed>-t<trace>/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sweep-uncoded", "sweep-jdd", "train")
MIN_SETUP_PROBES = 7
# Untraced runs give the workload's own activity this share of the busy
# time and split the rest evenly between the other two.  The rounds of all
# three interleave step by step over the whole run, so that each metric
# samples the machine's speed across the run, not in one stretch of it.
OWN_SHARE = 0.4
# a set-up probe runs before a step once this share of `--seconds` has
# passed since the last probe
PROBE_EVERY = 1 / 8

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "mmse_frames_per_s": "frames/s",
    "ep_frames_per_s": "frames/s",
    "jdd_frames_per_s": "frames/s",
    "sweep_s": "s",
    "online_train_s": "s",
    "online_epoch_ms": "ms",
    "meta_train_epoch_ms": "ms",
    "peak_rss_mib": "MiB",
}
HIGHER_IS_BETTER = {"mmse_frames_per_s", "ep_frames_per_s",
                    "jdd_frames_per_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class SetupProbe:
    """Times fresh processes that only set the workload up.

    A probe prints the monotonic clock when its set-up is done; that clock
    is shared by all processes, so the difference to the moment before the
    start is the set-up time, without interpreter shutdown.  Probes run
    between steps, so their median is spread over the whole run.
    """

    def __init__(self, workload, seed, workdir, every):
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                    workload, str(seed), workdir]
        self.every = every
        self.last = -float("inf")
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        self.times.append(float(done.stdout.split()[-1]) - t0)
        self.last = time.perf_counter()

    def when_due(self):
        if time.perf_counter() - self.last >= self.every:
            self()


class Rounds:
    """One activity's rounds in a run and the time they took."""

    def __init__(self, activity, share):
        self.activity = activity
        self.share = share
        self.ops = []
        self.figures = []
        self.busy = 0.0
        self.current = None  # the open round's steps

    def step(self):
        """One step of the open round, opening one if none is; an
        operation whose round raises has failed."""
        act, k = self.activity, len(self.figures)
        if self.current is None:
            self.current = act.steps(k)
        t0 = time.perf_counter()
        done = None
        try:
            next(self.current)
        except StopIteration as stop:
            done = stop.value
        except Exception as exc:
            traceback.print_exc()
            done = ({op: [f"{type(exc).__name__}: {exc}"] for op in act.ops()},
                    {})
        self.busy += time.perf_counter() - t0
        if done is not None:
            self.current = None
            fails, figs = done
            self.ops += [(act.name, k, op, fails.get(op, ["not run"]))
                         for op in act.ops()]
            self.figures.append(figs)

    def run(self):
        """One whole round."""
        self.step()
        while self.current is not None:
            self.step()


def interleave(rounds, t_end, before_step):
    """Steps of whole rounds until `t_end` has passed and every activity has
    finished one.  Until then the next step is that of the activity
    furthest below its share of the time; after, open rounds finish."""
    while True:
        unfinished = [r for r in rounds
                      if r.current is not None or not r.figures]
        if time.perf_counter() < t_end:
            nxt = min(rounds, key=lambda r: r.busy / r.share)
        elif unfinished:
            nxt = unfinished[0]
        else:
            return
        before_step()
        nxt.step()


def best_quartile(key, samples):
    """The quartile of a figure's samples on its better side.

    Other load on the machine only ever slows the benchmark, and on a
    shared host it comes and goes within a run; the better quartile moves
    less with it than the median does.
    """
    if len(samples) == 1:
        return samples[0]
    q = statistics.quantiles(samples, n=4, method="inclusive")
    return q[2] if key in HIGHER_IS_BETTER else q[0]


def run_figures(figures):
    """Each figure over all its samples in the rounds."""
    samples = {}
    for figs in figures:
        for key, value in figs.items():
            samples.setdefault(key, []).extend(
                value if isinstance(value, list) else [value])
    return {k: best_quartile(k, v) for k, v in samples.items() if v}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "epturbo")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import layers
    import workloads
    from tracer import Tracer

    outdir = os.path.join(HERE, "out",
                          f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)

    def activity(name, tracer=None):
        act = workloads.ACTIVITIES[name](args.seed, os.path.join(outdir, name),
                                         ROOT, tracer)
        act.write_inputs()
        return act

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    focus = activity(args.workload, tracer)
    probe = SetupProbe(args.workload, args.seed, focus.workdir,
                       PROBE_EVERY * args.seconds)
    # untraced runs also make reference rounds of the other activities,
    # so that every run reports every end-to-end metric
    others = [] if args.trace else [n for n in WORKLOADS if n != args.workload]

    if not args.trace:
        probe()
    focus.setup()
    t_end = time.perf_counter() + args.seconds
    own = Rounds(focus, OWN_SHARE if others else 1.0)
    own.run()
    # read before the other activities are set up: the figure is the peak
    # of the workload's own set-up and round (later rounds repeat it)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = {}
    for name in others:
        other = activity(name)
        other.setup()
        reference[name] = Rounds(other, (1.0 - OWN_SHARE) / len(others))
    interleave([own, *reference.values()], t_end,
               (lambda: None) if args.trace else probe.when_due)

    figures = run_figures(own.figures)
    figures["peak_rss_mib"] = peak_rss_mib
    ops = list(own.ops)
    for rounds in reference.values():
        ops += rounds.ops
        for key, value in run_figures(rounds.figures).items():
            figures.setdefault(key, value)
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "rounds": len(own.figures),
              "per_round": own.figures,
              "reference_rounds": {n: r.figures
                                   for n, r in reference.items()},
              "busy_s": {r.activity.name: r.busy
                         for r in (own, *reference.values())}}

    if args.trace:
        tracer.uninstall()
        metrics = {
            name: {"value": value, "unit": layers.METRICS[name]}
            for name, value in layers.per_layer(
                tracer.spans, len(own.figures), tracer.minor_faults).items()}
        tracer.dump(os.path.join(outdir, "spans.json"))
    else:
        while len(probe.times) < MIN_SETUP_PROBES:
            probe()
        figures["setup_s"] = statistics.median(probe.times)
        metrics = {name: {"value": figures.get(name, float("nan")),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    result["end_to_end"] = figures
    result["setup_probes"] = probe.times

    failed = [op for op in ops if op[3]]
    result.update({
        "correct": not failed and all(
            m["value"] == m["value"] for m in metrics.values()),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
        "failures": [[a, k, str(op), msgs] for a, k, op, msgs in failed],
    })
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    for a, k, op, msgs in failed:
        print(f"FAILED {a} round {k} {op}: {'; '.join(msgs)}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
