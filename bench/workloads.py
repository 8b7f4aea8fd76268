"""The benchmark's three activities: two BER sweeps and the training steps.

Each activity builds its inputs from the workload seed, runs whole rounds
of the same operations through the program's public entry points, checks
every output with `checks`, and returns the end-to-end figures of the
round: a number, or a list when the round times one step several times.
Every round of one run repeats the same inputs, so its rows must equal
the first round's.

Only the program's entry points are called through their module
(`cli.main`, `metaopt.meta_train`, `metaopt.online_train`), so a traced
run sees them; the checks call functions bound at import, and tracing is
off while they run.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import time

import numpy as np

from epturbo import cli, metaopt
from epturbo.channel import REAL_NOISE_VAR, SnrSpec, snr_scale
from epturbo.epdetect import (
    DampingSchedule,
    EpConfig,
    JddReceiver,
    _epnet_core,
    _global_moments_batch,
)
from epturbo.harness import _chunk_rng, _jdd_receiver, _uncoded_chunk
from epturbo.metaopt import (
    ChannelStats,
    LstmOptimizerParams,
    QuadraticTask,
    _unrolled_loss_and_grads,
    _workspace_for,
    epnet_loss_and_grad,
    generate_training_set,
)
from epturbo.modem import Constellation
from epturbo.turbocode import encode

import checks

EP_DAMPING = 0.1
EP_LAYERS = 5

# 8x8 16-QAM, uncoded.  A stop batch is 4 chunks x 512 frames x 32 bits =
# 65536 bits.  With 1500 errors and a 4-batch cap, every point stops after
# a number of batches that does not depend on the seed: mmse and ep at 9
# and 11 dB after 1 (each batch already holds 1800+ errors), ep at 13 dB
# after 2 (about 1100 errors per batch), ep at 15-19 dB at the cap.
UNCODED_DOC = {
    "schema": 1,
    "system": {"nt": 8, "nr": 8, "mod_order": 16, "ep_layers": EP_LAYERS},
    "snr": {"mode": "eb-uncoded", "grid_db": [9, 11, 13, 15, 17, 19]},
    "variants": ["mmse", "ep"],
    "damping": {"source": "fixed", "value": EP_DAMPING},
    "stopping": {"min_bit_errors": 1500, "max_bits": 4 * 65536},
}

# 4x4 16-QAM, K = 64 turbo code, scaled max-log (TurboNet) decoder.  A
# stop batch is 2048 frames x 64 bits.  At 10 dB the final stage makes
# 400+ errors per batch, so it stops after one; at 12 dB it makes under
# 100, so it runs to the 2-batch cap.
JDD_DOC = {
    "schema": 1,
    "system": {"nt": 4, "nr": 4, "mod_order": 16, "message_len": 64,
               "decoder": "scaled-max-log", "decoder_iters": 4,
               "jdd_stages": 4, "ep_layers": EP_LAYERS},
    "snr": {"mode": "eb-uncoded", "grid_db": [10, 12]},
    "variants": ["jdd"],
    "damping": {"source": "fixed", "value": EP_DAMPING},
    "stopping": {"min_bit_errors": 200, "max_bits": 2 * 131072},
}

# LTE QPP interleaver coefficients (f1, f2) by K, as published
QPP = {40: (3, 10), 64: (7, 16)}

# The slice runs on the same tasks META_BEFORE times before the online
# training and META_BETWEEN times after each timed loss-and-gradient
# evaluation, so that its samples spread over the round: other load on a
# shared host comes in bursts, and samples taken back to back fall into
# the same burst.  Every repeat is one sample of the per-epoch time.
META_EPOCHS = 20
META_BEFORE = 4
META_BETWEEN = 2
META_LR = 3e-3
# small enough that a run holds several rounds, each one sample of
# online_train_s
ONLINE_SAMPLES = 1000
ONLINE_SNR_DB = 19.0
# At most the plateau window (10), so every call runs exactly this many
# epochs: where the plateau rule stops depends on the drawn dataset
# (16 to 40 epochs over seeds 1-4 at a cap of 40), which would make one
# adaptation's time vary 2.5x from seed to seed.
ONLINE_EPOCHS = 10
FD_STEP = 1e-3
THETA_PATH = os.path.join("tests", ".theta_cache.json")


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r["snr_db"] = float(r["snr_db"])
        for k in ("bits", "bit_errors", "frames", "frame_errors"):
            r[k] = int(r[k])
        r["seconds"] = float(r["seconds"])
    return rows


class Activity:
    """Shared round bookkeeping; `tracer` may be None."""

    name = None

    def __init__(self, seed, workdir, root, tracer=None):
        self.seed = int(seed)
        self.workdir = workdir
        self.root = root
        self.tracer = tracer

    def write_inputs(self):
        """Generate the input files from the seed (not part of set-up)."""

    def traced(self, fn, *args, **kwargs):
        """Call a program entry point, traced when a tracer is attached."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.tracing():
            return fn(*args, **kwargs)

    def steps(self, k):
        """Round k as a generator that yields between its steps, so that
        rounds of other activities can run in between, and returns
        (failures, figures).  A round is one step unless a subclass
        splits it."""
        yield from ()
        return self.run_round(k)

    def run_round(self, k):
        """Round k in one go: (failures, figures)."""
        gen = self.steps(k)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value


class _Sweep(Activity):
    """An `epturbo sweep` run in process through `cli.main`."""

    doc = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config_path = os.path.join(self.workdir, "sweep.json")
        self.first_rows = None

    def write_inputs(self):
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.config_path, "w") as fh:
            json.dump(dict(self.doc, seed=self.seed), fh, indent=1)

    def setup(self):
        """Parse the sweep config, build the codec and receivers."""
        self.config = cli._experiment_from_doc(cli._load_json(self.config_path))
        self.build()

    def build(self):
        pass

    def sweep(self, k):
        out = os.path.join(self.workdir, f"round{k}")
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.traced(cli.main, ["sweep", self.config_path,
                                          "--out", out])
            sweep_s = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"epturbo sweep exited with {code}")
        rows = _read_rows(os.path.join(out, "results.csv"))
        same = []
        if self.first_rows is None:
            self.first_rows = rows
        else:
            same = checks.check_same_rows(rows, self.first_rows)
        return rows, sweep_s, same

    @staticmethod
    def frames_per_s(rows, variant):
        rows = [r for r in rows if r["variant"] == variant]
        return sum(r["frames"] for r in rows) / sum(r["seconds"] for r in rows)


class UncodedSweep(_Sweep):
    """mmse and ep (fixed damping) on 8x8 16-QAM uncoded Rayleigh."""

    name = "sweep-uncoded"
    doc = UNCODED_DOC
    moment_frames = 32

    def ops(self):
        return [(v, float(s)) for v in self.config.variants
                for s in self.config.snr_grid_db]

    def run_round(self, k):
        rows, sweep_s, same = self.sweep(k)
        cfg = self.config
        bits_per_frame = cfg.nt * int(np.log2(cfg.mod_order))
        fails = checks.check_uncoded_table(rows, cfg.min_bit_errors,
                                           cfg.max_bits, bits_per_frame)
        for snr_idx, snr in enumerate(cfg.snr_grid_db):
            msgs = self.moment_check(snr_idx, snr)
            for v in cfg.variants:
                fails.setdefault((v, float(snr)), []).extend(msgs + same)
        return fails, {
            "sweep_s": sweep_s,
            "mmse_frames_per_s": self.frames_per_s(rows, "mmse"),
            "ep_frames_per_s": self.frames_per_s(rows, "ep"),
        }

    def moment_check(self, snr_idx, snr):
        """Global moments on this point's own first chunk of channels."""
        cfg = self.config
        scale = snr_scale(cfg.snr_spec(snr), cfg.nt, cfg.nr)
        rng = _chunk_rng(cfg.master_seed, snr_idx, 0)
        _, h_r, y_r, _ = _uncoded_chunk(cfg, scale, rng, cfg.chunk_frames)
        h_r, y_r = h_r[: self.moment_frames], y_r[: self.moment_frames]
        hth = np.einsum("bri,brj->bij", h_r, h_r) / REAL_NOISE_VAR
        hty = np.einsum("bri,br->bi", h_r, y_r) / REAL_NOISE_VAR
        site_rng = np.random.default_rng([self.seed, snr_idx])
        gamma = site_rng.standard_normal(hty.shape)
        lam = site_rng.uniform(0.05, 5.0, hty.shape)
        mu, sigma_diag, _ = _global_moments_batch(hth, hty, gamma, lam)
        return checks.check_global_moments(hth, hty, gamma, lam, mu,
                                           sigma_diag)


class JddSweep(_Sweep):
    """The jdd variant: 4 EP/decoder stages, K = 64, fixed damping."""

    name = "sweep-jdd"
    doc = JDD_DOC
    codeword_sample = 16

    def build(self):
        cfg = self.config
        self.receiver = _jdd_receiver(cfg, 0, cfg.snr_grid_db[0], None)

    def ops(self):
        return [("jdd", float(s)) for s in self.config.snr_grid_db]

    def run_round(self, k):
        rows, sweep_s, same = self.sweep(k)
        cfg = self.config
        per_snr = checks.check_jdd_table(rows, cfg.min_bit_errors,
                                         cfg.max_bits, cfg.message_len)
        fails = {}
        for snr_idx, snr in enumerate(cfg.snr_grid_db):
            # the messages this point sent first: run_chunk's first draw
            msgs = _chunk_rng(cfg.master_seed, snr_idx, 0).integers(
                0, 2, (cfg.chunk_frames, cfg.message_len))
            msgs = msgs[: self.codeword_sample]
            words = [encode(m, self.receiver.codec) for m in msgs]
            qpp = QPP[cfg.message_len]
            fails["jdd", float(snr)] = (
                per_snr.get(float(snr), ["no rows"])
                + checks.check_codewords(msgs, words, *qpp) + same)
        # one sample per SNR point: every stage's row holds the point's time
        stage1 = [r for r in rows if r["variant"] == "jdd-s1"]
        return fails, {
            "sweep_s": sweep_s,
            "jdd_frames_per_s": [r["frames"] / r["seconds"] for r in stage1],
        }


class Training(Activity):
    """A meta-training slice, then one online adaptation of EPNet damping."""

    name = "train"

    def setup(self):
        """Load the shipped optimizer and build the receiver and statistics."""
        with open(os.path.join(self.root, THETA_PATH)) as fh:
            self.theta = LstmOptimizerParams.from_doc(json.load(fh))
        c = Constellation(16)
        self.start = DampingSchedule.constant(EP_DAMPING, EP_LAYERS).raw
        self.receiver = JddReceiver(codec=None, constellation=c,
                                    schedules=self.start[None, :],
                                    config=EpConfig(layers=EP_LAYERS))
        self.stats = ChannelStats(nt=8, nr=8, mod_order=16,
                                  snr=SnrSpec("eb-uncoded", ONLINE_SNR_DB, 16),
                                  n_samples=ONLINE_SAMPLES, seed=self.seed)

    def ops(self):
        return [("meta_train", None), ("online_train", None)]

    def meta_slice(self, repeats, meta_s, meta_curves):
        for _ in range(repeats):
            t0 = time.perf_counter()
            theta, curve = self.traced(metaopt.meta_train, epochs=META_EPOCHS,
                                       lr=META_LR,
                                       rng=np.random.default_rng(self.seed))
            meta_s.append(time.perf_counter() - t0)
            meta_curves.append(curve)
        return theta, curve

    def steps(self, k):
        fails = {op: [] for op in self.ops()}
        meta_s, meta_curves = [], []

        def meta_step(repeats):
            self.meta_slice(repeats, meta_s, meta_curves)
            yield

        theta, curve = self.meta_slice(META_BEFORE, meta_s, meta_curves)
        yield
        t0 = time.perf_counter()
        trained, curves = self.traced(metaopt.online_train, self.receiver,
                                      self.stats, self.theta,
                                      epochs=ONLINE_EPOCHS)
        online_s = time.perf_counter() - t0
        yield
        epoch_ms, msgs = yield from self.check_online(
            trained.schedules, curves, k, lambda: meta_step(META_BETWEEN))
        fails["online_train", None] += msgs

        if any(not np.array_equal(c, meta_curves[0]) for c in meta_curves):
            fails["meta_train", None].append(
                "meta-training curve differs between identical repeats")
        fails["meta_train", None] += self.check_meta(theta, curve)
        return fails, {
            "meta_train_epoch_ms": [1e3 * s / META_EPOCHS for s in meta_s],
            "online_train_s": online_s,
            "online_epoch_ms": epoch_ms,
        }

    def check_meta(self, theta, curve):
        if not np.all(np.isfinite(curve)):
            return ["meta-training loss is not finite"]
        rng = np.random.default_rng([self.seed, 1])
        tasks = [QuadraticTask.sample(5, rng) for _ in range(20)]
        beta0 = np.ones((20, 5))
        _, grads, inputs = _unrolled_loss_and_grads(theta, tasks, 20, beta0)

        def loss(weights):
            return _unrolled_loss_and_grads(LstmOptimizerParams(weights),
                                            tasks, 20, beta0,
                                            frozen_inputs=inputs)[0]

        return checks.check_directional(loss, theta.weights, grads, rng)

    def full_loss(self, dataset, beta):
        """Final-layer cavity MSE from a full, cold `_epnet_core` run."""
        cfg = EpConfig(layers=beta.size, min_var=EpConfig().min_var,
                       init_gamma=dataset.init_gamma,
                       init_lambda=dataset.init_lambda)
        x_ab, _, _ = _epnet_core(dataset.h_r, dataset.y_r, dataset.noise_var,
                                 dataset.prior_probs, dataset.constellation,
                                 beta, cfg)
        return float(np.mean(np.sum((x_ab - dataset.x_r) ** 2, axis=-1)))

    def check_online(self, schedules, curves, k, between):
        """Time loss-and-gradient evaluations and check them.

        Returns (ms of each evaluation, failures).  The evaluations run
        on online_train's own dataset (the first draw of its generator),
        with a workspace reused across calls as training does.  The first
        round checks the gradients against finite differences of full
        runs; later rounds, on the same inputs, must reproduce it exactly.
        A generator: after each timed evaluation it runs the steps of
        `between()`.
        """
        if schedules.shape != (1, EP_LAYERS) or not np.all(np.isfinite(schedules)):
            return [], [f"bad trained schedule {schedules!r}"]
        dataset = generate_training_set(self.stats,
                                        np.random.default_rng(self.stats.seed))
        min_var = EpConfig().min_var
        ws = _workspace_for(dataset, EP_LAYERS, min_var)
        times, outputs = [], []
        for beta in (self.start, schedules[0]):
            for _ in range(2):
                t0 = time.perf_counter()
                loss, grad = epnet_loss_and_grad(beta, dataset, min_var,
                                                 workspace=ws)
                times.append(time.perf_counter() - t0)
                yield from between()
            outputs.append((loss, grad))
        epoch_ms = [1e3 * t for t in times]
        run = (schedules, curves[0], outputs)
        if k > 0:
            same = (np.array_equal(run[0], self.first_run[0])
                    and np.array_equal(run[1], self.first_run[1])
                    and all(a[0] == b[0] and np.array_equal(a[1], b[1])
                            for a, b in zip(outputs, self.first_run[2])))
            return epoch_ms, [] if same else [
                "online training differs from the first round's"]
        self.first_run = run
        msgs, losses = [], []
        for beta, (loss, grad) in zip((self.start, schedules[0]), outputs):
            full = self.full_loss(dataset, beta)
            losses.append(full)
            msgs += checks.check_close(loss, full, what="loss")
            ref = checks.central_differences(
                lambda b: self.full_loss(dataset, b), beta, FD_STEP)
            msgs += checks.check_gradient(grad, ref)
        msgs += checks.check_close(curves[0][0], losses[0],
                                   what="first training loss")
        msgs += checks.check_not_worse(losses[1], losses[0])
        return epoch_ms, msgs


ACTIVITIES = {a.name: a for a in (UncodedSweep, JddSweep, Training)}
