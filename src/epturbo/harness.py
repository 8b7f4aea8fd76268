"""Monte Carlo experiment engine: SNR sweeps with error-count stopping.

Every (SNR point, chunk) pair derives its own generator from the master
seed with a counter-based spawn key, so all receiver variants see the
same channels and noise (paired comparison) and results are bit-identical
for any worker count.  Records append to CSV with the fixed column set
``variant,snr_db,bits,bit_errors,frames,frame_errors,seconds``.
"""

import csv
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from .channel import (REAL_NOISE_VAR, SnrSpec, observe, sample_channels,
                      sample_rayleigh, snr_scale)
from .epdetect import (
    DampingSchedule,
    EpConfig,
    JddReceiver,
    _epnet_core,
    _ml_detect_batch,
    bits_from_real_symbols,
    codeword_frames,
    jdd_receive_batch,
)
from .metaopt import ChannelStats, online_train
from .modem import Constellation, demap_llr, map_bits
from .turbocode import TurboCodec

CSV_COLUMNS = ("variant", "snr_db", "bits", "bit_errors", "frames",
               "frame_errors", "seconds")

KNOWN_VARIANTS = ("mmse", "ep", "epnet", "ml", "jdd")
DAMPING_SOURCES = ("fixed", "table", "trained")


@dataclass
class ExperimentConfig:
    """Sweep definition: system geometry, SNR grid, variants, stopping rule."""

    nt: int
    nr: int
    mod_order: int
    snr_grid_db: tuple
    snr_mode: str = "eb-uncoded"
    variants: tuple = ("mmse", "ep")
    channel_kind: str = "rayleigh"
    rho: float = 0.0
    message_len: int = None  # None: uncoded operation
    decoder: str = "max-log"
    decoder_iters: int = 5
    jdd_stages: int = 4
    ep_layers: int = 5
    ep_min_var: float = 5e-7
    fixed_damping: float = 0.1
    damping_source: str = "fixed"  # 'fixed' | 'table' | 'trained'
    damping_table: np.ndarray = None  # raw (stages, layers) when source='table'
    train_epochs: int = 100
    train_samples: int = 5000
    min_bit_errors: int = 200
    max_bits: int = 10_000_000
    chunk_frames: int = 512
    master_seed: int = 1
    workers: int = 1

    def validate(self):
        grid = np.asarray(self.snr_grid_db, dtype=float)
        if grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("SNR grid must be strictly increasing")
        if self.min_bit_errors < 100:
            raise ValueError("minimum bit errors per reported point is 100")
        if self.max_bits < 1:
            raise ValueError("max_bits must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for name in ("nt", "nr", "ep_layers", "jdd_stages", "decoder_iters",
                     "chunk_frames"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0 < self.fixed_damping < 1:
            raise ValueError(
                f"damping value {self.fixed_damping} lies outside (0, 1)")
        for v in self.variants:
            if v not in KNOWN_VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        if self.mod_order not in Constellation.SUPPORTED:
            raise ValueError(f"unsupported modulation order {self.mod_order}")
        if "jdd" in self.variants and self.message_len is None:
            raise ValueError("jdd variant requires message_len")
        if self.damping_source not in DAMPING_SOURCES:
            raise ValueError(f"unknown damping source {self.damping_source!r}")
        if self.damping_source == "table" and self.damping_table is None:
            raise ValueError("table damping source requires a loaded table")
        if self.message_len is not None:
            codec = self.make_codec()
            q2 = Constellation(self.mod_order).bits_per_symbol
            if codec.n_coded % q2:
                raise ValueError(
                    f"codeword length {codec.n_coded} incompatible with Q={q2}"
                )
        return self

    def make_codec(self):
        return TurboCodec(k=self.message_len, decoder=self.decoder,
                          n_iter=self.decoder_iters, seed=self.master_seed)

    def code_rate(self):
        if self.message_len is None:
            return 1.0
        return self.make_codec().rate

    def snr_spec(self, snr_db):
        return SnrSpec(self.snr_mode, float(snr_db), self.mod_order,
                       code_rate=self.code_rate())


@dataclass
class BerRecord:
    variant: str
    snr_db: float
    bits: int
    bit_errors: int
    frames: int
    frame_errors: int
    seconds: float

    @property
    def ber(self):
        return self.bit_errors / self.bits if self.bits else np.nan

    @property
    def fer(self):
        return self.frame_errors / self.frames if self.frames else np.nan


def binomial_ci(errors, trials, z=1.96):
    """Wilson score interval for an error probability."""
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    den = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / den
    half = z * np.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / den
    return max(center - half, 0.0), min(center + half, 1.0)


def _chunk_rng(master_seed, snr_idx, chunk_idx):
    seq = np.random.SeedSequence(master_seed, spawn_key=(snr_idx, chunk_idx))
    return np.random.default_rng(seq)


def _uncoded_chunk(config, scale, rng, n_frames):
    """One chunk of uncoded frames: returns tx bits and the real model."""
    c = Constellation(config.mod_order)
    tx = rng.integers(0, 2, (n_frames, config.nt * c.bits_per_symbol))
    x = map_bits(tx, c)
    h = sample_channels(config.channel_kind, config.nt, config.nr, config.rho,
                        rng, n_frames)
    h *= np.sqrt(scale)
    h_r, y_r = observe(h, x, rng)
    return tx, h_r, y_r, c


def _hard_bits(h_r, y_r, constellation, raw=None, min_var=5e-7):
    """Hard bit decisions (frames, bits) on uncoded frames: exhaustive ML
    when `raw` is None, else EP with that raw damping schedule under
    uniform priors, deciding on the sign of the demapped LLRs."""
    if raw is None:
        xhat = _ml_detect_batch(h_r, y_r, constellation)
        return bits_from_real_symbols(xhat, constellation).reshape(
            h_r.shape[0], -1)
    n_frames, _, n = h_r.shape
    m = constellation.n_amplitudes
    probs = np.full((n_frames, n, m), 1.0 / m)
    x_ab, v_ab, _ = _epnet_core(h_r, y_r, REAL_NOISE_VAR, probs, constellation,
                                raw, EpConfig(layers=raw.size, min_var=min_var),
                                record=False)
    llr = demap_llr(x_ab, v_ab, probs, constellation)
    return (llr.reshape(n_frames, -1) < 0).astype(np.int64)


class _UncodedDetector:
    """mmse / ep / epnet / ml over independent uncoded frames."""

    def __init__(self, kind, schedule_raw=None):
        self.kind = kind
        self.schedule_raw = schedule_raw

    def run_chunk(self, config, scale, rng, n_frames):
        tx, h_r, y_r, c = _uncoded_chunk(config, scale, rng, n_frames)
        if self.kind == "ml":
            raw = None
        elif self.kind == "mmse":
            raw = np.zeros(1)
        else:
            raw = self.schedule_raw
        rx = _hard_bits(h_r, y_r, c, raw, config.ep_min_var)
        bit_errors = rx != tx
        return {
            self.kind: (
                tx.size,
                int(bit_errors.sum()),
                n_frames,
                int(bit_errors.any(axis=1).sum()),
            )
        }


class _JddVariant:
    """Full turbo receiver; reports one sub-record per stage."""

    def __init__(self, receiver):
        self.receiver = receiver

    def run_chunk(self, config, scale, rng, n_frames):
        rx_cfg = self.receiver
        msgs, _, h_r, y_r = codeword_frames(
            rx_cfg.codec, rx_cfg.constellation, config.channel_kind, config.nt,
            config.nr, config.rho, scale, n_frames, rng)
        res = jdd_receive_batch(h_r, y_r, rx_cfg)
        out = {}
        for i in range(rx_cfg.n_stages):
            wrong = res.bits_per_stage[i] != msgs
            out[f"jdd-s{i + 1}"] = (
                msgs.size,
                int(wrong.sum()),
                n_frames,
                int(wrong.any(axis=1).sum()),
            )
        return out


def _fixed_schedule(config):
    return DampingSchedule.constant(config.fixed_damping, config.ep_layers).raw


def _receiver(config, snr_idx, snr_db, theta, codec=None):
    """One SNR point's receiver: EPNet's one stage without a codec, the
    `jdd_stages`-stage JDD loop with one.

    Fixed damping puts `fixed_damping` at every layer; a table gives the
    schedules (EPNet reads its first row); trained damping runs
    `online_train` on data drawn from the channel statistics, starting
    from the fixed-EP damping for EPNet and from raw 1.0 (effective 0.73)
    for JDD.  Returns (receiver, loss curves): one curve per trained
    stage, none for fixed or table damping.
    """
    stages = 1 if codec is None else config.jdd_stages
    sched = np.tile(_fixed_schedule(config), (stages, 1))
    if config.damping_source == "table":
        sched = np.asarray(config.damping_table)
        if codec is None and sched.ndim == 2:
            sched = sched[:1]
        if sched.shape != (stages, config.ep_layers):
            raise ValueError("damping table shape does not match receiver")
    elif config.damping_source != "fixed" and codec is not None:
        sched = np.ones_like(sched)
    receiver = JddReceiver(
        codec=codec, constellation=Constellation(config.mod_order),
        schedules=sched,
        config=EpConfig(layers=config.ep_layers, min_var=config.ep_min_var))
    if config.damping_source in ("fixed", "table"):
        return receiver, []
    if theta is None:
        raise ValueError("trained damping source requires optimizer weights")
    seed = np.random.SeedSequence(config.master_seed, spawn_key=(snr_idx, 1 << 30))
    stats = ChannelStats(
        nt=config.nt, nr=config.nr, mod_order=config.mod_order,
        snr=config.snr_spec(snr_db), kind=config.channel_kind, rho=config.rho,
        n_samples=config.train_samples, seed=seed.generate_state(1)[0])
    return online_train(receiver, stats, theta, epochs=config.train_epochs)


def _jdd_receiver(config, snr_idx, snr_db, theta):
    return _receiver(config, snr_idx, snr_db, theta, config.make_codec())[0]


def _build_variant(config, name, snr_idx, snr_db, theta):
    if name == "mmse":
        return _UncodedDetector("mmse")
    if name == "ep":
        return _UncodedDetector("ep", _fixed_schedule(config))
    if name == "epnet":
        receiver, _ = _receiver(config, snr_idx, snr_db, theta)
        return _UncodedDetector("epnet", receiver.schedules[0])
    if name == "ml":
        return _UncodedDetector("ml")
    if name == "jdd":
        return _JddVariant(_jdd_receiver(config, snr_idx, snr_db, theta))
    raise ValueError(f"unknown variant {name!r}")


def _sub_variant_key(name):
    """Order sub-variants by name, then numerically by a `-s<stage>` suffix."""
    m = re.fullmatch(r"(.*)-s(\d+)", name)
    return (m.group(1), int(m.group(2))) if m else (name, 0)


def _chunk_task(args):
    config, variant, scale, master_seed, snr_idx, chunk_idx, n_frames = args
    rng = _chunk_rng(master_seed, snr_idx, chunk_idx)
    return variant.run_chunk(config, scale, rng, n_frames)


def run_sweep(config, theta=None, extra_variants=None):
    """Execute the sweep; returns BerRecord rows in deterministic order.

    `extra_variants` maps a name to an object with run_chunk(config,
    scale, rng, n_frames) -> {subname: (bits, errs, frames, ferrs)}; the
    hook exists for calibration variants in tests.
    """
    config.validate()
    records = []
    pool = None
    if config.workers > 1:
        # imported here: a serial sweep or CLI start-up should not pay for
        # loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=config.workers)
    try:
        for snr_idx, snr_db in enumerate(config.snr_grid_db):
            scale = snr_scale(config.snr_spec(snr_db), config.nt, config.nr)
            names = list(config.variants)
            built = {n: _build_variant(config, n, snr_idx, snr_db, theta)
                     for n in names}
            if extra_variants:
                built.update(extra_variants)
                names += [n for n in extra_variants if n not in names]
            for name in names:
                variant = built[name]
                t0 = time.perf_counter()
                totals = {}
                chunk_idx = 0
                done = False
                # fixed stop-check granularity keeps results identical for
                # every worker count
                batch = 4
                while not done:
                    args = [
                        (config, variant, scale, config.master_seed, snr_idx,
                         chunk_idx + j, config.chunk_frames)
                        for j in range(batch)
                    ]
                    chunk_idx += batch
                    if pool is not None:
                        results = list(pool.map(_chunk_task, args))
                    else:
                        results = [_chunk_task(a) for a in args]
                    for res in results:
                        for sub, (bits, errs, frames, ferrs) in res.items():
                            agg = totals.setdefault(sub, [0, 0, 0, 0])
                            agg[0] += bits
                            agg[1] += errs
                            agg[2] += frames
                            agg[3] += ferrs
                    # stop on the sub-variant with the fewest errors, so
                    # every sub-record has at least as many
                    fewest = min(totals.values(), key=lambda agg: agg[1])
                    done = (fewest[1] >= config.min_bit_errors
                            or fewest[0] >= config.max_bits)
                elapsed = time.perf_counter() - t0
                for sub in sorted(totals, key=_sub_variant_key):
                    bits, errs, frames, ferrs = totals[sub]
                    records.append(BerRecord(sub, float(snr_db), bits, errs,
                                             frames, ferrs, elapsed))
    finally:
        if pool is not None:
            pool.shutdown()
    return records


def write_records(path, records, append=True):
    """Append records to the CSV artifact, writing the header only once."""
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    mode = "a" if (append and exists) else "w"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.variant, f"{r.snr_db:g}", r.bits, r.bit_errors,
                             r.frames, r.frame_errors, f"{r.seconds:.3f}"])


def read_records(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError("unexpected CSV columns")
        for row in reader:
            records.append(BerRecord(
                row["variant"], float(row["snr_db"]), int(row["bits"]),
                int(row["bit_errors"]), int(row["frames"]),
                int(row["frame_errors"]), float(row["seconds"]),
            ))
    return records


@dataclass
class OracleConfig:
    """Paired EPNet-vs-ML comparison on an ML-tractable instance."""

    nt: int = 2
    nr: int = 2
    mod_order: int = 4
    es_n0_db: float = 12.0
    n_frames: int = 10_000
    ep_layers: int = 5
    schedule_raw: np.ndarray = None  # defaults to fixed 0.1 damping
    min_var: float = 5e-7
    seed: int = 0

    def validate(self):
        if self.mod_order**self.nt > 1 << 20:
            raise ValueError("instance too large for the ML oracle")
        return self


def compare_oracle(oracle_config):
    """Frame-paired comparison of EPNet and ML hard decisions.

    Returns a report dict with the bit-level agreement rate and both BER
    estimates over the shared channel realizations.
    """
    cfg = oracle_config.validate()
    rng = np.random.default_rng(cfg.seed)
    c = Constellation(cfg.mod_order)
    q2 = c.bits_per_symbol
    scale = snr_scale(cfg.es_n0_db, cfg.nt, cfg.nr)
    raw = (cfg.schedule_raw if cfg.schedule_raw is not None
           else DampingSchedule.constant(0.1, cfg.ep_layers).raw)
    agree = total = ep_err = ml_err = 0
    chunk = 4096
    left = cfg.n_frames
    while left > 0:
        n = min(chunk, left)
        left -= n
        tx = rng.integers(0, 2, (n, cfg.nt * q2))
        h = sample_rayleigh(cfg.nt, cfg.nr, rng, size=n)
        h *= np.sqrt(scale)
        h_r, y_r = observe(h, map_bits(tx, c), rng)
        ep_bits = _hard_bits(h_r, y_r, c, raw, cfg.min_var)
        ml_bits = _hard_bits(h_r, y_r, c)
        agree += int((ep_bits == ml_bits).sum())
        total += ep_bits.size
        ep_err += int((ep_bits != tx).sum())
        ml_err += int((ml_bits != tx).sum())
    return {
        "agreement": agree / total,
        "epnet_ber": ep_err / total,
        "ml_ber": ml_err / total,
        "bits": total,
        "frames": cfg.n_frames,
    }
