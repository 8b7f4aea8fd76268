"""Sweep CSV rows pinned under fixed seeds.

Small seeded sweeps of the uncoded mmse/ep detectors (16- and 64-QAM,
i.i.d. and correlated channels), of a 2-stage JDD receiver, and of EPNet
and JDD with online-trained damping, with their rows (all CSV columns
but `seconds`) written down from an earlier build.  A change that claims
bit-identical detection, demapping or decoding must leave them as they
are; a change that means to move the numbers updates them and says why.
"""

import pytest

from epturbo.harness import ExperimentConfig, run_sweep

SWEEPS = {
    "uncoded-16qam": dict(
        nt=4, nr=4, mod_order=16, snr_grid_db=(8.0, 12.0, 16.0),
        variants=("mmse", "ep"), min_bit_errors=400, max_bits=65536,
        chunk_frames=128, master_seed=11),
    "uncoded-64qam": dict(
        nt=2, nr=2, mod_order=64, snr_grid_db=(16.0, 22.0),
        variants=("mmse", "ep"), min_bit_errors=300, max_bits=49152,
        chunk_frames=128, master_seed=12),
    "jdd-2-stage": dict(
        nt=2, nr=2, mod_order=16, snr_grid_db=(4.0, 6.0, 8.0),
        variants=("jdd",), message_len=40, decoder="scaled-max-log",
        decoder_iters=2, jdd_stages=2, ep_layers=3, min_bit_errors=100,
        max_bits=40960, chunk_frames=128, master_seed=13),
    "uncoded-correlated": dict(
        nt=4, nr=4, mod_order=16, snr_grid_db=(10.0, 16.0),
        variants=("mmse", "ep"), channel_kind="correlated", rho=0.5,
        min_bit_errors=600, max_bits=65536, chunk_frames=128,
        master_seed=14),
}

# sweeps whose damping is trained online at each SNR point with the
# shipped optimizer
TRAINED_SWEEPS = {
    "epnet-trained": dict(
        nt=4, nr=4, mod_order=16, snr_grid_db=(10.0, 14.0),
        variants=("ep", "epnet"), damping_source="trained",
        train_samples=512, train_epochs=10, min_bit_errors=400,
        max_bits=32768, chunk_frames=128, master_seed=15),
    "jdd-2-stage-trained": dict(
        nt=2, nr=2, mod_order=16, snr_grid_db=(4.0, 6.0, 8.0),
        variants=("jdd",), message_len=40, decoder="scaled-max-log",
        decoder_iters=2, jdd_stages=2, ep_layers=3,
        damping_source="trained", train_samples=128, train_epochs=6,
        min_bit_errors=100, max_bits=40960, chunk_frames=128,
        master_seed=16),
}

# (variant, snr_db, bits, bit_errors, frames, frame_errors)
ROWS = {
    "uncoded-16qam": [
        ("mmse", 8.0, 8192, 1041, 512, 398),
        ("ep", 8.0, 8192, 751, 512, 325),
        ("mmse", 12.0, 8192, 521, 512, 260),
        ("ep", 12.0, 16384, 487, 1024, 223),
        ("mmse", 16.0, 16384, 575, 1024, 286),
        ("ep", 16.0, 65536, 458, 4096, 178),
    ],
    "uncoded-64qam": [
        ("mmse", 16.0, 12288, 510, 1024, 297),
        ("ep", 16.0, 12288, 416, 1024, 233),
        ("mmse", 22.0, 24576, 311, 2048, 183),
        ("ep", 22.0, 43008, 363, 3584, 182),
    ],
    "jdd-2-stage": [
        ("jdd-s1", 4.0, 20480, 3856, 512, 446),
        ("jdd-s2", 4.0, 20480, 3620, 512, 428),
        ("jdd-s1", 6.0, 20480, 2398, 512, 351),
        ("jdd-s2", 6.0, 20480, 2120, 512, 295),
        ("jdd-s1", 8.0, 20480, 932, 512, 146),
        ("jdd-s2", 8.0, 20480, 551, 512, 86),
    ],
    "uncoded-correlated": [
        ("mmse", 10.0, 8192, 1148, 512, 414),
        ("ep", 10.0, 8192, 808, 512, 332),
        ("mmse", 16.0, 16384, 946, 1024, 449),
        ("ep", 16.0, 32768, 714, 2048, 279),
    ],
    "epnet-trained": [
        ("ep", 10.0, 8192, 491, 512, 219),
        ("epnet", 10.0, 8192, 462, 512, 204),
        ("ep", 14.0, 24576, 437, 1536, 183),
        ("epnet", 14.0, 24576, 402, 1536, 162),
    ],
    "jdd-2-stage-trained": [
        ("jdd-s1", 4.0, 20480, 3633, 512, 451),
        ("jdd-s2", 4.0, 20480, 3467, 512, 420),
        ("jdd-s1", 6.0, 20480, 2275, 512, 316),
        ("jdd-s2", 6.0, 20480, 1915, 512, 260),
        ("jdd-s1", 8.0, 20480, 822, 512, 134),
        ("jdd-s2", 8.0, 20480, 512, 512, 81),
    ],
}


def _rows(records):
    return [(r.variant, r.snr_db, r.bits, r.bit_errors, r.frames,
             r.frame_errors) for r in records]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_rows_are_pinned(name):
    assert _rows(run_sweep(ExperimentConfig(**SWEEPS[name]))) == ROWS[name]


@pytest.mark.parametrize("name", sorted(TRAINED_SWEEPS))
def test_trained_sweep_rows_are_pinned(name, shipped_theta):
    records = run_sweep(ExperimentConfig(**TRAINED_SWEEPS[name]),
                        theta=shipped_theta)
    assert _rows(records) == ROWS[name]
