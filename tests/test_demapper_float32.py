"""The soft demapper's float32 LLRs against its float64 LLRs.

`demap_llr(..., dtype=np.float32)` runs the demapper's LLR arithmetic in
float32, and the JDD loop hands those LLRs to the float32 decoder.  The
rounding moves the last bits of every LLR, so float32 demapping must
stay within a tolerance declared before it was written, with the
float64 demapping of the same cavity moments and priors as the
reference:

- |L32 - L64| <= 1e-3 (1 + |L64|);
- equal signs wherever |L64| >= 1e-2;
- no overflow and no invalid operation.

The inputs are:

- real JDD cavities and priors: 4x4 frames through fixed-damping EP at
  stages 1-4, each later stage fed back by the scaled max-log decoder,
  for 16-QAM at 8, 10 and 12 dB (E_B/N0, uncoded-referenced, as the
  benchmark's sweep-jdd points), QPSK and 64-QAM;
- cavities at the detector's variance floor, 5e-7, with means within
  1e-4 of a decision boundary, where an LLR is the small difference of
  two large Gaussian exponents;
- one-hot priors, priors with zeroed amplitudes, and uniform priors.

The dtype-flow test pins where float32 enters: `jdd_stage` asks the
demapper for float32 LLRs and hands them to the decoder uncast.
"""

from functools import lru_cache

import numpy as np
import pytest

from epturbo import epdetect
from epturbo.channel import REAL_NOISE_VAR, SnrSpec, snr_scale
from epturbo.epdetect import (
    DampingSchedule,
    EpConfig,
    EpWorkspace,
    JddReceiver,
    codeword_frames,
    frame_geometry,
    jdd_receive_batch,
    stage_feedback,
)
from epturbo.modem import Constellation, demap_llr
from epturbo.turbocode import TurboCodec, _decode_batch

LLR_RTOL = 1e-3  # |L32 - L64| <= LLR_RTOL (1 + |L64|)
SIGN_FLOOR = 1e-2  # signs must agree where |L64| >= SIGN_FLOOR

NT = NR = 4
STAGES = 4
N_FRAMES = 128
MIN_VAR = EpConfig().min_var

# (order, E_B/N0 in dB, K): K = 60 for 64-QAM, whose 6 bits per symbol
# do not divide K = 64's 140 coded bits
JDD_CASES = [(16, 8, 64), (16, 10, 64), (16, 12, 64), (4, 4, 64),
             (64, 14, 60)]


@lru_cache(maxsize=None)
def jdd_cavities(order, snr_db, k):
    """[(cavity mean, cavity variance, prior probs)] of JDD stages 1-4.

    Each stage runs as `jdd_stage` runs it: EP from uniform priors, or
    from the priors `stage_feedback` makes of the previous stage's
    decoder extrinsics, then the float64 demapper and the float32
    decoder.
    """
    c = Constellation(order)
    codec = TurboCodec(k=k, decoder="scaled-max-log", n_iter=4)
    spec = SnrSpec("eb-uncoded", float(snr_db), order, code_rate=codec.rate)
    rng = np.random.default_rng(100 * order + snr_db)
    _, _, h_r, y_r = codeword_frames(codec, c, "rayleigh", NT, NR, 0.0,
                                     snr_scale(spec, NT, NR), N_FRAMES, rng)
    schedule = DampingSchedule.constant(0.1, 5).raw
    receiver = JddReceiver(codec=codec, constellation=c,
                           schedules=np.tile(schedule, (STAGES, 1)))
    n_blocks = frame_geometry(codec, c, NT)[1]
    m = c.n_amplitudes
    ws = EpWorkspace(h_r.reshape(-1, 2 * NR, 2 * NT), y_r.reshape(-1, 2 * NR),
                     REAL_NOISE_VAR, c, MIN_VAR)
    probs = np.full((N_FRAMES * n_blocks, 2 * NT, m), 1.0 / m)
    pair = receiver.config.initial_pair(ws.batch, ws.n_dims)
    stages, ext = [], None
    for _ in range(STAGES):
        if ext is not None:
            probs, *pair = stage_feedback(ext, receiver, NT)
        x_ab, v_ab, _ = ws.run(schedule, probs=probs, pair=pair, record=False)
        stages.append((x_ab, v_ab, probs))
        llr = demap_llr(x_ab, v_ab, probs, c).reshape(N_FRAMES, -1)
        _, _, ext = _decode_batch(llr[:, : codec.n_coded].astype(np.float32),
                                  codec, want_feedback=True)
    return stages


def assert_within_contract(mean, var, probs, c):
    with np.errstate(over="raise", invalid="raise"):
        ref = demap_llr(mean, var, probs, c)
        got = demap_llr(mean, var, probs, c, dtype=np.float32)
    assert got.dtype == np.float32
    assert got.shape == ref.shape
    assert np.all(np.isfinite(got))
    err = np.abs(got.astype(np.float64) - ref)
    assert np.max(err / (1.0 + np.abs(ref))) <= LLR_RTOL
    sure = np.abs(ref) >= SIGN_FLOOR
    assert np.array_equal(got[sure] < 0, ref[sure] < 0)


def boundaries(c):
    """Midpoints between adjacent amplitudes: every bit's decision
    boundaries on a rail."""
    amps = np.sort(c.amplitudes)
    return (amps[1:] + amps[:-1]) / 2.0


def random_priors(rng, shape, m):
    p = rng.dirichlet(np.full(m, 0.5), size=shape)
    return p / p.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("stage", range(STAGES))
@pytest.mark.parametrize("order, snr_db, k", JDD_CASES)
def test_jdd_stage_cavities(order, snr_db, k, stage):
    mean, var, probs = jdd_cavities(order, snr_db, k)[stage]
    assert_within_contract(mean, var, probs, Constellation(order))


@pytest.mark.parametrize("prior_kind", ["uniform", "random", "one-hot"])
@pytest.mark.parametrize("order", [4, 16, 64])
def test_variance_floor_near_decision_boundaries(order, prior_kind):
    c = Constellation(order)
    m = c.n_amplitudes
    rng = np.random.default_rng(7 * order + len(prior_kind))
    shape = (512, 8)
    mean = rng.choice(boundaries(c), size=shape)
    mean += rng.uniform(-1e-4, 1e-4, size=shape)
    var = np.full(shape, MIN_VAR)
    if prior_kind == "uniform":
        probs = np.full(shape + (m,), 1.0 / m)
    elif prior_kind == "random":
        probs = random_priors(rng, shape, m)
    else:
        probs = np.eye(m)[rng.integers(0, m, size=shape)]
    assert_within_contract(mean, var, probs, c)


@pytest.mark.parametrize("prior_kind", ["one-hot", "zeroed", "uniform"])
@pytest.mark.parametrize("order", [4, 16, 64])
def test_extreme_and_uniform_priors(order, prior_kind):
    c = Constellation(order)
    m = c.n_amplitudes
    rng = np.random.default_rng(11 * order + len(prior_kind))
    shape = (64, 8)
    mean = rng.uniform(-1.5, 1.5, size=shape)
    # from the detector's floor to a flat cavity
    var = np.exp(rng.uniform(np.log(MIN_VAR), np.log(10.0), size=shape))
    if prior_kind == "one-hot":
        probs = np.eye(m)[rng.integers(0, m, size=shape)]
    elif prior_kind == "zeroed":
        probs = random_priors(rng, shape, m)
        probs[rng.random(shape + (m,)) < 0.5] = 0.0
        # a row with no amplitude left keeps its first one
        probs[probs.sum(axis=-1) == 0.0, 0] = 1.0
        probs /= probs.sum(axis=-1, keepdims=True)
    else:
        probs = np.full(shape + (m,), 1.0 / m)
    assert_within_contract(mean, var, probs, c)
    # one unbatched dimension set, as `demap_llr` takes a single frame
    assert_within_contract(mean[0], var[0], probs[0], c)


def test_jdd_stage_demaps_in_float32_for_the_decoder(monkeypatch):
    demapped, decoded = [], []

    def recording_demap(*args, **kwargs):
        llr = demap_llr(*args, **kwargs)
        demapped.append((kwargs.get("dtype"), llr))
        return llr

    def recording_decode(ch_llrs, *args, **kwargs):
        decoded.append(ch_llrs)
        return _decode_batch(ch_llrs, *args, **kwargs)

    monkeypatch.setattr(epdetect, "demap_llr", recording_demap)
    monkeypatch.setattr(epdetect, "_decode_batch", recording_decode)
    c = Constellation(16)
    codec = TurboCodec(k=40, decoder="scaled-max-log", n_iter=2)
    spec = SnrSpec("eb-uncoded", 10.0, 16, code_rate=codec.rate)
    _, _, h_r, y_r = codeword_frames(codec, c, "rayleigh", NT, NR, 0.0,
                                     snr_scale(spec, NT, NR), 8,
                                     np.random.default_rng(3))
    receiver = JddReceiver(
        codec=codec, constellation=c,
        schedules=np.tile(DampingSchedule.constant(0.1, 3).raw, (2, 1)))
    jdd_receive_batch(h_r, y_r, receiver)
    assert [dtype for dtype, _ in demapped] == [np.float32, np.float32]
    assert [llr.dtype for llr in decoded] == [np.float32, np.float32]
    for (_, llr), ch_llrs in zip(demapped, decoded):
        # the decoder reads the demapper's own LLRs, filler dropped
        assert np.shares_memory(llr, ch_llrs)
        assert np.array_equal(llr.reshape(8, -1)[:, : codec.n_coded], ch_llrs)
