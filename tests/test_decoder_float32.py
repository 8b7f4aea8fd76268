"""The turbo decoder on float32 channel LLRs against the float64 decoder.

The decoder computes in the dtype of the channel LLRs it is given, and
the JDD loop hands it float32.  Rounding to float32 changes the last
bits of every branch metric and recursion step, so float32 decoding must
stay within a tolerance declared before it was written, with the float64
decode of the same float64 LLRs as the reference:

- posteriors and extrinsics: |L32 - L64| <= 1e-2 (1 + |L64|);
- equal hard decisions wherever |L64| >= 1e-2;
- no overflow and no invalid operation.

The LLRs are real JDD inputs: 4x4 16-QAM frames through fixed-damping
EP and the demapper, for the first stage and for the second stage fed
back by the float64 decoder, at K = 40 and 64 and at 8, 10 and 12 dB
(E_B/N0, uncoded-referenced, as the benchmark's sweep-jdd points).

The dtype-flow tests pin where float32 enters: `jdd_stage` hands the
decoder float32 LLRs, and the decoder keeps float32 end to end,
including the scaled-max-log weights.
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
from epturbo.turbocode import ScaledDecoderWeights, TurboCodec, _decode_batch

POST_RTOL = 1e-2  # |L32 - L64| <= POST_RTOL (1 + |L64|)
SIGN_FLOOR = 1e-2  # hard decisions must agree where |L64| >= SIGN_FLOOR

NT = NR = 4
MOD_ORDER = 16
DECODER_ITERS = 4
N_FRAMES = 256


@lru_cache(maxsize=None)
def jdd_llrs(k, snr_db):
    """(B, V) float64 channel LLRs of JDD stages 1 and 2, stacked.

    Stage 1 is EP from uniform priors, then the demapper; stage 2 is EP
    and the demapper on the priors that `stage_feedback` makes of the
    float64 max-log decoder's extrinsics, as `jdd_stage` runs them.
    """
    c = Constellation(MOD_ORDER)
    codec = TurboCodec(k=k, decoder="max-log", n_iter=DECODER_ITERS)
    spec = SnrSpec("eb-uncoded", float(snr_db), MOD_ORDER,
                   code_rate=codec.rate)
    rng = np.random.default_rng(1000 * k + int(snr_db))
    _, _, h_r, y_r = codeword_frames(codec, c, "rayleigh", NT, NR, 0.0,
                                     snr_scale(spec, NT, NR), N_FRAMES, rng)
    schedule = DampingSchedule.constant(0.1, 5).raw
    receiver = JddReceiver(codec=codec, constellation=c,
                           schedules=np.tile(schedule, (2, 1)),
                           decoder_iters=DECODER_ITERS)
    n_blocks = frame_geometry(codec, c, NT)[1]
    m = c.n_amplitudes
    ws = EpWorkspace(h_r.reshape(-1, 2 * NR, 2 * NT), y_r.reshape(-1, 2 * NR),
                     REAL_NOISE_VAR,
                     np.full((N_FRAMES * n_blocks, 2 * NT, m), 1.0 / m), c,
                     EpConfig(layers=5))
    stages, ext, pair = [], None, None
    for _ in range(2):
        if ext is not None:
            ws.probs, *pair = stage_feedback(ext, receiver, NT)
        x_ab, v_ab, _ = ws.run(schedule, pair=pair, record=False)
        llr = demap_llr(x_ab, v_ab, ws.probs, c)
        llr_frame = llr.reshape(N_FRAMES, -1)[:, : codec.n_coded]
        assert llr_frame.dtype == np.float64
        stages.append(llr_frame)
        _, _, ext = _decode_batch(llr_frame, codec, want_feedback=True)
    return np.concatenate(stages)


def assert_within_tolerance(got, ref):
    assert np.all(np.isfinite(got))
    err = np.abs(got.astype(np.float64) - ref)
    assert np.max(err / (1.0 + np.abs(ref))) <= POST_RTOL
    sure = np.abs(ref) >= SIGN_FLOOR
    assert np.array_equal(got[sure] < 0, ref[sure] < 0)


@pytest.mark.parametrize("snr_db", [8, 10, 12])
@pytest.mark.parametrize("k", [40, 64])
@pytest.mark.parametrize("decoder", ["max-log", "scaled-max-log", "log"])
def test_float32_decode_within_declared_tolerance(decoder, k, snr_db):
    llrs = jdd_llrs(k, snr_db)
    codec = TurboCodec(k=k, decoder=decoder, n_iter=DECODER_ITERS)
    bits64, post64, ext64 = _decode_batch(llrs, codec, want_feedback=True)
    with np.errstate(over="raise", invalid="raise"):
        bits32, post32, ext32 = _decode_batch(llrs.astype(np.float32), codec,
                                              want_feedback=True)
    assert_within_tolerance(post32, post64)
    assert_within_tolerance(ext32, ext64)
    sure = np.abs(post64) >= SIGN_FLOOR
    assert np.array_equal(bits32[sure], bits64[sure])


@pytest.mark.parametrize("decoder", ["max-log", "scaled-max-log", "log"])
def test_float32_llrs_decode_to_float32_outputs(decoder):
    llrs = jdd_llrs(40, 10)[:16].astype(np.float32)
    codec = TurboCodec(k=40, decoder=decoder, n_iter=2)
    _, post, ext = _decode_batch(llrs, codec, want_feedback=True)
    assert post.dtype == np.float32
    assert ext.dtype == np.float32
    _, post, ext = _decode_batch(llrs.astype(np.float64), codec,
                                 want_feedback=True)
    assert post.dtype == ext.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scaled_with_unit_weights_is_max_log_in_input_dtype(dtype):
    llrs = jdd_llrs(40, 8)[:64].astype(dtype)
    codec = TurboCodec(k=40, decoder="max-log", n_iter=3)
    bits, post, ext = _decode_batch(llrs, codec, want_feedback=True)
    unit = ScaledDecoderWeights(np.ones((3, 2)))
    bits_w, post_w, ext_w = _decode_batch(llrs, codec, weights=unit,
                                          want_feedback=True)
    assert post_w.dtype == ext_w.dtype == dtype
    assert np.array_equal(bits, bits_w)
    assert np.array_equal(post, post_w)
    assert np.array_equal(ext, ext_w)


def test_jdd_stage_hands_the_decoder_float32(monkeypatch):
    seen = []

    def recording_decode(ch_llrs, *args, **kwargs):
        seen.append(ch_llrs.dtype)
        return _decode_batch(ch_llrs, *args, **kwargs)

    monkeypatch.setattr(epdetect, "_decode_batch", recording_decode)
    c = Constellation(MOD_ORDER)
    codec = TurboCodec(k=40, decoder="scaled-max-log", n_iter=2)
    spec = SnrSpec("eb-uncoded", 10.0, MOD_ORDER, code_rate=codec.rate)
    _, _, h_r, y_r = codeword_frames(codec, c, "rayleigh", NT, NR, 0.0,
                                     snr_scale(spec, NT, NR), 8,
                                     np.random.default_rng(3))
    receiver = JddReceiver(
        codec=codec, constellation=c,
        schedules=np.tile(DampingSchedule.constant(0.1, 3).raw, (2, 1)))
    res = jdd_receive_batch(h_r, y_r, receiver)
    assert seen == [np.float32, np.float32]
    assert res.extrinsic_llrs.dtype == np.float32
