"""`epdetect.codeword_frames` against the two framing loops it replaced.

The sweep (`harness._JddVariant.run_chunk`) encoded one frame at a time
and appended its filler bits; JDD training (`metaopt._codeword_training_set`)
encoded the whole batch and then drew the filler per frame.  Both are
kept below as they were written, and `codeword_frames` must give the
same messages, symbols, channels and observations as each, bit for bit,
and leave the generator in the same state.
"""

import numpy as np
import pytest

from epturbo.channel import SnrSpec, observe, sample_channels, snr_scale
from epturbo.epdetect import JddReceiver, codeword_frames, frame_geometry
from epturbo.metaopt import ChannelStats, _codeword_training_set
from epturbo.modem import Constellation, map_bits
from epturbo.turbocode import TurboCodec, encode


def sweep_reference(codec, c, kind, nt, nr, rho, scale, n_frames, rng):
    """The sweep's framing: per-frame encode, then its filler."""
    _, n_blocks, filler = frame_geometry(codec, c, nt)
    q2 = c.bits_per_symbol
    msgs = rng.integers(0, 2, (n_frames, codec.k))
    tx = np.empty((n_frames, n_blocks * nt * q2), dtype=np.int64)
    for f in range(n_frames):
        cw = encode(msgs[f], codec)
        tx[f] = np.concatenate([cw, rng.integers(0, 2, filler * q2)])
    syms = map_bits(tx, c).reshape(n_frames, n_blocks, nt)
    h = sample_channels(kind, nt, nr, rho, rng, n_frames * n_blocks)
    h = np.sqrt(scale) * h.reshape(n_frames, n_blocks, nr, nt)
    return (msgs, syms, *observe(h, syms, rng))


def training_reference(codec, c, kind, nt, nr, rho, scale, b, rng):
    """The training set's framing: batch encode, then filler per frame."""
    n_sym, n_blocks, filler = frame_geometry(codec, c, nt)
    q2 = c.bits_per_symbol
    msgs = rng.integers(0, 2, (b, codec.k))
    tx = np.empty((b, n_blocks * nt * q2), dtype=np.int64)
    tx[:, : codec.n_coded] = encode(msgs, codec)
    for f in range(b):
        tx[f, codec.n_coded :] = rng.integers(0, 2, filler * q2)
    syms = map_bits(tx, c).reshape(b, n_blocks, nt)
    h = sample_channels(kind, nt, nr, rho, rng, b * n_blocks)
    h = np.sqrt(scale) * h.reshape(b, n_blocks, nr, nt)
    h_r, y_r = observe(h, syms, rng)
    return msgs, syms, h_r, y_r


# (nt, nr, mod_order, K): 3 x 4 16-QAM at K = 40 sends 23 symbols in 8
# blocks with 1 filler symbol; 2 x 2 QPSK at K = 40 fills 23 blocks
GEOMETRIES = [(3, 4, 16, 40), (2, 2, 4, 40)]
CHANNELS = [("rayleigh", 0.0), ("correlated", 0.5)]


def frames_and_next_draw(fn, args, seed):
    rng = np.random.default_rng(seed)
    return fn(*args, rng), rng.integers(0, 1 << 30, 4)


@pytest.mark.parametrize("kind, rho", CHANNELS)
@pytest.mark.parametrize("nt, nr, order, k", GEOMETRIES)
@pytest.mark.parametrize("reference", [sweep_reference, training_reference])
def test_codeword_frames_match_reference(reference, nt, nr, order, k, kind,
                                         rho):
    codec = TurboCodec(k=k, decoder="max-log", n_iter=2, seed=3)
    c = Constellation(order)
    args = (codec, c, kind, nt, nr, rho, 2.5, 7)
    seed = [nt, order, len(kind)]
    got, got_next = frames_and_next_draw(codeword_frames, args, seed)
    want, want_next = frames_and_next_draw(reference, args, seed)
    for name, a, b in zip(("msgs", "syms", "h_r", "y_r"), got, want):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert np.array_equal(got_next, want_next)
    msgs, syms, h_r, _ = got
    n_sym, n_blocks, _ = frame_geometry(codec, c, nt)
    assert msgs.shape == (7, k)
    assert syms.shape == (7, n_blocks, nt)
    assert h_r.shape == (7, n_blocks, 2 * nr, 2 * nt)


def test_geometries_cover_filler_and_none():
    fillers = [frame_geometry(TurboCodec(k=k), Constellation(order), nt)
               for nt, _, order, k in GEOMETRIES]
    assert fillers == [(23, 8, 1), (46, 23, 0)]


@pytest.mark.parametrize("kind, rho", CHANNELS)
def test_training_set_is_the_framing_of_its_statistics(kind, rho):
    nt, nr, order, k = GEOMETRIES[0]
    codec = TurboCodec(k=k, decoder="max-log", n_iter=2, seed=3)
    c = Constellation(order)
    rx = JddReceiver(codec=codec, constellation=c, schedules=np.ones((2, 3)))
    spec = SnrSpec("eb-coded", 5.0, order, code_rate=codec.rate)
    stats = ChannelStats(nt=nt, nr=nr, mod_order=order, snr=spec, kind=kind,
                         rho=rho, n_samples=6)
    h_r, y_r, x_r, msgs = _codeword_training_set(
        rx, stats, np.random.default_rng(8))
    want = training_reference(codec, c, kind, nt, nr, rho,
                              snr_scale(spec, nt, nr), 6,
                              np.random.default_rng(8))
    for a, b in zip((msgs, h_r, y_r), (want[0], want[2], want[3])):
        assert np.array_equal(a, b)
    assert np.array_equal(x_r, np.concatenate([want[1].real, want[1].imag],
                                              axis=-1))


@pytest.mark.parametrize("n_frames", [1, 7, 512])
def test_one_filler_draw_equals_a_draw_per_frame(n_frames):
    # `codeword_frames` draws every frame's filler bits in one call; the
    # framings above drew them frame by frame
    for size in range(34):
        per_frame = np.random.default_rng([size, n_frames])
        batched = np.random.default_rng([size, n_frames])
        want = np.array([per_frame.integers(0, 2, size)
                         for _ in range(n_frames)]).reshape(n_frames, size)
        got = batched.integers(0, 2, (n_frames, size))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), size
        assert batched.bit_generator.state == per_frame.bit_generator.state


# a sweep chunk is 512 frames
@pytest.mark.parametrize("n_frames", [1, 512])
@pytest.mark.parametrize("nt, nr, order, k", GEOMETRIES)
def test_codeword_frames_match_sweep_framing_at_chunk_sizes(nt, nr, order, k,
                                                             n_frames):
    codec = TurboCodec(k=k, decoder="max-log", n_iter=2, seed=3)
    args = (codec, Constellation(order), "rayleigh", nt, nr, 0.0, 2.5,
            n_frames)
    got, got_next = frames_and_next_draw(codeword_frames, args, n_frames)
    want, want_next = frames_and_next_draw(sweep_reference, args, n_frames)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(got_next, want_next)
