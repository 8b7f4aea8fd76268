"""The chunk front end and the EP workspace's H^T H, bit for bit.

The `reference_*` functions are verbatim copies of the former bodies of
`channel.real_embedding` (`np.block`), the two `a + 1j * b` assemblies
of `channel.sample_rayleigh` and `channel._receive`,
`Constellation.amp_indices` (a weighted sum over the bit axis),
`modem.map_bits` and `EpWorkspace.__init__` (one full "irb,jrb->ijb"
einsum for H^T H).  Every product and sum of those bodies is an exact
operation or is kept in the same order, so the library's outputs must
be equal to them, not merely close, and the generator must be left in
the same state after the draws.
"""

import numpy as np
import pytest

from epturbo.channel import (REAL_NOISE_VAR, _exp_corr_sqrt, _receive,
                             observe, real_embedding, sample_channels,
                             sample_rayleigh, snr_scale)
from epturbo.epdetect import EpWorkspace, codeword_frames, frame_geometry
from epturbo.harness import ExperimentConfig, _uncoded_chunk
from epturbo.metaopt import ChannelStats, generate_training_set
from epturbo.modem import Constellation, map_bits
from epturbo.turbocode import TurboCodec, encode


def reference_real_embedding(h, y):
    h_r = np.block([[h.real, -h.imag], [h.imag, h.real]])
    y_r = np.concatenate([y.real, y.imag], axis=-1)
    return h_r, y_r


def reference_sample_rayleigh(nt, nr, rng, size):
    shape = (size, nr, nt)
    h = rng.normal(scale=np.sqrt(0.5 / nr), size=shape + (2,))
    return h[..., 0] + 1j * h[..., 1]


def reference_sample_correlated(nt, nr, corr_coeff, rng, size):
    hiid = reference_sample_rayleigh(nt, nr, rng, size)
    a = _exp_corr_sqrt(nr, corr_coeff)
    b = _exp_corr_sqrt(nt, corr_coeff)
    return np.einsum("ij,bjk,kl->bil", a, hiid, b)


def reference_sample_channels(kind, nt, nr, rho, rng, size):
    if kind == "rayleigh":
        return reference_sample_rayleigh(nt, nr, rng, size)
    return reference_sample_correlated(nt, nr, rho, rng, size)


def reference_receive(h, x, rng):
    noise = rng.normal(scale=np.sqrt(REAL_NOISE_VAR),
                       size=x.shape[:-1] + (h.shape[-2], 2))
    return np.einsum("...ij,...j->...i", h, x) + noise[..., 0] + 1j * noise[..., 1]


def reference_observe(h, x, rng):
    return reference_real_embedding(h, reference_receive(h, x, rng))


def reference_amp_indices(constellation, bits):
    bits = np.asarray(bits)
    weights = 1 << np.arange(constellation.bits_per_dim - 1, -1, -1)
    label_int = (bits * weights).sum(axis=-1)
    return constellation._amp_index_of_label[label_int]


def reference_map_bits(bits, constellation):
    bits = np.asarray(bits)
    q2 = constellation.bits_per_symbol
    groups = bits.reshape(*bits.shape[:-1], -1, q2)
    q = constellation.bits_per_dim
    idx_i = reference_amp_indices(constellation, groups[..., :q])
    idx_q = reference_amp_indices(constellation, groups[..., q:])
    amps = constellation.amplitudes
    return amps[idx_i] + 1j * amps[idx_q]


def reference_hth(h_r, noise_var):
    batch, _, n = h_r.shape
    h_t = np.ascontiguousarray(h_r.transpose(2, 1, 0))
    hth = np.einsum("irb,jrb->ijb", h_t, h_t, out=np.empty((n, n, batch)))
    hth /= noise_var
    return np.moveaxis(hth, -1, 0)


def assert_same(a, b):
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


# (leading batch shape, nr, nt): a single entry, nr != nt with an odd
# batch, the sweep-uncoded chunk, and a JDD chunk of 5 frames x 9 blocks
SHAPES = [((1,), 1, 1), ((7,), 3, 2), ((512,), 8, 8), ((5, 9), 4, 4)]


def complex_channels(rng, lead, nr, nt):
    return rng.normal(size=lead + (nr, nt)) + 1j * rng.normal(size=lead + (nr, nt))


@pytest.mark.parametrize("lead,nr,nt", SHAPES)
def test_real_embedding_equals_block(lead, nr, nt):
    rng = np.random.default_rng(1801)
    h = complex_channels(rng, lead, nr, nt)
    y = rng.normal(size=lead + (nr,)) + 1j * rng.normal(size=lead + (nr,))
    h_r, y_r = real_embedding(h, y)
    ref_h, ref_y = reference_real_embedding(h, y)
    assert_same(h_r, ref_h)
    assert_same(y_r, ref_y)
    assert h_r.flags.c_contiguous and y_r.flags.c_contiguous


@pytest.mark.parametrize("kind", ["rayleigh", "correlated"])
@pytest.mark.parametrize("lead,nr,nt", SHAPES)
def test_channel_draws_and_generator_state(kind, lead, nr, nt):
    size = int(np.prod(lead))
    rng, ref_rng = rng_pair(1802)
    h = sample_channels(kind, nt, nr, 0.5, rng, size)
    ref = reference_sample_channels(kind, nt, nr, 0.5, ref_rng, size)
    assert_same(h, ref)
    assert h.flags.c_contiguous
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_single_rayleigh_channel_and_generator_state():
    rng, ref_rng = rng_pair(1803)
    ch = sample_rayleigh(2, 3, rng)
    assert_same(ch.h, reference_sample_rayleigh(2, 3, ref_rng, 1)[0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("lead,nr,nt", SHAPES)
def test_observe_and_generator_state(lead, nr, nt):
    rng = np.random.default_rng(1804)
    h = complex_channels(rng, lead, nr, nt)
    x = rng.normal(size=lead + (nt,)) + 1j * rng.normal(size=lead + (nt,))
    rng, ref_rng = rng_pair(1805)
    y = _receive(h, x, rng)
    assert_same(y, reference_receive(h, x, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for got, want in zip(observe(h, x, rng), reference_observe(h, x, ref_rng)):
        assert_same(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("order", [4, 16, 64])
@pytest.mark.parametrize("lead", [(1,), (7,), (512, 8), (5, 9, 4)])
def test_amp_indices_and_map_bits(order, lead):
    c = Constellation(order)
    rng = np.random.default_rng(1806)
    rails = rng.integers(0, 2, lead + (c.bits_per_dim,))
    assert_same(c.amp_indices(rails), reference_amp_indices(c, rails))
    bits = rng.integers(0, 2, lead + (3 * c.bits_per_symbol,))
    assert_same(map_bits(bits, c), reference_map_bits(bits, c))


@pytest.mark.parametrize("batch,n", [(1, 2), (7, 6), (512, 16), (4608, 8),
                                     (1000, 16)])
def test_workspace_hth_equals_full_einsum_and_is_symmetric(batch, n):
    rng = np.random.default_rng(1807)
    # a (2nr, 2nt) real embedding with nr != nt at n = 6
    rows = n + 2 if n == 6 else n
    h_r = rng.normal(size=(batch, rows, n))
    y_r = rng.normal(size=(batch, rows))
    ws = EpWorkspace(h_r, y_r, REAL_NOISE_VAR, Constellation(16), 5e-7)
    assert_same(ws.hth, reference_hth(h_r, REAL_NOISE_VAR))
    assert np.array_equal(ws.hth, ws.hth.transpose(0, 2, 1))
    assert ws.hth.base.flags.c_contiguous


@pytest.mark.parametrize("kind", ["rayleigh", "correlated"])
@pytest.mark.parametrize("n_frames", [1, 7, 512])
def test_uncoded_chunk(kind, n_frames):
    config = ExperimentConfig(nt=8, nr=8, mod_order=16, snr_grid_db=(9.0,),
                              channel_kind=kind, rho=0.3)
    scale = 12.5
    rng, ref_rng = rng_pair(1808)
    tx, h_r, y_r, _ = _uncoded_chunk(config, scale, rng, n_frames)
    c = Constellation(16)
    ref_tx = ref_rng.integers(0, 2, (n_frames, 8 * c.bits_per_symbol))
    x = reference_map_bits(ref_tx, c)
    h = np.sqrt(scale) * reference_sample_channels(kind, 8, 8, 0.3, ref_rng,
                                                   n_frames)
    ref_h_r, ref_y_r = reference_observe(h, x, ref_rng)
    assert_same(tx, ref_tx)
    assert_same(h_r, ref_h_r)
    assert_same(y_r, ref_y_r)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["rayleigh", "correlated"])
def test_codeword_frames(kind):
    codec = TurboCodec(k=64, decoder="max-log", n_iter=2, seed=1)
    c = Constellation(16)
    nt = nr = 4
    scale, n_frames = 6.0, 5
    rng, ref_rng = rng_pair(1809)
    got = codeword_frames(codec, c, kind, nt, nr, 0.3, scale, n_frames, rng)
    _, n_blocks, filler = frame_geometry(codec, c, nt)
    q2 = c.bits_per_symbol
    msgs = ref_rng.integers(0, 2, (n_frames, codec.k))
    tx = np.empty((n_frames, n_blocks * nt * q2), dtype=np.int64)
    for f in range(n_frames):
        tx[f, : codec.n_coded] = encode(msgs[f], codec)
    tx[:, codec.n_coded :] = ref_rng.integers(0, 2, (n_frames, filler * q2))
    syms = reference_map_bits(tx, c).reshape(n_frames, n_blocks, nt)
    h = reference_sample_channels(kind, nt, nr, 0.3, ref_rng,
                                  n_frames * n_blocks)
    h = np.sqrt(scale) * h.reshape(n_frames, n_blocks, nr, nt)
    want = (msgs, syms, *reference_observe(h, syms, ref_rng))
    for a, b in zip(got, want):
        assert_same(a, b)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_training_set_front_end():
    stats = ChannelStats(nt=4, nr=4, mod_order=64, snr=14.0,
                         kind="correlated", rho=0.4, n_samples=33, seed=1810)
    got = generate_training_set(stats)
    ref_rng = np.random.default_rng(stats.seed)
    c = Constellation(64)
    h = np.sqrt(snr_scale(14.0, 4, 4)) * reference_sample_channels(
        "correlated", 4, 4, 0.4, ref_rng, 33)
    bits = ref_rng.integers(0, 2, (33, 4 * c.bits_per_symbol))
    x = reference_map_bits(bits, c)
    h_r, y_r = reference_observe(h, x, ref_rng)
    assert_same(got.h_r, h_r)
    assert_same(got.y_r, y_r)
    assert_same(got.x_r, np.concatenate([x.real, x.imag], axis=-1))
