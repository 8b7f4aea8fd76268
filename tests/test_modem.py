import numpy as np
import pytest

from epturbo.modem import (
    LLR_CLAMP,
    Constellation,
    demap_llr,
    llr_to_prior,
    map_bits,
    maxstar,
    maxstar_finite,
    maxstar_reduce,
    prior_probs_from_llr,
    uniform_prior,
)


@pytest.fixture(params=[4, 16, 64])
def constellation(request):
    return Constellation(request.param)


def test_unit_energy(constellation):
    # derived: enumerate all points and average their energy
    energy = np.mean(np.abs(constellation.points) ** 2)
    assert abs(energy - 1.0) < 1e-12


def test_labeling_bijection(constellation):
    M, Q = constellation.order, constellation.bits_per_symbol
    patterns = {tuple(row) for row in constellation.point_labels}
    assert len(patterns) == M == 2**Q


def test_real_subconstellation_symmetric(constellation):
    amps = constellation.amplitudes
    assert np.allclose(np.sort(amps), -np.sort(-amps)[::-1])
    assert abs(amps.sum()) < 1e-12


def test_gray_adjacency(constellation):
    # any two points at minimum distance differ in exactly one bit
    pts = constellation.points
    labels = constellation.point_labels
    d = np.abs(pts[:, None] - pts[None, :])
    dmin = d[d > 0].min()
    ii, jj = np.where(np.abs(d - dmin) < 1e-12)
    for i, j in zip(ii, jj):
        assert np.sum(labels[i] != labels[j]) == 1


def test_map_bits_qpsk_zero_bits():
    c = Constellation(4)
    sym = map_bits(np.array([0, 0]), c)
    assert np.allclose(sym, (1 + 1j) / np.sqrt(2))


def test_map_bits_constant_frame():
    c = Constellation(16)
    syms = map_bits(np.zeros(40, dtype=int), c)
    assert np.all(syms == syms[0])


def test_map_bits_rejects_bad_length():
    c = Constellation(16)
    with pytest.raises(ValueError):
        map_bits(np.zeros(7, dtype=int), c)


def test_map_bits_roundtrip_all_patterns(constellation):
    Q = constellation.bits_per_symbol
    bits = ((np.arange(constellation.order)[:, None] >> np.arange(Q - 1, -1, -1)) & 1)
    syms = map_bits(bits.reshape(-1), constellation)
    # every pattern should land on a distinct constellation point
    assert len(np.unique(np.round(syms, 12))) == constellation.order


def test_uniform_prior_moments(constellation):
    prior = uniform_prior(constellation, n_dims=6)
    prior.validate()
    assert np.allclose(prior.mean, 0.0, atol=1e-12)
    # unit Es split evenly over I and Q
    assert np.allclose(prior.var, 0.5, atol=1e-12)


def test_llr_to_prior_zero_equals_uniform():
    c = Constellation(16)
    prior = llr_to_prior(np.zeros((5, 4)), c)
    ref = uniform_prior(c, 10)
    assert np.allclose(prior.probs, ref.probs)


def test_llr_to_prior_saturated_llrs_concentrate():
    c = Constellation(16)
    llr = np.full((1, 4), 1e9)  # clamped internally
    prior = llr_to_prior(llr, c)
    # all-zero bits label the most positive amplitude on both rails
    assert prior.probs[0, 0] > 1 - 1e-9
    assert prior.probs[1, 0] > 1 - 1e-9


def test_llr_to_prior_logistic_value():
    # derived: P(b=0) = 1/(1+e^-2) for L=2 on one bit
    c = Constellation(4)
    llr = np.array([[2.0, 0.0]])
    prior = llr_to_prior(llr, c)
    p0 = 1.0 / (1.0 + np.exp(-2.0))
    assert abs(prior.probs[0, 0] - p0) < 1e-12  # I rail, +amp has label 0
    assert np.allclose(prior.probs[1], 0.5)


def test_llr_to_prior_shape_check():
    c = Constellation(16)
    with pytest.raises(ValueError):
        llr_to_prior(np.zeros((5, 3)), c)


def test_demap_bpsk_closed_form():
    # derived: two-point log-ratio expands to L = 2am/v
    c = Constellation(4)
    a = c.amplitudes[0]
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.normal(scale=0.5)
        v = rng.uniform(0.05, 2.0)
        prior = uniform_prior(c, 2)
        llr = demap_llr(np.array([m, 0.0]), np.array([v, 1.0]), prior, c)
        assert abs(llr[0, 0] - 2 * a * m / v) < 1e-10


def test_demap_midpoint_gives_zero():
    c = Constellation(16)
    prior = uniform_prior(c, 2)
    # mean centered between the two inner amplitudes: sign bit undecided
    llr = demap_llr(np.array([0.0, 0.0]), np.array([0.3, 0.3]), prior, c)
    assert abs(llr[0, 0]) < 1e-12


def test_demap_uninformative_variance_limit():
    c = Constellation(16)
    prior = uniform_prior(c, 2)
    llr = demap_llr(np.zeros(2) + 0.01, np.full(2, 1e9), prior, c)
    assert np.all(np.abs(llr) < 1e-6)


def test_demap_rejects_nonpositive_variance():
    c = Constellation(4)
    prior = uniform_prior(c, 2)
    with pytest.raises(ValueError):
        demap_llr(np.zeros(2), np.array([1.0, 0.0]), prior, c)


def test_demap_roundtrip_sharp_gaussian(constellation):
    # a Gaussian pinned on a point recovers its bit label from LLR signs
    rng = np.random.default_rng(3)
    n = 4
    Q = constellation.bits_per_symbol
    bits = rng.integers(0, 2, size=n * Q)
    syms = map_bits(bits, constellation)
    mean = np.concatenate([syms.real, syms.imag])
    prior = uniform_prior(constellation, 2 * n)
    llr = demap_llr(mean, np.full(2 * n, 1e-6), prior, constellation)
    decided = (llr < 0).astype(int).reshape(-1)
    assert np.array_equal(decided, bits)


def test_demap_consistency_with_direct_enumeration():
    # derived oracle: direct probability-domain sum over complex points
    rng = np.random.default_rng(11)
    c = Constellation(16)
    n = 3
    mean = rng.normal(size=2 * n, scale=0.6)
    var = rng.uniform(0.05, 0.8, size=2 * n)
    prior = uniform_prior(c, 2 * n)
    llr = demap_llr(mean, var, prior, c)

    pts, labels = c.points, c.point_labels
    for s in range(n):
        mi, mq = mean[s], mean[n + s]
        vi, vq = var[s], var[n + s]
        pdf = np.exp(-((pts.real - mi) ** 2) / (2 * vi) - ((pts.imag - mq) ** 2) / (2 * vq))
        for q in range(4):
            num = pdf[labels[:, q] == 0].sum()
            den = pdf[labels[:, q] == 1].sum()
            assert abs(llr[s, q] - np.log(num / den)) < 1e-9


def test_demap_monotone_in_information():
    # LLR magnitude grows as the extrinsic variance shrinks
    c = Constellation(16)
    prior = uniform_prior(c, 2)
    mean = np.array([0.25, -0.4])
    mags = []
    for v in [2.0, 0.5, 0.1, 0.02]:
        llr = demap_llr(mean, np.full(2, v), prior, c)
        mags.append(np.abs(llr).sum())
    assert np.all(np.diff(mags) > 0)


def test_demap_uses_other_bit_priors_extrinsically():
    # the demapped LLR of bit j must not depend on bit j's own prior
    c = Constellation(16)
    rng = np.random.default_rng(5)
    mean = rng.normal(size=2, scale=0.5)
    var = np.full(2, 0.4)
    base = llr_to_prior(np.array([[0.7, -0.3, 0.2, 0.9]]), c)
    # change only bit 0's prior: bits 1..3 marginals preserved
    bumped = llr_to_prior(np.array([[2.5, -0.3, 0.2, 0.9]]), c)
    l0 = demap_llr(mean, var, base, c)
    l1 = demap_llr(mean, var, bumped, c)
    assert abs(l0[0, 0] - l1[0, 0]) < 1e-10
    # while an informative other-bit prior does move bit 0's LLR
    other = llr_to_prior(np.array([[0.7, 2.5, 0.2, 0.9]]), c)
    l2 = demap_llr(mean, var, other, c)
    assert abs(l2[0, 0] - l0[0, 0]) > 1e-6


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
def test_demap_rejects_other_dtypes(dtype):
    c = Constellation(16)
    prior = uniform_prior(c, 2)
    with pytest.raises(ValueError, match="float32 or float64"):
        demap_llr(np.zeros(2), np.ones(2), prior, c, dtype=dtype)


def test_maxstar_matches_logsumexp():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=100), rng.normal(size=100)
    ref = np.log(np.exp(a) + np.exp(b))
    assert np.allclose(maxstar(a, b), ref, atol=1e-12)


def reference_prior_probs_from_llr(llr, constellation):
    """The former body of `prior_probs_from_llr`: bit probabilities
    stacked as (p0, 1 - p0), gathered by label per rail, and the rails
    concatenated."""
    q = constellation.bits_per_dim
    llr = np.clip(np.asarray(llr, dtype=float), -LLR_CLAMP, LLR_CLAMP)
    p0 = 1.0 / (1.0 + np.exp(-llr))
    bp = np.stack([p0, 1.0 - p0], axis=-1)
    labels = constellation.labels

    def rail(bit_probs):
        out = np.ones(bit_probs.shape[:-2] + (constellation.n_amplitudes,))
        for j in range(q):
            out = out * bit_probs[..., j, labels[:, j]]
        return out

    probs = np.concatenate([rail(bp[..., :q, :]), rail(bp[..., q:, :])], axis=-2)
    return probs / probs.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("lead", [(4608, 4), (7, 3), (5,)])
def test_prior_probs_from_llr_equals_reference(constellation, lead):
    rng = np.random.default_rng(sum(lead) + constellation.order)
    shape = lead + (constellation.bits_per_symbol,)
    cases = [rng.normal(scale=8.0, size=shape),
             # saturated past the clamp, either sign, and exact zeros
             rng.choice([-80.0, -50.0, 0.0, 50.0, 80.0], size=shape)]
    for llr in cases:
        got = prior_probs_from_llr(llr, constellation)
        ref = reference_prior_probs_from_llr(llr, constellation)
        assert got.shape == ref.shape == lead[:-1] + (
            2 * lead[-1], constellation.n_amplitudes)
        assert np.array_equal(got, ref)


def maxstar_args(dtype):
    rng = np.random.default_rng(5)
    a = rng.uniform(-1e4, 1e4, 30000)
    # pairs close enough that the correction term matters, and pairs
    # whose exact correction term is subnormal in float32 or float64
    b = np.concatenate([rng.uniform(-1e4, 1e4, 10000),
                        a[10000:20000] + rng.uniform(-40.0, 40.0, 10000),
                        a[20000:] + rng.choice([-1, 1], 10000)
                        * rng.uniform(80.0, 760.0, 10000)])
    return a.astype(dtype), b.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxstar_finite_matches_logaddexp(dtype):
    a, b = maxstar_args(dtype)
    got = maxstar_finite(a, b)
    ref = np.logaddexp(a, b)
    assert got.dtype == ref.dtype == dtype
    # a few ulp of the largest operand of the final addition
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(ref))
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(scale))
    # argument order does not matter, and `out` may alias an argument
    assert np.array_equal(maxstar_finite(b, a), got)
    acc = a.copy()
    assert maxstar_finite(acc, b, out=acc) is acc
    assert np.array_equal(acc, got)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxstar_finite_of_equal_arguments_adds_log2(dtype):
    a = np.linspace(-1e4, 1e4, 1001).astype(dtype)
    assert np.array_equal(maxstar_finite(a, a), a + dtype(np.log(2.0)))


def test_maxstar_finite_takes_finite_arguments_only():
    # -inf - (-inf) is NaN: infinite weights must not reach it, and the
    # float32 demapper floors its weights so that none do
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        maxstar_finite(np.array([-np.inf]), np.array([-np.inf]))


def test_log_map_maxstar_stays_logaddexp():
    # the log-MAP BCJR keeps its bits: `maxstar` and `maxstar_reduce`
    # are `np.logaddexp` and its reduction, infinities included
    rng = np.random.default_rng(9)
    a, b = rng.normal(scale=30.0, size=(2, 64, 8))
    a[0, 0] = b[0, 0] = -np.inf
    assert np.array_equal(maxstar(a, b), np.logaddexp(a, b))
    assert np.array_equal(maxstar_reduce(a), np.logaddexp.reduce(a, axis=-1))
    assert np.array_equal(maxstar_reduce(a, axis=0),
                          np.logaddexp.reduce(a, axis=0))
