"""The EP layer's factorisation and run against the batch-major layer.

`reference_chol_inverse_factors`, `reference_global_moments_batch`,
`ReferenceWorkspace` and `reference_discrete_moments` are verbatim
copies of the EP layer as it stood before its matrices went batch-last
(stored (n, n, B), factorised column by column without LAPACK) and
before the tilted moments floored their log weights out of `exp`'s
denormal band.  A different summation order changes the last bits, so
the new layer must stay within a tolerance declared before it was
written:

- one global-moments call: `mu` and `sigma_diag` within
  rtol = 1e-10 and atol = 1e-12 max|ref|;
- a full 5-layer run: `x_ab` and `v_ab` within rtol = 1e-8, atol = 1e-9.

The factorisation must retry with jitter exactly when the reference
does, and raise `FactorizationError` where it does.  The floored tilted
moments must be bit-identical at the detector's variance floor 5e-7.
"""

import numpy as np
import pytest

from epturbo.channel import (
    REAL_NOISE_VAR,
    SnrSpec,
    real_embedding,
    sample_rayleigh,
    snr_scale,
)
from epturbo.epdetect import (
    DampingSchedule,
    EpConfig,
    EpWorkspace,
    FactorizationError,
    _chol_inverse_factors,
    _global_moments_batch,
    cavity,
    damp,
    discrete_moments,
    refine_pair,
    site_pair,
    tilt_log_prior,
)
from epturbo.modem import (
    Constellation,
    fold_columns,
    map_bits,
    prior_probs_from_llr,
    sum_columns,
)

MOMENTS_RTOL, MOMENTS_ATOL = 1e-10, 1e-12  # atol is relative to max|ref|
RUN_RTOL, RUN_ATOL = 1e-8, 1e-9


def reference_chol_inverse_factors(a, jitter_scale=1e-12, out=None):
    n = a.shape[-1]
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        jit = jitter_scale * np.trace(a, axis1=-2, axis2=-1) / n
        a = a.copy()
        idx = np.arange(n)
        a[..., idx, idx] += jit[..., None]
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                "H^T H + Lambda is not positive definite"
            ) from exc
    inv_diag = 1.0 / np.diagonal(chol, axis1=-2, axis2=-1)
    linv = np.empty_like(chol) if out is None else out
    linv.fill(0.0)
    linv[..., 0, 0] = inv_diag[..., 0]
    for i in range(1, n):
        row = chol[..., i : i + 1, :i] @ linv[..., :i, :i]
        linv[..., i : i + 1, :i] = -row * inv_diag[..., i, None, None]
        linv[..., i, i] = inv_diag[..., i]
    return linv


def reference_global_moments_batch(hth, hty, gamma, lam, out=None):
    a = np.empty_like(hth) if out is None else out
    np.copyto(a, hth)
    n = a.shape[-1]
    idx = np.arange(n)
    a[..., idx, idx] += lam
    linv = reference_chol_inverse_factors(a, out=a)
    sigma_diag = np.einsum("...ki,...ki->...i", linv, linv)
    rhs = hty + gamma
    t = np.einsum("...kj,...j->...k", linv, rhs)
    mu = np.einsum("...ki,...k->...i", linv, t)
    return mu, sigma_diag, linv


def reference_discrete_moments(cav_mean, cav_var, prior, constellation,
                               min_var, log_prior=None):
    amps = constellation.amplitudes
    m = amps.size
    if log_prior is None:
        log_prior = tilt_log_prior(prior)
    shape = np.broadcast_shapes(log_prior.shape[1:], np.shape(cav_mean))
    log_prior = log_prior.reshape(
        log_prior.shape[:1] + (1,) * (len(shape) + 1 - log_prior.ndim)
        + log_prior.shape[1:])
    logw = np.empty((m,) + shape)
    w = np.empty(shape + (m,))
    column = amps.reshape((m,) + (1,) * len(shape))

    np.subtract(column, cav_mean, out=logw)
    np.square(logw, out=logw)
    np.divide(logw, 2.0 * cav_var, out=logw)
    np.subtract(log_prior, logw, out=logw)
    top = fold_columns(np.maximum, logw, out=np.empty(shape))
    np.subtract(logw, top, out=logw)
    np.exp(logw, out=logw)
    total = sum_columns(logw, out=top)
    np.divide(logw, total, out=np.moveaxis(w, -1, 0))
    x_b = w @ amps
    dev = logw.reshape(shape + (m,))
    np.copyto(dev, x_b[..., None])
    n = shape[-1] if shape else 1
    rows = dev.reshape(-1, n * m)
    np.subtract(np.tile(amps, n), rows, out=rows)
    np.square(dev, out=dev)
    v_b = np.einsum("...k,...k->...", w, dev)
    return x_b, np.maximum(v_b, min_var)


class ReferenceWorkspace:
    def __init__(self, h_r, y_r, noise_var, prior_probs, constellation,
                 config):
        self.hth = np.einsum("bri,brj->bij", h_r, h_r)
        self.hth /= noise_var
        self.hty = np.einsum("bri,br->bi", h_r, y_r) / noise_var
        self.probs = prior_probs
        self.constellation = constellation
        self.config = config
        self.batch, self.n_dims = self.hty.shape
        self.scratch = np.empty_like(self.hth)

    def initial_pair(self):
        cfg = self.config
        shape = (self.batch, self.n_dims)
        gamma = np.broadcast_to(np.asarray(cfg.init_gamma, dtype=float),
                                shape).copy()
        lam = np.broadcast_to(np.asarray(cfg.init_lambda, dtype=float),
                              shape).copy()
        if np.any(lam <= 0):
            raise ValueError("initial Lambda must be positive")
        return gamma, lam

    def run(self, betas_raw, start_layer=0, pair=None, record=True):
        betas_raw = np.asarray(betas_raw, dtype=float)
        gamma, lam = self.initial_pair() if pair is None else pair
        eps = self.config.min_var
        last = betas_raw.size - 1
        out = []
        x_ab = v_ab = None
        log_prior = None
        for l in range(start_layer, last + 1):
            mu, sigma_diag, _ = reference_global_moments_batch(
                self.hth, self.hty, gamma, lam, out=self.scratch)
            x_ab, v_ab = cavity(mu, sigma_diag, gamma, lam, eps)
            if l == last and not record:
                break
            if log_prior is None:
                log_prior = tilt_log_prior(self.probs)
            x_b, v_b = reference_discrete_moments(
                x_ab, v_ab, self.probs, self.constellation, eps, log_prior)
            cand = refine_pair(gamma, lam, x_ab, v_ab, x_b, v_b)
            new_gamma, new_lam = damp((gamma, lam), cand, betas_raw[l])
            if record:
                out.append({
                    "mu": mu, "sigma_diag": sigma_diag, "x_ab": x_ab,
                    "v_ab": v_ab, "x_b": x_b, "v_b": v_b,
                    "gamma_in": gamma, "lam_in": lam,
                    "cand_gamma": cand[0], "cand_lam": cand[1],
                    "gamma_out": new_gamma, "lam_out": new_lam,
                })
            gamma, lam = new_gamma, new_lam
            del mu, sigma_diag, x_b, v_b, cand, new_gamma, new_lam
        return x_ab, v_ab, out


def assert_within(got, ref, rtol, atol):
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=atol)


def system_batch(order, nt, informative, seed, b=256, snr_db=12.0):
    """Real-embedded nt x nt Rayleigh systems at snr_db (Eb/N0) and their
    amplitude priors.  Informative priors come from decoder-like LLRs:
    mostly right, their magnitudes spread up to the clamp, so that some
    amplitudes get a prior of exactly 0, as at a late JDD stage."""
    rng = np.random.default_rng(seed)
    c = Constellation(order)
    scale = snr_scale(SnrSpec("eb-uncoded", snr_db, order), nt, nt)
    h = np.sqrt(scale) * sample_rayleigh(nt, nt, rng, size=b)
    bits = rng.integers(0, 2, size=(b, nt, c.bits_per_symbol))
    x = map_bits(bits.reshape(b, -1), c)
    noise = rng.normal(scale=np.sqrt(REAL_NOISE_VAR), size=(b, nt, 2))
    y = np.einsum("bij,bj->bi", h, x) + noise[..., 0] + 1j * noise[..., 1]
    h_r, y_r = real_embedding(h, y)
    m = c.n_amplitudes
    if informative:
        mag = rng.exponential(scale=12.0, size=bits.shape)
        sign = np.where(rng.random(bits.shape) < 0.9, 1.0, -1.0)
        probs = prior_probs_from_llr(sign * mag * (1 - 2 * bits), c)
    else:
        probs = np.full((b, 2 * nt, m), 1.0 / m)
    return h_r, y_r, probs, c


def site_pair_of(probs, c, min_var):
    mean = probs @ c.amplitudes
    var = probs @ c.amplitudes ** 2 - mean ** 2
    return site_pair(mean, var, min_var)


CASES = [(order, nt, informative)
         for order in (4, 16, 64) for nt in (4, 8)
         for informative in (False, True)]


@pytest.mark.parametrize("order,nt,informative", CASES)
def test_global_moments_within_declared_tolerance(order, nt, informative):
    h_r, y_r, probs, c = system_batch(order, nt, informative, seed=order + nt)
    hth = np.einsum("bri,brj->bij", h_r, h_r) / REAL_NOISE_VAR
    hty = np.einsum("bri,br->bi", h_r, y_r) / REAL_NOISE_VAR
    if informative:
        gamma, lam = site_pair_of(probs, c, 5e-7)
    else:
        gamma = np.zeros(hty.shape)
        lam = np.full(hty.shape, 0.5)
    ref = reference_global_moments_batch(hth, hty, gamma, lam)
    got = _global_moments_batch(hth, hty, gamma, lam)
    assert got[0].shape == got[1].shape == hty.shape
    assert got[2].shape == hth.shape
    for g, r in zip(got[:2], ref[:2]):
        assert_within(g, r, MOMENTS_RTOL, MOMENTS_ATOL * np.abs(r).max())


@pytest.mark.parametrize("order,nt,informative", CASES)
def test_five_layer_run_within_declared_tolerance(order, nt, informative):
    h_r, y_r, probs, c = system_batch(order, nt, informative,
                                      seed=100 + order + nt)
    if informative:
        gamma, lam = site_pair_of(probs, c, 5e-7)
        cfg = EpConfig(layers=5, init_gamma=gamma, init_lambda=lam)
    else:
        cfg = EpConfig(layers=5)
    raw = DampingSchedule.from_effective([0.9, 0.6, 0.4, 0.2, 0.1]).raw
    ref_ws = ReferenceWorkspace(h_r, y_r, REAL_NOISE_VAR, probs, c, cfg)
    ws = EpWorkspace(h_r, y_r, REAL_NOISE_VAR, c, cfg.min_var)
    x_ref, v_ref, recs_ref = ref_ws.run(raw)
    for record in (True, False):
        x, v, recs = ws.run(raw, probs=probs,
                            pair=cfg.initial_pair(ws.batch, ws.n_dims),
                            record=record)
        assert x.shape == v.shape == x_ref.shape
        assert_within(x, x_ref, RUN_RTOL, RUN_ATOL)
        assert_within(v, v_ref, RUN_RTOL, RUN_ATOL)
        assert len(recs) == (len(recs_ref) if record else 0)
    # a warm-started tail, as the training loss runs it
    pair = (recs_ref[2]["gamma_in"], recs_ref[2]["lam_in"])
    x, v, _ = ws.run(raw, start_layer=2, probs=probs, pair=pair,
                     record=False)
    assert_within(x, x_ref, RUN_RTOL, RUN_ATOL)
    assert_within(v, v_ref, RUN_RTOL, RUN_ATOL)


def decoupled_batch(tiny, rank_deficient):
    """Two healthy 6x6 systems whose last dimension is exactly decoupled
    with diagonal `tiny`, and optionally a third whose channel has a zero
    column, so that H^T H is singular.  A decoupled dimension has no
    rounding in its pivot, so its variance is 1/tiny exactly, or
    1/(tiny + jitter) when the batch is jittered."""
    rng = np.random.default_rng(21)
    n = 6
    h = rng.normal(size=(3 if rank_deficient else 2, 8, n))
    h[:, :, -1] = 0.0
    if rank_deficient:
        h[2, :, 3] = 0.0
    hth = np.einsum("bri,brj->bij", h, h)
    hth[:2, -1, -1] = tiny
    hty = rng.normal(size=hth.shape[:2])
    lam = np.zeros(hty.shape)
    return hth, hty, lam


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_jittered_retry_exactly_when_the_reference_takes_it(rank_deficient):
    tiny = 1e-13
    hth, hty, lam = decoupled_batch(tiny, rank_deficient)
    retries = False
    try:
        np.linalg.cholesky(hth)
    except np.linalg.LinAlgError:
        retries = True
    assert retries == rank_deficient
    ref = reference_global_moments_batch(hth, hty, lam, lam)
    got = _global_moments_batch(hth, hty, lam, lam)
    for g, r in zip(got[:2], ref[:2]):
        assert np.all(np.isfinite(g))
        assert_within(g, r, MOMENTS_RTOL, MOMENTS_ATOL * np.abs(r).max())
    # the decoupled dimension shows whether the whole batch was jittered
    var = got[1][:2, -1]
    if rank_deficient:
        assert np.all(var < 0.5 / tiny)
    else:
        assert_within(var, 1.0 / tiny, 1e-14, 0.0)


def test_indefinite_matrix_raises_as_the_reference_does():
    a = np.stack([np.eye(3), np.diag([2.0, -1.0, 1.0])])
    with pytest.raises(FactorizationError):
        reference_chol_inverse_factors(a.copy())
    with pytest.raises(FactorizationError):
        _chol_inverse_factors(a.copy())
    hth = np.stack([np.eye(4), -np.eye(4)])
    zeros = np.zeros((2, 4))
    with pytest.raises(FactorizationError):
        _global_moments_batch(hth, zeros, zeros, zeros)


def denormal_band_inputs(order, b=512, n=8, seed=5):
    """Cavities and priors as at JDD stage 3: decoder feedback has driven
    prior entries to exactly 0 (log prior -690.8), and the cavity term
    adds 17-55 to their distance from the best amplitude."""
    rng = np.random.default_rng(seed)
    c = Constellation(order)
    amps = c.amplitudes
    m = amps.size
    best = rng.integers(m, size=(b, n))
    mean = amps[best] + rng.normal(scale=0.02, size=(b, n))
    gap = np.min(np.abs(np.diff(amps)))
    var = gap ** 2 / (2.0 * rng.uniform(17.0, 55.0, size=(b, n)))
    probs = np.zeros((b, n, m))
    probs[np.arange(b)[:, None], np.arange(n), best] = 1.0
    # a share of the dimensions keeps a soft prior, as at stage 1
    soft = rng.random((b, n)) < 0.2
    probs[soft] = rng.dirichlet(np.ones(m), size=int(soft.sum()))
    return mean, var, probs, c


@pytest.mark.parametrize("order", [4, 16, 64])
def test_floored_tilted_moments_bit_identical_at_the_variance_floor(order):
    mean, var, probs, c = denormal_band_inputs(order)
    amps = c.amplitudes
    logw = (np.log(np.maximum(probs, 1e-300))
            - (amps - mean[..., None]) ** 2 / (2.0 * var[..., None]))
    logw -= logw.max(axis=-1, keepdims=True)
    band = (logw >= -745.0) & (logw <= -708.0)
    assert band.mean() > 0.05  # the inputs do land in the denormal band
    ref = reference_discrete_moments(mean, var, probs, c, 5e-7)
    got = discrete_moments(mean, var, probs, c, 5e-7)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    log_prior = tilt_log_prior(probs)
    got = discrete_moments(mean, var, probs, c, 5e-7, log_prior)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
