"""Expectation-propagation MIMO detection in the real domain.

The detector unfolds L EP iterations, each smoothing its site update with
a sigmoid-constrained damping factor, and emits the cavity (extrinsic)
moments of the last iteration, whose mean the online training loss
scores, together with the per-layer trace.  The last layer's tilted
moments and damped site update come after that cavity and reach no
output, so a run that keeps no trace (inference, the training loss's
warm-started tails) stops at the last cavity; a traced run still
computes and records them.  The log prior the tilted moments need is
computed once per run, not once per layer.  Baselines (single-pass
MMSE, brute force ML) and the joint detection/decoding loop live here
as well.

All inner routines are batched over a leading instance axis; the public
single-instance entry points wrap batch size 1.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .channel import REAL_NOISE_VAR, observe, sample_channels
from .modem import (
    LLR_CLAMP,
    SymbolPrior,
    demap_llr,
    fold_columns,
    map_bits,
    prior_probs_from_llr,
    sum_columns,
)
from .turbocode import _decode_batch, encode

# initial site precision 1/(2 Es) for the unit-energy constellation
DEFAULT_INIT_LAMBDA = 0.5


class FactorizationError(RuntimeError):
    """Raised when H^T H + Lambda cannot be factorized even after jitter."""


def sigmoid(x):
    """Logistic function without overflow, in one branch-free pass.

    With e = exp(-|x|) it is 1/(1+e) for x >= 0 and e/(1+e) otherwise.
    -|x| is taken as min(x, -x), which returns a NaN input itself, sign
    bit included.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def logit(p):
    p = np.clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12)
    return np.log(p / (1.0 - p))


@dataclass
class DampingSchedule:
    """Raw (pre-sigmoid) damping parameters of one EPNet instance."""

    raw: np.ndarray

    def __post_init__(self):
        self.raw = np.atleast_1d(np.asarray(self.raw, dtype=float))
        if self.raw.ndim != 1 or self.raw.size < 1:
            raise ValueError("damping schedule needs at least one layer")

    @property
    def layers(self):
        return self.raw.size

    @property
    def effective(self):
        return sigmoid(self.raw)

    @classmethod
    def from_effective(cls, values):
        """Build from post-sigmoid damping factors in (0, 1)."""
        return cls(logit(values))

    @classmethod
    def constant(cls, effective_value, layers):
        return cls.from_effective(np.full(layers, float(effective_value)))


@dataclass
class EpConfig:
    """Detector settings: depth, variance floor, and initial site pair."""

    layers: int = 5
    min_var: float = 5e-7
    init_gamma: float = 0.0
    init_lambda: float = DEFAULT_INIT_LAMBDA

    def __post_init__(self):
        if self.min_var <= 0:
            raise ValueError("minimum variance must be positive")
        if self.layers < 1:
            raise ValueError("need at least one EP layer")
        if np.any(np.asarray(self.init_lambda) <= 0):
            raise ValueError("initial Lambda must be positive")

    def initial_pair(self, batch, n):
        """The initial site pair (gamma, Lambda) as new (batch, n) arrays."""
        return tuple(np.broadcast_to(np.asarray(v, dtype=float),
                                     (batch, n)).copy()
                     for v in (self.init_gamma, self.init_lambda))


@dataclass
class EpTrace:
    """Per-layer internals of one (batched) EPNet run.

    Arrays are stacked (layers, batch, 2Nt); gamma/lam additionally carry
    the initial pair at index 0, so their leading size is layers + 1.
    """

    mu: np.ndarray
    sigma_diag: np.ndarray
    x_ab: np.ndarray
    v_ab: np.ndarray
    x_b: np.ndarray
    v_b: np.ndarray
    gamma: np.ndarray
    lam: np.ndarray


def _batch_last(out, shape):
    """Batch-last (n, n, B) memory for a batch-major (B, n, n) result.

    It is `out`'s own memory when `out` is stored batch-last, as the
    scratch array of an `EpWorkspace.run` is, and a new array otherwise.
    """
    if out is not None:
        work = np.moveaxis(out, 0, -1)
        if work.flags.c_contiguous:
            return work
    return np.empty(shape[1:] + shape[:1])


def _cholesky_in_place(f):
    """Lower Cholesky factor of the batch-last (n, n, B) `f`, in place.

    Column j is a[j:, j] - L[j:, :j] L[j, :j], one einsum over the batch,
    divided by the square root of its pivot.  Only the lower triangle is
    read and written, so the strict upper triangle keeps a.  Returns
    False, leaving the columns before the failing one overwritten, when
    a pivot of any matrix in the batch is not > 0 (NaN included).
    """
    for j in range(f.shape[0]):
        col = f[j:, j]
        if j:
            col -= np.einsum("ikb,kb->ib", f[j:, :j], f[j, :j])
        pivot = col[0]
        if not np.all(pivot > 0):
            return False
        np.sqrt(pivot, out=pivot)
        col[1:] /= pivot
    return True


def _chol_inverse_factors(a, jitter_scale=1e-12, out=None):
    """Batched inverse of the lower Cholesky factor of the symmetric `a`.

    `a` is (B, n, n) and so is the result, but the work runs on the
    batch-last (n, n, B) layout, where every step is one vectorised
    einsum over the batch.  The factor L is computed column by column in
    place (`_cholesky_in_place`).  When a pivot fails, the batch gets one
    jittered retry: a is rebuilt from its untouched upper triangle and
    its saved diagonal, plus jitter_scale * trace(a) / n on every
    diagonal, after which FactorizationError propagates the ill
    conditioning to the caller.  L is then overwritten row by row with
    its inverse X by forward substitution: X[i, i] = 1 / L[i, i] and
    X[i, :i] = -(L[i, :i] @ X[:i, :i]) X[i, i], which reads only rows of
    L not yet overwritten.  The upper triangle of X is exactly zero.

    `out`, when given, receives X and is returned.  It may be `a`
    itself.  When `out` is stored batch-last the whole computation runs
    in its memory and allocates nothing of the batch's n x n size;
    otherwise it runs in a new batch-last array copied into `out`, so
    the result does not depend on the layout of `out`.
    """
    n = a.shape[-1]
    f = _batch_last(out, a.shape)
    src = np.moveaxis(a, 0, -1)
    if not np.may_share_memory(f, src):
        np.copyto(f, src)
    idx = np.arange(n)
    diag = f[idx, idx]
    if not _cholesky_in_place(f):
        jit = jitter_scale * diag.sum(axis=0) / n
        lower = np.tril_indices(n, -1)
        f[lower] = f[lower[::-1]]
        f[idx, idx] = diag + jit
        if not _cholesky_in_place(f):
            raise FactorizationError("H^T H + Lambda is not positive definite")
    for i in range(n):
        inv_diag = 1.0 / f[i, i]
        if i:
            row = np.einsum("jb,jkb->kb", f[i, :i], f[:i, :i])
            np.multiply(row, -inv_diag, out=f[i, :i])
        f[i, i] = inv_diag
        f[i, i + 1:] = 0.0
    linv = np.moveaxis(f, -1, 0)
    if out is None:
        return linv
    if not np.may_share_memory(f, out):
        np.copyto(out, linv)
    return out


def _global_moments_batch(hth, hty, gamma, lam, out=None):
    """Posterior moments of the Gaussian approximation, SPD solve only.

    Batch-major in and out: hth (B, n, n), hty, gamma and lam (B, n).
    Returns (mu, sigma_diag, linv); the full covariance is recovered from
    linv when a caller needs it.  The arithmetic runs batch-last, on
    (n, n, B) and (n, B) arrays: the factorisation, sigma_diag as a sum
    of squares over the rows of the inverse factor, and mu by two
    products with it; mu and sigma_diag are (B, n) views of (n, B)
    arrays.  `out`, an optional array shaped like hth and reused across
    calls, holds H^T H / sigma^2 + Lambda and then the inverse factor,
    which is returned as linv; stored batch-last, it spares every
    allocation of the batch's n x n size.
    """
    batch, n = hty.shape
    a = _batch_last(out, hth.shape)
    np.copyto(a, np.moveaxis(hth, 0, -1))
    idx = np.arange(n)
    a[idx, idx] += lam.T
    a_bm = np.moveaxis(a, -1, 0)
    _chol_inverse_factors(a_bm, out=a_bm)
    sigma_diag = np.einsum("kib,kib->ib", a, a).T
    rhs = np.add(hty.T, gamma.T, out=np.empty((n, batch)))
    t = np.einsum("kjb,jb->kb", a, rhs)
    mu = np.einsum("kib,kb->ib", a, t).T
    if out is None:
        return mu, sigma_diag, a_bm
    if not np.may_share_memory(a, out):
        np.copyto(out, a_bm)
    return mu, sigma_diag, out


def ep_global_moments(gamma, lam, model):
    """Moments (mu, Sigma) of the Gaussian q for one real-valued system."""
    h, y = model.h_r, model.y_r
    hth = (h.T @ h) / model.noise_var
    hty = (h.T @ y) / model.noise_var
    mu, _, linv = _global_moments_batch(hth[None], hty[None], gamma[None], lam[None])
    sigma = np.einsum("bki,bkj->bij", linv, linv)
    return mu[0], sigma[0]


def cavity(mu, sigma_diag, gamma, lam, min_var):
    """Leave-one-out (extrinsic) moments per real dimension.

    The cavity precision 1/Sigma_nn - Lambda_n is floored at min_var, so
    the variance stays in [min_var, 1/min_var] and a vanishing precision
    degrades to a flat, finite cavity instead of overflowing.  The mean
    divides by the same clamped precision so it stays calibrated when the
    variance floor binds (very confident cavities).
    """
    prec = np.maximum(1.0 / sigma_diag - lam, min_var)
    x = (mu / sigma_diag - gamma) / prec
    v = np.maximum(1.0 / prec, min_var)
    return x, v


def tilt_log_prior(prior):
    """log(max(probs, 1e-300)) amplitude-major, shape (m,) + probs.shape[:-1].

    The log prior `discrete_moments` adds to the cavity's log-likelihood;
    a caller that evaluates several layers on one batch computes it once.
    When every entry of probs is the same, as for the uniform priors of
    uncoded detection and of a first JDD stage, it is that one value's
    log, shaped (1,) * probs.ndim, and broadcasts.
    """
    probs = prior.probs if isinstance(prior, SymbolPrior) else np.asarray(prior)
    if probs.size and probs.min() == probs.max():
        src = probs.reshape(-1)[:1].reshape((1,) * probs.ndim)
    else:
        src = np.moveaxis(probs, -1, 0)
    log_prior = np.maximum(src, 1e-300, out=np.empty(src.shape))
    return np.log(log_prior, out=log_prior)


def discrete_moments(cav_mean, cav_var, prior, constellation, min_var,
                     log_prior=None):
    """Mean/variance of the tilted distribution cavity * prior per dimension.

    The m amplitudes of a dimension are a handful of entries, so the log
    weights live amplitude-major and their max and sum over the
    amplitudes are m - 1 elementwise steps over whole columns, in the
    order numpy's reductions over that axis take (`sum_columns`).  The
    normalised weights and the squared deviations (amps - x_b)^2 are
    written amplitude-minor, because `w @ amps` and the variance einsum
    give the reductions' results bit for bit only on that layout.  Two
    work arrays serve the whole call, the deviations reusing the log
    weights' buffer, so the call holds no more memory than the
    reductions' temporaries did.  `log_prior`, from
    `tilt_log_prior(prior)`, lets a caller that runs many layers on one
    batch compute it once; the results are the same without it.

    The max-shifted log weights are floored at
    min(-700, log(min_var) - 50) before `exp`.  Priors that decoder
    feedback has driven to 0 put log weights in [-745, -708], where
    `exp` returns denormals at about 100 times the cost of a normal
    result; at the detector's min_var = 5e-7 the floor is -700, whose
    `exp` is a normal 1e-304.  A floored weight is at most
    e^-50 min_var against the best amplitude's 1, so it moves the mean
    and the variance by less than 1e-20 min_var: below what double
    precision resolves next to the variance floor.  A flat -700 would
    not be: at min_var = 1e-300 its weights would move the variance at
    the floor.
    """
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
    np.maximum(logw, min(-700.0, np.log(min_var) - 50.0), out=logw)
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


def refine_pair(gamma, lam, x_ab, v_ab, x_b, v_b):
    """Moment-matched site update; dimensions with nonpositive precision keep
    their previous pair."""
    lam_new = 1.0 / v_b - 1.0 / v_ab
    gamma_new = x_b / v_b - x_ab / v_ab
    ok = lam_new > 0
    return np.where(ok, gamma_new, gamma), np.where(ok, lam_new, lam)


def damp(old_pair, new_pair, beta_raw):
    """Convex combination of site pairs with weight sigmoid(beta_raw)."""
    eff = sigmoid(beta_raw)
    gamma = eff * new_pair[0] + (1.0 - eff) * old_pair[0]
    lam = eff * new_pair[1] + (1.0 - eff) * old_pair[1]
    return gamma, lam


class EpWorkspace:
    """Cached likelihood terms for repeated EPNet runs on one batch.

    Precomputes H^T H / sigma^2 and H^T y / sigma^2 once; `run` executes
    the layer loop on the priors and from the initial site pair it is
    given, optionally warm-starting from a cached intermediate state so
    finite-difference training only recomputes the layers a perturbed
    damping factor can actually influence.  A JDD receiver keeps one
    workspace for all its stages on a chunk and passes each stage's
    priors and initial pair to `run`.

    The terms are stored batch-last: H^T H / sigma^2 is contiguous
    (n, n, B) and H^T y / sigma^2 is (n, B).  The attributes `hth` and
    `hty` are batch-major (B, n, n) and (B, n) views of that memory,
    the shapes `_global_moments_batch` takes.  Their einsums add the
    same products in the same order as batch-major ones, so the values
    are the same bit for bit.  H^T H is formed one row at a time from
    its diagonal on, and each row is mirrored into its column: the sum
    over the receive dimension runs in the same order for (i, j) and
    (j, i), so the matrix is symmetric and equals the full product bit
    for bit, at about half its cost.
    """

    def __init__(self, h_r, y_r, noise_var, constellation, min_var):
        batch, _, n = h_r.shape
        h_t = np.ascontiguousarray(h_r.transpose(2, 1, 0))
        hth = np.empty((n, n, batch))
        for i in range(n):
            np.einsum("rb,jrb->jb", h_t[i], h_t[i:], out=hth[i, i:])
            hth[i + 1:, i] = hth[i, i + 1:]
        hth /= noise_var
        hty = np.einsum("irb,rb->ib", h_t, np.ascontiguousarray(y_r.T),
                        out=np.empty((n, batch)))
        hty /= noise_var
        self.hth = np.moveaxis(hth, -1, 0)
        self.hty = hty.T
        self.constellation = constellation
        self.min_var = min_var
        self.batch, self.n_dims = batch, n

    def run(self, betas_raw, start_layer=0, *, probs, pair, record=True):
        """Run layers start_layer..L-1 on priors `probs` from `pair`.

        `probs` are the (B, n, m) amplitude priors and `pair` the site
        pair (gamma, Lambda), each (B, n), that layer start_layer starts
        from.  Returns (x_ab, v_ab, records) where records is a list with
        one dict per executed layer; with record=False it is empty, for
        callers that need only the final cavity (inference and the
        training loss).  With record=False the last layer also stops at
        its cavity: its tilted moments and damped site update reach no
        output.  The log prior of the tilted moments is computed once
        per run, at the first layer that needs it.  Every layer of the
        run factorises in one batch-last (n, n, B) scratch array, so the
        layer loop allocates no other array of that size.  The scratch
        lives only for the run: a JDD receiver keeps its workspace
        through the decoder, and only H^T H of that size with it.
        Without records each layer's intermediates are released before
        the next layer factorises, and the run's peak memory stays below
        that of keeping them.
        """
        betas_raw = np.asarray(betas_raw, dtype=float)
        gamma, lam = pair
        eps = self.min_var
        last = betas_raw.size - 1
        out = []
        x_ab = v_ab = None
        log_prior = None
        n = self.n_dims
        scratch = np.moveaxis(np.empty((n, n, self.batch)), -1, 0)
        for l in range(start_layer, last + 1):
            mu, sigma_diag, _ = _global_moments_batch(
                self.hth, self.hty, gamma, lam, out=scratch)
            x_ab, v_ab = cavity(mu, sigma_diag, gamma, lam, eps)
            if l == last and not record:
                break
            if log_prior is None:
                log_prior = tilt_log_prior(probs)
            x_b, v_b = discrete_moments(x_ab, v_ab, probs,
                                        self.constellation, eps, log_prior)
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


def _epnet_core(h_r, y_r, noise_var, prior_probs, constellation, betas_raw,
                config, record=True):
    """Batched EPNet: h_r (B, 2Nr, 2Nt), y_r (B, 2Nr), priors (B, 2Nt, m).

    Returns (x_ab, v_ab, trace) where the extrinsic output is the cavity
    of the final layer, i.e. the moments the demapper consumes.  With
    record=False the layers keep nothing and trace is None: the inference
    paths read only the final cavity.
    """
    ws = EpWorkspace(h_r, y_r, noise_var, constellation, config.min_var)
    gamma0, lam0 = config.initial_pair(ws.batch, ws.n_dims)
    x_ab, v_ab, recs = ws.run(betas_raw, probs=prior_probs,
                              pair=(gamma0, lam0), record=record)
    if not record:
        return x_ab, v_ab, None
    del ws  # stack the trace without the batch-sized factorisation buffers
    trace = EpTrace(
        mu=np.stack([r["mu"] for r in recs]),
        sigma_diag=np.stack([r["sigma_diag"] for r in recs]),
        x_ab=np.stack([r["x_ab"] for r in recs]),
        v_ab=np.stack([r["v_ab"] for r in recs]),
        x_b=np.stack([r["x_b"] for r in recs]),
        v_b=np.stack([r["v_b"] for r in recs]),
        gamma=np.stack([gamma0] + [r["gamma_out"] for r in recs]),
        lam=np.stack([lam0] + [r["lam_out"] for r in recs]),
    )
    return x_ab, v_ab, trace


def epnet_detect(model, prior, schedule, config=None):
    """Run EPNet on one real-valued system.

    Returns (extrinsic mean, extrinsic variance, trace): the final-layer
    cavity moments per real dimension plus the layer-by-layer trace.
    """
    config = config or EpConfig(layers=schedule.layers)
    probs = prior.probs if isinstance(prior, SymbolPrior) else np.asarray(prior)
    c = model.constellation
    x, v, trace = _epnet_core(
        model.h_r[None], model.y_r[None], model.noise_var, probs[None], c,
        schedule.raw, config,
    )
    squeezed = EpTrace(**{k: getattr(trace, k)[:, 0] for k in vars(trace)})
    return x[0], v[0], squeezed


def mmse_detect(model, prior, config=None):
    """Linear MMSE detection as the depth-1 special case of EPNet.

    The extrinsic output is the first-layer cavity, so this shares every
    numerical step with `epnet_detect` at L = 1.
    """
    if config is None:
        config = EpConfig(layers=1)
    x, v, _ = epnet_detect(model, prior, DampingSchedule(np.zeros(1)), config)
    return x, v


def site_pair(mean, var, min_var):
    """Gaussian site pair (gamma, Lambda) = (mean / var, 1 / var) matching a
    prior's moments, with the variance floored at min_var."""
    var = np.maximum(var, min_var)
    return mean / var, 1.0 / var


def _candidate_grid(constellation, n_dims):
    m = constellation.n_amplitudes
    if m**n_dims > 1 << 20:
        raise ValueError("ML enumeration too large for this instance")
    grids = np.meshgrid(*([constellation.amplitudes] * n_dims), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def ml_detect(model, constellation=None):
    """Exhaustive minimum-distance detection; guard M^Nt <= 2^20."""
    c = constellation or model.constellation
    cand = _candidate_grid(c, model.n_dims)
    resid = model.y_r[None, :] - cand @ model.h_r.T
    best = np.argmin(np.einsum("cr,cr->c", resid, resid))
    return cand[best]


def _ml_detect_batch(h_r, y_r, constellation):
    cand = _candidate_grid(constellation, h_r.shape[-1])
    n_cand, r = cand.shape[0], h_r.shape[1]
    # keep the (B_chunk, C, r) residual tensor near 1 GiB
    chunk = max(1, (1 << 27) // max(n_cand * r, 1))
    out = np.empty((h_r.shape[0], h_r.shape[-1]))
    for lo in range(0, h_r.shape[0], chunk):
        hi = min(lo + chunk, h_r.shape[0])
        proj = np.einsum("cn,brn->bcr", cand, h_r[lo:hi])
        resid = y_r[lo:hi, None, :] - proj
        best = np.argmin(np.einsum("bcr,bcr->bc", resid, resid), axis=1)
        out[lo:hi] = cand[best]
    return out


def bits_from_real_symbols(x_r, constellation):
    """Map hard real-amplitude decisions back to the Gray bit labels."""
    x_r = np.asarray(x_r)
    idx = np.argmin(np.abs(x_r[..., None] - constellation.amplitudes), axis=-1)
    labels = constellation.labels[idx]  # (..., 2n?, q) with [I..., Q...] dims
    n = x_r.shape[-1] // 2
    bits_i = labels[..., :n, :]
    bits_q = labels[..., n:, :]
    return np.concatenate([bits_i, bits_q], axis=-1).reshape(*x_r.shape[:-1], -1)


# ---------------------------------------------------------------------------
# damping table document


def damping_table_to_doc(effective):
    effective = np.atleast_2d(np.asarray(effective, dtype=float))
    if np.any((effective <= 0) | (effective >= 1)):
        raise ValueError("effective damping factors must lie in (0, 1)")
    entries = [
        {"stage": i + 1, "layer": l + 1, "damping": float(effective[i, l])}
        for i in range(effective.shape[0])
        for l in range(effective.shape[1])
    ]
    return {
        "schema": 1,
        "stages": effective.shape[0],
        "layers": effective.shape[1],
        "entries": entries,
    }


def damping_table_from_doc(doc):
    """Parse {stage, layer} -> effective damping entries into a raw array."""
    if doc.get("schema") != 1:
        raise ValueError("unsupported damping table schema")
    stages, layers = int(doc["stages"]), int(doc["layers"])
    eff = np.full((stages, layers), np.nan)
    seen = set()
    for e in doc["entries"]:
        i, l = e["stage"] - 1, e["layer"] - 1
        if not (i in range(stages) and l in range(layers)):
            raise ValueError(f"damping table entry {e} lies outside "
                             f"{stages} stage(s) x {layers} layer(s)")
        if (i, l) in seen:
            raise ValueError(f"damping table entry {e} repeats its "
                             "stage and layer")
        seen.add((i, l))
        eff[int(i), int(l)] = e["damping"]
    if np.any(np.isnan(eff)):
        raise ValueError("damping table is missing entries")
    if np.any((eff <= 0) | (eff >= 1)):
        raise ValueError("effective damping factors must lie in (0, 1)")
    return logit(eff)


def save_damping_table(path, effective):
    with open(path, "w") as fh:
        json.dump(damping_table_to_doc(effective), fh, indent=1)


def load_damping_table(path):
    with open(path) as fh:
        return damping_table_from_doc(json.load(fh))


# ---------------------------------------------------------------------------
# joint detection and decoding


@dataclass
class JddReceiver:
    """Unfolded turbo receiver: I detection/decoding stages sharing a codec.

    Each stage's decoder runs `codec.n_iter` turbo iterations.  `config`
    gives EP's variance floor and the first stage's initial site pair.
    feedback_scale shrinks the decoder extrinsic LLRs before they become
    the next stage's prior.  Short frames recirculate decoder information
    through the demapper, and the unscaled loop measurably diverges after
    two stages on small arrays; 0.7 keeps the stage-to-stage BER monotone
    without costing peak performance.
    """

    codec: object
    constellation: object
    schedules: np.ndarray  # (I, L) raw damping parameters
    config: EpConfig = field(default_factory=EpConfig)
    feedback_scale: float = 0.7

    def __post_init__(self):
        self.schedules = np.atleast_2d(np.asarray(self.schedules, dtype=float))

    @property
    def n_stages(self):
        return self.schedules.shape[0]

    @property
    def layers(self):
        return self.schedules.shape[1]


@dataclass
class JddResult:
    bits_per_stage: np.ndarray  # (I, B, K)
    extrinsic_llrs: np.ndarray  # (I, B, V) decoder feedback per stage


def frame_geometry(codec, constellation, nt):
    """Symbols and blocks of one codeword frame, with filler count."""
    q2 = constellation.bits_per_symbol
    if codec.n_coded % q2:
        raise ValueError(
            f"codeword length {codec.n_coded} not divisible by Q={q2}"
        )
    n_sym = codec.n_coded // q2
    n_blocks = int(np.ceil(n_sym / nt))
    return n_sym, n_blocks, n_blocks * nt - n_sym


def codeword_frames(codec, constellation, kind, nt, nr, rho, scale, n_frames,
                    rng):
    """Draw, encode and transmit `n_frames` codeword frames.

    The generator draws the messages, then every frame's filler bits in
    one call (the same bits, and the same generator state, as one draw
    per frame), then one channel per block of `nt` symbols, scaled by
    `scale`, then the noise.  Frames are encoded one message at a time.
    Returns (msgs (B, K), syms (B, P, nt), h_r (B, P, 2nr, 2nt), y_r (B,
    P, 2nr)) for the frames' P blocks.
    """
    _, n_blocks, filler = frame_geometry(codec, constellation, nt)
    q2 = constellation.bits_per_symbol
    msgs = rng.integers(0, 2, (n_frames, codec.k))
    tx = np.empty((n_frames, n_blocks * nt * q2), dtype=np.int64)
    for f in range(n_frames):
        tx[f, : codec.n_coded] = encode(msgs[f], codec)
    tx[:, codec.n_coded :] = rng.integers(0, 2, (n_frames, filler * q2))
    syms = map_bits(tx, constellation).reshape(n_frames, n_blocks, nt)
    h = sample_channels(kind, nt, nr, rho, rng, n_frames * n_blocks)
    h = h.reshape(n_frames, n_blocks, nr, nt)
    h *= np.sqrt(scale)
    return (msgs, syms, *observe(h, syms, rng))


def stage_feedback(ext, receiver, nt):
    """The next JDD stage's EP inputs from decoder extrinsic LLRs (B, V).

    The extrinsic is scaled by the receiver's feedback_scale, clipped,
    and turned into amplitude priors; filler symbols get a zero LLR, so
    their prior stays uniform.  The initial site pair matches the
    priors' moments (`site_pair`).  Returns (prior_probs, init_gamma,
    init_lambda) over the (B * P, 2 nt) real dimensions of the frames'
    P blocks.
    """
    c = receiver.constellation
    codec = receiver.codec
    q2 = c.bits_per_symbol
    _, n_blocks, _ = frame_geometry(codec, c, nt)
    fb = np.zeros((ext.shape[0], n_blocks * nt * q2))
    fb[:, : codec.n_coded] = np.clip(receiver.feedback_scale * ext,
                                     -LLR_CLAMP, LLR_CLAMP)
    probs = prior_probs_from_llr(fb.reshape(-1, nt, q2), c)
    mean = probs @ c.amplitudes
    var = probs @ c.amplitudes**2 - mean**2
    return (probs, *site_pair(mean, var, receiver.config.min_var))


def jdd_stage(ws, schedule, receiver, feedback=None):
    """One JDD stage on the frames of `ws`: EP, demapper and decoder.

    Without `feedback` EP runs `schedule` on uniform priors from
    `receiver.config`'s initial pair, as a first stage does.  `feedback`,
    the previous stage's decoder extrinsic LLRs (B, V), gives the priors
    and the initial pair instead, by `stage_feedback`.  The demapper
    forms the LLRs in float32 from EP's float64 cavity moments, and the
    frames' LLRs, filler dropped, go to the decoder, which then decodes
    in float32 (each within the tolerance `tests/test_demapper_float32.py`
    and `tests/test_decoder_float32.py` declare against float64); EP and
    the stage feedback stay float64.
    Returns the decoder's (bits (B, K), float32 extrinsic LLRs (B, V)).
    """
    c = receiver.constellation
    nt = ws.n_dims // 2
    if feedback is None:
        m = c.n_amplitudes
        probs = np.full((ws.batch, ws.n_dims, m), 1.0 / m)
        pair = receiver.config.initial_pair(ws.batch, ws.n_dims)
    else:
        probs, *pair = stage_feedback(feedback, receiver, nt)
    x_ab, v_ab, _ = ws.run(schedule, probs=probs, pair=pair, record=False)
    llr = demap_llr(x_ab, v_ab, probs, c, dtype=np.float32)  # (B*P, nt, Q)
    n_frames = ws.batch // frame_geometry(receiver.codec, c, nt)[1]
    llr_frame = llr.reshape(n_frames, -1)[:, : receiver.codec.n_coded]
    # the decoder runs at the chunk's peak memory; through it the EP
    # layer holds only H^T H and H^T y
    del x_ab, v_ab, probs, pair
    bits, _, ext = _decode_batch(llr_frame, receiver.codec,
                                 want_feedback=True)
    return bits, ext


def jdd_receive_batch(h_r, y_r, receiver, noise_var=REAL_NOISE_VAR):
    """Run the I-stage turbo receiver over a batch of codeword frames.

    h_r is (B, P, 2Nr, 2Nt) with one channel per transmitted block and
    y_r is (B, P, 2Nr).  Filler symbols padding the last block carry no
    coded bits; their feedback prior stays uniform.  Each stage is one
    `jdd_stage` on a workspace shared by all stages.
    """
    c = receiver.constellation
    n_blocks = h_r.shape[1]
    nt = h_r.shape[3] // 2
    _, n_blocks_expect, _ = frame_geometry(receiver.codec, c, nt)
    if n_blocks != n_blocks_expect:
        raise ValueError("frame geometry mismatch")
    ws = EpWorkspace(h_r.reshape(-1, *h_r.shape[2:]),
                     y_r.reshape(-1, y_r.shape[-1]), noise_var, c,
                     receiver.config.min_var)

    bits_stages, ext_stages = [], []
    ext = None
    for schedule in receiver.schedules:
        bits, ext = jdd_stage(ws, schedule, receiver, ext)
        bits_stages.append(bits)
        ext_stages.append(ext)
    return JddResult(
        bits_per_stage=np.stack(bits_stages),
        extrinsic_llrs=np.stack(ext_stages),
    )


def jdd_receive(models, receiver):
    """Single-frame turbo receiver over the per-block models of one codeword."""
    h_r = np.stack([m.h_r for m in models])[None]
    y_r = np.stack([m.y_r for m in models])[None]
    noise_var = models[0].noise_var
    res = jdd_receive_batch(h_r, y_r, receiver, noise_var)
    return JddResult(
        bits_per_stage=res.bits_per_stage[:, 0],
        extrinsic_llrs=res.extrinsic_llrs[:, 0],
    )
