"""Square M-QAM bit mapping, per-dimension symbol priors, and soft demapping.

All LLRs use the convention L = log P(b=0) / P(b=1).  A complex symbol
carries Q = log2(M) bits: the first Q/2 label the in-phase amplitude, the
last Q/2 the quadrature amplitude.  In the real-valued receiver model a
group of N symbols maps to 2N real dimensions ordered [all I, all Q], and
every per-dimension quantity here (prior rows, means, variances) follows
that ordering.
"""

import numpy as np

# LLRs are clamped here before anything is exponentiated; beyond +-50 the
# implied probabilities are indistinguishable at double precision.
LLR_CLAMP = 50.0


def maxstar(a, b):
    """Exact max*(a, b) = max(a, b) + log(1 + e^-|a-b|), the Jacobian logarithm."""
    return np.logaddexp(a, b)


def maxstar_reduce(x, axis=-1):
    """max* folded over one axis of an array."""
    return np.logaddexp.reduce(x, axis=axis)


def maxstar_finite(a, b, out=None):
    """max*(a, b) = max(a, b) + log1p(exp(min(a, b) - max(a, b))) for
    finite a and b.

    The Jacobian logarithm `np.logaddexp` evaluates too, as whole-array
    steps on numpy's vectorised `exp` and `log1p`, where `np.logaddexp`
    calls libm once per element: about 6x faster in float64 and 10x in
    float32.  min - max is floored at log(tiny) + 1, tiny the dtype's
    smallest normal number, because `exp` and `log1p` take about 10 and
    50 times longer where e^(min - max) would be subnormal.  The floor
    moves the result by at most 3 tiny, less than half an ulp of any
    result above 1e-30 in float32 or 1e-291 in float64, so it agrees
    with `np.logaddexp` within a few ulp of the larger argument.  An
    infinite argument would make min - max NaN, so the arguments must
    be finite.  `out` may be `a` or `b`, as `fold_columns` passes it.
    """
    d = np.minimum(a, b)
    top = np.maximum(a, b, out=out)
    d -= top
    np.maximum(d, np.log(np.finfo(d.dtype).tiny) + 1.0, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    top += d
    return top


def fold_columns(ufunc, cols, out=None):
    """`ufunc` folded left over the equal-shape arrays `cols`.

    Over 2-8 entries this is `ufunc.reduce` along the stacking axis with
    the same operands in the same order, without the per-row overhead a
    reduction over a tiny axis pays.
    """
    if len(cols) == 1:
        if out is None:
            return cols[0]
        np.copyto(out, cols[0])
        return out
    acc = ufunc(cols[0], cols[1], out=out)
    for c in cols[2:]:
        ufunc(acc, c, out=acc)
    return acc


def sum_columns(cols, out=None):
    """Sum of the equal-shape arrays `cols`, added as numpy's pairwise
    summation adds a reduced axis of that length (at most 8 entries): a
    left fold below 8 entries, the balanced tree
    ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)) at 8.  So it equals
    `np.stack(cols, axis=-1).sum(axis=-1)` bit for bit.
    """
    if len(cols) > 8:
        raise ValueError("sum_columns reproduces reductions of <= 8 entries")
    if len(cols) < 8:
        return fold_columns(np.add, cols, out)
    lo = np.add(cols[0], cols[1])
    lo += np.add(cols[2], cols[3])
    hi = np.add(cols[4], cols[5])
    hi += np.add(cols[6], cols[7])
    return np.add(lo, hi, out=out)


def _gray_codes(n_bits):
    """Binary-reflected Gray sequence for indices 0 .. 2**n_bits - 1."""
    idx = np.arange(1 << n_bits)
    return idx ^ (idx >> 1)


class Constellation:
    """Gray-labeled unit-energy square QAM constellation.

    Parameters
    ----------
    order : int
        Constellation size M, one of 4, 16, 64.

    Attributes
    ----------
    order, bits_per_symbol : int
        M and Q = log2(M).
    amplitudes : ndarray (sqrt(M),)
        Real amplitudes shared by the I and Q rails, sorted descending so
        that the all-zero label lands on the most positive amplitude.
    labels : ndarray (sqrt(M), Q/2)
        Gray bit label of each amplitude, matching `amplitudes` order.
    points : ndarray (M,)
        Complex points, unit average energy.
    point_labels : ndarray (M, Q)
        Bit pattern of each point in `points`.
    """

    SUPPORTED = (4, 16, 64)

    def __init__(self, order):
        if order not in self.SUPPORTED:
            raise ValueError(f"unsupported constellation order {order}")
        self.order = int(order)
        self.bits_per_symbol = int(np.log2(order))
        q = self.bits_per_symbol // 2
        m = 1 << q  # amplitudes per rail, sqrt(M)

        # Odd levels +-1, +-3, ... scaled to unit complex symbol energy.
        delta = np.sqrt(3.0 / (2.0 * (order - 1)))
        self.amplitudes = delta * np.arange(m - 1, -m, -2).astype(float)

        gray = _gray_codes(q)
        self.labels = (gray[:, None] >> np.arange(q - 1, -1, -1)) & 1
        # label integer -> amplitude index (inverse of the Gray map)
        self._amp_index_of_label = np.empty(m, dtype=np.int64)
        self._amp_index_of_label[gray] = np.arange(m)

        # Full complex constellation: first q bits pick I, last q pick Q.
        amp_i = np.repeat(self.amplitudes, m)
        amp_q = np.tile(self.amplitudes, m)
        self.points = amp_i + 1j * amp_q
        self.point_labels = np.concatenate(
            [np.repeat(self.labels, m, axis=0), np.tile(self.labels, (m, 1))],
            axis=1,
        )

    @property
    def bits_per_dim(self):
        return self.bits_per_symbol // 2

    @property
    def n_amplitudes(self):
        return self.amplitudes.size

    def amp_indices(self, bits):
        """Map bit rows (..., Q/2) to amplitude indices via the Gray labeling."""
        bits = np.asarray(bits)
        weights = 1 << np.arange(self.bits_per_dim - 1, -1, -1)
        label_int = (bits * weights).sum(axis=-1)
        return self._amp_index_of_label[label_int]


class SymbolPrior:
    """Factorized prior over the real amplitudes of each real dimension.

    `probs` has shape (n_dims, n_amplitudes) with rows ordered like the
    real-valued model ([all I, all Q] within a symbol group).  Means and
    variances of each row are derived on construction.
    """

    def __init__(self, probs, constellation):
        probs = np.asarray(probs, dtype=float)
        self.probs = probs
        self.constellation = constellation
        amps = constellation.amplitudes
        self.mean = probs @ amps
        self.var = probs @ amps**2 - self.mean**2
        # tiny negatives from cancellation only
        self.var = np.maximum(self.var, 0.0)

    @property
    def n_dims(self):
        return self.probs.shape[-2]

    def validate(self, tol=1e-9):
        sums = self.probs.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=tol):
            raise ValueError("prior rows must sum to 1")
        if np.any(self.var < 0):
            raise ValueError("prior variance must be nonnegative")


def map_bits(bits, constellation):
    """Gray-map a bit vector onto complex constellation symbols.

    `bits` may carry leading batch axes; the last axis length must be a
    multiple of Q.
    """
    bits = np.asarray(bits)
    q2 = constellation.bits_per_symbol
    if bits.shape[-1] % q2:
        raise ValueError(
            f"bit count {bits.shape[-1]} not divisible by Q={q2}"
        )
    groups = bits.reshape(*bits.shape[:-1], -1, q2)
    q = constellation.bits_per_dim
    idx_i = constellation.amp_indices(groups[..., :q])
    idx_q = constellation.amp_indices(groups[..., q:])
    amps = constellation.amplitudes
    return amps[idx_i] + 1j * amps[idx_q]


def uniform_prior(constellation, n_dims):
    """Uninformative prior: 1/sqrt(M) on every real amplitude of every dimension."""
    m = constellation.n_amplitudes
    probs = np.full((n_dims, m), 1.0 / m)
    return SymbolPrior(probs, constellation)


def prior_probs_from_llr(llr, constellation):
    """Batched LLRs (..., n_sym, Q) -> amplitude probabilities (..., 2*n_sym, m).

    The symbol prior is the product of its per-bit probabilities, split
    between the I and Q rails by the labeling convention; output rows are
    ordered [I_0..I_{n-1}, Q_0..Q_{n-1}] along the second-to-last axis.
    Each amplitude's probability is one product of bit-probability
    columns over both rails at once, normalised by `sum_columns`, which
    gives the products and the sum over the last axis bit for bit.
    """
    q = constellation.bits_per_dim
    m = constellation.n_amplitudes
    labels = constellation.labels
    llr = np.clip(np.asarray(llr, dtype=float), -LLR_CLAMP, LLR_CLAMP)
    p0 = 1.0 / (1.0 + np.exp(-llr))
    # (..., n_sym, Q) -> (..., 2, n_sym, q): the I rail's bits, then the Q rail's
    p0 = np.moveaxis(p0.reshape(llr.shape[:-1] + (2, q)), -2, -3)
    bit = (p0, 1.0 - p0)  # P(b_j = 0), P(b_j = 1)
    cols = []
    for label in labels:
        col = bit[label[0]][..., 0]
        for j in range(1, q):
            col = col * bit[label[j]][..., j]
        cols.append(col)
    # product priors are normalized by construction; renormalize for hygiene
    total = sum_columns(cols)
    probs = np.empty(p0.shape[:-1] + (m,))
    for k, col in enumerate(cols):
        np.divide(col, total, out=probs[..., k])
    return probs.reshape(llr.shape[:-2] + (-1, m))


def llr_to_prior(llr, constellation):
    """Turn decoder LLRs (n_sym, Q) into a per-real-dimension SymbolPrior."""
    llr = np.asarray(llr, dtype=float)
    q2 = constellation.bits_per_symbol
    if llr.ndim != 2 or llr.shape[1] != q2:
        raise ValueError(f"LLR frame must have shape (n_symbols, {q2})")
    return SymbolPrior(prior_probs_from_llr(llr, constellation), constellation)


def demap_llr(ext_mean, ext_var, prior, constellation, dtype=np.float64):
    """Extrinsic bit LLRs from a Gaussian extrinsic pdf on each real dimension.

    Parameters
    ----------
    ext_mean, ext_var : ndarray (2n,)
        Moments of the extrinsic Gaussian per real dimension, ordered
        [all I, all Q].  Variances must be positive.
    prior : SymbolPrior
        A-priori amplitude probabilities per dimension.  For each bit the
        LLR includes the priors of the *other* bits on the same rail, so
        the result is extrinsic per bit; with a uniform prior this reduces
        to the plain Gaussian log-ratio over the constellation.
    dtype : np.float64 or np.float32
        Precision of the LLR arithmetic and of the result.  float32
        moves the LLRs within the tolerance `tests/test_demapper_float32.py`
        declares against float64 (see `_demap_dims`); the JDD loop
        demaps in float32 for its float32 decoder.

    Returns
    -------
    ndarray (n, Q) of LLRs in `dtype`, clamped to +-LLR_CLAMP.
    """
    mean = np.atleast_1d(np.asarray(ext_mean, dtype=float))
    var = np.atleast_1d(np.asarray(ext_var, dtype=float))
    if np.any(var <= 0):
        raise ValueError("extrinsic variances must be positive")
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ValueError("demap_llr computes in float32 or float64")
    probs = prior.probs if isinstance(prior, SymbolPrior) else np.asarray(prior)
    if probs.shape[-2] != mean.shape[-1]:
        raise ValueError("prior/extrinsic dimension mismatch")
    llr2 = _demap_dims(mean, var, probs, constellation, dtype)  # (..., 2n, q)
    n = mean.shape[-1] // 2
    return np.concatenate([llr2[..., :n, :], llr2[..., n:, :]], axis=-1)


def _demap_dims(mean, var, probs, constellation, dtype=np.float64):
    """Per-dimension bit LLRs; mean/var/probs may carry leading batch axes.

    The m amplitudes and q bits of a rail are a handful of entries, so
    every sum and max* over them runs as elementwise steps over whole
    (..., 2n) columns, folded in the order the reductions over those axes
    take (`sum_columns`, `fold_columns`), which keeps the float64 LLRs
    bit for bit those of the reductions.

    In float32 each step that cancels stays in float64 and is rounded
    once: the Gaussian exponents are shifted by their per-dimension max
    (which cancels in every LLR) before the cast, and the bit
    log-marginals are cast once formed.  The sums and max* folds then
    run in float32, max* as `maxstar_finite`.  A uniform prior (every
    entry 1/m) adds the same log prior to every amplitude of a bit's
    numerator and denominator, so float32 leaves it out.
    """
    amps = constellation.amplitudes
    labels = constellation.labels
    q = constellation.bits_per_dim
    m = amps.size
    single = np.dtype(dtype) == np.float32
    cols = [probs[..., k] for k in range(m)]

    # Gaussian log-likelihood of each amplitude, amplitude-major
    logw = np.subtract(amps.reshape((m,) + (1,) * mean.ndim), mean)
    np.square(logw, out=logw)
    np.negative(logw, out=logw)
    logw /= 2.0 * var
    if single:
        logw -= fold_columns(np.maximum, logw)
        # weights below e^-1e30 are 0 either way; the floor keeps the
        # cast finite at any positive variance
        logw = np.maximum(logw, -1e30, out=logw).astype(np.float32)
        maxstar_fold = maxstar_finite
    else:
        maxstar_fold = np.logaddexp

    own = None
    if not (single and probs.min() == probs.max() == 1.0 / m):
        # per-bit prior marginals recovered from the amplitude
        # probabilities: log_bit[j][b] is log P(bit j = b)
        log_bit = []
        for j in range(q):
            p0 = sum_columns([cols[k] for k in range(m) if labels[k, j] == 0])
            log_bit.append(tuple(
                np.log(np.maximum(p, 1e-300)).astype(dtype, copy=False)
                for p in (p0, 1.0 - p0)))

        # add the log prior of each amplitude as a product over bits, then
        # exclude the bit being demapped so its own prior never feeds back
        own = [[log_bit[j][labels[k, j]] for j in range(q)] for k in range(m)]
        for k in range(m):
            logw[k] += sum_columns(own[k])

    llr = np.empty(mean.shape + (q,), dtype)
    for j in range(q):
        w = logw if own is None else [logw[k] - own[k][j] for k in range(m)]
        num = fold_columns(maxstar_fold,
                           [w[k] for k in range(m) if labels[k, j] == 0])
        den = fold_columns(maxstar_fold,
                           [w[k] for k in range(m) if labels[k, j] == 1])
        np.subtract(num, den, out=llr[..., j])
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP, out=llr)
