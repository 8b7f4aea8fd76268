"""Rate-1/2 turbo code: RSC encoders, BCJR decoding, and extrinsic scaling.

The constituent code is the classic 8-state recursive systematic
convolutional encoder with feedback 1 + D^2 + D^3 and forward polynomial
1 + D + D^3.  Both trellises are terminated with three tail steps.

Codeword layout (V = 2K + 12 bits):

    [ systematic (K) | punctured parity (K) | tail1 (6) | tail2 (6) ]

The punctured parity stream takes odd positions from encoder 1 and even
positions from encoder 2 (0-based); each tail block interleaves the
encoder's systematic and parity tail bits step by step.  Depunctured
positions decode as erasures (LLR 0).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .modem import maxstar, maxstar_reduce

NEG_INF = -1e30

# LTE-style quadratic permutation polynomial coefficients (f1, f2) per K
QPP_COEFFS = {
    40: (3, 10),
    48: (7, 12),
    56: (19, 42),
    64: (7, 16),
    72: (7, 18),
    80: (11, 20),
    88: (5, 22),
    96: (11, 24),
    104: (7, 26),
    112: (41, 84),
    120: (103, 90),
    128: (15, 32),
}


class Trellis:
    """8-state RSC trellis with transition and termination tables.

    State index is m1*4 + m2*2 + m3 with m1 the most recent register.
    """

    def __init__(self):
        self.n_states = 8
        self.next_state = np.zeros((8, 2), dtype=np.int64)
        self.parity = np.zeros((8, 2), dtype=np.int64)
        self.term_input = np.zeros(8, dtype=np.int64)
        for s in range(8):
            m1, m2, m3 = (s >> 2) & 1, (s >> 1) & 1, s & 1
            for u in (0, 1):
                a = u ^ m2 ^ m3  # feedback 1 + D^2 + D^3
                p = a ^ m1 ^ m3  # forward 1 + D + D^3
                self.next_state[s, u] = (a << 2) | (m1 << 1) | m2
                self.parity[s, u] = p
            self.term_input[s] = m2 ^ m3
        # reverse tables: the two (state, input) pairs entering each state
        prev = [[] for _ in range(8)]
        for s in range(8):
            for u in (0, 1):
                prev[self.next_state[s, u]].append((s, u))
        self.prev_state = np.array([[p[0][0], p[1][0]] for p in prev])
        self.prev_input = np.array([[p[0][1], p[1][1]] for p in prev])

    def encode_stream(self, bits):
        """Run the RSC over the last axis of `bits` ((K,) or (B, K)), then
        terminate: returns (parity, tail_sys, tail_par) with the leading
        shape of `bits`.  The batch is vectorised; the K steps are not."""
        bits = np.asarray(bits, dtype=np.int64)
        s = np.zeros(bits.shape[:-1], dtype=np.int64)
        parity = np.empty(bits.shape, dtype=np.int64)
        for k in range(bits.shape[-1]):
            u = bits[..., k]
            parity[..., k] = self.parity[s, u]
            s = self.next_state[s, u]
        tail_sys = np.empty(bits.shape[:-1] + (3,), dtype=np.int64)
        tail_par = np.empty(bits.shape[:-1] + (3,), dtype=np.int64)
        for k in range(3):
            u = self.term_input[s]
            tail_sys[..., k] = u
            tail_par[..., k] = self.parity[s, u]
            s = self.next_state[s, u]
        assert np.all(s == 0), "termination must reach state 0"
        return parity, tail_sys, tail_par


def qpp_interleaver(k, seed=0):
    """Interleaver permutation: QPP where coefficients are published, else seeded random."""
    if k in QPP_COEFFS:
        f1, f2 = QPP_COEFFS[k]
        i = np.arange(k, dtype=np.int64)
        pi = (f1 * i + f2 * i * i) % k
        if len(np.unique(pi)) != k:
            raise ValueError(f"QPP coefficients for K={k} do not permute")
        return pi
    return np.random.default_rng(seed).permutation(k)


@dataclass
class ScaledDecoderWeights:
    """Extrinsic scale factors, one per constituent per turbo iteration."""

    values: np.ndarray  # (n_iter, 2)

    @classmethod
    def initial(cls, n_iter, value=0.7):
        return cls(np.full((n_iter, 2), float(value)))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("decoder weights must be finite")


@dataclass
class TurboCodec:
    """Immutable codec configuration shared by encoder and decoders."""

    k: int
    interleaver: np.ndarray = None
    decoder: str = "max-log"  # 'max-log' | 'log' | 'scaled-max-log'
    n_iter: int = 5
    seed: int = 0
    trellis: Trellis = field(default_factory=Trellis)

    def __post_init__(self):
        if self.interleaver is None:
            self.interleaver = qpp_interleaver(self.k, self.seed)
        self.interleaver = np.asarray(self.interleaver)
        if sorted(self.interleaver.tolist()) != list(range(self.k)):
            raise ValueError("interleaver must be a permutation of 0..K-1")
        if self.decoder not in ("max-log", "log", "scaled-max-log"):
            raise ValueError(f"unknown decoder kind {self.decoder!r}")

    @property
    def n_coded(self):
        """Transmitted codeword length V = 2K + 12."""
        return 2 * self.k + 12

    @property
    def rate(self):
        return self.k / self.n_coded

    def interleave(self, x):
        """x[..., interleaver], permuting the last axis."""
        return np.take(x, self.interleaver, axis=-1)

    @cached_property
    def _inverse_interleaver(self):
        inverse = np.empty_like(self.interleaver)
        inverse[self.interleaver] = np.arange(self.k)
        return inverse

    @cached_property
    def generator(self):
        """(K, V) generator matrix of the code, as floats for BLAS.

        Row i is the codeword of the i-th unit message.  The zero-state
        RSCs, their termination, the interleaver and the puncturing are
        all linear over GF(2), so a message's codeword is the sum of its
        rows mod 2; the sums stay below K, which float64 holds exactly.
        The rows come from one batched run of both RSCs over the unit
        messages.  K (2K + 12) entries: 72 kB at K = 64.
        """
        unit = np.eye(self.k, dtype=np.int64)
        par1, t1s, t1p = self.trellis.encode_stream(unit)
        par2, t2s, t2p = self.trellis.encode_stream(self.interleave(unit))
        punct = np.where(np.arange(self.k) % 2 == 1, par1, par2)
        tail1 = np.stack([t1s, t1p], axis=-1).reshape(self.k, 6)
        tail2 = np.stack([t2s, t2p], axis=-1).reshape(self.k, 6)
        return np.concatenate([unit, punct, tail1, tail2], axis=1).astype(float)

    def deinterleave(self, x):
        """The inverse of `interleave`: out[..., interleaver] = x."""
        return np.take(x, self._inverse_interleaver, axis=-1)


def encode(msg, codec):
    """Encode K message bits into the V-bit punctured turbo codeword.

    `msg` is one message (K,) or a batch (B, K); the codeword has the
    same leading shape.  It is msg @ codec.generator mod 2, so one frame
    costs one small matrix-vector product.
    """
    msg = np.asarray(msg, dtype=np.int64)
    if msg.ndim not in (1, 2) or msg.shape[-1] != codec.k:
        raise ValueError(f"message must have length {codec.k}")
    return (msg @ codec.generator).astype(np.int64) & 1


def _working_dtype(x):
    """The decoder's arithmetic dtype for input `x`: float32 for float32
    input, float64 for anything else."""
    return np.float32 if np.asarray(x).dtype == np.float32 else np.float64


def _split_codeword_llrs(llrs, codec):
    """Depuncture channel LLRs into per-constituent (sys, par) arrays with tails.

    Accepts (V,) or (B, V); returns arrays with trailing length K + 3, in
    the working dtype of `llrs`.  Punctured parity positions become
    erasures (0).
    """
    llrs = np.atleast_2d(np.asarray(llrs, dtype=_working_dtype(llrs)))
    k = codec.k
    if llrs.shape[-1] != codec.n_coded:
        raise ValueError(f"expected {codec.n_coded} channel LLRs")
    b = llrs.shape[0]
    sys_msg = llrs[:, :k]
    punct = llrs[:, k : 2 * k]
    tail1 = llrs[:, 2 * k : 2 * k + 6].reshape(b, 3, 2)
    tail2 = llrs[:, 2 * k + 6 :].reshape(b, 3, 2)

    odd = np.arange(k) % 2 == 1
    par1 = np.where(odd, punct, 0.0)
    par2 = np.where(~odd, punct, 0.0)

    sys1 = np.concatenate([sys_msg, tail1[:, :, 0]], axis=1)
    p1 = np.concatenate([par1, tail1[:, :, 1]], axis=1)
    sys2 = np.concatenate([codec.interleave(sys_msg), tail2[:, :, 0]], axis=1)
    p2 = np.concatenate([par2, tail2[:, :, 1]], axis=1)
    return sys1, p1, sys2, p2


# Steps per block of the posterior evaluation in `_bcjr_batch`.  Each
# block's transition metrics are (block, 16, B) floats, 384 kB in float64
# at B = 512, and one gathered operand of the same size is live beside
# them.  The decoder runs at the JDD chunk's peak memory, so the block is
# sized to add nothing to it: the peak traced allocation of one
# 4-iteration float64 decode of 512 K = 64 frames is 11.01 MiB with
# blocks of 6 and 11.29 with 8, against 11.06 for the former (8, 8, B)
# pairs.  One call with bit posteriors took the same time with blocks of
# 4, 6 and 8, and 1.5-2 times as long with 16 or 32 (30 alternating
# repeats, 2-vCPU VM).
POSTERIOR_BLOCK = 6


def _bcjr_batch(sys_llr, par_llr, apriori, trellis, algo, want_bit_posteriors=False):
    """Forward-backward pass over (B, K+3) LLR arrays.

    Returns (posterior, extrinsic) for the K message bits; with
    `want_bit_posteriors` also the systematic and parity bit posteriors
    over all K + 3 steps (used for detector feedback).

    Layout: time-major and state-major, with the batch innermost.  A step
    has only four distinct branch metrics, kept as gamma (K+3, 4, B) and
    indexed by the code 2u + p of input bit u and parity bit p.  The alpha
    and beta recursions run as one sweep: row j of one (K+4, 16, B) array
    holds alpha_j in its first 8 states and beta_{K+3-j} in its last 8,
    and each step gathers its 32 candidate states and branch metrics with
    two `take`s by flat index, folds them with one max* and normalises
    both halves at once.  The posteriors are evaluated over blocks of
    POSTERIOR_BLOCK steps: one (block, 16, B) array of the transitions
    with u = 0 and u = 1, each summed as (alpha + gamma) + beta, then
    folded over the states in ascending order, one reduction for both
    bit values.  Every output is bit-identical to a per-step evaluation in
    (B, 8, 2) layout.  Every array is in the working dtype of `sys_llr`.
    """
    if algo == "log":
        star, star_reduce = maxstar, maxstar_reduce
    elif algo == "max-log":
        star, star_reduce = np.maximum, np.max
    else:
        raise ValueError(f"unknown BCJR algorithm {algo!r}")

    dtype = _working_dtype(sys_llr)
    sys_llr = np.asarray(sys_llr, dtype=dtype)
    par_llr = np.asarray(par_llr, dtype=dtype)
    apriori = np.asarray(apriori, dtype=dtype)
    b, n = sys_llr.shape
    k = apriori.shape[1]
    if par_llr.shape != (b, n) or n != k + 3:
        raise ValueError("misaligned BCJR input lengths")
    tr = trellis
    code = 2 * np.arange(2) + tr.parity  # (8, 2): code of transition (s, u)

    # branch metric of code 2u + p: (+-half_sys) + (+-half_par), sign - for 1
    la_full = np.concatenate([apriori, np.zeros((b, 3), dtype)], axis=1)
    half_sys = (0.5 * (sys_llr + la_full)).T
    half_par = (0.5 * par_llr).T
    gamma = np.empty((n, 4, b), dtype)
    np.add(half_sys, half_par, out=gamma[:, 0])
    np.subtract(half_sys, half_par, out=gamma[:, 1])
    np.add(-half_sys, half_par, out=gamma[:, 2])
    np.subtract(-half_sys, half_par, out=gamma[:, 3])
    gamma_rows = gamma.reshape(4 * n, b)

    # Step j takes alpha_j -> alpha_{j+1} over the transitions entering each
    # state and beta_{n-j} -> beta_{n-j-1} over those leaving it: 32
    # candidates, the first 16 folded with the last 16 by one max*.
    prev, nxt = tr.prev_state, tr.next_state
    pcode = code[prev, tr.prev_input]
    state_idx = np.concatenate(
        [prev[:, 0], 8 + nxt[:, 0], prev[:, 1], 8 + nxt[:, 1]])
    fwd, bwd = 4 * np.arange(n)[:, None], 4 * np.arange(n - 1, -1, -1)[:, None]
    gamma_idx = np.concatenate(
        [fwd + pcode[:, 0], bwd + code[:, 0], fwd + pcode[:, 1], bwd + code[:, 1]],
        axis=1)  # (n, 32)
    # One allocation for both recursions: at B = 512, K = 64, 4.5 MB in
    # float64 and 2.2 MB in float32.  Freeing it raises glibc's dynamic
    # mmap threshold to that size and the heap trim threshold to twice it,
    # so the EP arrays of later work in the same process stay on the heap.
    # Two 2.2 MB float64 arrays made the EP and online-training figures of
    # the benchmark's sweep-jdd runs 2-5% slower than one 4.5 MB array.
    # The one 2.2 MB float32 array moved them by -1.3% and 0.0% there and
    # train's online_epoch_ms by +6.3% (medians of 10 pairs), while traced
    # sweep-jdd rounds took 103-105k minor faults against 73-74k.
    # Steps write rows 1..n in full before reading them, so only row 0,
    # the known start states of alpha and beta, is initialised.
    sweep = np.empty((n + 1, 16, b), dtype)
    sweep[0] = NEG_INF
    sweep[0, 0] = sweep[0, 8] = 0.0
    for j in range(n):
        cand = sweep[j].take(state_idx, axis=0)
        cand += gamma_rows.take(gamma_idx[j], axis=0)
        m = star(cand[:16], cand[16:]).reshape(2, 8, b)
        np.subtract(m, m.max(axis=1, keepdims=True),
                    out=sweep[j + 1].reshape(2, 8, b))

    # The transition (s, u) of step i sums alpha_i[s] + gamma_i[code[s, u]]
    # and beta_{i+1}[next[s, u]], rows 16 i + s, 4 i + code[s, u] and
    # 16 (n-1-i) + 8 + next[s, u]; rows u = 0 first, then u = 1.
    sweep_rows = sweep.reshape(16 * (n + 1), b)
    row_s, row_u = np.tile(np.arange(8), 2), np.repeat(np.arange(2), 8)
    steps = n if want_bit_posteriors else k
    at = np.arange(steps)[:, None]
    alpha_idx = 16 * at + row_s
    gam_idx = 4 * at + code[row_s, row_u]
    beta_idx = 16 * (n - 1 - at) + 8 + nxt[row_s, row_u]
    # the same rows reordered as the transitions with parity 0, then 1,
    # each set in ascending state order; u flips the parity of a transition
    by_parity = (8 * (tr.parity[:, 0] ^ np.arange(2)[:, None])
                 + np.arange(8)).ravel()
    # the message posteriors are the first K systematic posteriors
    sys_post = np.empty((steps, b), dtype)
    par_post = np.empty((n, b), dtype) if want_bit_posteriors else None
    for lo in range(0, steps, POSTERIOR_BLOCK):
        hi = min(lo + POSTERIOR_BLOCK, steps)
        full = sweep_rows.take(alpha_idx[lo:hi].ravel(), axis=0)
        full += gamma_rows.take(gam_idx[lo:hi].ravel(), axis=0)
        full += sweep_rows.take(beta_idx[lo:hi].ravel(), axis=0)
        full = full.reshape(hi - lo, 16, b)
        r = star_reduce(full.reshape(hi - lo, 2, 8, b), axis=2)
        np.subtract(r[:, 0], r[:, 1], out=sys_post[lo:hi])
        if par_post is not None:
            r = star_reduce(full.take(by_parity, axis=1).reshape(hi - lo, 2, 8, b),
                            axis=2)
            np.subtract(r[:, 0], r[:, 1], out=par_post[lo:hi])
    sys_post = sys_post.T
    posterior = sys_post[:, :k]
    extrinsic = posterior - apriori - sys_llr[:, :k]
    if not want_bit_posteriors:
        return posterior, extrinsic
    return posterior, extrinsic, sys_post, par_post.T


def bcjr(sys_llr, par_llr, apriori_llr, trellis, algo):
    """Single-frame soft-in soft-out decode of one constituent code.

    sys_llr and par_llr cover the K message steps plus 3 tail steps;
    apriori_llr covers the K message bits.  Returns (posterior, extrinsic)
    for the message bits, where extrinsic = posterior - apriori - sys.
    """
    post, ext = _bcjr_batch(
        np.atleast_2d(sys_llr),
        np.atleast_2d(par_llr),
        np.atleast_2d(apriori_llr),
        trellis,
        algo,
    )
    return post[0], ext[0]


def _decode_batch(ch_llrs, codec, n_iter=None, weights=None, want_feedback=False):
    """Iterative turbo decode over (B, V) channel LLRs.

    Computes in the working dtype of `ch_llrs` (`_working_dtype`), and
    returns posteriors and extrinsics in it: float32 LLRs decode in
    float32, any other input in float64.  Scaled max-log without
    `weights` scales by `ScaledDecoderWeights.initial`.
    """
    n_iter = codec.n_iter if n_iter is None else n_iter
    if n_iter < 1:
        raise ValueError("need at least one turbo iteration")
    algo = "log" if codec.decoder == "log" else "max-log"
    if weights is None and codec.decoder == "scaled-max-log":
        weights = ScaledDecoderWeights.initial(n_iter)

    sys1, p1, sys2, p2 = _split_codeword_llrs(ch_llrs, codec)
    dtype = sys1.dtype
    if weights is not None:
        # a float64 weight would promote a float32 decode to float64
        wv = weights.values.astype(dtype)
        if wv.shape[0] < n_iter:
            raise ValueError("need one weight pair per turbo iteration")

    b, k = sys1.shape[0], codec.k
    la1 = np.zeros((b, k), dtype)
    for it in range(n_iter):
        last = it == n_iter - 1
        res1 = _bcjr_batch(sys1, p1, la1, codec.trellis, algo,
                           want_bit_posteriors=want_feedback and last)
        le1 = res1[1]
        if weights is not None:
            le1 = wv[it, 0] * le1
        la2 = codec.interleave(le1)
        res2 = _bcjr_batch(sys2, p2, la2, codec.trellis, algo,
                           want_bit_posteriors=want_feedback and last)
        le2 = res2[1]
        if weights is not None:
            le2 = wv[it, 1] * le2
        la1 = codec.deinterleave(le2)

    posterior = sys1[:, :k] + le1 + la1
    bits = (posterior < 0).astype(np.int64)
    if not want_feedback:
        return bits, posterior

    # extrinsic LLRs for every transmitted codeword position
    _, _, s1_post, p1_post = res1
    _, _, s2_post, p2_post = res2
    ext = np.empty((b, codec.n_coded), dtype)
    ext[:, :k] = le1 + la1
    odd = np.arange(k) % 2 == 1
    ext[:, k : 2 * k] = np.where(odd, p1_post[:, :k] - p1[:, :k],
                                 p2_post[:, :k] - p2[:, :k])
    ext[:, 2 * k : 2 * k + 6] = np.stack(
        [s1_post[:, k:] - sys1[:, k:], p1_post[:, k:] - p1[:, k:]], axis=2
    ).reshape(b, 6)
    ext[:, 2 * k + 6 :] = np.stack(
        [s2_post[:, k:] - sys2[:, k:], p2_post[:, k:] - p2[:, k:]], axis=2
    ).reshape(b, 6)
    return bits, posterior, ext


def turbo_decode(ch_llrs, codec, n_iter=None, weights=None):
    """Decode one frame of V channel LLRs.

    Returns (message bits, a-priori LLRs for the detector).  The second
    output covers every transmitted codeword bit and is extrinsic from
    the decoder's point of view (posterior minus the channel input).
    """
    bits, _, ext = _decode_batch(
        np.atleast_2d(ch_llrs), codec, n_iter, weights, want_feedback=True
    )
    return bits[0], ext[0]


def decode_posteriors(ch_llrs, codec, n_iter=None, weights=None):
    """Batched decode returning message posterior LLRs (used for fitting)."""
    _, posterior = _decode_batch(np.atleast_2d(ch_llrs), codec, n_iter, weights)
    return posterior


def _golden_refine(fun, lo, hi, tol=1e-3, max_iter=40):
    """Golden-section minimization of a unimodal scalar function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def fit_scaled_weights(dataset, codec, n_iter=None, max_passes=30, tol=3e-4,
                       grid=None):
    """Fit extrinsic scale factors against log-MAP posteriors.

    `dataset` is a sequence of (channel LLR frame, log-MAP posterior
    frame) pairs from a single training SNR.  Each weight is optimized
    coordinate-wise by a coarse grid followed by golden-section
    refinement of the posterior mean-square error; passes repeat until
    the weight vector stabilizes.
    """
    if len(dataset) == 0:
        raise ValueError("empty training dataset")
    n_iter = codec.n_iter if n_iter is None else n_iter
    ch = np.stack([d[0] for d in dataset])
    target = np.stack([d[1] for d in dataset])
    grid = np.linspace(0.1, 1.5, 15) if grid is None else np.asarray(grid)

    values = np.full((n_iter, 2), 0.7)

    def mse(vals):
        post = decode_posteriors(ch, codec, n_iter, ScaledDecoderWeights(vals))
        return float(np.mean((post - target) ** 2))

    span = grid[1] - grid[0]
    for p in range(max_passes):
        before = values.copy()
        for it in range(n_iter):
            for d in range(2):
                def f(w, it=it, d=d):
                    trial = values.copy()
                    trial[it, d] = w
                    return mse(trial)

                if p == 0:
                    # locate the basin once with the coarse grid
                    coarse = [f(w) for w in grid]
                    best = int(np.argmin(coarse))
                    lo = grid[max(best - 1, 0)]
                    hi = grid[min(best + 1, len(grid) - 1)]
                else:
                    lo = values[it, d] - 1.5 * span
                    hi = values[it, d] + 1.5 * span
                values[it, d] = _golden_refine(f, lo, hi, tol=1e-4)
        if p > 0 and np.max(np.abs(values - before)) < tol:
            break
    return ScaledDecoderWeights(values)
