"""The state-major BCJR against the per-step (B, 8, 2) formulation.

`reference_bcjr_batch` is the former body of `turbocode._bcjr_batch`:
branch metrics gamma[b, step, state, input], alpha and beta over
(B, 8) rows, and one boolean-masked posterior per step.  The layout
change keeps every operand and the order of every sum and fold, so the
outputs must be equal, not merely close.
"""

import numpy as np
import pytest

from epturbo.modem import maxstar
from epturbo.turbocode import (
    NEG_INF,
    Trellis,
    TurboCodec,
    _bcjr_batch,
    _decode_batch,
    decode_posteriors,
)


def reference_bcjr_batch(sys_llr, par_llr, apriori, trellis, algo,
                         want_bit_posteriors=False):
    if algo == "log":
        star = maxstar
        star_reduce = lambda x: np.logaddexp.reduce(x, axis=-1)
    elif algo == "max-log":
        star = np.maximum
        star_reduce = lambda x: np.max(x, axis=-1)
    else:
        raise ValueError(f"unknown BCJR algorithm {algo!r}")

    sys_llr = np.asarray(sys_llr, dtype=float)
    par_llr = np.asarray(par_llr, dtype=float)
    apriori = np.asarray(apriori, dtype=float)
    b, n = sys_llr.shape
    k = apriori.shape[1]
    if par_llr.shape != (b, n) or n != k + 3:
        raise ValueError("misaligned BCJR input lengths")
    tr = trellis

    la_full = np.concatenate([apriori, np.zeros((b, 3))], axis=1)
    # branch metrics: gamma[b, k, s, u] with bit sign +1 for 0, -1 for 1
    sgn_u = 1.0 - 2.0 * np.arange(2)
    sgn_p = 1.0 - 2.0 * tr.parity  # (8, 2)
    half_sys = 0.5 * (sys_llr + la_full)
    gamma = (
        half_sys[:, :, None, None] * sgn_u[None, None, None, :]
        + 0.5 * par_llr[:, :, None, None] * sgn_p[None, None, :, :]
    )

    alpha = np.full((n + 1, b, 8), NEG_INF)
    alpha[0, :, 0] = 0.0
    for i in range(n):
        cand = alpha[i][:, tr.prev_state] + gamma[:, i][
            :, tr.prev_state, tr.prev_input
        ]
        a = star_reduce(cand)
        alpha[i + 1] = a - a.max(axis=1, keepdims=True)

    beta = np.full((n + 1, b, 8), NEG_INF)
    beta[n, :, 0] = 0.0
    for i in range(n - 1, -1, -1):
        cand = beta[i + 1][:, tr.next_state] + gamma[:, i]
        bt = star(cand[..., 0], cand[..., 1])
        beta[i] = bt - bt.max(axis=1, keepdims=True)

    def bit_llr(i, bit_of_transition):
        full = alpha[i][:, :, None] + gamma[:, i] + beta[i + 1][:, tr.next_state]
        flat = full.reshape(b, 16)
        mask0 = (bit_of_transition.reshape(-1) == 0)
        return star_reduce(flat[:, mask0]) - star_reduce(flat[:, ~mask0])

    input_bits = np.tile(np.arange(2), (8, 1))
    steps = n if want_bit_posteriors else k
    sys_post = np.stack([bit_llr(i, input_bits) for i in range(steps)], axis=1)
    posterior = sys_post[:, :k]
    extrinsic = posterior - apriori - sys_llr[:, :k]
    if not want_bit_posteriors:
        return posterior, extrinsic

    par_post = np.stack([bit_llr(i, tr.parity) for i in range(n)], axis=1)
    return posterior, extrinsic, sys_post, par_post


def _inputs(rng, b, k):
    n = k + 3
    sys_llr = rng.normal(size=(b, n)) * 3
    par_llr = rng.normal(size=(b, n)) * 3
    # punctured positions are erasures, and ties must not change a result
    par_llr[:, 1:k:2] = 0.0
    sys_llr[:, k:] = par_llr[:, k:]
    apriori = rng.normal(size=(b, k)) * 2
    return sys_llr, par_llr, apriori


@pytest.mark.parametrize("algo", ["log", "max-log"])
@pytest.mark.parametrize("want", [False, True])
@pytest.mark.parametrize("k", [40, 64, 128])
@pytest.mark.parametrize("b", [1, 7, 512])
def test_bcjr_matches_reference_exactly(algo, want, k, b):
    rng = np.random.default_rng([k, b])
    args = _inputs(rng, b, k) + (Trellis(), algo)
    got = _bcjr_batch(*args, want_bit_posteriors=want)
    ref = reference_bcjr_batch(*args, want_bit_posteriors=want)
    assert len(got) == len(ref) == (4 if want else 2)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.array_equal(g, r)


def _edge_inputs(kind, rng, b, k):
    sys_llr, par_llr, apriori = _inputs(rng, b, k)
    if kind == "saturated":
        # the JDD feedback clip: most entries sit at exactly +-50
        return tuple(np.clip(x * 40, -50.0, 50.0)
                     for x in (sys_llr, par_llr, apriori))
    if kind == "large":
        # metrics far beyond one normalisation step's range
        return tuple(x * 1e3 for x in (sys_llr, par_llr, apriori))
    # every branch metric ties
    return tuple(np.zeros_like(x) for x in (sys_llr, par_llr, apriori))


@pytest.mark.parametrize("algo", ["log", "max-log"])
@pytest.mark.parametrize("want", [False, True])
@pytest.mark.parametrize("kind", ["saturated", "large", "zero"])
def test_bcjr_matches_reference_on_edge_inputs(algo, want, kind):
    rng = np.random.default_rng(17)
    args = _edge_inputs(kind, rng, 64, 64) + (Trellis(), algo)
    got = _bcjr_batch(*args, want_bit_posteriors=want)
    ref = reference_bcjr_batch(*args, want_bit_posteriors=want)
    assert len(got) == len(ref) == (4 if want else 2)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.array_equal(g, r)


def test_feedback_decode_matches_reference_exactly(monkeypatch):
    from epturbo import turbocode

    codec = TurboCodec(k=64, decoder="scaled-max-log", n_iter=4)
    rng = np.random.default_rng(3)
    llrs = rng.normal(size=(96, codec.n_coded)) * 4
    got = _decode_batch(llrs, codec, want_feedback=True)
    monkeypatch.setattr(turbocode, "_bcjr_batch", reference_bcjr_batch)
    ref = _decode_batch(llrs, codec, want_feedback=True)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


@pytest.mark.parametrize("decoder", ["log", "max-log", "scaled-max-log"])
def test_decoders_match_reference_exactly(monkeypatch, decoder):
    # the feedback decode of the other decoder kinds, and for every kind
    # the message posteriors that `decode_posteriors` returns
    from epturbo import turbocode

    codec = TurboCodec(k=64, decoder=decoder, n_iter=4)
    rng = np.random.default_rng(4)
    llrs = rng.normal(size=(96, codec.n_coded)) * 4
    got = _decode_batch(llrs, codec, want_feedback=True)
    got_post = decode_posteriors(llrs, codec)
    monkeypatch.setattr(turbocode, "_bcjr_batch", reference_bcjr_batch)
    ref = _decode_batch(llrs, codec, want_feedback=True)
    assert len(got) == len(ref) == 3
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
    assert np.array_equal(got_post, decode_posteriors(llrs, codec))
