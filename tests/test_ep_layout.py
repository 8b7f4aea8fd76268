"""The column-folded tilted moments and demapper against the reductions.

`reference_discrete_moments` and `reference_demap_dims` are the former
bodies of `epdetect.discrete_moments` and `modem._demap_dims`: max, sum
and max* as reductions over the 2-8 amplitudes (or 1-3 bits) of a real
dimension.  The new code runs those reductions as elementwise steps
over whole columns in the reductions' own order and keeps every other
operand, so the outputs must be equal, not merely close.  The last
tests check that an untraced EP run skips exactly the final layer's
tilted moments without changing what it emits, and that the training
loss, which records one layer fewer than it used to, still gives the
loss and gradient of `reference_loss_and_grad`.
"""

import numpy as np
import pytest

import epturbo.epdetect as epdetect
from epturbo.epdetect import (
    DampingSchedule,
    EpConfig,
    EpWorkspace,
    discrete_moments,
    tilt_log_prior,
)
from epturbo.modem import (
    LLR_CLAMP,
    Constellation,
    SymbolPrior,
    _demap_dims,
    demap_llr,
    fold_columns,
    maxstar_reduce,
    sum_columns,
)


def reference_discrete_moments(cav_mean, cav_var, prior, constellation,
                               min_var):
    probs = prior.probs if isinstance(prior, SymbolPrior) else np.asarray(prior)
    amps = constellation.amplitudes
    logw = np.log(np.maximum(probs, 1e-300)) - (
        (amps - cav_mean[..., None]) ** 2
    ) / (2.0 * cav_var[..., None])
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=-1, keepdims=True)
    x_b = w @ amps
    v_b = np.einsum("...k,...k->...", w, (amps - x_b[..., None]) ** 2)
    return x_b, np.maximum(v_b, min_var)


def reference_demap_dims(mean, var, probs, constellation):
    amps = constellation.amplitudes
    labels = constellation.labels
    q = constellation.bits_per_dim

    gauss = -((amps - mean[..., None]) ** 2) / (2.0 * var[..., None])
    log_bit = np.empty(mean.shape + (q, 2))
    for j in range(q):
        p0 = probs[..., labels[:, j] == 0].sum(axis=-1)
        log_bit[..., j, 0] = np.log(np.maximum(p0, 1e-300))
        log_bit[..., j, 1] = np.log(np.maximum(1.0 - p0, 1e-300))

    own = np.empty(mean.shape + (q, amps.size))
    for j in range(q):
        own[..., j, :] = log_bit[..., j, labels[:, j]]
    total = own.sum(axis=-2)

    llr = np.empty(mean.shape + (q,))
    for j in range(q):
        w = gauss + total - own[..., j, :]
        mask0 = labels[:, j] == 0
        num = maxstar_reduce(w[..., mask0], axis=-1)
        den = maxstar_reduce(w[..., ~mask0], axis=-1)
        llr[..., j] = num - den
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP)


ORDERS = (4, 16, 64)
SHAPES = ((8,), (7, 8), (512, 16))


def cavity_inputs(rng, shape, c):
    """Cavity moments over the whole range EP produces, with means on
    amplitudes, flat and near-degenerate variances mixed in."""
    mean = rng.normal(scale=0.8, size=shape)
    var = 10.0 ** rng.uniform(-9, 3, size=shape)
    flat = mean.reshape(-1)
    flat[::5] = rng.choice(c.amplitudes, size=flat[::5].size)
    var.reshape(-1)[::7] = 5e-7
    return mean, var


def priors(rng, shape, c):
    """Random amplitude priors with exact zeros: single zeroed amplitudes
    and one-hot rows."""
    m = c.n_amplitudes
    probs = rng.dirichlet(np.full(m, 0.5), size=shape)
    flat = probs.reshape(-1, m)
    flat[::3, rng.integers(m)] = 0.0
    flat[1::11] = np.eye(m)[rng.integers(m, size=flat[1::11].shape[0])]
    flat /= flat.sum(axis=-1, keepdims=True)
    return probs


@pytest.mark.parametrize("length", range(1, 9))
def test_column_folds_equal_the_reductions(length):
    rng = np.random.default_rng(length)
    for shape in ((1, length), (7, length), (512, 16, length),
                  (9, 5, length)):
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 4, size=shape)
        cols = [a[..., k] for k in range(length)]
        assert np.array_equal(sum_columns(cols), a.sum(axis=-1))
        assert np.array_equal(fold_columns(np.maximum, cols), a.max(axis=-1))
        assert np.array_equal(fold_columns(np.logaddexp, cols),
                              np.logaddexp.reduce(a, axis=-1))
        out = np.empty(shape[:-1])
        assert np.array_equal(sum_columns(cols, out=out), a.sum(axis=-1))


def test_eight_columns_sum_as_a_tree_not_a_left_fold():
    # numpy's pairwise summation adds an axis of 8 as a balanced tree
    a = np.array([1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16])
    cols = [a[k:k + 1] for k in range(8)]
    left = cols[0]
    for c in cols[1:]:
        left = left + c
    assert sum_columns(cols)[0] == a.sum() != left[0]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("min_var", [1e-300, 5e-7])
def test_discrete_moments_equal_reference(order, shape, min_var):
    rng = np.random.default_rng(order + len(shape))
    c = Constellation(order)
    mean, var = cavity_inputs(rng, shape, c)
    probs = priors(rng, shape, c)
    ref = reference_discrete_moments(mean, var, probs, c, min_var)
    assert np.isfinite(ref[0]).all()
    got = discrete_moments(mean, var, probs, c, min_var)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    # as a run passes it: the log prior made once
    got = discrete_moments(mean, var, probs, c, min_var, tilt_log_prior(probs))
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    # uniform priors, whose log prior is one broadcast value
    uniform = np.full(shape + (c.n_amplitudes,), 1.0 / c.n_amplitudes)
    assert tilt_log_prior(uniform).size == 1
    ref = reference_discrete_moments(mean, var, uniform, c, min_var)
    got = discrete_moments(mean, var, uniform, c, min_var)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("order", ORDERS)
def test_discrete_moments_symbol_prior_and_broadcast(order):
    rng = np.random.default_rng(30 + order)
    c = Constellation(order)
    prior = SymbolPrior(priors(rng, (8,), c), c)
    mean, var = cavity_inputs(rng, (8,), c)
    ref = reference_discrete_moments(mean, var, prior, c, 5e-7)
    got = discrete_moments(mean, var, prior, c, 5e-7)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    # one prior row set shared by a batch of cavities
    mean, var = cavity_inputs(rng, (7, 8), c)
    ref = reference_discrete_moments(mean, var, prior, c, 5e-7)
    got = discrete_moments(mean, var, prior, c, 5e-7)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("shape", SHAPES)
def test_demap_dims_equal_reference(order, shape):
    rng = np.random.default_rng(40 + order + len(shape))
    c = Constellation(order)
    mean, var = cavity_inputs(rng, shape, c)
    probs = priors(rng, shape, c)
    ref = reference_demap_dims(mean, var, probs, c)
    assert np.array_equal(_demap_dims(mean, var, probs, c), ref)
    uniform = np.full(shape + (c.n_amplitudes,), 1.0 / c.n_amplitudes)
    assert np.array_equal(_demap_dims(mean, var, uniform, c),
                          reference_demap_dims(mean, var, uniform, c))


@pytest.mark.parametrize("order", ORDERS)
def test_demap_llr_symbol_prior_equals_reference(order):
    rng = np.random.default_rng(50 + order)
    c = Constellation(order)
    prior = SymbolPrior(priors(rng, (8,), c), c)
    mean, var = cavity_inputs(rng, (8,), c)
    llr2 = reference_demap_dims(mean, var, prior.probs, c)
    ref = np.concatenate([llr2[:4], llr2[4:]], axis=-1)
    assert np.array_equal(demap_llr(mean, var, prior, c), ref)


def ep_batch(rng, b=200, n=8, order=16):
    c = Constellation(order)
    h = rng.normal(size=(b, n, n))
    y = rng.normal(scale=2.0, size=(b, n))
    probs = priors(rng, (b, n), c)
    return h, y, probs, c


def counting(monkeypatch):
    calls = []
    inner = epdetect.discrete_moments

    def wrapped(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(epdetect, "discrete_moments", wrapped)
    return calls


@pytest.mark.parametrize("layers", [1, 2, 5])
def test_untraced_run_skips_only_the_last_tilted_moments(monkeypatch, layers):
    rng = np.random.default_rng(60 + layers)
    h, y, probs, c = ep_batch(rng)
    raw = DampingSchedule.from_effective(np.linspace(0.9, 0.2, layers)).raw
    cfg = EpConfig(layers=layers)
    ws = EpWorkspace(h, y, 0.5, c, cfg.min_var)
    pair = cfg.initial_pair(ws.batch, ws.n_dims)
    calls = counting(monkeypatch)
    x_ref, v_ref, recs = ws.run(raw, probs=probs, pair=pair)
    assert len(calls) == layers == len(recs)
    del calls[:]
    x, v, none = ws.run(raw, probs=probs, pair=pair, record=False)
    assert none == []
    assert len(calls) == layers - 1
    assert np.array_equal(x, x_ref) and np.array_equal(v, v_ref)


def test_warm_started_untraced_tail_equals_full_run(monkeypatch):
    # the finite-difference gradient's tail runs: layers i+1..L-1 from a
    # recorded site pair
    rng = np.random.default_rng(70)
    h, y, probs, c = ep_batch(rng)
    raw = DampingSchedule.from_effective([0.9, 0.6, 0.4, 0.2]).raw
    cfg = EpConfig(layers=4)
    ws = EpWorkspace(h, y, 0.5, c, cfg.min_var)
    x_ref, v_ref, recs = ws.run(
        raw, probs=probs, pair=cfg.initial_pair(ws.batch, ws.n_dims))
    calls = counting(monkeypatch)
    for start in (1, 2, 3):
        del calls[:]
        pair = (recs[start]["gamma_in"], recs[start]["lam_in"])
        x, v, _ = ws.run(raw, start_layer=start, probs=probs, pair=pair,
                         record=False)
        assert len(calls) == 3 - start
        assert np.array_equal(x, x_ref) and np.array_equal(v, v_ref)


def reference_loss_and_grad(beta_raw, dataset, ws, fd_step=1e-3):
    """The training loss and gradient from one recorded run of all L
    layers, with the tails warm-started from its records."""
    x_out, _, recs = ws.run(beta_raw, probs=dataset.prior_probs,
                            pair=(dataset.init_gamma, dataset.init_lambda))

    def output_loss(x_ab):
        return float(np.mean(np.sum((x_ab - dataset.x_r) ** 2, axis=-1)))

    grad = np.zeros_like(beta_raw)
    for i in range(beta_raw.size - 1):
        sides = []
        for sign in (1.0, -1.0):
            b = beta_raw.copy()
            b[i] += sign * fd_step
            pair = epdetect.damp((recs[i]["gamma_in"], recs[i]["lam_in"]),
                                 (recs[i]["cand_gamma"], recs[i]["cand_lam"]),
                                 b[i])
            x_tail, _, _ = ws.run(b, start_layer=i + 1,
                                  probs=dataset.prior_probs, pair=pair,
                                  record=False)
            sides.append(output_loss(x_tail))
        grad[i] = (sides[0] - sides[1]) / (2 * fd_step)
    return output_loss(x_out), grad


@pytest.mark.parametrize("layers", [1, 2, 5])
def test_training_loss_and_gradient_equal_reference(monkeypatch, layers):
    # the loss records layers 0..L-2 and runs the last cavity on its own
    from epturbo.channel import SnrSpec
    from epturbo.metaopt import (
        ChannelStats,
        _workspace_for,
        epnet_loss_and_grad,
        generate_training_set,
    )

    stats = ChannelStats(nt=4, nr=4, mod_order=16,
                         snr=SnrSpec("eb-uncoded", 12.0, 16), n_samples=300,
                         seed=layers)
    ds = generate_training_set(stats)
    ws = _workspace_for(ds, layers, 5e-7)
    beta = DampingSchedule.from_effective(np.linspace(0.8, 0.1, layers)).raw
    ref_loss, ref_grad = reference_loss_and_grad(beta, ds, ws)
    calls = counting(monkeypatch)
    loss, grad = epnet_loss_and_grad(beta, ds, workspace=ws)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)
    # L - 1 recorded layers, then sum over the tails of (L - 2 - i) layers
    tails = sum(2 * (layers - 2 - i) for i in range(layers - 1))
    assert len(calls) == max(layers - 1, 0) + tails
