"""The whole-batch meta-training step against the per-task formulation.

The `reference_*` functions are the former bodies of `epdetect.sigmoid`
and of `metaopt._cell_forward`, `_cell_backward`, `_lstm_forward` and
`_unrolled_loss_and_grads`: a boolean-masked sigmoid per gate, one
gradient product per task, and the gate gradients joined by
`np.concatenate`.  The array layout changes keep every operand and the
order of every sum, so loss, gradients, recorded inputs, training
curves, weights and optimizer steps must be equal, not merely close.
"""

import numpy as np
import pytest

from epturbo import metaopt
from epturbo.channel import SnrSpec
from epturbo.epdetect import sigmoid
from epturbo.metaopt import (
    GRAD_CLIP,
    HIDDEN,
    OUTPUT_SCALE,
    Adam,
    ChannelStats,
    LstmOptimizerParams,
    QuadraticTask,
    _unrolled_loss_and_grads,
    apply_optimizer,
    generate_training_set,
    lstm_step,
    meta_train,
    preprocess_gradient,
    train_schedule,
    zero_state,
)


def reference_sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_cell_forward(x, h, c, w, u, b):
    z = x @ w.T + h @ u.T + b
    i = reference_sigmoid(z[:, :HIDDEN])
    f = reference_sigmoid(z[:, HIDDEN : 2 * HIDDEN])
    o = reference_sigmoid(z[:, 2 * HIDDEN : 3 * HIDDEN])
    g = np.tanh(z[:, 3 * HIDDEN :])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    return h_new, c_new, (x, h, c, i, f, o, g, tc)


def reference_cell_backward(dh, dc_in, cache, w, u, grads, prefix):
    x, h, c, i, f, o, g, tc = cache
    dc = dc_in + dh * o * (1.0 - tc**2)
    di = dc * g
    df = dc * c
    do = dh * tc
    dg = dc * i
    dz = np.concatenate(
        [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g**2)],
        axis=1,
    )
    grads[f"{prefix}.W"] += dz.T @ x
    grads[f"{prefix}.U"] += dz.T @ h
    grads[f"{prefix}.b"] += dz.sum(axis=0)
    dx = dz @ w
    dh_prev = dz @ u
    dc_prev = dc * f
    return dx, dh_prev, dc_prev


def reference_lstm_forward(theta, grad, state):
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient passed to the optimizer")
    w = theta.weights
    x = preprocess_gradient(np.clip(grad, -GRAD_CLIP, GRAD_CLIP))
    h1, c1, cache1 = reference_cell_forward(x, state["h1"], state["c1"],
                                            w["l1.W"], w["l1.U"], w["l1.b"])
    h2, c2, cache2 = reference_cell_forward(h1, state["h2"], state["c2"],
                                            w["l2.W"], w["l2.U"], w["l2.b"])
    step = OUTPUT_SCALE * (h2 @ w["head.w"] + w["head.b"][0])
    new_state = {"h1": h1, "c1": c1, "h2": h2, "c2": c2}
    return step, new_state, (cache1, cache2, h2)


def reference_unrolled_loss_and_grads(theta, tasks, horizon, beta0,
                                      frozen_inputs=None):
    w = theta.weights
    n_tasks, dim = beta0.shape
    b = n_tasks * dim
    beta = beta0.copy()
    state = zero_state(b)
    caches = []
    inputs = []
    for t_step in range(horizon):
        if frozen_inputs is None:
            grad = np.stack([t.grad(beta[j]) for j, t in enumerate(tasks)])
            grad = grad.reshape(b)
        else:
            grad = frozen_inputs[t_step]
        inputs.append(grad)
        step, state, cache = reference_lstm_forward(theta, grad, state)
        caches.append(cache)
        beta = beta + step.reshape(n_tasks, dim)

    losses = np.array([t.value(beta[j]) for j, t in enumerate(tasks)])
    loss = losses.sum() / b

    dbeta = np.stack([t.grad(beta[j]) for j, t in enumerate(tasks)]) / b
    dstep = dbeta.reshape(b)
    grads = {k: np.zeros_like(v) for k, v in w.items()}
    dh1 = np.zeros((b, HIDDEN))
    dc1 = np.zeros((b, HIDDEN))
    dh2 = np.zeros((b, HIDDEN))
    dc2 = np.zeros((b, HIDDEN))
    for cache1, cache2, h2 in reversed(caches):
        grads["head.w"] += OUTPUT_SCALE * (dstep @ h2)
        grads["head.b"][0] += OUTPUT_SCALE * dstep.sum()
        dh2_t = dh2 + OUTPUT_SCALE * dstep[:, None] * w["head.w"][None, :]
        dx2, dh2, dc2 = reference_cell_backward(dh2_t, dc2, cache2, w["l2.W"],
                                                w["l2.U"], grads, "l2")
        dh1_t = dh1 + dx2
        _, dh1, dc1 = reference_cell_backward(dh1_t, dc1, cache1, w["l1.W"],
                                              w["l1.U"], grads, "l1")
    return loss, grads, inputs


def reference_meta_train(epochs, rng, lr=1e-3, tasks_per_epoch=20, horizon=20,
                         dim=5):
    """`meta_train`'s loop around the reference unrolled step."""
    theta = LstmOptimizerParams.init(rng)
    adam = Adam(lr=lr)
    curve = np.empty(epochs)
    beta0 = np.ones((tasks_per_epoch, dim))
    for epoch in range(epochs):
        tasks = [QuadraticTask.sample(dim, rng) for _ in range(tasks_per_epoch)]
        loss, grads, _ = reference_unrolled_loss_and_grads(theta, tasks,
                                                           horizon, beta0)
        adam.step(theta.weights, grads)
        curve[epoch] = loss
    return theta, curve


def assert_same_bits(a, b):
    """Equal shapes and bit patterns: signed zeros and NaN signs too."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_same_weights(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert_same_bits(a[k], b[k])


# a gate pre-activation of either sign and of every size up to saturation
THETA_SCALES = (0.1, 1.0, 4.0)


def _problem(seed, scale, n_tasks, dim):
    rng = np.random.default_rng(seed)
    theta = LstmOptimizerParams.init(rng, scale=scale)
    theta.weights["l1.b"] += scale * rng.standard_normal(4 * HIDDEN)
    tasks = [QuadraticTask.sample(dim, rng) for _ in range(n_tasks)]
    return theta, tasks, np.ones((n_tasks, dim))


class TestSigmoid:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0,
               -745.0, 746.0, -746.0, 36.7, -36.7, 1e-300, -1e-300]

    def test_special_values(self):
        x = np.array(self.SPECIAL)
        assert_same_bits(sigmoid(x), reference_sigmoid(x))
        assert_same_bits(sigmoid(-x), reference_sigmoid(-x))

    @pytest.mark.parametrize("value", SPECIAL)
    def test_zero_d(self, value):
        out = sigmoid(value)
        ref = reference_sigmoid(value)
        assert type(out) is np.ndarray and out.shape == ref.shape == ()
        assert_same_bits(out, ref)

    def test_zero_d_random(self):
        for value in 30.0 * np.random.default_rng(1).standard_normal(200):
            assert_same_bits(sigmoid(value), reference_sigmoid(value))

    def test_two_d_and_strided(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([40.0 * rng.standard_normal((100, 20)),
                            rng.standard_normal((100, 20))])
        for x in (z, z[:, : 3 * HIDDEN], z[:, HIDDEN : 2 * HIDDEN], z.T,
                  z.astype(np.float32), z.tolist()):
            out = sigmoid(x)
            assert out.dtype == np.float64
            assert_same_bits(out, reference_sigmoid(x))


class TestUnrolledStep:
    @pytest.mark.parametrize("scale", THETA_SCALES)
    # 101 coordinates are no multiple of a SIMD width, and a horizon of 41
    # runs past the meta-training one
    @pytest.mark.parametrize("n_tasks,dim,horizon",
                             [(20, 5, 20), (1, 1, 1), (3, 4, 7), (7, 2, 3),
                              (2, 3, 0), (101, 1, 6), (20, 5, 41)])
    def test_recomputed_and_frozen_inputs(self, scale, n_tasks, dim, horizon):
        seed = int(scale * 100) + dim
        theta, tasks, beta0 = _problem(seed, scale, n_tasks, dim)
        ref = reference_unrolled_loss_and_grads(theta, tasks, horizon, beta0)
        got = _unrolled_loss_and_grads(theta, tasks, horizon, beta0)
        assert_same_bits(got[0], ref[0])
        assert_same_weights(got[1], ref[1])
        assert len(got[2]) == len(ref[2]) == horizon
        for a, b in zip(got[2], ref[2]):
            assert_same_bits(a, b)

        # replayed inputs spanning both preprocessing branches, the clip
        # and exact zeros
        rng = np.random.default_rng(dim)
        mags = 10.0 ** rng.uniform(-8, 2, (horizon, n_tasks * dim))
        frozen = list(rng.choice([-1.0, 0.0, 1.0], mags.shape) * mags)
        for inputs in (ref[2], frozen):
            ref = reference_unrolled_loss_and_grads(theta, tasks, horizon,
                                                    beta0, inputs)
            got = _unrolled_loss_and_grads(theta, tasks, horizon, beta0,
                                           frozen_inputs=inputs)
            assert_same_bits(got[0], ref[0])
            assert_same_weights(got[1], ref[1])
            for a, b in zip(got[2], ref[2]):
                assert_same_bits(a, b)

    def test_does_not_modify_arguments(self):
        theta, tasks, beta0 = _problem(1, 1.0, 4, 3)
        before = theta.copy().weights
        _unrolled_loss_and_grads(theta, tasks, 5, beta0)
        assert_same_weights(theta.weights, before)
        assert np.array_equal(beta0, np.ones((4, 3)))


class TestMetaTrain:
    @pytest.mark.parametrize("seed", [3, 17, 301])
    def test_curves_and_weights(self, seed):
        ref_theta, ref_curve = reference_meta_train(
            30, np.random.default_rng(seed), lr=3e-3)
        theta, curve = meta_train(epochs=30, lr=3e-3,
                                  rng=np.random.default_rng(seed))
        assert_same_bits(curve, ref_curve)
        assert_same_weights(theta.weights, ref_theta.weights)


class TestLstmStep:
    @pytest.mark.parametrize("scale", THETA_SCALES)
    def test_steps_and_states(self, scale):
        theta, _, _ = _problem(5, scale, 1, 1)
        rng = np.random.default_rng(6)
        state = ref_state = zero_state(6)
        for k in range(12):
            grad = rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-7, 2, 6)
            grad[k % 6] = 0.0
            step, state = lstm_step(theta, grad, state)
            ref_step, ref_state, _ = reference_lstm_forward(theta, grad,
                                                            ref_state)
            assert_same_bits(step, ref_step)
            assert_same_weights(state, ref_state)

    def test_scalar_gradient(self):
        theta, _, _ = _problem(7, 1.0, 1, 1)
        step, state = lstm_step(theta, -3e-4, zero_state(1))
        ref_step, ref_state, _ = reference_lstm_forward(theta, -3e-4,
                                                        zero_state(1))
        assert_same_bits(step, ref_step)
        assert_same_weights(state, ref_state)


class TestStateBoundary:
    """`lstm_step` keeps the (n, HIDDEN) state layout of `zero_state`."""

    @pytest.mark.parametrize("n", [1, 6, 101])
    def test_states_are_n_by_hidden(self, n):
        theta, _, _ = _problem(8, 1.0, 1, 1)
        rng = np.random.default_rng(n)
        state = ref_state = zero_state(n)
        for _ in range(3):
            grad = rng.standard_normal(n)
            step, state = lstm_step(theta, grad, state)
            ref_step, ref_state, _ = reference_lstm_forward(theta, grad,
                                                            ref_state)
            assert set(state) == {"h1", "c1", "h2", "c2"}
            assert all(v.shape == (n, HIDDEN) for v in state.values())
            assert_same_bits(step, ref_step)
            assert_same_weights(state, ref_state)

    @staticmethod
    def reference_step(theta, grad, state):
        return reference_lstm_forward(theta, grad, state)[:2]

    def test_apply_optimizer(self, monkeypatch):
        theta, tasks, _ = _problem(9, 1.0, 1, 7)
        task = tasks[0]
        got = apply_optimizer(theta, task.value, task.grad, np.ones(7), 25)
        monkeypatch.setattr(metaopt, "lstm_step", self.reference_step)
        ref = apply_optimizer(theta, task.value, task.grad, np.ones(7), 25)
        for name in ("betas", "losses", "best_beta", "best_loss"):
            assert_same_bits(getattr(got, name), getattr(ref, name))

    def test_train_schedule(self, monkeypatch):
        theta, _, _ = _problem(10, 1.0, 1, 1)
        stats = ChannelStats(nt=2, nr=2, mod_order=4,
                             snr=SnrSpec("es", 10.0, 4), n_samples=64, seed=3)
        ds = generate_training_set(stats, np.random.default_rng(11))
        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(metaopt, "lstm_step", self.reference_step)
            sched, curve = train_schedule(theta, ds, layers=3, epochs=6,
                                          beta_init=[0.5, -1.0, 0.0])
            runs.append((sched.raw, curve))
        assert runs[0][1].size == 7
        for got, ref in zip(*runs):
            assert_same_bits(got, ref)
