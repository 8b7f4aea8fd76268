import numpy as np
import pytest

from epturbo import metaopt
from epturbo.channel import SnrSpec
from epturbo.epdetect import (
    DampingSchedule,
    EpConfig,
    JddReceiver,
    _epnet_core,
    sigmoid,
)
from epturbo.metaopt import (
    Adam,
    ChannelStats,
    EpTrainingSet,
    LstmOptimizerParams,
    OptimizerRun,
    QuadraticTask,
    _unrolled_loss_and_grads,
    _workspace_for,
    adam_minimize,
    apply_optimizer,
    epnet_loss_and_grad,
    generate_training_set,
    lstm_step,
    meta_train,
    meta_train_recipe,
    online_train,
    preprocess_gradient,
    quad_grad,
    train_schedule,
    zero_state,
)
from epturbo.modem import Constellation


@pytest.fixture(scope="module")
def quick_theta():
    # small meta-training budget: enough for qualitative descent behavior
    theta, _ = meta_train(epochs=800, lr=3e-3, rng=np.random.default_rng(2))
    return theta


class TestParams:
    def test_init_shapes_and_serialization(self, tmp_path):
        theta = LstmOptimizerParams.init(np.random.default_rng(0))
        path = tmp_path / "theta.json"
        theta.save(path)
        back = LstmOptimizerParams.load(path)
        for k, v in theta.weights.items():
            assert np.array_equal(back.weights[k], v)

    def test_rejects_bad_shapes(self):
        theta = LstmOptimizerParams.init(np.random.default_rng(0))
        w = {k: v.copy() for k, v in theta.weights.items()}
        w["head.w"] = np.zeros(3)
        with pytest.raises(ValueError):
            LstmOptimizerParams(w)

    def test_rejects_nonfinite(self):
        theta = LstmOptimizerParams.init(np.random.default_rng(0))
        w = {k: v.copy() for k, v in theta.weights.items()}
        w["l1.b"][0] = np.nan
        with pytest.raises(ValueError):
            LstmOptimizerParams(w)

    def test_doc_schema_guard(self):
        theta = LstmOptimizerParams.init(np.random.default_rng(0))
        doc = theta.to_doc()
        doc["schema"] = 2
        with pytest.raises(ValueError):
            LstmOptimizerParams.from_doc(doc)

    def test_doc_input_width_guard(self):
        # weights of the one-channel (raw gradient) network must not load
        theta = LstmOptimizerParams.init(np.random.default_rng(0))
        doc = theta.to_doc()
        assert doc["arch"]["input"] == 2
        doc["arch"]["input"] = 1
        with pytest.raises(ValueError):
            LstmOptimizerParams.from_doc(doc)


class TestPreprocessGradient:
    def test_log_magnitude_and_sign_branch(self):
        x = preprocess_gradient(np.array([1.0, -np.e**3, 1e-2]))
        assert np.allclose(x[:, 0], [0.0, 0.3, np.log(1e-2) / 10.0])
        assert np.array_equal(x[:, 1], [1.0, -1.0, 1.0])

    def test_linear_branch_below_threshold(self):
        g = np.array([0.0, 1e-6, -2e-5])
        x = preprocess_gradient(g)
        assert np.array_equal(x[:, 0], [-1.0, -1.0, -1.0])
        assert np.allclose(x[:, 1], np.exp(10.0) * g)

    def test_branches_meet_at_threshold(self):
        t = np.exp(-10.0)
        below, above = preprocess_gradient(np.array([t * (1 - 1e-12), t]))
        assert np.allclose(below, above, atol=1e-9)


class TestLstmStep:
    def test_deterministic(self):
        theta = LstmOptimizerParams.init(np.random.default_rng(1))
        g = np.array([0.5, -2.0, 7.0])
        s1, st1 = lstm_step(theta, g, zero_state(3))
        s2, st2 = lstm_step(theta, g, zero_state(3))
        assert np.array_equal(s1, s2)
        for k in st1:
            assert np.array_equal(st1[k], st2[k])

    def test_zero_weights_constant_output(self):
        theta = LstmOptimizerParams.init(np.random.default_rng(1))
        w = {k: np.zeros_like(v) for k, v in theta.weights.items()}
        w["head.b"][0] = 0.4
        theta0 = LstmOptimizerParams(w)
        step, _ = lstm_step(theta0, np.array([3.0, -8.0]), zero_state(2))
        assert np.allclose(step, 0.1 * 0.4)

    def test_rejects_nonfinite_gradient(self):
        theta = LstmOptimizerParams.init(np.random.default_rng(1))
        with pytest.raises(ValueError):
            lstm_step(theta, np.array([np.nan]), zero_state(1))

    def test_coordinate_permutation_equivariance(self):
        # shared weights, separate states: permuting inputs permutes outputs
        theta = LstmOptimizerParams.init(np.random.default_rng(3))
        g = np.array([0.3, -1.2, 5.0, 0.01])
        perm = np.array([2, 0, 3, 1])
        state = zero_state(4)
        s_a, st_a = lstm_step(theta, g, state)
        s_b, st_b = lstm_step(theta, g[perm], zero_state(4))
        assert np.allclose(s_b, s_a[perm])
        # continues to hold once states are populated
        s_a2, _ = lstm_step(theta, g * 0.5, st_a)
        s_b2, _ = lstm_step(theta, (g * 0.5)[perm], st_b)
        assert np.allclose(s_b2, s_a2[perm])


class TestQuadGrad:
    def test_minimizer_has_zero_gradient(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        task = QuadraticTask(w, rng.standard_normal(4))
        beta_star = np.linalg.solve(w, task.q)
        assert np.allclose(quad_grad(task, beta_star), 0.0, atol=1e-9)

    def test_scalar_case(self):
        task = QuadraticTask(np.array([[2.0]]), np.array([0.0]))
        assert quad_grad(task, np.array([1.0]))[0] == pytest.approx(8.0)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(5)
        task = QuadraticTask.sample(5, rng)
        beta = rng.standard_normal(5)
        g = quad_grad(task, beta)
        h = 1e-6
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (task.value(beta + e) - task.value(beta - e)) / (2 * h)
            assert abs(fd - g[i]) < 1e-6 * max(1.0, abs(fd))


class TestUnrolledGradients:
    def test_head_gradient_hand_chain_rule_single_step(self):
        # T = 1: the head gradient has the closed form
        # dL/dw = 0.1 * sum_coords dL/dbeta_1 * h2,  dL/db = 0.1 * sum dL/dbeta_1
        rng = np.random.default_rng(6)
        theta = LstmOptimizerParams.init(rng)
        tasks = [QuadraticTask.sample(3, rng) for _ in range(2)]
        beta0 = np.ones((2, 3))
        loss, grads, inputs = _unrolled_loss_and_grads(theta, tasks, 1, beta0)

        g0 = np.stack([t.grad(beta0[j]) for j, t in enumerate(tasks)]).reshape(-1)
        step, state = lstm_step(theta, g0, zero_state(6))
        beta1 = beta0 + step.reshape(2, 3)
        dbeta = np.stack([t.grad(beta1[j]) for j, t in enumerate(tasks)]) / 6.0
        d = dbeta.reshape(-1)
        assert np.allclose(grads["head.b"][0], 0.1 * d.sum(), atol=1e-12)
        assert np.allclose(grads["head.w"], 0.1 * (d @ state["h2"]), atol=1e-12)

    def test_full_gradient_matches_frozen_input_fd(self):
        # the dropped-gradient semantics: finite differences with the input
        # sequence replayed from the base rollout
        rng = np.random.default_rng(7)
        theta = LstmOptimizerParams.init(rng)
        tasks = [QuadraticTask.sample(3, rng) for _ in range(2)]
        beta0 = np.ones((2, 3))
        for horizon in (1, 5):
            loss, grads, inputs = _unrolled_loss_and_grads(theta, tasks, horizon,
                                                           beta0)
            gmax = max(np.abs(g).max() for g in grads.values())
            h = 1e-5
            for name in grads:
                flat = theta.weights[name].reshape(-1)
                gf = grads[name].reshape(-1)
                for i in rng.choice(flat.size, size=min(6, flat.size),
                                    replace=False):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp, _, _ = _unrolled_loss_and_grads(theta, tasks, horizon,
                                                        beta0, inputs)
                    flat[i] = orig - h
                    lm, _, _ = _unrolled_loss_and_grads(theta, tasks, horizon,
                                                        beta0, inputs)
                    flat[i] = orig
                    fd = (lp - lm) / (2 * h)
                    assert abs(fd - gf[i]) <= 1e-6 * max(gmax, 1.0)

    def test_dropped_gradient_contract(self):
        # gradients must be identical whether the inputs are recomputed from
        # the optimizee or replayed as constants
        rng = np.random.default_rng(8)
        theta = LstmOptimizerParams.init(rng)
        tasks = [QuadraticTask.sample(4, rng) for _ in range(3)]
        beta0 = np.ones((3, 4))
        loss_a, grads_a, inputs = _unrolled_loss_and_grads(theta, tasks, 6, beta0)
        loss_b, grads_b, _ = _unrolled_loss_and_grads(theta, tasks, 6, beta0,
                                                      frozen_inputs=inputs)
        assert loss_a == loss_b
        for k in grads_a:
            assert np.array_equal(grads_a[k], grads_b[k])


class TestMetaTrain:
    def test_loss_improves_on_held_out_tasks(self, quick_theta):
        rng = np.random.default_rng(9)
        theta0 = LstmOptimizerParams.init(np.random.default_rng(2))
        finals0, finals1 = [], []
        for _ in range(50):
            task = QuadraticTask.sample(5, rng)
            r0 = apply_optimizer(theta0, task.value, task.grad, np.ones(5), 20)
            r1 = apply_optimizer(quick_theta, task.value, task.grad,
                                 np.ones(5), 20)
            finals0.append(r0.best_loss)
            finals1.append(r1.best_loss)
        assert np.median(finals1) < np.median(finals0)

    def test_identical_tasks_match_single_task(self):
        rng = np.random.default_rng(10)
        theta = LstmOptimizerParams.init(rng)
        task = QuadraticTask.sample(4, rng)
        l1, g1, _ = _unrolled_loss_and_grads(theta, [task], 5, np.ones((1, 4)))
        l4, g4, _ = _unrolled_loss_and_grads(theta, [task] * 4, 5,
                                             np.ones((4, 4)))
        assert l1 == pytest.approx(l4, rel=1e-12)
        for k in g1:
            assert np.allclose(g1[k], g4[k], atol=1e-12)

    def test_deterministic_given_seed(self):
        t1, c1 = meta_train(epochs=20, rng=np.random.default_rng(11))
        t2, c2 = meta_train(epochs=20, rng=np.random.default_rng(11))
        assert np.array_equal(c1, c2)
        for k in t1.weights:
            assert np.array_equal(t1.weights[k], t2.weights[k])

    @pytest.mark.parametrize("budget", [0, -3])
    def test_recipe_rejects_empty_budget(self, budget):
        with pytest.raises(ValueError, match="at least 1 epoch"):
            meta_train_recipe(total_epochs=budget,
                              rng=np.random.default_rng(0))

    def test_recipe_runs_each_phase_at_least_once(self):
        _, curve = meta_train_recipe(total_epochs=1,
                                     rng=np.random.default_rng(0))
        assert curve.size == 3

    @pytest.mark.parametrize("budget", [10, 13])
    def test_recipe_runs_the_budget_it_is_given(self, budget):
        # the floors of the 4:2:1 split leave 2 epochs over at both budgets;
        # the first phase runs them
        _, curve = meta_train_recipe(total_epochs=budget,
                                     rng=np.random.default_rng(0))
        assert curve.size == budget

    def test_divergence_guard(self):
        # a pathological warm start drives the quadratic loss to overflow
        theta = LstmOptimizerParams.init(np.random.default_rng(0))
        theta.weights["head.b"][0] = 1e200
        with pytest.raises(RuntimeError), np.errstate(over="ignore"):
            meta_train(epochs=3, rng=np.random.default_rng(12), theta=theta)

    def test_epoch_wall_time(self):
        import time

        rng = np.random.default_rng(13)
        t0 = time.perf_counter()
        meta_train(epochs=5, rng=rng)
        per_epoch = (time.perf_counter() - t0) / 5
        assert per_epoch < 1.0


class TestApplyOptimizer:
    def test_zero_steps_identity(self, quick_theta):
        task = QuadraticTask.sample(5, np.random.default_rng(14))
        run = apply_optimizer(quick_theta, task.value, task.grad,
                              np.ones(5), 0)
        assert np.array_equal(run.betas[0], np.ones(5))
        assert run.betas.shape == (1, 5)

    def test_descent_sanity_on_sum_of_squares(self, quick_theta):
        loss = lambda b: float(b @ b)
        grad = lambda b: 2.0 * b
        run = apply_optimizer(quick_theta, loss, grad, np.ones(5), 20)
        assert run.best_loss < loss(np.ones(5))
        assert np.max(np.abs(run.best_beta)) < 1.0

    def test_early_stop_on_nonfinite_loss(self, quick_theta):
        calls = {"n": 0}

        def loss(b):
            calls["n"] += 1
            return np.inf if calls["n"] > 3 else float(b @ b)

        run = apply_optimizer(quick_theta, loss, lambda b: 2 * b, np.ones(3), 20)
        assert run.losses.size <= 5
        assert np.isfinite(run.best_loss)

    def test_monotone_approach_on_1d_quadratic(self, quick_theta):
        # majority criterion over seeds: after step 3 the iterate should move
        # toward the minimizer of a 1-D convex quadratic
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            a = rng.uniform(0.5, 2.0)
            opt = rng.uniform(-1.0, 0.5)
            task = QuadraticTask(np.array([[a]]), np.array([a * opt]))
            run = apply_optimizer(quick_theta, task.value, task.grad,
                                  np.ones(1), 20)
            d = np.abs(run.betas[:, 0] - opt)
            hits += int(np.all(np.diff(d[3:]) <= 1e-9) or d[-1] < d[3])
        assert hits >= 6


class TestAdamBaseline:
    def test_adam_minimizes_quadratic(self):
        task = QuadraticTask.sample(5, np.random.default_rng(15))
        run = adam_minimize(task.value, task.grad, np.ones(5), 200, lr=0.1)
        assert run.best_loss < 0.1 * task.value(np.ones(5))


@pytest.mark.slow
class TestConvergedOptimizer:
    """Held-out behavior of the shipped (fully meta-trained) optimizer."""

    def test_beats_best_fixed_step_gd(self, shipped_theta):
        # reach a loss <= the best fixed-rate GD within the same 20 steps
        # on at least 70% of 100 fresh tasks
        eval_rng = np.random.default_rng(300)
        wins = 0
        for _ in range(100):
            task = QuadraticTask.sample(5, eval_rng)
            run = apply_optimizer(shipped_theta, task.value, task.grad,
                                  np.ones(5), 20)
            gd_best = np.inf
            for lr in (0.1, 0.03, 0.01):
                b = np.ones(5)
                best = task.value(b)
                for _ in range(20):
                    b = b - lr * task.grad(b)
                    v = task.value(b)
                    if np.isfinite(v):
                        best = min(best, v)
                gd_best = min(gd_best, best)
            wins += int(run.best_loss <= gd_best)
        assert wins >= 70, f"won {wins}/100"

    def test_step_opposes_gradient_sign(self, shipped_theta):
        # design target: the converged unit steps against its input
        # gradient on >= 95% of steps.  The final-loss meta-objective
        # yields momentum-like behavior that caps measured agreement near
        # 85%, so this target is currently not met; the test documents the
        # gap rather than hide it.
        eval_rng = np.random.default_rng(301)
        agree = total = 0
        for _ in range(100):
            task = QuadraticTask.sample(5, eval_rng)
            state = zero_state(5)
            b = np.ones(5)
            for _ in range(20):
                g = task.grad(b)
                step, state = lstm_step(shipped_theta, g, state)
                agree += int(np.sum(np.sign(step) == -np.sign(g)))
                total += 5
                b = b + step
        rate = agree / total
        assert rate >= 0.95, f"sign opposition rate {rate:.3f}"


class TestShippedOptimizerSmallGradients:
    @pytest.mark.parametrize("g", [1e-2, -1e-2])
    def test_first_step_opposes_small_gradient(self, shipped_theta, g):
        # a one-channel raw-gradient input left the network on its
        # zero-input output (the same negative step for either sign) at
        # this magnitude, which is typical of the online damping task
        step, _ = lstm_step(shipped_theta, np.array([g]), zero_state(1))
        assert np.sign(step[0]) == -np.sign(g)


def small_stats(**over):
    base = dict(nt=2, nr=2, mod_order=4,
                snr=SnrSpec("es", 10.0, 4), n_samples=256, seed=3)
    base.update(over)
    return ChannelStats(**base)


class TestEpnetLoss:
    def test_noiseless_identity_channel_perfect_recovery(self):
        # H = I, no noise, L = 1: the cavity mean equals the transmitted
        # symbol, so the loss collapses toward zero as eps shrinks
        c = Constellation(4)
        rng = np.random.default_rng(16)
        x = c.amplitudes[rng.integers(0, 2, (8, 4))]
        n = 4
        ds = EpTrainingSet(
            h_r=np.broadcast_to(np.eye(n), (8, n, n)).copy(),
            y_r=x.copy(), x_r=x,
            prior_probs=np.full((8, n, 2), 0.5),
            init_gamma=np.zeros((8, n)),
            init_lambda=np.full((8, n), 0.5),
            constellation=c, noise_var=1e-12,
        )
        loss, _ = epnet_loss_and_grad(np.array([2.0]), ds, min_var=1e-14)
        assert loss < 1e-6

    def test_gradient_richardson_consistency(self):
        ds = generate_training_set(small_stats(), np.random.default_rng(17))
        beta = np.array([1.0, 0.2, -0.5])
        _, g1 = epnet_loss_and_grad(beta, ds, fd_step=1e-3)
        _, g2 = epnet_loss_and_grad(beta, ds, fd_step=5e-4)
        rel = np.abs(g1 - g2) / np.maximum(np.abs(g2), 1e-9)
        assert np.all(rel < 0.05)

    def test_loss_is_output_layer_mse(self):
        # the objective scores the cavity the detector emits, not an
        # average over the layer trace
        ds = generate_training_set(small_stats(), np.random.default_rng(21))
        beta = np.array([1.0, 0.2, -0.5])
        x_ab, _, trace = _epnet_core(ds.h_r, ds.y_r, ds.noise_var,
                                     ds.prior_probs, ds.constellation, beta,
                                     EpConfig(layers=3,
                                              init_lambda=ds.init_lambda))
        want = np.mean(np.sum((x_ab - ds.x_r) ** 2, axis=-1))
        trace_mean = np.mean(np.sum((trace.x_ab - ds.x_r) ** 2, axis=-1))
        loss, grad = epnet_loss_and_grad(beta, ds)
        assert loss == pytest.approx(want, rel=1e-12)
        assert abs(loss - trace_mean) > 1e-6
        assert grad[-1] == 0.0

    def test_dead_layer_insensitivity(self):
        # a layer whose effective damping is ~0 cannot move the loss; checked
        # at low SNR where near-zero trained factors actually occur and the
        # site candidates stay moderate
        ds = generate_training_set(small_stats(snr=SnrSpec("es", 0.0, 4)),
                                   np.random.default_rng(18))
        base = np.array([1.0, -16.0, 0.5])  # sigmoid(-16) ~ 1e-7
        bumped = base.copy()
        bumped[1] += 0.5
        l0, _ = epnet_loss_and_grad(base, ds)
        l1, _ = epnet_loss_and_grad(bumped, ds)
        assert abs(l1 - l0) / max(abs(l0), 1e-12) < 1e-6

    def test_generate_training_set_consistency(self):
        ds = generate_training_set(small_stats(), np.random.default_rng(19))
        assert ds.h_r.shape == (256, 4, 4)
        assert np.allclose(ds.prior_probs.sum(axis=-1), 1.0)
        # labels actually correspond to the received signal in the
        # noiseless direction: correlation between Hx and y is positive
        proj = np.einsum("bij,bj->bi", ds.h_r, ds.x_r)
        corr = np.sum(proj * ds.y_r) / np.sqrt(np.sum(proj**2) * np.sum(ds.y_r**2))
        assert corr > 0.9

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            generate_training_set(small_stats(n_samples=0))


def parent_train_schedule(theta, dataset, layers, epochs, beta_init,
                          plateau_tol, plateau_window, workspace):
    """`train_schedule`'s loop as it was, with a gradient at every iterate."""
    beta = np.broadcast_to(np.asarray(beta_init, dtype=float),
                           (layers,)).copy()
    state = zero_state(layers)
    losses = []
    ws = workspace
    loss, grad = epnet_loss_and_grad(beta, dataset, workspace=ws)
    losses.append(loss)
    best_beta, best_loss = beta.copy(), loss
    for _ in range(epochs):
        step, state = metaopt.lstm_step(theta, grad, state)
        step[-1] = 0.0
        beta = beta + step
        loss, grad = epnet_loss_and_grad(beta, dataset, workspace=ws)
        losses.append(loss)
        if np.isfinite(loss) and loss < best_loss:
            best_beta, best_loss = beta.copy(), loss
        if not np.isfinite(loss):
            break
        if len(losses) > plateau_window:
            prev = losses[-1 - plateau_window]
            if prev - losses[-1] < plateau_tol * max(prev, 1e-12):
                break
    return DampingSchedule(best_beta), np.asarray(losses)


class CountingWorkspace:
    """An EP workspace that counts its runs.

    A loss evaluation is a recorded run of layers 0..L-2 and a run of
    the last layer; every other run is a central-difference tail.  With
    `poison_at` = k, the last-layer run of the k-th loss evaluation
    returns NaN cavity means, so that loss is not finite.
    """

    def __init__(self, ws, poison_at=None):
        self.ws, self.poison_at = ws, poison_at
        self.runs = self.evaluations = 0
        self.last_layer_next = False

    def run(self, betas_raw, start_layer=0, *, probs, pair, record=True):
        self.runs += 1
        x_ab, v_ab, recs = self.ws.run(betas_raw, start_layer, probs=probs,
                                       pair=pair, record=record)
        if record:
            self.evaluations += 1
            self.last_layer_next = True
        elif self.last_layer_next:
            self.last_layer_next = False
            if self.evaluations == self.poison_at:
                x_ab = np.full_like(x_ab, np.nan)
        return x_ab, v_ab, recs

    def tail_runs(self):
        return self.runs - 2 * self.evaluations


class TestTrainScheduleExits:
    """The last iterate's loss comes without its central differences."""

    LAYERS = 3
    START = np.array([0.5, -1.0, 0.0])

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_training_set(small_stats(n_samples=64),
                                     np.random.default_rng(23))

    def run_both(self, theta, ds, epochs, plateau_tol=1e-4, plateau_window=10,
                 poison_at=None):
        runs = []
        for fn in (train_schedule, parent_train_schedule):
            ws = CountingWorkspace(
                _workspace_for(ds, self.LAYERS, EpConfig().min_var), poison_at)
            sched, curve = fn(theta, ds, self.LAYERS, epochs,
                              beta_init=self.START, plateau_tol=plateau_tol,
                              plateau_window=plateau_window, workspace=ws)
            runs.append((sched.raw, curve, ws))
        (raw, curve, ws), (ref_raw, ref_curve, ref_ws) = runs
        assert np.array_equal(raw.view(np.uint64), ref_raw.view(np.uint64))
        assert np.array_equal(curve.view(np.uint64), ref_curve.view(np.uint64))
        assert ws.evaluations == ref_ws.evaluations == curve.size
        steps = curve.size - 1
        tails = 2 * (self.LAYERS - 1)
        assert ws.tail_runs() == tails * steps
        assert ref_ws.tail_runs() == tails * (steps + 1)
        return curve

    def test_epoch_cap(self, quick_theta, dataset):
        assert self.run_both(quick_theta, dataset, epochs=5).size == 6

    def test_zero_epochs(self, quick_theta, dataset):
        assert self.run_both(quick_theta, dataset, epochs=0).size == 1

    def test_plateau(self, quick_theta, dataset):
        # a tolerance of 1 stops as soon as the window is full
        curve = self.run_both(quick_theta, dataset, epochs=20, plateau_tol=1.0,
                              plateau_window=3)
        assert curve.size == 4

    def test_nonfinite_loss(self, quick_theta, dataset):
        curve = self.run_both(quick_theta, dataset, epochs=20, poison_at=3)
        assert curve.size == 3
        assert np.isnan(curve[-1]) and np.isfinite(curve[:-1]).all()


class TestOnlineTrain:
    def make_receiver(self, stages=1, layers=3, codec=None):
        return JddReceiver(
            codec=codec, constellation=Constellation(4),
            schedules=np.ones((stages, layers)),
            config=EpConfig(layers=layers),
        )

    def test_uncoded_training_reduces_loss(self, quick_theta):
        stats = small_stats(n_samples=512)
        rx = self.make_receiver()
        trained, curves = online_train(rx, stats, quick_theta, epochs=30)
        assert trained.schedules.shape == (1, 3)
        assert curves[0][-1] <= curves[0][0]

    def test_bit_identical_reproduction(self, quick_theta):
        stats = small_stats(n_samples=256)
        rx = self.make_receiver()
        t1, c1 = online_train(rx, stats, quick_theta, epochs=10)
        t2, c2 = online_train(rx, stats, quick_theta, epochs=10)
        assert np.array_equal(t1.schedules, t2.schedules)
        assert np.array_equal(c1[0], c2[0])

    def test_zero_epochs_returns_receiver_schedules(self, quick_theta):
        # training starts from the receiver's own schedule, not a constant
        rx = self.make_receiver()
        rx.schedules = np.array([[0.3, -1.2, 2.0]])
        trained, curves = online_train(rx, small_stats(n_samples=128),
                                       quick_theta, epochs=0)
        assert np.array_equal(trained.schedules, rx.schedules)
        assert curves[0].size == 1

    def test_zero_epochs_returns_jdd_schedules(self, quick_theta):
        from epturbo.turbocode import TurboCodec

        codec = TurboCodec(k=16, decoder="max-log", n_iter=2)
        rx = self.make_receiver(stages=2, layers=2, codec=codec)
        rx.schedules = np.array([[0.5, -0.7], [-2.0, 1.5]])
        stats = small_stats(nt=4, nr=4, n_samples=32,
                            snr=SnrSpec("eb-coded", 4.0, 4, code_rate=codec.rate))
        trained, _ = online_train(rx, stats, quick_theta, epochs=0)
        assert np.array_equal(trained.schedules, rx.schedules)

    def test_empty_stats_rejected(self, quick_theta):
        rx = self.make_receiver()
        with pytest.raises(ValueError):
            online_train(rx, small_stats(n_samples=0), quick_theta)

    def test_jdd_unknown_channel_kind_rejected(self, quick_theta):
        from epturbo.turbocode import TurboCodec

        codec = TurboCodec(k=16, decoder="max-log", n_iter=2)
        rx = self.make_receiver(stages=2, layers=2, codec=codec)
        stats = small_stats(nt=4, nr=4, n_samples=32, kind="Rayleigh",
                            snr=SnrSpec("eb-coded", 4.0, 4, code_rate=codec.rate))
        with pytest.raises(ValueError, match="unknown channel kind"):
            online_train(rx, stats, quick_theta, epochs=1)

    def test_plateau_early_stop(self, quick_theta):
        # a dead objective (H = 0 gives constant loss) stops after the window
        stats = small_stats(n_samples=64)
        ds = generate_training_set(stats, np.random.default_rng(20))
        ds.h_r[:] = 0.0
        ds.y_r[:] = 0.0
        sched, losses = train_schedule(quick_theta, ds, layers=3, epochs=100,
                                       plateau_window=10)
        assert losses.size <= 13

    def test_last_damping_factor_is_frozen(self, quick_theta):
        # the last layer's damping acts after the emitted cavity: its
        # starting value changes nothing else, and comes back unchanged
        ds = generate_training_set(small_stats(n_samples=256),
                                   np.random.default_rng(21))
        runs = []
        for last in (0.1, 0.9):
            start = DampingSchedule.from_effective([0.7, 0.4, last]).raw
            sched, losses = train_schedule(quick_theta, ds, layers=3,
                                           epochs=15, beta_init=start)
            assert sched.raw[-1] == start[-1]
            runs.append((sched.raw, losses))
        (raw_a, curve_a), (raw_b, curve_b) = runs
        assert curve_a.size > 1
        assert np.array_equal(curve_a, curve_b)
        assert np.array_equal(raw_a[:-1], raw_b[:-1])
        assert not np.array_equal(raw_a[:-1], DampingSchedule.from_effective(
            [0.7, 0.4]).raw)

    def test_jdd_stages_share_one_workspace(self, quick_theta, monkeypatch):
        # every stage trains and runs its frozen pass on one H^T H of the
        # training set; schedules and loss curves equal those of a
        # workspace per stage and a separate frozen `_epnet_core` pass
        from epturbo.epdetect import EpWorkspace, stage_feedback
        from epturbo.metaopt import _codeword_training_set
        from epturbo.modem import demap_llr
        from epturbo.turbocode import TurboCodec, _decode_batch

        codec = TurboCodec(k=16, decoder="max-log", n_iter=2)
        rx = self.make_receiver(stages=3, layers=3, codec=codec)
        rx.schedules = np.array([[0.5, -0.7, 0.0], [-2.0, 1.5, 0.0],
                                 [0.0, 0.0, 0.0]])
        stats = small_stats(nt=4, nr=4, n_samples=48,
                            snr=SnrSpec("eb-coded", 4.0, 4, code_rate=codec.rate))
        built = []
        init = EpWorkspace.__init__

        def counting_init(ws, *args, **kwargs):
            built.append(ws)
            init(ws, *args, **kwargs)

        monkeypatch.setattr(EpWorkspace, "__init__", counting_init)
        trained, curves = online_train(rx, stats, quick_theta, epochs=4)
        monkeypatch.undo()
        assert len(built) == 1

        c = rx.constellation
        rng = np.random.default_rng(stats.seed)
        h_r, y_r, x_r, _ = _codeword_training_set(rx, stats, rng)
        b, n_blocks = h_r.shape[:2]
        flat = lambda a: a.reshape(-1, *a.shape[2:])
        n = 2 * stats.nt
        probs = np.full((b * n_blocks, n, c.n_amplitudes), 1.0 / c.n_amplitudes)
        gamma = np.zeros((b * n_blocks, n))
        lam = np.full((b * n_blocks, n), rx.config.init_lambda)
        for stage in range(rx.n_stages):
            ds = EpTrainingSet(h_r=flat(h_r), y_r=flat(y_r), x_r=flat(x_r),
                               prior_probs=probs, init_gamma=gamma,
                               init_lambda=lam, constellation=c)
            sched, curve = train_schedule(quick_theta, ds, 3, 4,
                                          beta_init=rx.schedules[stage])
            assert np.array_equal(trained.schedules[stage], sched.raw)
            assert np.array_equal(curves[stage], curve)
            cfg = EpConfig(layers=3, init_gamma=gamma, init_lambda=lam)
            x_ab, v_ab, _ = _epnet_core(ds.h_r, ds.y_r, ds.noise_var, probs, c,
                                        sched.raw, cfg, record=False)
            # the JDD stage demaps and decodes in float32
            llr = demap_llr(x_ab, v_ab, probs, c,
                            dtype=np.float32).reshape(b, -1)
            _, _, ext = _decode_batch(llr[:, : codec.n_coded], codec,
                                      want_feedback=True)
            probs, gamma, lam = stage_feedback(ext, rx, stats.nt)

    @pytest.mark.parametrize("stages, coded", [(1, False), (1, True),
                                               (3, True)])
    def test_one_frozen_jdd_stage_between_trained_stages(
            self, quick_theta, monkeypatch, stages, coded):
        # stage i > 1 trains on one frozen `jdd_stage` pass of stage i - 1,
        # so a one-stage receiver, coded or not, runs none
        from epturbo import metaopt
        from epturbo.turbocode import TurboCodec

        codec = TurboCodec(k=16, decoder="max-log", n_iter=2) if coded else None
        rx = self.make_receiver(stages=stages, layers=2, codec=codec)
        stats = small_stats(nt=4, nr=4, n_samples=16)
        calls = []
        stage = metaopt.jdd_stage

        def counting_stage(ws, schedule, receiver, *args):
            calls.append(schedule.copy())
            return stage(ws, schedule, receiver, *args)

        monkeypatch.setattr(metaopt, "jdd_stage", counting_stage)
        trained, curves = online_train(rx, stats, quick_theta, epochs=2)
        assert len(calls) == stages - 1
        assert len(curves) == stages
        for sched, raw in zip(calls, trained.schedules):
            assert np.array_equal(sched, raw)

    @pytest.mark.parametrize("coded", [False, True])
    def test_trained_receiver_keeps_all_but_schedules(self, quick_theta,
                                                      coded):
        import dataclasses

        from epturbo.turbocode import TurboCodec

        codec = TurboCodec(k=16, decoder="max-log", n_iter=3) if coded else None
        stages = 2 if coded else 1
        rx = JddReceiver(codec=codec, constellation=Constellation(4),
                         schedules=np.ones((stages, 2)),
                         config=EpConfig(layers=2, min_var=1e-6),
                         feedback_scale=0.6)
        stats = small_stats(nt=4, nr=4, n_samples=16)
        trained, _ = online_train(rx, stats, quick_theta, epochs=3)
        assert trained is not rx
        assert trained.schedules.shape == rx.schedules.shape
        assert np.array_equal(rx.schedules, np.ones((stages, 2)))
        for f in dataclasses.fields(JddReceiver):
            if f.name != "schedules":
                assert getattr(trained, f.name) is getattr(rx, f.name), f.name

    @pytest.mark.parametrize("coded", [False, True])
    def test_first_stage_trains_from_the_receivers_pair(self, quick_theta,
                                                         coded):
        # stage 1's first loss is the output MSE of the receiver's own
        # initial pair, the one `jdd_stage` detects with
        from epturbo.channel import REAL_NOISE_VAR
        from epturbo.metaopt import _codeword_training_set
        from epturbo.turbocode import TurboCodec

        c = Constellation(4)
        if coded:
            codec = TurboCodec(k=16, decoder="max-log", n_iter=2)
            cfg = EpConfig(layers=3, init_gamma=0.3, init_lambda=1.0)
        else:
            codec, cfg = None, EpConfig(layers=3, init_lambda=1.0)
        rx = JddReceiver(codec=codec, constellation=c,
                         schedules=np.tile([0.5, -0.7, 0.0],
                                           (2 if coded else 1, 1)),
                         config=cfg)
        stats = small_stats(nt=4, nr=4, n_samples=32)
        _, curves = online_train(rx, stats, quick_theta, epochs=0)

        rng = np.random.default_rng(stats.seed)
        if coded:
            frames = _codeword_training_set(rx, stats, rng)[:3]
            h_r, y_r, x_r = (a.reshape(-1, *a.shape[2:]) for a in frames)
        else:
            ds = generate_training_set(stats, rng)
            h_r, y_r, x_r = ds.h_r, ds.y_r, ds.x_r
        m = c.n_amplitudes
        probs = np.full(x_r.shape + (m,), 1.0 / m)
        x_ab, _, _ = _epnet_core(h_r, y_r, REAL_NOISE_VAR, probs, c,
                                 rx.schedules[0], cfg, record=False)
        assert curves[0][0] == np.mean(np.sum((x_ab - x_r) ** 2, axis=-1))

    def test_jdd_sequential_training_shapes(self, quick_theta):
        from epturbo.turbocode import TurboCodec

        codec = TurboCodec(k=16, decoder="max-log", n_iter=2)
        rx = self.make_receiver(stages=2, layers=2, codec=codec)
        stats = small_stats(nt=4, nr=4, n_samples=64,
                            snr=SnrSpec("eb-coded", 4.0, 4, code_rate=codec.rate))
        trained, curves = online_train(rx, stats, quick_theta, epochs=5)
        assert trained.schedules.shape == (2, 2)
        assert len(curves) == 2


class TestThetaCache:
    """The fingerprinted optimizer cache behind the shipped_theta fixture."""

    def fresh(self):
        return LstmOptimizerParams.init(np.random.default_rng(5))

    def test_matching_fingerprint_loads_without_training(self, tmp_path):
        from suite_support import load_or_train_theta

        path = tmp_path / "theta.json"
        first = load_or_train_theta(path, "fp-a", self.fresh)

        def fail():
            raise AssertionError("retrained despite a matching cache")

        again = load_or_train_theta(path, "fp-a", fail)
        for k in first.weights:
            assert np.array_equal(again.weights[k], first.weights[k])

    def test_fingerprint_mismatch_retrains_and_rewrites(self, tmp_path):
        import json

        from suite_support import load_or_train_theta

        path = tmp_path / "theta.json"
        load_or_train_theta(path, "fp-old", self.fresh)
        other = LstmOptimizerParams.init(np.random.default_rng(6))
        got = load_or_train_theta(path, "fp-new", lambda: other)
        assert np.array_equal(got.weights["l1.W"], other.weights["l1.W"])
        assert json.loads(path.read_text())["fingerprint"] == "fp-new"

    def test_fingerprint_tracks_architecture(self, monkeypatch):
        import epturbo.metaopt as mo
        from suite_support import theta_fingerprint

        base = theta_fingerprint()
        monkeypatch.setitem(mo.ARCH, "input", 1)
        assert theta_fingerprint() != base

    def test_committed_cache_is_current(self):
        # the tracked cache must match the current recipe and architecture,
        # or every fresh checkout silently pays for a retrain
        import json
        import os

        from suite_support import theta_fingerprint

        path = os.path.join(os.path.dirname(__file__), ".theta_cache.json")
        with open(path) as fh:
            assert json.load(fh)["fingerprint"] == theta_fingerprint()
