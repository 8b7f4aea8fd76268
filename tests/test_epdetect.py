import numpy as np
import pytest

from epturbo.channel import RealChannelModel, real_embedding, sample_rayleigh
from epturbo.epdetect import (
    DampingSchedule,
    EpConfig,
    EpWorkspace,
    FactorizationError,
    JddReceiver,
    bits_from_real_symbols,
    cavity,
    damp,
    damping_table_from_doc,
    damping_table_to_doc,
    discrete_moments,
    ep_global_moments,
    epnet_detect,
    jdd_receive,
    jdd_receive_batch,
    load_damping_table,
    ml_detect,
    mmse_detect,
    refine_pair,
    save_damping_table,
    sigmoid,
    site_pair,
    _chol_inverse_factors,
    _epnet_core,
    _global_moments_batch,
    _ml_detect_batch,
)
from epturbo.modem import Constellation, llr_to_prior, map_bits, uniform_prior
from epturbo.turbocode import TurboCodec, encode


def random_model(rng, nt=2, nr=2, order=4, scale=3.0):
    c = Constellation(order)
    h = rng.normal(size=(nr, nt)) @ np.eye(nt) + 1j * rng.normal(size=(nr, nt))
    h = np.sqrt(0.5 / nr) * scale * h
    bits = rng.integers(0, 2, nt * c.bits_per_symbol)
    x = map_bits(bits, c)
    y = h @ x + np.sqrt(0.5) * (rng.normal(size=nr) + 1j * rng.normal(size=nr))
    h_r, y_r = real_embedding(h[None], y[None])
    model = RealChannelModel(h_r=h_r[0], y_r=y_r[0], constellation=c)
    return model, bits, x


def reference_ep(model, probs, beta_eff, n_layers, eps, init_gamma, init_lam):
    """Plain-formula EP with explicit inverses and per-dimension loops."""
    h, y, nv = model.h_r, model.y_r, model.noise_var
    amps = model.constellation.amplitudes
    n = h.shape[1]
    gamma = np.full(n, float(init_gamma))
    lam = np.full(n, float(init_lam))
    trace = []
    for _ in range(n_layers):
        sigma = np.linalg.inv(h.T @ h / nv + np.diag(lam))
        mu = sigma @ (h.T @ y / nv + gamma)
        x_ab, v_ab = np.empty(n), np.empty(n)
        for i in range(n):
            prec = 1.0 / sigma[i, i] - lam[i]
            v = 1.0 / max(prec, eps)
            v_ab[i] = max(v, eps)
            x_ab[i] = v_ab[i] * (mu[i] / sigma[i, i] - gamma[i])
        x_b, v_b = np.empty(n), np.empty(n)
        for i in range(n):
            w = probs[i] * np.exp(-((amps - x_ab[i]) ** 2) / (2 * v_ab[i]))
            w /= w.sum()
            x_b[i] = w @ amps
            v_b[i] = max(w @ (amps - x_b[i]) ** 2, eps)
        g_new = x_b / v_b - x_ab / v_ab
        l_new = 1.0 / v_b - 1.0 / v_ab
        for i in range(n):
            if l_new[i] <= 0:
                g_new[i], l_new[i] = gamma[i], lam[i]
        gamma = beta_eff * g_new + (1 - beta_eff) * gamma
        lam = beta_eff * l_new + (1 - beta_eff) * lam
        trace.append((mu, np.diag(sigma).copy(), x_ab, v_ab, x_b, v_b, gamma, lam))
    return trace


class TestGlobalMoments:
    def test_identity_channel_scalar_algebra(self):
        c = Constellation(4)
        n = 4
        y = np.array([0.3, -0.2, 0.5, 0.1])
        model = RealChannelModel(np.eye(n), y, c, noise_var=0.5)
        lam = np.full(n, 0.8)
        mu, sigma = ep_global_moments(np.zeros(n), lam, model)
        expect = (y / 0.5) / (1 / 0.5 + 0.8)
        assert np.allclose(mu, expect, atol=1e-12)
        assert np.allclose(np.diag(sigma), 1 / (1 / 0.5 + 0.8), atol=1e-12)

    def test_dense_inverse_oracle(self):
        # derived: explicit-inverse covariance on random 4x4 systems
        rng = np.random.default_rng(0)
        c = Constellation(4)
        for _ in range(50):
            h = rng.normal(size=(4, 4))
            y = rng.normal(size=4)
            model = RealChannelModel(h, y, c)
            lam = rng.uniform(0.1, 3.0, 4)
            gamma = rng.normal(size=4)
            mu, sigma = ep_global_moments(gamma, lam, model)
            a = h.T @ h / model.noise_var + np.diag(lam)
            sig_ref = np.linalg.inv(a)
            mu_ref = sig_ref @ (h.T @ y / model.noise_var + gamma)
            assert np.allclose(sigma, sig_ref, atol=1e-10)
            assert np.allclose(mu, mu_ref, atol=1e-10)

    def test_fixed_point_of_consistent_pair(self):
        # derived: gamma = Lambda mu* makes mu* the solution of the system
        rng = np.random.default_rng(1)
        c = Constellation(4)
        h = rng.normal(size=(4, 4)) + np.eye(4)
        y = rng.normal(size=4)
        model = RealChannelModel(h, y, c)
        mu_star = np.linalg.solve(h.T @ h, h.T @ y)
        lam = rng.uniform(0.5, 2.0, 4)
        gamma = lam * mu_star
        mu, _ = ep_global_moments(gamma, lam, model)
        assert np.allclose(mu, mu_star, atol=1e-9)


class TestFactorization:
    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_inverse_factor_matches_dense_inverse(self, n):
        rng = np.random.default_rng(n)
        h = rng.normal(size=(32, 2 * n, n))
        a = np.einsum("bri,brj->bij", h, h) + np.eye(n) * rng.uniform(
            0.1, 3.0, size=(32, 1, n))
        linv = _chol_inverse_factors(a)
        assert np.all(np.triu(linv, 1) == 0.0)
        ref = np.linalg.inv(np.linalg.cholesky(a))
        assert np.allclose(linv, ref, rtol=1e-12, atol=1e-12)

    def test_rank_deficient_batch_takes_jittered_retry(self):
        # Lambda = 0 and a channel column of zeros (rank(H) < n): the
        # first Cholesky hits an exact zero pivot, and the retry adds
        # 1e-12 trace(a) / n to every diagonal of the batch
        rng = np.random.default_rng(3)
        n = 4
        h = rng.normal(size=(3, 6, n))
        h[1, :, 2] = 0.0
        hth = np.einsum("bri,brj->bij", h, h)
        hty = rng.normal(size=(3, n))
        zeros = np.zeros((3, n))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(hth)
        mu, sigma_diag, linv = _global_moments_batch(hth, hty, zeros, zeros)
        jit = 1e-12 * np.trace(hth, axis1=1, axis2=2) / n
        expect = _chol_inverse_factors(hth + jit[:, None, None] * np.eye(n))
        assert np.array_equal(linv, expect)
        assert np.all(np.isfinite(mu)) and np.all(sigma_diag > 0)

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_scratch_array_gives_identical_moments(self, rank_deficient):
        # the scratch holds a, then the inverse factor; stale contents of
        # an earlier call, or the jittered retry, must not leak through
        rng = np.random.default_rng(4)
        n = 8
        h = rng.normal(size=(16, 12, n))
        if rank_deficient:
            h[5, :, 1] = 0.0
        hth = np.einsum("bri,brj->bij", h, h)
        hty = rng.normal(size=(16, n))
        gamma = rng.normal(size=(16, n))
        lam = 0.0 if rank_deficient else rng.uniform(0.1, 2.0, (16, n))
        lam = np.broadcast_to(lam, (16, n))
        ref = _global_moments_batch(hth, hty, gamma, lam)
        scratch = rng.normal(size=hth.shape)
        for _ in range(2):
            got = _global_moments_batch(hth, hty, gamma, lam, out=scratch)
            assert got[2] is scratch
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)

    def test_indefinite_matrix_raises(self):
        a = np.stack([np.eye(3), np.diag([2.0, -1.0, 1.0])])
        with pytest.raises(FactorizationError):
            _chol_inverse_factors(a)


def test_nan_pivot_raises_factorization_error():
    # a pivot that is not > 0 fails the factorisation, NaN included; the
    # jittered retry inherits the NaN through the trace and fails too
    a = np.stack([np.eye(3), np.eye(3)])
    a[1, 1, 1] = np.nan
    with pytest.raises(FactorizationError):
        _chol_inverse_factors(a)


class TestCavity:
    def test_vanishing_site_recovers_global(self):
        rng = np.random.default_rng(2)
        mu = rng.normal(size=6)
        sig = rng.uniform(0.2, 1.0, 6)
        x, v = cavity(mu, sig, np.zeros(6), np.zeros(6), 5e-7)
        assert np.allclose(x, mu, atol=1e-12)
        assert np.allclose(v, sig, atol=1e-12)

    def test_product_lemma_recovery(self):
        # removing then re-multiplying the site recovers the global marginal
        rng = np.random.default_rng(3)
        for _ in range(200):
            sig = rng.uniform(0.05, 0.5)
            lam = rng.uniform(0.1, 1.0 / sig - 0.2)
            mu = rng.normal()
            gamma = rng.normal()
            x, v = cavity(np.array([mu]), np.array([sig]), np.array([gamma]),
                          np.array([lam]), 5e-7)
            prec = 1 / v[0] + lam
            mean = (x[0] / v[0] + gamma) / prec
            assert abs(1 / prec - sig) < 1e-10
            assert abs(mean - mu) < 1e-10

    def test_clamp_handles_vanishing_precision(self):
        # precision 1e-20 collapses to the variance ceiling 1/eps, no NaN
        eps = 5e-7
        sig = np.array([1.0])
        lam = 1.0 / sig - 1e-20
        x, v = cavity(np.array([0.5]), sig, np.array([0.1]), lam, eps)
        assert np.isfinite(x).all() and np.isfinite(v).all()
        assert v[0] == pytest.approx(1.0 / eps)
        assert v[0] >= eps


class TestDiscreteMoments:
    def test_flat_cavity_returns_prior_moments(self):
        c = Constellation(4)
        prior = uniform_prior(c, 4)
        x_b, v_b = discrete_moments(np.zeros(4), np.full(4, 1e12), prior, c, 5e-7)
        assert np.allclose(x_b, 0.0, atol=1e-9)
        assert np.allclose(v_b, 0.5, atol=1e-6)

    def test_peaked_cavity_snaps_to_amplitude(self):
        c = Constellation(16)
        prior = uniform_prior(c, 1)
        a = c.amplitudes[2]
        x_b, v_b = discrete_moments(np.array([a]), np.array([1e-8]), prior, c, 1e-12)
        assert abs(x_b[0] - a) < 1e-10
        assert v_b[0] <= 1e-8

    def test_direct_summation_oracle(self):
        # derived: probability-domain summation per dimension
        rng = np.random.default_rng(4)
        c = Constellation(16)
        amps = c.amplitudes
        for _ in range(200):
            mean = rng.normal(scale=0.5)
            var = rng.uniform(0.01, 2.0)
            probs = rng.dirichlet(np.ones(4))
            x_b, v_b = discrete_moments(
                np.array([mean]), np.array([var]), probs[None], c, 1e-300
            )
            w = probs * np.exp(-((amps - mean) ** 2) / (2 * var))
            w /= w.sum()
            ref_m = w @ amps
            ref_v = w @ (amps - ref_m) ** 2
            assert abs(x_b[0] - ref_m) < 1e-12
            assert abs(v_b[0] - ref_v) < 1e-12


class TestRefineAndDamp:
    def test_no_update_fixed_point_keeps_previous(self):
        gamma, lam = np.array([0.4]), np.array([1.2])
        x = np.array([0.3])
        v = np.array([0.8])
        g2, l2 = refine_pair(gamma, lam, x, v, x, v)
        assert g2[0] == 0.4 and l2[0] == 1.2

    def test_halved_variance_algebra(self):
        v_ab = np.array([0.6])
        g2, l2 = refine_pair(
            np.zeros(1), np.ones(1), np.zeros(1), v_ab, np.zeros(1), v_ab / 2
        )
        assert abs(l2[0] - 1.0 / v_ab[0]) < 1e-12

    def test_moment_matching_identity(self):
        # derived: recombining the refined site with the cavity reproduces
        # the tilted moments (Gaussian product lemma)
        rng = np.random.default_rng(5)
        for _ in range(200):
            v_ab = rng.uniform(0.2, 1.0)
            x_ab = rng.normal()
            v_b = rng.uniform(0.05, v_ab - 0.01)
            x_b = rng.normal()
            g2, l2 = refine_pair(
                np.zeros(1), np.ones(1),
                np.array([x_ab]), np.array([v_ab]),
                np.array([x_b]), np.array([v_b]),
            )
            prec = 1 / v_ab + l2[0]
            mean = (x_ab / v_ab + g2[0]) / prec
            assert abs(1 / prec - v_b) < 1e-10
            assert abs(mean - x_b) < 1e-10

    def test_damp_limits_and_midpoint(self):
        old = (np.array([1.0]), np.array([2.0]))
        new = (np.array([3.0]), np.array([4.0]))
        g, l = damp(old, new, 60.0)
        assert np.allclose([g[0], l[0]], [3.0, 4.0])
        g, l = damp(old, new, -60.0)
        assert np.allclose([g[0], l[0]], [1.0, 2.0])
        g, l = damp(old, new, 0.0)
        assert np.allclose([g[0], l[0]], [2.0, 3.0])
        assert sigmoid(0.0) == 0.5


class TestEpnetDetect:
    def test_l1_equals_mmse_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model, _, _ = random_model(rng, nt=3, nr=3, order=16)
            prior = uniform_prior(model.constellation, 6)
            x1, v1, _ = epnet_detect(model, prior, DampingSchedule(np.zeros(1)),
                                     EpConfig(layers=1))
            x2, v2 = mmse_detect(model, prior)
            assert np.array_equal(x1, x2)
            assert np.array_equal(v1, v2)

    def test_trace_matches_reference_implementation(self):
        # step-for-step trace equality against the plain-formula EP
        rng = np.random.default_rng(7)
        c = Constellation(16)
        for _ in range(10):
            model, _, _ = random_model(rng, nt=3, nr=3, order=16, scale=4.0)
            prior = uniform_prior(c, 6)
            sched = DampingSchedule.from_effective(np.full(5, 0.2))
            cfg = EpConfig(layers=5)
            _, _, trace = epnet_detect(model, prior, sched, cfg)
            ref = reference_ep(model, prior.probs, 0.2, 5, cfg.min_var,
                               cfg.init_gamma, cfg.init_lambda)
            for l, (mu, sd, x_ab, v_ab, x_b, v_b, gam, lam) in enumerate(ref):
                assert np.allclose(trace.mu[l], mu, atol=1e-12)
                assert np.allclose(trace.sigma_diag[l], sd, atol=1e-12)
                assert np.allclose(trace.x_ab[l], x_ab, atol=1e-12)
                assert np.allclose(trace.v_ab[l], v_ab, atol=1e-12)
                assert np.allclose(trace.x_b[l], x_b, atol=1e-12)
                assert np.allclose(trace.v_b[l], v_b, atol=1e-12)
                assert np.allclose(trace.gamma[l + 1], gam, atol=1e-12)
                assert np.allclose(trace.lam[l + 1], lam, atol=1e-12)

    def test_lambda_positivity_fuzz(self):
        rng = np.random.default_rng(8)
        c = Constellation(16)
        b = 2000
        h = rng.normal(scale=2.0, size=(b, 8, 8))
        y = rng.normal(scale=2.0, size=(b, 8))
        probs = np.full((b, 8, 4), 0.25)
        sched = DampingSchedule.from_effective(np.full(5, 0.7))
        _, _, trace = _epnet_core(h, y, 0.5, probs, c, sched.raw, EpConfig(layers=5))
        assert np.all(trace.lam > 0)
        assert np.all(trace.v_ab >= EpConfig().min_var)

    def test_extrinsic_excludes_own_prior(self):
        # perturbing dimension n's prior cannot move its own extrinsic mean
        rng = np.random.default_rng(9)
        c = Constellation(4)
        model, _, _ = random_model(rng, nt=3, nr=3, order=4)
        base_llr = rng.normal(size=(3, 2))
        bumped = base_llr.copy()
        bumped[0, 0] += 2.0  # changes only dim 0 (I rail of symbol 0)
        outs = []
        for llr in (base_llr, bumped):
            prior = llr_to_prior(llr, c)
            g0, l0 = site_pair(prior.mean, prior.var, 5e-7)
            cfg = EpConfig(layers=1, init_gamma=g0, init_lambda=l0)
            x, v, _ = epnet_detect(model, prior, DampingSchedule(np.zeros(1)), cfg)
            outs.append((x, v))
        assert abs(outs[0][0][0] - outs[1][0][0]) < 1e-10
        assert abs(outs[0][1][0] - outs[1][1][0]) < 1e-10
        # other dimensions do shift
        assert np.max(np.abs(outs[0][0][1:] - outs[1][0][1:])) > 1e-8

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        c = Constellation(16)
        models = [random_model(rng, nt=2, nr=3, order=16)[0] for _ in range(5)]
        h = np.stack([m.h_r for m in models])
        y = np.stack([m.y_r for m in models])
        probs = np.full((5, 4, 4), 0.25)
        sched = DampingSchedule.from_effective(np.full(3, 0.5))
        xb, vb, _ = _epnet_core(h, y, 0.5, probs, c, sched.raw, EpConfig(layers=3))
        for i, m in enumerate(models):
            x, v, _ = epnet_detect(m, uniform_prior(c, 4), sched, EpConfig(layers=3))
            assert np.allclose(xb[i], x, atol=1e-13)
            assert np.allclose(vb[i], v, atol=1e-13)


class TestUntracedRun:
    """Inference paths run `_epnet_core(..., record=False)`, which runs
    `EpWorkspace.run(raw, record=False)` and stacks no trace."""

    @pytest.mark.parametrize("per_instance", [False, True])
    def test_equals_epnet_core_exactly(self, per_instance):
        # scalar init pairs as in the uncoded sweep; per-instance arrays
        # as in a JDD stage after decoder feedback
        rng = np.random.default_rng(12)
        c = Constellation(16)
        b, n = 300, 8
        h = rng.normal(size=(b, n, n))
        y = rng.normal(scale=2.0, size=(b, n))
        probs = rng.dirichlet(np.ones(4), size=(b, n))
        if per_instance:
            mean = probs @ c.amplitudes
            var = np.maximum(probs @ c.amplitudes**2 - mean**2, 5e-7)
            cfg = EpConfig(layers=5, init_gamma=mean / var,
                           init_lambda=1.0 / var)
        else:
            cfg = EpConfig(layers=5)
        raw = DampingSchedule.from_effective(
            np.array([0.9, 0.5, 0.3, 0.2, 0.1])).raw
        x_ref, v_ref, _ = _epnet_core(h, y, 0.5, probs, c, raw, cfg)
        x, v, trace = _epnet_core(h, y, 0.5, probs, c, raw, cfg, record=False)
        assert trace is None
        assert np.array_equal(x, x_ref)
        assert np.array_equal(v, v_ref)
        ws = EpWorkspace(h, y, 0.5, probs, c, cfg)
        for _ in range(2):  # the factorisation buffers are reused
            x, v, recs = ws.run(raw, record=False)
            assert recs == []
            assert np.array_equal(x, x_ref)
            assert np.array_equal(v, v_ref)


class TestMmse:
    def test_orthogonal_channel_decouples(self):
        c = Constellation(4)
        q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(4, 4)))
        y = np.array([0.2, -0.4, 0.6, 0.0])
        model = RealChannelModel(q, y, c)
        prior = uniform_prior(c, 4)
        x, v = mmse_detect(model, prior)
        # Q^T Q = I: per-dimension scalar MMSE on z = Q^T y
        z = q.T @ y
        lam0 = 0.5
        sig = 1.0 / (1 / 0.5 + lam0)
        mu = sig * z / 0.5
        v_ref = 1.0 / (1 / sig - lam0)
        x_ref = v_ref * (mu / sig)
        assert np.allclose(x, x_ref, atol=1e-10)
        assert np.allclose(v, v_ref, atol=1e-10)

    def test_conjugate_gaussian_posterior(self):
        # derived: cavity recombined with the Gaussian site equals the
        # closed-form posterior when the prior is Gaussian
        rng = np.random.default_rng(12)
        c = Constellation(4)
        for _ in range(20):
            h = rng.normal(size=(4, 4))
            y = rng.normal(size=4)
            model = RealChannelModel(h, y, c)
            m0 = rng.normal(size=4)
            v0 = rng.uniform(0.2, 2.0, size=4)
            cfg = EpConfig(layers=1, init_gamma=m0 / v0, init_lambda=1 / v0)
            x, v = mmse_detect(model, uniform_prior(c, 4), cfg)
            post_prec = np.diag(1 / v + 1 / v0)
            # reference posterior moments
            a = h.T @ h / model.noise_var + np.diag(1 / v0)
            sig_ref = np.linalg.inv(a)
            mu_ref = sig_ref @ (h.T @ y / model.noise_var + m0 / v0)
            mean = (x / v + m0 / v0) / (1 / v + 1 / v0)
            assert np.allclose(mean, mu_ref, atol=1e-9)
            assert np.allclose(1 / (1 / v + 1 / v0), np.diag(sig_ref), atol=1e-9)


class TestMlDetect:
    def test_single_antenna_nearest_neighbor(self):
        c = Constellation(16)
        model = RealChannelModel(np.eye(2), np.array([0.29, -0.8]), c)
        x = ml_detect(model)
        for i in range(2):
            assert x[i] == c.amplitudes[np.argmin(np.abs(c.amplitudes - model.y_r[i]))]

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(13)
        c = Constellation(4)
        for _ in range(20):
            h = rng.normal(size=(4, 4))
            bits = rng.integers(0, 2, 4)
            xsym = map_bits(bits, c)
            x_r = np.concatenate([xsym.real, xsym.imag])
            model = RealChannelModel(h, h @ x_r, c)
            xhat = ml_detect(model)
            assert np.allclose(xhat, x_r, atol=1e-12)
            assert np.array_equal(bits_from_real_symbols(xhat, c), bits)

    def test_second_enumeration_oracle(self):
        # derived: independent complex-domain enumeration
        import itertools

        rng = np.random.default_rng(14)
        c = Constellation(4)
        for _ in range(20):
            model, _, _ = random_model(rng, nt=2, nr=2, order=4)
            xhat = ml_detect(model)
            h_c = model.h_r[:2, :2] + 1j * model.h_r[2:, :2]
            y_c = model.y_r[:2] + 1j * model.y_r[2:]
            best, best_d = None, np.inf
            for combo in itertools.product(c.points, repeat=2):
                xv = np.array(combo)
                d = np.sum(np.abs(y_c - h_c @ xv) ** 2)
                if d < best_d:
                    best, best_d = xv, d
            assert np.allclose(xhat, np.concatenate([best.real, best.imag]), atol=1e-12)

    def test_guard_rejects_large_instances(self):
        c = Constellation(64)
        model = RealChannelModel(np.eye(16), np.zeros(16), c)
        with pytest.raises(ValueError):
            ml_detect(model)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(15)
        c = Constellation(4)
        models = [random_model(rng)[0] for _ in range(8)]
        h = np.stack([m.h_r for m in models])
        y = np.stack([m.y_r for m in models])
        xb = _ml_detect_batch(h, y, c)
        for i, m in enumerate(models):
            assert np.allclose(xb[i], ml_detect(m), atol=1e-14)


class TestDampingTable:
    def test_round_trip(self, tmp_path):
        eff = np.array([[0.9, 0.5, 0.1], [0.7, 0.3, 0.05]])
        path = tmp_path / "table.json"
        save_damping_table(path, eff)
        raw = load_damping_table(path)
        assert np.allclose(sigmoid(raw), eff, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            damping_table_to_doc(np.array([[1.2, 0.5]]))
        doc = damping_table_to_doc(np.array([[0.5, 0.5]]))
        doc["entries"][0]["damping"] = 1.5
        with pytest.raises(ValueError):
            damping_table_from_doc(doc)

    def test_rejects_missing_entries(self):
        doc = damping_table_to_doc(np.array([[0.5, 0.5]]))
        doc["entries"].pop()
        with pytest.raises(ValueError):
            damping_table_from_doc(doc)

    @pytest.mark.parametrize("stage,layer", [(0, 0), (1, 0), (0, 1),
                                             (2, 1), (1, 3), (1, 1.5)])
    def test_rejects_entry_outside_the_table(self, stage, layer):
        # index 0 would land on the last row or column, and an index past
        # the declared size or a fractional one would raise IndexError
        doc = damping_table_to_doc(np.array([[0.2, 0.3]]))
        bad = {"stage": stage, "layer": layer, "damping": 0.9}
        doc["entries"].append(bad)
        with pytest.raises(ValueError, match="outside 1 stage") as exc:
            damping_table_from_doc(doc)
        assert str(bad) in str(exc.value)

    def test_rejects_repeated_entry(self):
        doc = damping_table_to_doc(np.array([[0.2, 0.3]]))
        again = {"stage": 1, "layer": 2, "damping": 0.9}
        doc["entries"].append(again)
        with pytest.raises(ValueError, match="repeats") as exc:
            damping_table_from_doc(doc)
        assert str(again) in str(exc.value)


class TestJdd:
    @staticmethod
    def make_receiver(rng, k=40, stages=2, layers=3, order=4):
        codec = TurboCodec(k=k, decoder="max-log", n_iter=3)
        c = Constellation(order)
        sched = np.tile(DampingSchedule.from_effective(np.full(layers, 0.7)).raw,
                        (stages, 1))
        return JddReceiver(codec=codec, constellation=c, schedules=sched)

    @staticmethod
    def simulate_frames(rng, receiver, nt, nr, snr_db, n_frames):
        from epturbo.channel import snr_scale
        from epturbo.epdetect import frame_geometry

        c = receiver.constellation
        codec = receiver.codec
        n_sym, n_blocks, filler = frame_geometry(codec, c, nt)
        q2 = c.bits_per_symbol
        msgs = rng.integers(0, 2, (n_frames, codec.k))
        tx_bits = np.empty((n_frames, n_blocks * nt * q2), dtype=np.int64)
        for f in range(n_frames):
            cw = encode(msgs[f], codec)
            pad = rng.integers(0, 2, filler * q2)
            tx_bits[f] = np.concatenate([cw, pad])
        syms = map_bits(tx_bits, c).reshape(n_frames, n_blocks, nt)
        h = sample_rayleigh(nt, nr, rng, size=n_frames * n_blocks)
        h = np.sqrt(snr_scale(snr_db, nt, nr)) * h.reshape(n_frames, n_blocks, nr, nt)
        noise = rng.normal(scale=np.sqrt(0.5), size=(n_frames, n_blocks, nr, 2))
        y = np.einsum("fbij,fbj->fbi", h, syms) + noise[..., 0] + 1j * noise[..., 1]
        h_r, y_r = real_embedding(h, y)
        return h_r, y_r, msgs

    def test_single_stage_is_detect_then_decode(self):
        rng = np.random.default_rng(16)
        rx = self.make_receiver(rng, stages=1)
        h_r, y_r, msgs = self.simulate_frames(rng, rx, nt=4, nr=4, snr_db=15.0,
                                              n_frames=4)
        res = jdd_receive_batch(h_r, y_r, rx)
        assert res.bits_per_stage.shape == (1, 4, 40)

    def test_multi_stage_first_stage_matches_single_stage(self):
        rng = np.random.default_rng(17)
        rx1 = self.make_receiver(rng, stages=1)
        rx2 = self.make_receiver(rng, stages=3)
        h_r, y_r, _ = self.simulate_frames(rng, rx2, nt=4, nr=4, snr_db=8.0,
                                           n_frames=4)
        r1 = jdd_receive_batch(h_r, y_r, rx1)
        r2 = jdd_receive_batch(h_r, y_r, rx2)
        assert np.array_equal(r1.bits_per_stage[0], r2.bits_per_stage[0])

    def test_zero_capacity_channel_coin_flip(self):
        rng = np.random.default_rng(18)
        rx = self.make_receiver(rng, stages=2)
        h_r, y_r, msgs = self.simulate_frames(rng, rx, nt=4, nr=4, snr_db=0.0,
                                              n_frames=50)
        res = jdd_receive_batch(np.zeros_like(h_r), np.zeros_like(y_r), rx)
        ber = np.mean(res.bits_per_stage[-1] != msgs)
        assert abs(ber - 0.5) < 0.08
        assert np.allclose(res.extrinsic_llrs, 0.0)

    def test_single_frame_wrapper_matches_batch(self):
        rng = np.random.default_rng(19)
        rx = self.make_receiver(rng, stages=2)
        h_r, y_r, _ = self.simulate_frames(rng, rx, nt=4, nr=4, snr_db=10.0,
                                           n_frames=1)
        c = rx.constellation
        models = [
            RealChannelModel(h_r[0, p], y_r[0, p], c) for p in range(h_r.shape[1])
        ]
        single = jdd_receive(models, rx)
        batch = jdd_receive_batch(h_r, y_r, rx)
        assert np.array_equal(single.bits_per_stage, batch.bits_per_stage[:, 0])

    @pytest.mark.slow
    def test_published_damping_table_anchor(self):
        # published reference damping factors for 8x8 16-QAM at
        # E_B/N0 = 19 dB; target band is 3x around the reported BER of
        # 1.5611e-4 over >= 1e7 bits.  Learned profiles do not transfer
        # exactly across unfolding conventions, so this anchor currently
        # measures ~3.4x and fails by a small margin.
        from epturbo.channel import SnrSpec, snr_scale, real_embedding
        from epturbo.modem import demap_llr, map_bits

        table_19db = [0.37582, 0.25697, 0.28293, 0.13048, 0.087179]
        raw = DampingSchedule.from_effective(table_19db).raw
        c = Constellation(16)
        nt = nr = 8
        scale = snr_scale(SnrSpec("eb-uncoded", 19.0, 16), nt, nr)
        rng = np.random.default_rng(400)
        errs = bits = 0
        cfg = EpConfig(layers=5)
        while bits < 10_000_000:
            n = 8192
            tx = rng.integers(0, 2, (n, nt * 4))
            x = map_bits(tx, c)
            h = rng.normal(scale=np.sqrt(0.5 / nr), size=(n, nr, nt, 2))
            h = np.sqrt(scale) * (h[..., 0] + 1j * h[..., 1])
            noise = rng.normal(scale=np.sqrt(0.5), size=(n, nr, 2))
            y = np.einsum("bij,bj->bi", h, x) + noise[..., 0] + 1j * noise[..., 1]
            h_r, y_r = real_embedding(h, y)
            probs = np.full((n, 2 * nt, 4), 0.25)
            xa, va, _ = _epnet_core(h_r, y_r, 0.5, probs, c, raw, cfg)
            llr = demap_llr(xa, va, probs, c)
            errs += int(np.sum((llr.reshape(n, -1) < 0).astype(int) != tx))
            bits += tx.size
        ber = errs / bits
        assert 1.5611e-4 / 3 <= ber <= 1.5611e-4 * 3, f"BER {ber:.4e}"

    @pytest.mark.slow
    def test_stage_feedback_improves_ber(self):
        # derived Monte Carlo: later stages not worse on average
        rng = np.random.default_rng(20)
        rx = self.make_receiver(rng, k=40, stages=3, layers=3, order=4)
        snr = None
        from epturbo.channel import SnrSpec

        spec = SnrSpec("eb-coded", 2.5, 4, code_rate=rx.codec.rate)
        h_r, y_r, msgs = self.simulate_frames(
            rng, rx, nt=4, nr=4, snr_db=spec.es_n0_db, n_frames=400
        )
        res = jdd_receive_batch(h_r, y_r, rx)
        bers = [np.mean(res.bits_per_stage[i] != msgs) for i in range(3)]
        assert bers[0] > 0  # operating point has errors to fix
        assert bers[-1] <= bers[0]
