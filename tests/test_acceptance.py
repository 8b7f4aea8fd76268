"""Acceptance gate: one test per criterion, each printing a summary line.

Statistical criteria run at desk scale with pinned seeds and tolerances;
the slow ones are also marked `acceptance` so the quick development loop
can skip them.  A terminal-summary hook in conftest.py prints one
PASS/FAIL line per criterion at the end of the session.
"""

import time

import numpy as np
import pytest

from suite_support import record_criterion
from epturbo.channel import SnrSpec
from epturbo.epdetect import (
    DampingSchedule,
    EpConfig,
    JddReceiver,
    _epnet_core,
    cavity,
    discrete_moments,
    epnet_detect,
    jdd_receive_batch,
    mmse_detect,
    sigmoid,
)
from epturbo.harness import ExperimentConfig, OracleConfig, binomial_ci, compare_oracle, run_sweep
from epturbo.metaopt import (
    Adam,
    ChannelStats,
    _workspace_for,
    epnet_loss_and_grad,
    generate_training_set,
    lstm_step,
    online_train,
    zero_state,
)
from epturbo.modem import Constellation, llr_to_prior, map_bits, maxstar, prior_probs_from_llr, uniform_prior
from epturbo.channel import RealChannelModel
from epturbo.turbocode import Trellis, TurboCodec, bcjr, decode_posteriors, encode, fit_scaled_weights

pytestmark = pytest.mark.acceptance


def _report(number, passed, detail):
    record_criterion(number, passed, detail)
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number}: {detail}"


class TestCriterion1:
    def test_log_map_equals_exhaustive_map(self):
        # K = 6 constituent log-MAP vs brute-force bitwise MAP, 100 frames
        from test_turbocode import brute_force_map

        rng = np.random.default_rng(101)
        tr = Trellis()
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            sys_llr = rng.normal(size=9) * 3
            par_llr = rng.normal(size=9) * 3
            apriori = rng.normal(size=6)
            post, _ = bcjr(sys_llr, par_llr, apriori, tr, "log")
            ref = brute_force_map(sys_llr, par_llr, apriori, tr, 6)
            worst = max(worst, float(np.max(np.abs(post - ref))))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-9 and elapsed < 10.0
        _report(1, ok,
                f"log-MAP vs exhaustive MAP max |diff| = {worst:.2e} "
                f"(tol 1e-9), {elapsed:.1f}s (< 10s)")


class TestCriterion2:
    def test_ep_moment_oracles(self):
        # cavity and tilted moments vs dense-inverse / direct-enumeration
        # oracles on 1000 random 4x4 real systems
        rng = np.random.default_rng(102)
        c = Constellation(16)
        amps = c.amplitudes
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            h = rng.normal(size=(4, 4))
            y = rng.normal(size=4)
            lam = rng.uniform(0.2, 2.0, 4)
            gamma = rng.normal(size=4)
            nv = 0.5
            a = h.T @ h / nv + np.diag(lam)
            sig_ref = np.linalg.inv(a)
            mu_ref = sig_ref @ (h.T @ y / nv + gamma)
            # library path via the batched core pieces
            from epturbo.epdetect import _global_moments_batch

            mu, sd, _ = _global_moments_batch((h.T @ h / nv)[None],
                                              (h.T @ y / nv)[None],
                                              gamma[None], lam[None])
            worst = max(worst, float(np.max(np.abs(mu[0] - mu_ref))))
            worst = max(worst, float(np.max(np.abs(sd[0] - np.diag(sig_ref)))))

            x_ab, v_ab = cavity(mu[0], sd[0], gamma, lam, 5e-7)
            prec_ref = 1.0 / np.diag(sig_ref) - lam
            v_ref = 1.0 / prec_ref
            x_ref = v_ref * (mu_ref / np.diag(sig_ref) - gamma)
            worst = max(worst, float(np.max(np.abs(v_ab - v_ref))))
            worst = max(worst, float(np.max(np.abs(x_ab - x_ref))))

            probs = rng.dirichlet(np.ones(4), size=4)
            x_b, v_b = discrete_moments(x_ab, v_ab, probs, c, 1e-300)
            for i in range(4):
                w = probs[i] * np.exp(-((amps - x_ab[i]) ** 2) / (2 * v_ab[i]))
                w /= w.sum()
                m_ref = w @ amps
                worst = max(worst, abs(x_b[i] - m_ref))
                worst = max(worst, abs(v_b[i] - w @ (amps - m_ref) ** 2))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-10 and elapsed < 10.0
        _report(2, ok,
                f"EP moment oracles max |diff| = {worst:.2e} (tol 1e-10), "
                f"{elapsed:.1f}s (< 10s)")


class TestCriterion3:
    def test_mmse_identity(self):
        rng = np.random.default_rng(103)
        c = Constellation(16)
        identical = True
        for _ in range(100):
            nr, nt = 4, 3
            h = rng.normal(size=(2 * nr, 2 * nt))
            y = rng.normal(size=2 * nr)
            model = RealChannelModel(h, y, c)
            prior = uniform_prior(c, 2 * nt)
            x1, v1, _ = epnet_detect(model, prior, DampingSchedule(np.zeros(1)),
                                     EpConfig(layers=1))
            x2, v2 = mmse_detect(model, prior)
            identical &= bool(np.array_equal(x1, x2) and np.array_equal(v1, v2))
        _report(3, identical,
                "epnet_detect(L=1, uniform prior) is bit-for-bit mmse_detect "
                "on 100 random instances")


class TestCriterion4:
    def test_ml_proximity_with_trained_damping(self, shipped_theta):
        t0 = time.perf_counter()
        stats = ChannelStats(nt=2, nr=2, mod_order=4,
                             snr=SnrSpec("es", 12.0, 4), n_samples=2000,
                             seed=104)
        base = JddReceiver(codec=None, constellation=Constellation(4),
                           schedules=np.ones((1, 5)),
                           config=EpConfig(layers=5))
        trained, _ = online_train(base, stats, shipped_theta, epochs=60)
        report = compare_oracle(OracleConfig(
            nt=2, nr=2, mod_order=4, es_n0_db=12.0, n_frames=10_000,
            ep_layers=5, schedule_raw=trained.schedules[0], seed=104,
        ))
        elapsed = time.perf_counter() - t0
        ok = report["agreement"] >= 0.99 and elapsed < 60.0
        _report(4, ok,
                f"EPNet/ML bit agreement = {report['agreement']:.4f} "
                f"(>= 0.99) over 1e4 frames at Es/N0 = 12 dB, "
                f"{elapsed:.0f}s (< 60s)")


@pytest.mark.slow
class TestCriterion5:
    def test_table3_scaled_reproduction(self, shipped_theta):
        # online-trained EPNet vs fixed-damping EP across the reference
        # five-point SNR grid; training at desk scale (2500 samples, 60
        # epoch budget) so the whole criterion stays inside its 30 minute
        # cap
        t0 = time.perf_counter()
        grid = (-1.0, 4.0, 9.0, 14.0, 19.0)
        results = {}
        for snr in grid:
            # the top point must integrate >= 1e7 bits, so its stop rule is
            # bit-driven rather than error-driven
            budget = 10_000_000 if snr == 19.0 else 2_000_000
            floor = 100_000 if snr == 19.0 else 200
            cfg = ExperimentConfig(
                nt=8, nr=8, mod_order=16, snr_grid_db=(snr,),
                snr_mode="eb-uncoded", variants=("ep", "epnet"),
                ep_layers=5, fixed_damping=0.1,
                damping_source="trained", train_epochs=60,
                train_samples=2500, min_bit_errors=floor, max_bits=budget,
                chunk_frames=2048, master_seed=105,
            )
            recs = {r.variant: r for r in run_sweep(cfg, theta=shipped_theta)}
            results[snr] = recs
        elapsed = time.perf_counter() - t0

        ordering = all(
            results[s]["epnet"].ber <= results[s]["ep"].ber for s in grid
        )
        ber19 = results[19.0]["epnet"].ber
        bits19 = results[19.0]["epnet"].bits
        band = 5e-5 <= ber19 <= 5e-4
        ok = ordering and band and bits19 >= 10_000_000 and elapsed < 1800
        detail = ("EPNet<=EP at " +
                  ", ".join(f"{s:g}dB ({results[s]['epnet'].ber:.3e} vs "
                            f"{results[s]['ep'].ber:.3e})" for s in grid) +
                  f"; 19 dB BER {ber19:.3e} in [5e-5, 5e-4] over {bits19} bits"
                  f"; {elapsed:.0f}s (< 1800s)")
        _report(5, ok, detail)


@pytest.mark.slow
class TestCriterion6:
    def test_convergence_speed_vs_adam(self, shipped_theta):
        # convergence race on the online EPNet training task (8x8 16-QAM
        # Rayleigh at E_B/N0 = 9 dB, batch 1000).  "Reaching the plateau"
        # means coming within 5% of Adam's full descent depth of its final
        # 10-epoch mean.
        t0 = time.perf_counter()
        reach_lstm, reach_adam = [], []
        for seed in range(5):
            stats = ChannelStats(nt=8, nr=8, mod_order=16,
                                 snr=SnrSpec("eb-uncoded", 9.0, 16),
                                 n_samples=1000, seed=106 + seed)
            ds = generate_training_set(stats, np.random.default_rng(206 + seed))
            ws = _workspace_for(ds, 5, 5e-7)

            def trajectory(update, state):
                beta = np.ones(5)
                loss, grad = epnet_loss_and_grad(beta, ds, workspace=ws)
                out = [loss]
                for _ in range(100):
                    beta = update(beta, grad, state)
                    loss, grad = epnet_loss_and_grad(beta, ds, workspace=ws)
                    out.append(loss)
                return np.array(out)

            def lstm_update(beta, grad, st):
                step, st["s"] = lstm_step(shipped_theta, grad,
                                          st.setdefault("s", zero_state(5)))
                return beta + step

            def adam_update(beta, grad, st):
                adam = st.setdefault("a", Adam(lr=0.1))
                params = {"b": beta.copy()}
                adam.step(params, {"b": grad})
                return params["b"]

            lstm = trajectory(lstm_update, {})
            adam = trajectory(adam_update, {})
            plateau = float(np.mean(adam[-10:]))
            level = plateau + 0.05 * max(adam[0] - plateau, 0.0)

            def first_reach(traj):
                hit = np.nonzero(traj <= level)[0]
                return int(hit[0]) if hit.size else 101

            reach_lstm.append(first_reach(lstm))
            reach_adam.append(first_reach(adam))
        elapsed = time.perf_counter() - t0
        med_lstm = float(np.median(reach_lstm))
        med_adam = float(np.median(reach_adam))
        ok = med_lstm <= 40 and med_adam >= 60 and elapsed < 1200
        _report(6, ok,
                f"median reach epochs: LSTM {med_lstm:g} (<= 40), "
                f"Adam {med_adam:g} (>= 60); per-seed LSTM {reach_lstm}, "
                f"Adam {reach_adam}; {elapsed:.0f}s (< 1200s)")


@pytest.mark.slow
class TestCriterion7:
    def test_jdd_stage_trend(self, shipped_theta):
        # 8x8 16-QAM coded (K = 80): at the SNR where stage-1 BER ~ 1e-2,
        # stage BERs fall monotonically (up to CI overlap) and the late
        # improvement is smaller than the early one
        from epturbo.metaopt import _codeword_training_set

        t0 = time.perf_counter()
        codec = TurboCodec(k=80, decoder="log", n_iter=5, seed=107)
        c = Constellation(16)
        spec = SnrSpec("eb-coded", 7.0, 16, code_rate=codec.rate)
        base = JddReceiver(codec=codec, constellation=c,
                           schedules=np.ones((4, 5)),
                           config=EpConfig(layers=5))
        stats = ChannelStats(nt=8, nr=8, mod_order=16, snr=spec,
                             n_samples=1000, seed=107)
        rx, _ = online_train(base, stats, shipped_theta, epochs=40)

        eval_stats = ChannelStats(nt=8, nr=8, mod_order=16, snr=spec,
                                  n_samples=2500, seed=1070)
        h_r, y_r, _, msgs = _codeword_training_set(
            rx, eval_stats, np.random.default_rng(1070))
        res = jdd_receive_batch(h_r, y_r, rx)
        errs = [int(np.sum(res.bits_per_stage[i] != msgs)) for i in range(4)]
        bits = msgs.size
        bers = [e / bits for e in errs]
        elapsed = time.perf_counter() - t0

        stage1_in_zone = 2e-3 <= bers[0] <= 5e-2
        monotone = True
        for i in range(3):
            if bers[i + 1] > bers[i]:
                lo_i, _ = binomial_ci(errs[i], bits)
                _, hi_j = binomial_ci(errs[i + 1], bits)
                if not lo_i <= hi_j:
                    monotone = False
        diminishing = (bers[0] - bers[1]) > (bers[2] - bers[3])
        ok = stage1_in_zone and monotone and diminishing
        _report(7, ok,
                f"stage BERs {['%.3e' % b for b in bers]} at Eb/N0 = 7 dB: "
                f"monotone(CI)={monotone}, d12={bers[0] - bers[1]:.2e} > "
                f"d34={bers[2] - bers[3]:.2e}; {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion8:
    def test_scaled_decoder_between_maxlog_and_logmap(self):
        # fit at Eb/N0 = 1.0 dB (AWGN BPSK), then compare >= 1e6 paired bits
        rng = np.random.default_rng(108)
        t0 = time.perf_counter()
        k = 40
        codec_max = TurboCodec(k=k, decoder="max-log", n_iter=3, seed=108)
        codec_log = TurboCodec(k=k, decoder="log", n_iter=3, seed=108)
        ebn0_db = 1.0
        sigma2 = 1.0 / (2 * codec_max.rate * 10 ** (ebn0_db / 10))

        def frames(n):
            msgs = rng.integers(0, 2, (n, k))
            llrs = np.empty((n, codec_max.n_coded))
            for i in range(n):
                cw = encode(msgs[i], codec_max)
                y = 1.0 - 2.0 * cw + rng.normal(scale=np.sqrt(sigma2),
                                                size=cw.size)
                llrs[i] = 2.0 * y / sigma2
            return msgs, llrs

        fit_msgs, fit_llrs = frames(150)
        targets = decode_posteriors(fit_llrs, codec_log)
        weights = fit_scaled_weights(list(zip(fit_llrs, targets)), codec_max)

        need = 1_000_000
        errs = {"max-log": 0, "scaled": 0, "log": 0}
        done = 0
        while done < need:
            msgs, llrs = frames(5000)
            done += msgs.size
            errs["max-log"] += int(np.sum(
                (decode_posteriors(llrs, codec_max) < 0) != msgs))
            errs["scaled"] += int(np.sum(
                (decode_posteriors(llrs, codec_max, weights=weights) < 0) != msgs))
            errs["log"] += int(np.sum(
                (decode_posteriors(llrs, codec_log) < 0) != msgs))
        elapsed = time.perf_counter() - t0
        ok = errs["log"] <= errs["scaled"] < errs["max-log"]
        _report(8, ok,
                f"bit errors over {done} paired bits: log-MAP {errs['log']} "
                f"<= scaled {errs['scaled']} < max-log {errs['max-log']}; "
                f"weights in [{weights.values.min():.2f}, "
                f"{weights.values.max():.2f}]; {elapsed:.0f}s")


class TestCriterion9:
    def test_property_suites(self):
        # consolidated randomized property battery, >= 1e3 cases per family
        rng = np.random.default_rng(109)
        t0 = time.perf_counter()
        c16 = Constellation(16)

        # max* agrees with direct log-sum-exp
        a = rng.normal(size=2000) * 5
        b = rng.normal(size=2000) * 5
        assert np.allclose(maxstar(a, b), np.log(np.exp(a) + np.exp(b)),
                           atol=1e-12)

        # prior construction: rows normalized, variance nonnegative,
        # uniform-prior variance exactly half the symbol energy
        for _ in range(20):
            llr = rng.normal(size=(50, 4)) * 4
            probs = prior_probs_from_llr(llr, c16)
            assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        for m in (4, 16, 64):
            prior = uniform_prior(Constellation(m), 8)
            assert np.allclose(prior.var, 0.5, atol=1e-12)

        # Gray adjacency for every supported order
        for m in (4, 16, 64):
            cm = Constellation(m)
            pts, labels = cm.points, cm.point_labels
            d = np.abs(pts[:, None] - pts[None, :])
            dmin = d[d > 0].min()
            ii, jj = np.where(np.abs(d - dmin) < 1e-12)
            assert all(np.sum(labels[i] != labels[j]) == 1
                       for i, j in zip(ii, jj))

        # demap round trip on 1000 random sharp Gaussians
        bits = rng.integers(0, 2, (1000, 4 * 4))
        syms = map_bits(bits, c16)
        mean = np.concatenate([syms.real, syms.imag], axis=-1)
        probs = np.full((1000, 8, 4), 0.25)
        from epturbo.modem import demap_llr

        llr = demap_llr(mean, np.full((1000, 8), 1e-6), probs, c16)
        assert np.array_equal((llr.reshape(1000, -1) < 0).astype(int), bits)

        # encoder linearity and termination on 1000 random pairs
        codec = TurboCodec(k=24, seed=109)
        for _ in range(1000):
            u = rng.integers(0, 2, 24)
            v = rng.integers(0, 2, 24)
            cu, cv, cuv = encode(u, codec), encode(v, codec), encode(u ^ v, codec)
            assert np.array_equal(cuv[:48], (cu ^ cv)[:48])

        # EP lambda positivity and cavity floor on 1e4 fuzzed instances
        h = rng.normal(scale=2.0, size=(10_000, 8, 8))
        y = rng.normal(scale=2.0, size=(10_000, 8))
        pr = np.full((10_000, 8, 4), 0.25)
        sched = DampingSchedule.from_effective(np.full(5, 0.7))
        _, _, trace = _epnet_core(h, y, 0.5, pr, c16, sched.raw,
                                  EpConfig(layers=5))
        assert np.all(trace.lam > 0)
        assert np.all(trace.v_ab >= 5e-7)

        # product-lemma consistency on 2000 scalar cases
        sig = rng.uniform(0.05, 0.5, 2000)
        lam = rng.uniform(0.1, 1.0, 2000)
        lam = np.minimum(lam, 1.0 / sig - 0.2)
        mu = rng.normal(size=2000)
        gamma = rng.normal(size=2000)
        x, v = cavity(mu, sig, gamma, lam, 5e-7)
        prec = 1.0 / v + lam
        assert np.allclose(1.0 / prec, sig, atol=1e-10)
        assert np.allclose((x / v + gamma) / prec, mu, atol=1e-10)

        elapsed = time.perf_counter() - t0
        ok = elapsed < 300
        _report(9, ok,
                f"randomized property battery (7 families, >= 1e3 cases "
                f"each) green in {elapsed:.0f}s (< 300s)")
