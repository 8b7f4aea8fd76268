import numpy as np
import pytest

from epturbo.turbocode import (
    QPP_COEFFS,
    ScaledDecoderWeights,
    Trellis,
    TurboCodec,
    _bcjr_batch,
    bcjr,
    decode_posteriors,
    encode,
    fit_scaled_weights,
    qpp_interleaver,
    turbo_decode,
)


def brute_force_map(sys_llr, par_llr, apriori, trellis, message_len):
    """Exhaustive bitwise MAP over all messages (independent oracle)."""
    k = message_len
    metrics = np.empty(2**k)
    messages = ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1)
    for idx, msg in enumerate(messages):
        par, tsys, tpar = trellis.encode_stream(msg)
        bits_sys = np.concatenate([msg, tsys])
        bits_par = np.concatenate([par, tpar])
        sgn_s = 1 - 2 * bits_sys
        sgn_p = 1 - 2 * bits_par
        sgn_m = 1 - 2 * msg
        metrics[idx] = 0.5 * (
            np.dot(sgn_s, sys_llr) + np.dot(sgn_p, par_llr) + np.dot(sgn_m, apriori)
        )
    post = np.empty(k)
    for i in range(k):
        m0 = metrics[messages[:, i] == 0]
        m1 = metrics[messages[:, i] == 1]
        post[i] = np.logaddexp.reduce(m0) - np.logaddexp.reduce(m1)
    return post


def rsc_impulse_response(n, f_poly=0b1011, g_poly=0b1101):
    """First n coefficients of g1/g0 over GF(2) by polynomial long division."""
    # polynomials stored LSB-first: 1 + D + D^3 over 1 + D^2 + D^3
    f = [(f_poly >> i) & 1 for i in range(4)]
    g = [(g_poly >> i) & 1 for i in range(4)]
    out = []
    rem = f + [0] * n
    for i in range(n):
        q = rem[i]
        out.append(q)
        if q:
            for j, gj in enumerate(g):
                rem[i + j] ^= gj
    return np.array(out)


def random_codec(k=40, decoder="max-log", n_iter=5, seed=0):
    return TurboCodec(k=k, decoder=decoder, n_iter=n_iter, seed=seed)


class TestTrellis:
    def test_every_state_has_two_transitions(self):
        tr = Trellis()
        assert tr.next_state.shape == (8, 2)
        for s in range(8):
            assert tr.next_state[s, 0] != tr.next_state[s, 1]

    def test_termination_reaches_zero_from_every_state(self):
        tr = Trellis()
        for s0 in range(8):
            s = s0
            for _ in range(3):
                s = tr.next_state[s, tr.term_input[s]]
            assert s == 0

    def test_reverse_tables_consistent(self):
        tr = Trellis()
        for sp in range(8):
            for j in range(2):
                s, u = tr.prev_state[sp, j], tr.prev_input[sp, j]
                assert tr.next_state[s, u] == sp


class TestEncoder:
    def test_all_zero_message(self):
        codec = random_codec(40)
        cw = encode(np.zeros(40, dtype=int), codec)
        assert np.all(cw == 0)
        assert cw.size == codec.n_coded == 92

    def test_rate_accounting(self):
        codec = random_codec(40)
        assert abs(codec.rate - 40 / 92) < 1e-15

    def test_impulse_response_matches_polynomial_division(self):
        # derived: parity of a single-1 input equals the g1/g0 impulse response
        codec = random_codec(8)
        msg = np.zeros(8, dtype=int)
        msg[0] = 1
        par1, _, _ = codec.trellis.encode_stream(msg)
        assert np.array_equal(par1, rsc_impulse_response(8))

    def test_linearity_over_gf2(self):
        # derived: encode(a^b) = encode(a)^encode(b) on the untailed portion
        codec = random_codec(24)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 2, 24)
            b = rng.integers(0, 2, 24)
            ca, cb = encode(a, codec), encode(b, codec)
            cab = encode(a ^ b, codec)
            assert np.array_equal(cab[:48], (ca ^ cb)[:48])

    def test_wrong_length_rejected(self):
        codec = random_codec(40)
        with pytest.raises(ValueError):
            encode(np.zeros(39, dtype=int), codec)

    def test_both_trellises_terminate(self):
        codec = random_codec(40)
        rng = np.random.default_rng(1)
        for _ in range(10):
            msg = rng.integers(0, 2, 40)
            encode(msg, codec)  # asserts state 0 internally


    @pytest.mark.parametrize("k", [64, 50])  # QPP; seeded random interleaver
    def test_batch_equals_per_frame(self, k):
        # reference: both RSCs stepped over one message at a time, as the
        # codeword layout in the module docstring defines it
        codec = random_codec(k, seed=3)
        assert (k in QPP_COEFFS) == (k == 64)
        msgs = np.random.default_rng(k).integers(0, 2, (33, k))
        batch = encode(msgs, codec)
        assert batch.shape == (33, codec.n_coded)
        assert batch.dtype == np.int64
        odd = np.arange(k) % 2 == 1
        for m, cw in zip(msgs, batch):
            par1, t1s, t1p = codec.trellis.encode_stream(m)
            par2, t2s, t2p = codec.trellis.encode_stream(codec.interleave(m))
            ref = np.concatenate([m, np.where(odd, par1, par2),
                                  np.stack([t1s, t1p], axis=-1).ravel(),
                                  np.stack([t2s, t2p], axis=-1).ravel()])
            single = encode(m, codec)
            assert single.shape == (codec.n_coded,)
            assert np.array_equal(cw, ref)
            assert np.array_equal(single, ref)
            assert np.array_equal(single, encode(list(m), codec))


class TestBcjr:
    def test_log_map_equals_exhaustive_map(self):
        # derived: K=6 exhaustive bitwise MAP oracle
        rng = np.random.default_rng(2)
        tr = Trellis()
        for _ in range(20):
            sys_llr = rng.normal(size=9) * 3
            par_llr = rng.normal(size=9) * 3
            apriori = rng.normal(size=6)
            post, ext = bcjr(sys_llr, par_llr, apriori, tr, "log")
            ref = brute_force_map(sys_llr, par_llr, apriori, tr, 6)
            assert np.allclose(post, ref, atol=1e-9)
            assert np.allclose(ext, post - apriori - sys_llr[:6], atol=1e-12)

    def test_saturated_llrs_recover_bits(self):
        rng = np.random.default_rng(3)
        k = 16
        codec = random_codec(k)
        msg = rng.integers(0, 2, k)
        cw = encode(msg, codec)
        tail1 = cw[2 * k : 2 * k + 6]
        sys = 40.0 * (1 - 2.0 * np.concatenate([cw[:k], tail1[0::2]]))
        par = np.zeros(k + 3)
        odd = np.arange(k) % 2 == 1
        punct = cw[k : 2 * k]
        par[:k][odd] = 40.0 * (1 - 2.0 * punct[odd])  # encoder-1 positions
        par[k:] = 40.0 * (1 - 2.0 * tail1[1::2])
        post, _ = bcjr(sys, par, np.zeros(k), codec.trellis, "max-log")
        assert np.array_equal((post < 0).astype(int), msg)

    def test_max_log_equals_log_when_gaps_large(self):
        # max* degenerates once metric gaps exceed ~40
        rng = np.random.default_rng(4)
        tr = Trellis()
        sys_llr = (rng.normal(size=9) + 3) * 100
        par_llr = (rng.normal(size=9) + 3) * 100
        apriori = np.zeros(6)
        p_log, _ = bcjr(sys_llr, par_llr, apriori, tr, "log")
        p_max, _ = bcjr(sys_llr, par_llr, apriori, tr, "max-log")
        assert np.allclose(p_log, p_max, rtol=1e-12)

    def test_length_mismatch(self):
        tr = Trellis()
        with pytest.raises(ValueError):
            bcjr(np.zeros(9), np.zeros(8), np.zeros(6), tr, "log")

    @pytest.mark.parametrize("algo", ["log", "max-log"])
    def test_bit_posteriors_leave_message_outputs_unchanged(self, algo):
        rng = np.random.default_rng(5)
        tr = Trellis()
        sys_llr = rng.normal(size=(16, 43)) * 3
        par_llr = rng.normal(size=(16, 43)) * 3
        apriori = rng.normal(size=(16, 40))
        post, ext = _bcjr_batch(sys_llr, par_llr, apriori, tr, algo)
        post_fb, ext_fb, sys_post, _ = _bcjr_batch(
            sys_llr, par_llr, apriori, tr, algo, want_bit_posteriors=True)
        assert np.array_equal(post, post_fb)
        assert np.array_equal(ext, ext_fb)
        assert np.array_equal(sys_post[:, :40], post)
        # the message posteriors are computed once, as part of sys_post
        assert np.shares_memory(post_fb, sys_post)


class TestInterleaver:
    def test_qpp_table_entries_are_permutations(self):
        for k in QPP_COEFFS:
            pi = qpp_interleaver(k)
            assert sorted(pi.tolist()) == list(range(k))

    def test_random_fallback_deterministic(self):
        a = qpp_interleaver(37, seed=5)
        b = qpp_interleaver(37, seed=5)
        assert np.array_equal(a, b)
        assert sorted(a.tolist()) == list(range(37))

    def test_roundtrip(self):
        codec = random_codec(40)
        x = np.arange(40.0)
        assert np.array_equal(codec.deinterleave(codec.interleave(x)), x)

    @pytest.mark.parametrize("k", [64, 50])  # QPP; seeded random permutation
    def test_batched_roundtrip_matches_index_and_scatter(self, k):
        codec = TurboCodec(k=k, seed=7)
        x = np.random.default_rng(k).normal(size=(9, k))
        assert np.array_equal(codec.deinterleave(codec.interleave(x)), x)
        assert np.array_equal(codec.interleave(x), x[..., codec.interleaver])
        scattered = np.empty_like(x)
        scattered[..., codec.interleaver] = x
        assert np.array_equal(codec.deinterleave(x), scattered)


class TestTurboDecode:
    def test_zero_in_zero_out(self):
        codec = random_codec(40)
        bits, ext = turbo_decode(np.zeros(codec.n_coded), codec)
        assert np.all(bits == 0)
        assert np.allclose(ext, 0.0)

    def test_high_snr_awgn_no_errors(self):
        # derived Monte Carlo: BPSK-equivalent LLRs at high Eb/N0
        rng = np.random.default_rng(5)
        codec = random_codec(40, decoder="log", n_iter=5)
        ebn0_db = 7.0
        rate = codec.rate
        sigma2 = 1.0 / (2 * rate * 10 ** (ebn0_db / 10))
        errors = 0
        for _ in range(1000):
            msg = rng.integers(0, 2, 40)
            cw = encode(msg, codec)
            tx = 1.0 - 2.0 * cw
            y = tx + rng.normal(scale=np.sqrt(sigma2), size=cw.size)
            llr = 2.0 * y / sigma2
            bits, _ = turbo_decode(llr, codec)
            errors += np.sum(bits != msg)
        assert errors == 0

    def test_scaled_with_unit_weights_is_max_log(self):
        rng = np.random.default_rng(6)
        codec = random_codec(40, decoder="max-log", n_iter=3)
        llr = rng.normal(size=codec.n_coded) * 2
        b_plain, e_plain = turbo_decode(llr, codec)
        w = ScaledDecoderWeights(np.ones((3, 2)))
        b_w, e_w = turbo_decode(llr, codec, weights=w)
        assert np.array_equal(b_plain, b_w)
        assert np.array_equal(e_plain, e_w)

    def test_single_iteration_identity_weights(self):
        rng = np.random.default_rng(7)
        codec = random_codec(40, decoder="max-log", n_iter=1)
        llr = rng.normal(size=codec.n_coded) * 2
        p_plain = decode_posteriors(llr, codec, n_iter=1)
        p_w = decode_posteriors(llr, codec, n_iter=1,
                                weights=ScaledDecoderWeights(np.ones((1, 2))))
        assert np.allclose(p_plain, p_w)

    @pytest.mark.slow
    def test_fer_monotone_in_iterations(self):
        # statistical: frame error rate non-increasing with turbo iterations
        rng = np.random.default_rng(8)
        codec = random_codec(40, decoder="log")
        ebn0_db = 2.0
        sigma2 = 1.0 / (2 * codec.rate * 10 ** (ebn0_db / 10))
        n_frames = 1000
        fers = []
        msgs = rng.integers(0, 2, (n_frames, 40))
        llrs = np.empty((n_frames, codec.n_coded))
        for f in range(n_frames):
            cw = encode(msgs[f], codec)
            y = 1.0 - 2.0 * cw + rng.normal(scale=np.sqrt(sigma2), size=cw.size)
            llrs[f] = 2.0 * y / sigma2
        for n_iter in (1, 2, 4):
            post = decode_posteriors(llrs, codec, n_iter=n_iter)
            wrong = ((post < 0).astype(int) != msgs).any(axis=1)
            fers.append(wrong.mean())
        slack = 2 * np.sqrt(fers[0] / n_frames)
        assert fers[1] <= fers[0] + slack
        assert fers[2] <= fers[1] + slack

    def test_llr_negation_flips_single_transition_posteriors(self):
        # a single-step trellis admits the global negation symmetry
        tr = Trellis()
        rng = np.random.default_rng(9)
        sys_llr = rng.normal(size=4)
        par_llr = rng.normal(size=4)
        post, _ = bcjr(sys_llr, par_llr, np.zeros(1), tr, "log")
        post_neg, _ = bcjr(-sys_llr, -par_llr, np.zeros(1), tr, "log")
        assert np.allclose(post_neg, -post, atol=1e-9)

    def test_llr_sign_symmetry_on_codeword_support(self):
        # BPSK-symmetric channel: negating the channel LLRs where a
        # codeword has ones negates the message posteriors where that
        # codeword's message has ones.  (Global negation is not a code
        # symmetry for terminated trellises: all-ones is not a codeword.)
        rng = np.random.default_rng(21)
        codec = random_codec(40, decoder="log", n_iter=3)
        for _ in range(10):
            m_star = rng.integers(0, 2, 40)
            flip = 1.0 - 2.0 * encode(m_star, codec)
            llr = rng.normal(size=codec.n_coded) * 2
            pa = decode_posteriors(llr, codec)[0]
            pb = decode_posteriors(llr * flip, codec)[0]
            assert np.allclose(pb, (1 - 2 * m_star) * pa, atol=1e-9)


class TestScaledWeights:
    def test_initial_value(self):
        w = ScaledDecoderWeights.initial(4)
        assert np.all(w.values == 0.7)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ScaledDecoderWeights(np.array([[np.nan, 1.0]]))

    def test_fit_converges_to_unity_when_maxlog_is_exact(self):
        # zero-residual optimum: targets generated by the unscaled decoder
        # itself, as when max-log and log-MAP coincide on the dataset
        rng = np.random.default_rng(10)
        codec = random_codec(16, decoder="max-log", n_iter=2)
        dataset = []
        for _ in range(24):
            msg = rng.integers(0, 2, 16)
            cw = encode(msg, codec)
            llr = 3.0 * (1 - 2.0 * cw) + rng.normal(size=cw.size)
            target = decode_posteriors(llr, codec, n_iter=2)[0]
            dataset.append((llr, target))
        w = fit_scaled_weights(dataset, codec, n_iter=2)
        assert np.all(np.abs(w.values - 1.0) < 0.05)

    def test_fit_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            fit_scaled_weights([], random_codec(16))
