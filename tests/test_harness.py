import os
import subprocess
import sys

import numpy as np
import pytest

import epturbo
from epturbo.harness import (
    BerRecord,
    ExperimentConfig,
    OracleConfig,
    _receiver,
    binomial_ci,
    compare_oracle,
    read_records,
    run_sweep,
    write_records,
)


def small_config(**overrides):
    base = dict(
        nt=2, nr=2, mod_order=4, snr_grid_db=(4.0, 8.0),
        snr_mode="es", variants=("mmse", "ep"),
        min_bit_errors=100, max_bits=6000, chunk_frames=128,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_snr_grid_must_increase(self):
        with pytest.raises(ValueError):
            small_config(snr_grid_db=(8.0, 4.0)).validate()

    def test_min_errors_floor(self):
        with pytest.raises(ValueError):
            small_config(min_bit_errors=50).validate()

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            small_config(variants=("bogus",)).validate()

    @pytest.mark.parametrize("source", ["Fixed", "learned", ""])
    def test_unknown_damping_source(self, source):
        with pytest.raises(ValueError, match="damping source"):
            small_config(damping_source=source).validate()

    def test_jdd_needs_codec(self):
        with pytest.raises(ValueError):
            small_config(variants=("jdd",)).validate()

    def test_incompatible_codeword_length(self):
        # 64-QAM needs a codeword length divisible by 6
        with pytest.raises(ValueError):
            small_config(mod_order=64, message_len=40,
                         variants=("jdd",)).validate()

    @pytest.mark.parametrize("frames", [0, -3])
    def test_chunk_frames_floor(self, frames):
        cfg = small_config(chunk_frames=frames)
        with pytest.raises(ValueError, match="chunk_frames must be at least 1"):
            cfg.validate()
        with pytest.raises(ValueError, match="chunk_frames must be at least 1"):
            run_sweep(cfg)


def test_cli_import_leaves_the_process_pool_unloaded():
    # run_sweep imports the pool only when it runs with workers > 1
    code = ("import sys, epturbo.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    src = os.path.dirname(os.path.dirname(epturbo.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestSweep:
    def test_reproducible_records(self):
        cfg = small_config()
        rec1 = run_sweep(cfg)
        rec2 = run_sweep(cfg)
        assert len(rec1) == len(rec2) == 4  # 2 variants x 2 SNRs
        for a, b in zip(rec1, rec2):
            assert (a.variant, a.snr_db, a.bits, a.bit_errors, a.frames,
                    a.frame_errors) == (b.variant, b.snr_db, b.bits,
                                        b.bit_errors, b.frames, b.frame_errors)

    def test_variants_share_channels(self):
        # the ml variant lower-bounds everything on the same realizations;
        # a common max_bits stop makes the comparison exactly frame-paired
        cfg = small_config(variants=("mmse", "ep", "ml"), max_bits=2000,
                           snr_grid_db=(10.0,))
        recs = run_sweep(cfg)
        by_name = {r.variant: r for r in recs}
        assert by_name["ml"].bits == by_name["mmse"].bits == by_name["ep"].bits
        assert by_name["ml"].bit_errors <= by_name["mmse"].bit_errors
        assert by_name["ml"].bit_errors <= by_name["ep"].bit_errors

    def test_ber_monotone_in_snr(self):
        cfg = small_config(variants=("ep",), snr_grid_db=(0.0, 6.0, 12.0),
                           max_bits=40000)
        recs = run_sweep(cfg)
        bers = [r.ber for r in recs]
        # up to CI overlap
        for i in range(len(bers) - 1):
            lo_i, _ = binomial_ci(recs[i].bit_errors, recs[i].bits)
            _, hi_j = binomial_ci(recs[i + 1].bit_errors, recs[i + 1].bits)
            assert bers[i + 1] <= bers[i] or lo_i <= hi_j

    def test_stops_on_error_floor(self):
        cfg = small_config(variants=("mmse",), snr_grid_db=(0.0,),
                           max_bits=10**9, min_bit_errors=100)
        recs = run_sweep(cfg)
        assert recs[0].bit_errors >= 100
        # low SNR: should stop quickly, well before a huge bit budget
        assert recs[0].bits <= 128 * 4 * 20

    def test_zero_signal_floor(self):
        # scale ~ 0: BER sits at the coin-flip floor within binomial noise
        cfg = small_config(variants=("mmse",), snr_grid_db=(-300.0,),
                           max_bits=50_000, min_bit_errors=100)
        recs = run_sweep(cfg)
        ber = recs[0].ber
        sigma = np.sqrt(0.25 / recs[0].bits)
        assert abs(ber - 0.5) < 3 * sigma + 1e-3

    def test_worker_count_does_not_change_results(self):
        cfg1 = small_config()
        cfg2 = small_config(workers=2)
        rec1 = run_sweep(cfg1)
        rec2 = run_sweep(cfg2)
        for a, b in zip(rec1, rec2):
            assert (a.variant, a.bits, a.bit_errors) == (b.variant, b.bits,
                                                         b.bit_errors)

    def test_jdd_worker_count_does_not_change_rows(self):
        # the batch-last EP layer and the per-chunk workspace under the
        # process pool: every row but the timing column is the same
        def rows(workers):
            cfg = small_config(
                nt=2, nr=2, mod_order=16, message_len=40, variants=("jdd",),
                decoder="scaled-max-log", decoder_iters=2, jdd_stages=2,
                ep_layers=3, snr_mode="eb-coded", snr_grid_db=(4.0, 6.0),
                max_bits=20_480, chunk_frames=128, workers=workers)
            return [(r.variant, r.snr_db, r.bits, r.bit_errors, r.frames,
                     r.frame_errors) for r in run_sweep(cfg)]

        serial = rows(1)
        assert [r[0] for r in serial] == ["jdd-s1", "jdd-s2"] * 2
        assert all(r[3] > 0 for r in serial)
        assert rows(2) == serial

    def test_jdd_variant_emits_stage_records(self):
        cfg = small_config(
            nt=4, nr=4, mod_order=4, message_len=40,
            variants=("jdd",), jdd_stages=2, ep_layers=3,
            snr_mode="eb-coded", snr_grid_db=(3.0,),
            max_bits=20_000, chunk_frames=64, decoder_iters=3,
        )
        recs = run_sweep(cfg)
        names = [r.variant for r in recs]
        assert names == ["jdd-s1", "jdd-s2"]
        assert recs[0].bits == recs[1].bits

    def test_ten_stage_rows_sort_numerically(self):
        cfg = small_config(
            nt=2, nr=2, mod_order=4, message_len=40,
            variants=("jdd",), jdd_stages=10, ep_layers=2,
            snr_mode="eb-coded", snr_grid_db=(2.0,),
            max_bits=10**7, chunk_frames=32, decoder_iters=2,
        )
        recs = run_sweep(cfg)
        assert [r.variant for r in recs] == [f"jdd-s{i}" for i in range(1, 11)]
        assert recs[-1].bit_errors >= cfg.min_bit_errors

    def test_stop_rule_reads_highest_stage(self):
        # stages 1-9 pass the error floor on the first check, stage 10
        # never errs: only the bit budget of stage 10 may end the point
        class Staged:
            def run_chunk(self, config, scale, rng, n_frames):
                out = {f"x-s{i}": (100, 100, 1, 1) for i in range(1, 10)}
                out["x-s10"] = (100, 0, 1, 0)
                return out

        cfg = small_config(variants=(), snr_grid_db=(0.0,),
                           min_bit_errors=100, max_bits=2000)
        recs = run_sweep(cfg, extra_variants={"x": Staged()})
        assert [r.variant for r in recs] == [f"x-s{i}" for i in range(1, 11)]
        assert recs[-1].bits == 2000  # 5 checks of 4 chunks

    def test_stop_rule_reads_fewest_errors(self):
        # stage 2 errs more than stage 1, as a late JDD stage can: the
        # point runs on until stage 1 has min_bit_errors as well
        class Diverging:
            def run_chunk(self, config, scale, rng, n_frames):
                return {"x-s1": (100, 10, 1, 1), "x-s2": (100, 50, 1, 1)}

        cfg = small_config(variants=(), snr_grid_db=(0.0,),
                           min_bit_errors=100, max_bits=10**6)
        recs = run_sweep(cfg, extra_variants={"x": Diverging()})
        assert [r.variant for r in recs] == ["x-s1", "x-s2"]
        assert recs[0].bit_errors >= cfg.min_bit_errors
        assert recs[0].bits == 1200  # 3 checks of 4 chunks

    def test_table_shape_must_match_layers(self):
        cfg = small_config(variants=("epnet",), ep_layers=5,
                           damping_source="table",
                           damping_table=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="damping table shape"):
            run_sweep(cfg)


class TestReceiver:
    """`_receiver` returns (receiver, loss curves): a curve per trained
    stage, none when the damping is given."""

    @pytest.mark.parametrize("coded", [False, True])
    def test_given_damping_has_no_curves(self, coded):
        stages = 2 if coded else 1
        for over in (dict(damping_source="fixed"),
                     dict(damping_source="table",
                          damping_table=np.full((stages, 3), 0.4))):
            cfg = small_config(ep_layers=3, message_len=40, jdd_stages=2,
                               **over)
            rx, curves = _receiver(cfg, 0, 4.0, None,
                                   cfg.make_codec() if coded else None)
            assert rx.schedules.shape == (stages, 3)
            assert curves == []

    @pytest.mark.parametrize("coded", [False, True])
    def test_trained_damping_has_one_curve_per_stage(self, coded,
                                                     shipped_theta):
        cfg = small_config(ep_layers=3, message_len=40, jdd_stages=2,
                           damping_source="trained", train_samples=32,
                           train_epochs=3)
        rx, curves = _receiver(cfg, 0, 4.0, shipped_theta,
                               cfg.make_codec() if coded else None)
        assert len(curves) == rx.n_stages == (2 if coded else 1)
        for curve in curves:
            assert curve.ndim == 1 and 2 <= curve.size <= 4


class TestCalibration:
    def test_known_ber_synthetic_channel(self):
        # binomial consistency: CI from a synthetic channel with known BER
        class FlipChannel:
            def __init__(self, p):
                self.p = p

            def run_chunk(self, config, scale, rng, n_frames):
                bits = n_frames * 16
                errs = int(rng.binomial(bits, self.p))
                return {"flip": (bits, errs, n_frames, 0)}

        p_true = 0.01
        cfg = small_config(variants=(), snr_grid_db=(0.0,),
                           min_bit_errors=400, max_bits=10**7)
        hits = 0
        for trial in range(20):
            cfg_t = small_config(variants=(), snr_grid_db=(0.0,),
                                 min_bit_errors=400, max_bits=10**7,
                                 master_seed=trial)
            recs = run_sweep(cfg_t, extra_variants={"flip": FlipChannel(p_true)})
            lo, hi = binomial_ci(recs[0].bit_errors, recs[0].bits)
            hits += int(lo <= p_true <= hi)
        assert hits >= 17  # 95% interval, 20 trials


class TestCsv:
    def test_round_trip_and_header(self, tmp_path):
        path = tmp_path / "out.csv"
        recs = [BerRecord("ep", 4.0, 1000, 10, 50, 5, 1.234)]
        write_records(path, recs)
        text = path.read_text().splitlines()
        assert text[0] == "variant,snr_db,bits,bit_errors,frames,frame_errors,seconds"
        back = read_records(path)
        assert back[0].variant == "ep"
        assert back[0].bits == 1000

    def test_append_keeps_single_header(self, tmp_path):
        path = tmp_path / "out.csv"
        recs = [BerRecord("ep", 4.0, 1000, 10, 50, 5, 1.0)]
        write_records(path, recs)
        write_records(path, recs)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert sum(1 for l in lines if l.startswith("variant")) == 1

    def test_rejects_foreign_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_records(path)


@pytest.mark.slow
class TestPaperOrderingAnchor:
    def test_trained_epnet_l5_vs_ep_l10_at_19db(self, shipped_theta):
        # published reference ordering: trained EPNet (L=5) should match or
        # beat EP (L=10, damping 0.1) at E_B/N0 = 19 dB within overlapping
        # 95% CIs.  This anchor currently fails on detector depth, not on
        # training: trained L=5 measures ~4.48e-4 against ~3.49e-4 for EP
        # at L=10 with disjoint CIs, and fixed 0.1 damping at L=5 alone
        # gives ~4.78e-4, so no L=5 schedule found so far closes the gap.
        results = {}
        for variant, layers, source in (("ep", 10, "fixed"),
                                        ("epnet", 5, "trained")):
            cfg = ExperimentConfig(
                nt=8, nr=8, mod_order=16, snr_grid_db=(19.0,),
                snr_mode="eb-uncoded", variants=(variant,),
                ep_layers=layers, fixed_damping=0.1, damping_source=source,
                train_epochs=60, train_samples=2500,
                min_bit_errors=200, max_bits=10_000_000,
                chunk_frames=4096, master_seed=42,
            )
            recs = run_sweep(cfg, theta=shipped_theta)
            results[variant] = recs[0]
        ep, epn = results["ep"], results["epnet"]
        lo_ep, hi_ep = binomial_ci(ep.bit_errors, ep.bits)
        lo_en, hi_en = binomial_ci(epn.bit_errors, epn.bits)
        overlap = lo_en <= hi_ep and lo_ep <= hi_en
        assert epn.ber <= ep.ber or overlap, (
            f"EPNet {epn.ber:.3e} vs EP(L=10) {ep.ber:.3e}, CIs disjoint"
        )


class TestCompareOracle:
    def test_noiseless_full_agreement(self):
        report = compare_oracle(OracleConfig(es_n0_db=300.0, n_frames=500))
        assert report["agreement"] == 1.0
        assert report["epnet_ber"] == report["ml_ber"] == 0.0

    def test_high_snr_agreement(self):
        report = compare_oracle(OracleConfig(es_n0_db=15.0, n_frames=4000))
        assert report["agreement"] >= 0.99
        assert report["ml_ber"] <= report["epnet_ber"] + 1e-3

    def test_guard(self):
        with pytest.raises(ValueError):
            OracleConfig(nt=16, mod_order=64).validate()

    @pytest.mark.slow
    def test_epnet_within_one_db_of_ml_4x4(self):
        # paired-sweep dB-equivalent gap to ML at 4x4 QPSK: the oracle
        # measures ~0.8 dB at this array size (the half-dB figure holds
        # only for larger arrays, where EP approaches ML; see ledger), so
        # the frozen bound is 1 dB: EPNet at 12 dB beats ML shifted down
        # a full dB
        from epturbo.epdetect import DampingSchedule

        sched = DampingSchedule.constant(0.7, 5).raw
        ml_shifted = compare_oracle(OracleConfig(
            nt=4, nr=4, mod_order=4, es_n0_db=11.0, n_frames=30_000, seed=9,
            schedule_raw=sched))
        epnet = compare_oracle(OracleConfig(
            nt=4, nr=4, mod_order=4, es_n0_db=12.0, n_frames=30_000, seed=9,
            schedule_raw=sched))
        assert epnet["epnet_ber"] <= ml_shifted["ml_ber"]
