import json

import numpy as np
import pytest

from epturbo.cli import main
from epturbo.epdetect import load_damping_table, sigmoid
from epturbo.metaopt import LstmOptimizerParams, meta_train


def sweep_config(**over):
    doc = {
        "schema": 1,
        "system": {"nt": 2, "nr": 2, "mod_order": 4, "ep_layers": 3},
        "channel": {"kind": "rayleigh"},
        "snr": {"mode": "es", "grid_db": [4.0, 8.0, 12.0]},
        "variants": ["mmse", "ep"],
        "damping": {"source": "fixed", "value": 0.1},
        "stopping": {"min_bit_errors": 100, "max_bits": 4000},
        "seed": 5,
    }
    doc.update(over)
    return doc


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def theta_file(tmp_path_factory):
    theta, _ = meta_train(epochs=50, rng=np.random.default_rng(0))
    path = tmp_path_factory.mktemp("theta") / "theta.json"
    theta.save(path)
    return str(path)


class TestSweepCommand:
    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        rc = main(["sweep", str(tmp_path / "nope.json"), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_minimal_sweep_writes_rows(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sweep_config())
        out = tmp_path / "out"
        rc = main(["sweep", cfg, "--out", str(out)])
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0].startswith("variant,snr_db")
        assert len(lines) == 1 + 2 * 3  # 2 variants x 3 SNR points

    def test_rerun_reproduces_statistics(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sweep_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", cfg, "--out", str(out2)]) == 0

        def strip_seconds(path):
            rows = path.read_text().splitlines()
            return [",".join(r.split(",")[:-1]) for r in rows]

        # byte-identical apart from the wall-time column
        assert strip_seconds(out1 / "results.csv") == strip_seconds(
            out2 / "results.csv")

    def test_invalid_schema_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sweep_config(schema=2))
        rc = main(["sweep", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_bad_grid_rejected(self, tmp_path):
        doc = sweep_config()
        doc["snr"]["grid_db"] = [8.0, 4.0]
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_damping_source_typo_exits_2(self, tmp_path, capsys):
        doc = sweep_config(damping={"source": "Fixed", "value": 0.1})
        cfg = write_json(tmp_path / "c.json", doc)
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown damping source 'Fixed'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_trained_source_requires_theta(self, tmp_path):
        doc = sweep_config(damping={"source": "trained"})
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["sweep", cfg, "--out", str(tmp_path / "out")]) == 2


class TestMetaTrainCommand:
    def test_writes_valid_theta_and_curve(self, tmp_path):
        out = tmp_path / "theta.json"
        rc = main(["meta-train", "--out", str(out), "--seed", "3",
                   "--epochs", "70"])
        assert rc == 0
        theta = LstmOptimizerParams.load(out)
        assert theta.weights["head.w"].shape == (5,)
        curve = (tmp_path / "theta.json.curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,loss"
        assert len(curve) >= 70

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_empty_budget_exits_2_without_writing(self, tmp_path, capsys,
                                                  epochs):
        out = tmp_path / "theta.json"
        assert main(["meta-train", "--out", str(out), "--epochs", epochs]) == 2
        assert "at least 1 epoch" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "theta.json.curve.csv").exists()

    def test_fixed_seed_reproduces_theta_exactly(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["meta-train", "--out", str(a), "--seed", "9",
                     "--epochs", "35"]) == 0
        assert main(["meta-train", "--out", str(b), "--seed", "9",
                     "--epochs", "35"]) == 0
        assert json.loads(a.read_text())["weights"] == \
            json.loads(b.read_text())["weights"]


class TestOnlineTrainCommand:
    def train_config(self, **over):
        doc = {
            "schema": 1,
            "system": {"nt": 2, "nr": 2, "mod_order": 4, "ep_layers": 3,
                       "jdd_stages": 1},
            "channel": {"kind": "rayleigh"},
            "snr": {"mode": "es", "value_db": 10.0},
            "training": {"samples": 128, "epochs": 8},
            "seed": 4,
        }
        doc.update(over)
        return doc

    def test_writes_damping_table(self, tmp_path, theta_file):
        cfg = write_json(tmp_path / "train.json", self.train_config())
        out = tmp_path / "table.json"
        rc = main(["online-train", "--theta", theta_file, "--config", cfg,
                   "--out", str(out)])
        assert rc == 0
        raw = load_damping_table(out)
        assert raw.shape == (1, 3)
        eff = sigmoid(raw)
        assert np.all((eff > 0) & (eff < 1))

    def test_empty_dataset_exits_with_error(self, tmp_path, theta_file, capsys):
        doc = self.train_config()
        doc["training"]["samples"] = 0
        cfg = write_json(tmp_path / "train.json", doc)
        rc = main(["online-train", "--theta", theta_file, "--config", cfg,
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "empty" in capsys.readouterr().err

    def test_unknown_channel_kind_exits_2(self, tmp_path, theta_file, capsys):
        doc = self.train_config(channel={"kind": "Rayleigh"})
        doc["system"].update(message_len=16, decoder_iters=2, jdd_stages=2)
        cfg = write_json(tmp_path / "train.json", doc)
        rc = main(["online-train", "--theta", theta_file, "--config", cfg,
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "unknown channel kind" in capsys.readouterr().err

    def test_seed_flag_seeds_interleaver_and_data(self, tmp_path, theta_file):
        # K = 50 has no published QPP coefficients, so the interleaver is a
        # permutation drawn from the seed: --seed 5 over a document seed of
        # 1 must train on the code and the data of a document seed of 5
        from epturbo.turbocode import TurboCodec

        assert not np.array_equal(TurboCodec(k=50, seed=1).interleaver,
                                  TurboCodec(k=50, seed=5).interleaver)

        def table(doc_seed, flag):
            doc = self.train_config(seed=doc_seed)
            doc["system"].update(message_len=50, decoder_iters=2,
                                 jdd_stages=2)
            doc["training"] = {"samples": 32, "epochs": 3}
            cfg = write_json(tmp_path / f"train{doc_seed}.json", doc)
            out = tmp_path / f"table{doc_seed}.json"
            argv = ["online-train", "--theta", theta_file, "--config", cfg,
                    "--out", str(out)]
            assert main(argv + flag) == 0
            return load_damping_table(out)

        assert np.array_equal(table(1, ["--seed", "5"]), table(5, []))

    def test_loaded_table_changes_sweep_output(self, tmp_path, theta_file):
        # train a table, then run paired sweeps with fixed vs table damping
        cfg = write_json(tmp_path / "train.json", self.train_config())
        table = tmp_path / "table.json"
        assert main(["online-train", "--theta", theta_file, "--config", cfg,
                     "--out", str(table)]) == 0
        base = sweep_config(variants=["epnet"])
        base["snr"] = {"mode": "es", "grid_db": [10.0]}
        doc_fixed = json.loads(json.dumps(base))
        doc_table = json.loads(json.dumps(base))
        doc_table["damping"] = {"source": "table", "path": str(table)}
        c1 = write_json(tmp_path / "fixed.json", doc_fixed)
        c2 = write_json(tmp_path / "table_cfg.json", doc_table)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", c1, "--out", str(o1)]) == 0
        assert main(["sweep", c2, "--out", str(o2)]) == 0
        r1 = (o1 / "results.csv").read_text().splitlines()[1]
        r2 = (o2 / "results.csv").read_text().splitlines()[1]
        # same channels, different damping: error counts differ
        assert r1.split(",")[3] != r2.split(",")[3]


class TestShowTable:
    def test_prints_table(self, tmp_path, capsys):
        from epturbo.epdetect import save_damping_table

        path = tmp_path / "table.json"
        save_damping_table(path, np.array([[0.9, 0.2], [0.5, 0.1]]))
        rc = main(["show-table", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 stage(s) x 2 layer(s)" in out
        assert "0.9000" in out

    def test_missing_table(self, tmp_path, capsys):
        rc = main(["show-table", str(tmp_path / "none.json")])
        assert rc in (2, 3)


class TestHelpAndUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("sweep", "meta-train", "online-train", "show-table"):
            assert sub in out

    def test_subcommand_help(self, capsys):
        assert main(["sweep", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--out", "--seed", "--workers", "--theta"):
            assert flag in out

    def test_unknown_flag_fails_fast(self):
        assert main(["sweep", "x.json", "--out", "y", "--bogus"]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
