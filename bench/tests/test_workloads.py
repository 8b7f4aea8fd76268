"""The benchmark's activities on small inputs, traced and untraced."""

import json
import os

import layers
import run
import workloads
from tracer import INFO, NAME, Tracer

SMALL_UNCODED = dict(
    workloads.UNCODED_DOC,
    system={"nt": 2, "nr": 2, "mod_order": 4, "ep_layers": 5},
    snr={"mode": "eb-uncoded", "grid_db": [2, 6]},
    stopping={"min_bit_errors": 200, "max_bits": 2 * 8192},
)
SMALL_JDD = dict(
    workloads.JDD_DOC,
    system={"nt": 2, "nr": 2, "mod_order": 4, "message_len": 40,
            "decoder": "scaled-max-log", "decoder_iters": 2,
            "jdd_stages": 2, "ep_layers": 3},
    snr={"mode": "eb-uncoded", "grid_db": [2]},
    stopping={"min_bit_errors": 100, "max_bits": 81920},
)


class SmallUncoded(workloads.UncodedSweep):
    doc = SMALL_UNCODED


class SmallJdd(workloads.JddSweep):
    doc = SMALL_JDD


def traced_round(activity_cls, tmp_path):
    tracer = Tracer()
    layers.install(tracer)
    try:
        act = activity_cls(3, str(tmp_path / "traced"), run.ROOT, tracer)
        act.write_inputs()
        act.setup()
        fails, figures = act.run_round(0)
    finally:
        tracer.uninstall()
    return act, tracer, fails, figures


def test_uncoded_layers_run_matches_chunk_count(tmp_path):
    act, tracer, fails, _ = traced_round(SmallUncoded, tmp_path)
    assert all(not m for m in fails.values()), fails
    chunks = [s[INFO] for s in tracer.spans if s[NAME] == "harness.chunk"]
    depth = {"mmse": 1, "ep": 5}
    expected = sum(depth[next(iter(c["result"]))] for c in chunks)
    metrics = layers.per_layer(tracer.spans, 1, tracer.minor_faults)
    assert metrics["harness.chunks"] == len(chunks) > 0
    assert metrics["epdetect.layers_run"] == expected
    # one map_bits, channel draw and demap per chunk, through harness's names
    for name in ("modem.map_bits", "channel.sample_rayleigh",
                 "modem.demap_llr", "epdetect.epnet_core"):
        assert sum(s[NAME] == name for s in tracer.spans) == len(chunks)
    assert metrics["turbocode.bcjr_calls"] == 0


def test_jdd_layers_run_matches_chunk_count(tmp_path):
    act, tracer, fails, _ = traced_round(SmallJdd, tmp_path)
    assert all(not m for m in fails.values()), fails
    metrics = layers.per_layer(tracer.spans, 1, tracer.minor_faults)
    chunks = metrics["harness.chunks"]
    stages, depth, iters = 2, 3, 2
    assert chunks > 0
    assert metrics["epdetect.layers_run"] == chunks * stages * depth
    assert metrics["turbocode.bcjr_calls"] == chunks * stages * iters * 2
    assert metrics["turbocode.encode_calls"] == chunks * 512
    assert metrics["turbocode.bcjr_steps"] == (
        metrics["turbocode.bcjr_calls"] * 2 * (40 + 3))
    assert 0 < metrics["turbocode.bcjr_posterior_ratio"] < 1


def test_traced_round_writes_the_untraced_rows(tmp_path):
    plain = SmallUncoded(3, str(tmp_path / "plain"), run.ROOT)
    plain.write_inputs()
    plain.setup()
    plain.run_round(0)
    traced, _, _, _ = traced_round(SmallUncoded, tmp_path)
    assert traced.first_rows
    assert not workloads.checks.check_same_rows(traced.first_rows,
                                                plain.first_rows)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"] for m in doc["end_to_end"]
            if m["better"] == "higher"} == run.HIGHER_IS_BETTER
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.METRICS
