"""The benchmark record's summarizer, on canned lines of perfbench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "tools" / "bench_json.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = SPEC["end_to_end"]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in END_TO_END}
BETTER = {m["name"]: m["better"] for m in END_TO_END}


def _load():
    spec = importlib.util.spec_from_file_location("bench_json", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_json = _load()


def _line(ops_per_s, p50=0.0002, failed=0, correct=True, **other):
    values = {"setup_s": 0.09, "ops_per_s": ops_per_s, "latency_p50_s": p50,
              "latency_p90_s": 0.005, "peak_rss_mb": 25.0, **other}
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return json.dumps({"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics})


def test_summary_has_median_and_inclusive_quartiles():
    side = bench_json.summarize([_line(v) for v in (400.0, 440.0, 420.0, 500.0, 410.0)], BETTER)
    ops = side["metrics"]["ops_per_s"]
    assert (ops["median"], ops["q1"], ops["q3"]) == (420.0, 410.0, 440.0)
    assert ops["values"] == [400.0, 440.0, 420.0, 500.0, 410.0]  # run order, for pairing
    assert ops["unit"] == "1/s"
    assert set(side["metrics"]) == set(UNITS)
    assert side["metrics"]["peak_rss_mb"] == {
        "median": 25.0, "q1": 25.0, "q3": 25.0, "values": [25.0] * 5, "unit": "MB"
    }
    assert side["attempted"] == [1000] * 5 and side["failed"] == [0] * 5
    assert side["correct"]


def test_one_run_is_its_own_quartiles():
    ops = bench_json.summarize([_line(450.0)], BETTER)["metrics"]["ops_per_s"]
    assert (ops["median"], ops["q1"], ops["q3"]) == (450.0, 450.0, 450.0)


def test_failures_and_incorrect_runs_are_kept():
    side = bench_json.summarize([_line(400.0, failed=3), _line(410.0, correct=False)], BETTER)
    assert side["failed"] == [3, 0]
    assert not side["correct"]


def test_change_wins_count_pairs_by_direction():
    parent = bench_json.summarize([_line(400.0, p50=2e-4), _line(420.0, p50=2e-4), _line(410.0, p50=3e-4)], BETTER)
    change = bench_json.summarize([_line(450.0, p50=1e-4), _line(420.0, p50=2e-4), _line(400.0, p50=2e-4)], BETTER)
    wins = bench_json.change_wins(parent, change, BETTER)
    assert wins["ops_per_s"] == 1  # higher is better; the tie counts for neither side
    assert wins["latency_p50_s"] == 2  # lower is better
    assert wins["peak_rss_mb"] == 0


def test_summary_needs_every_end_to_end_metric():
    doc = json.loads(_line(400.0))
    del doc["metrics"]["peak_rss_mb"]
    with pytest.raises(KeyError):
        bench_json.summarize([json.dumps(doc)], BETTER)


def test_traced_run_keeps_the_named_layers_it_reports():
    # a --trace 1 line: solver.phase2_* absent (its span could not be wrapped),
    # and one metric that BENCHMARK.json does not name
    reported = {"solver.phase1_s": (0.0435, "s"), "solver.phase1_nodes": (61430, "count"),
                "trace.overhead_s": (0.002, "s"), "solver.unnamed_s": (1.0, "s")}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
    line = json.dumps({"correct": True, "attempted": 500, "failed": 0, "metrics": metrics})
    got = bench_json.layers(line, PER_LAYER)
    assert list(got) == ["solver.phase1_s", "solver.phase1_nodes", "trace.overhead_s"]  # per_layer order
    assert got["solver.phase1_nodes"] == {"value": 61430, "unit": "count"}
