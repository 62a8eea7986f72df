"""BENCHMARK.json, layers.json and the code name the same things."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
REASONS = json.loads((BENCH / "layers.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])


def test_metric_names_and_units_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(tracing.PER_LAYER)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_and_layer_metric_has_its_reasons():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(REASONS["workloads"])
    for w in REASONS["workloads"].values():
        assert {"shape", "stresses", "bypasses", "why"} <= set(w)
    assert list(REASONS["per_layer"]) == [n for n, _ in tracing.PER_LAYER]
    metrics = {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"} | \
        {name for name, _ in run.OP_LATENCY}
    for name, entry in REASONS["per_layer"].items():
        assert set(entry["moves"]) <= metrics, name
        assert set(entry["on"]) <= set(names), name
    assert set(REASONS["layers"]) == set(tracing.LAYERS)


def test_percentile_is_a_measured_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 0.5) == 3.0
    assert run.percentile(values, 0.9) == 5.0
    assert run.percentile([7.0], 0.9) == 7.0


def test_exits_nonzero_without_a_result_where_amptree_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no amptree sources" in proc.stderr
