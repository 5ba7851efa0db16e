"""Tests of the benchmark itself: inputs, gate, tracer and metric names.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import gate
import run
import workloads
from conftest import BENCH, ROOT
from freedilation import ingest, run_theorem_suite


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a", ROOT)
    again = workloads.generate(workload, 7, tmp_path / "b", ROOT)
    assert [p.name for p in first] == [p.name for p in again]
    for a, b in zip(first, again):
        assert a.read_bytes() == b.read_bytes()


def test_generator_depends_on_seed(tmp_path):
    a = workloads.generate("dense_modes", 1, tmp_path / "a")
    b = workloads.generate("dense_modes", 2, tmp_path / "b")
    assert all(x.read_bytes() != y.read_bytes() for x, y in zip(a, b))


def test_generator_refuses_negative_seed(tmp_path):
    with pytest.raises(ValueError):
        workloads.generate("free_wide", -1, tmp_path)


@pytest.fixture(scope="module")
def single_report(tmp_path_factory):
    path = workloads.generate("dense_modes", 3, tmp_path_factory.mktemp("sc"))[0]
    report = run_theorem_suite(ingest(path)).to_obj()
    return json.loads(json.dumps(report))


def test_gate_accepts_real_report(single_report):
    assert gate.problems(single_report, 0, "single") == []


def test_gate_rejects_flipped_check(single_report):
    doctored = copy.deepcopy(single_report)
    doctored["checks"][1]["passed"] = False
    assert gate.problems(doctored, 0, "single")


def test_gate_rejects_residual_above_tol(single_report):
    doctored = copy.deepcopy(single_report)
    check = doctored["checks"][2]
    check["residual"] = check["tol"] * 2
    assert gate.problems(doctored, 0, "single")


def test_gate_rejects_missing_check_and_bad_exit(single_report):
    doctored = copy.deepcopy(single_report)
    del doctored["checks"][-1]
    assert gate.problems(doctored, 0, "single")
    assert gate.problems(single_report, 1, "single")
    assert gate.problems(None, 0, "single")


def test_fingerprint_ignores_seconds_only(single_report):
    timed = copy.deepcopy(single_report)
    timed["checks"][0]["seconds"] += 1.0
    assert gate.fingerprint(timed) == gate.fingerprint(single_report)
    changed = copy.deepcopy(single_report)
    changed["checks"][1]["residual"] += 1e-17
    assert gate.fingerprint(changed) != gate.fingerprint(single_report)


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_tracer_wraps_every_binding(tmp_path):
    path = workloads.generate("dense_modes", 3, tmp_path)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    spans, summary = tmp_path / "spans.jsonl", tmp_path / "summary.json"
    cmd = [
        sys.executable, str(BENCH / "traced_suite.py"),
        "--spans", str(spans), "--summary", str(summary),
        "--", "suite", "--input", str(path), "--output", str(tmp_path / "report.json"),
    ]
    subprocess.run(cmd, env=env, check=True, timeout=120)
    got = json.loads(summary.read_text())
    # cli binds ingest itself and harness calls build_model: both are traced.
    assert got["calls"]["harness.ingest"] == 1
    assert got["calls"]["harness.build_model"] == 1
    assert got["counts"]["operator_core.adjoint.calls"] > 0
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    ids = {s["id"] for s in lines}
    assert lines[0]["name"] == "cli.main" and lines[0]["parent"] == -1
    assert all(s["parent"] in ids for s in lines[1:])
    assert all(-1e-9 <= s["self_s"] <= s["dur_s"] + 1e-9 for s in lines)
