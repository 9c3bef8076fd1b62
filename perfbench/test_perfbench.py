"""The benchmark's own tests: tiny runs of every workload, traced mode, and the gate.

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import PREDICTIONS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_workloads_match_benchmark_json():
    assert [n for n in wl.WORKLOADS if n != "verify-parallel"] == NAMES
    assert list(PREDICTIONS) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name):
    result = _result(_run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_traced_run_prints_every_per_layer_metric(name):
    result = _result(_run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"))
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "verify-serial":
        assert metrics["oracle.pool_starts"] == 0
        assert metrics["oracle.closure.calls"] >= metrics["oracle.distinct_semigroups"] > 0
    if name == "verify-parallel" and wl.nproc() > 1:
        assert metrics["oracle.pool_starts"] > 0
    if name == "construct":
        assert metrics["constructions.duplicate.calls"] > 0
    spans = (HERE / "out" / f"spans-{name}-seed3.tsv").read_text().splitlines()
    assert spans[0] == "name\tstart\tend\tparent\trun_id" and len(spans) > 1


def test_inputs_come_from_the_seed_alone():
    for w in (wl.WORKLOADS["analyze-large"], wl.WORKLOADS["construct"]):
        assert w.inputs(5, 0, True) == w.inputs(5, 0, True)
        assert w.inputs(5, 0, True) != w.inputs(6, 0, True)
        assert w.inputs(5, 0, True) != w.inputs(5, 1, True)


def test_gate_flags_wrong_outputs():
    w = wl.WORKLOADS["analyze-large"]
    items = w.inputs(1, 0, True)
    res = w.run(items, 1)
    assert not any(w.gate(items, res))
    rec = json.loads(res.outputs[0])
    rec["genus"] += 1
    res.outputs[0] = json.dumps(rec)
    res.outputs[1] = ValueError("raised")
    assert w.gate(items, res)[:3] == [True, True, False]

    w = wl.WORKLOADS["construct"]
    items = w.inputs(1, 0, True)
    res = w.run(items, 1)
    assert not any(w.gate(items, res))
    res.outputs[0] = dict(res.outputs[0], pf_closed_form=[])
    assert w.gate(items, res)[0]

    w = wl.WORKLOADS["verify-serial"]
    grid = w.inputs(1, 0, True)
    res = w.run(grid, 1)
    assert not any(w.gate(grid, res))
    rep, line = res.outputs[0]
    res.outputs[0] = (rep, line.replace('"match": true', '"match": false'))
    assert w.gate(grid, res).count(True) == 1
    res.raised = "boom"
    assert all(w.gate(grid, res))


def test_every_pass_runs_in_a_fresh_interpreter():
    plain = run.run_pass(ROOT / "src", "analyze-large", 1, 0, True, 0)
    traced = run.run_pass(ROOT / "src", "analyze-large", 1, 0, True, 1)
    assert len({plain["pid"], traced["pid"], os.getpid()}) == 3
    assert plain["failed"] == traced["failed"] == 0 and "metrics" in traced


def test_compare_needs_a_paired_file(tmp_path):
    unpaired = tmp_path / "series.json"
    unpaired.write_text(json.dumps({"workload": NAMES[0], "sides": {"new": []}}))
    proc = _run("compare", str(unpaired))
    assert proc.returncode != 0 and "series --base" in proc.stderr


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_and_pair_rule():
    assert stats.tail(list(range(100))) == (89, 90.0, 100)
    assert stats.tail([3.0, 1.0]) == (3.0, 100.0, 2)
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in base]
    assert stats.compare(base, faster, "lower", 0.1)["verdict"] == "gain"
    assert stats.compare(base, [v * 1.3 for v in base], "lower", 0.1)["verdict"] == "REGRESSION"
    assert stats.compare(base, base, "lower", 0.1)["verdict"] == "within bound"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert stats.compare(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
