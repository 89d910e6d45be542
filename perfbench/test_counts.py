"""Consistency tests of the benchmark itself.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
Each test starts the benchmark in its own process with ``--seconds 0``,
which still runs the minimum number of ops.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def bench(workload: str, trace: int, seed: int = 0) -> tuple[dict, dict]:
    """Run the benchmark once; returns its result line and results record."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, record


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (bench(w, 1), bench(w, 1)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_runs(traced_twice, workload):
    (first, rec1), (second, rec2) = traced_twice[workload]
    assert first["correct"] and second["correct"], rec1["problems"] + rec2["problems"]
    assert first["failed"] == second["failed"] == 0
    counts = [name for name in first["metrics"] if run.is_count(name)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_evaluate_calls_equal_oracle_calls(traced_twice, workload):
    (line, record), _ = traced_twice[workload]
    evaluate_calls = line["metrics"]["problems.evaluate.calls"]["value"]
    assert evaluate_calls == record["extra"]["oracle_calls"]
    if workloads.CLASSES[workload].reports_oracle_calls:
        # the solvers' own count, summed over the op's runs
        assert evaluate_calls == record["extra"]["oracle_calls_reported"]


def test_psi_inverse_once_per_adaptive_iteration(traced_twice):
    (line, record), _ = traced_twice["adaptive-exp"]
    iterations = record["extra"]["iterations"]
    assert iterations > 0
    assert line["metrics"]["smoothness.psi_inverse.step_calls"]["value"] == iterations
    assert line["metrics"]["smoothness.psi_eval.per_inverse"]["value"] > 0


def test_quadratic_sweep_bypasses_psi_inverse(traced_twice):
    (line, record), _ = traced_twice["quadratic-sweep"]
    assert record["extra"]["iterations"] > 0
    assert line["metrics"]["smoothness.psi_inverse.step_calls"]["value"] == 0


def test_untraced_run_reports_every_end_to_end_metric():
    line, record = bench("quadratic-sweep", 0)
    spec = run.load_spec()
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert line["metrics"]["oracle_calls"]["value"] == record["extra"]["oracle_calls_reported"]


def test_spec_matches_benchmark():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m["name"] for m in layers["metrics"]]
    known = set(workloads.WORKLOADS)
    assert all(set(m["workloads"]) <= known for m in layers["metrics"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adaptive-exp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
