"""Behaviour oracle: pinned sha256 of run outputs and verify reports.

Each config below is run through ``config.execute`` and the bytes of its
trace CSV and summary JSON are hashed.  The summary is hashed with the
output paths removed (they depend on the test's temporary directory) and
re-serialized exactly as ``execute`` writes it.  A refactor of the solvers
must leave every hash unchanged; a deliberate change of the numbers or of
the file formats re-pins them and says why.  A run of small dimension holds
its vectors as tuples of floats; replayed with that cutoff at 0, on arrays
throughout, every run and the sweep write the same bytes.
"""

import hashlib
import json
import math

import pytest

from agdsmooth import solvers
from agdsmooth.cli import main
from agdsmooth.config import config_from_dict, execute, jsonable, run_sweep, sweep_from_dict

CUSTOM_CLAIM = {"kind": "custom", "points": [[0, 2], [4, 6], [40, 60]]}

# The run hashes pin the math.hypot norm (problems.norm) and the oracles'
# math.fsum sums, whose bits depend on neither the BLAS nor the interpreter.
GOLDEN_RUNS = {
    # the pinned adaptive run of the benchmark
    "adaptive-exp": (
        {"algorithm": "agd2", "problem": "exp-experiment", "problem_params.mu": 1e-3,
         "x0": [-6.0, -5.0], "r_bar": 100.0, "gamma_cap0": 100.0, "epsilon": 1e-6,
         "budget": 20000},
        "3bae6b0b23dc24b7286338a7479eb841ef0cbd2569af94a7c779b18df54b279d",
        "41941380c19c57144ad1522375bdcf0d6109a707ae0a720321f07e21c0d654fa",
    ),
    # the same run with the runtime checks off: the trace still carries the
    # certificate function, and no check reads it
    "adaptive-exp-checks-off": (
        {"algorithm": "agd2", "problem": "exp-experiment", "problem_params.mu": 1e-3,
         "x0": [-6.0, -5.0], "r_bar": 100.0, "gamma_cap0": 100.0, "epsilon": 1e-6,
         "budget": 20000, "check_invariants": False},
        "3bae6b0b23dc24b7286338a7479eb841ef0cbd2569af94a7c779b18df54b279d",
        "fb89eb88abb7820de9a2abc6da24d7acecb2233d712f695e7cf95e8b53477b1f",
    ),
    # the adaptive loop's budget exit
    "agd2-exp-experiment-budget": (
        {"algorithm": "agd2", "problem": "exp-experiment", "budget": 50},
        "8451192a165d6518ae85619f8a558adef2363c758cfec7c1f3f42383377bee0b",
        "54b2d6a9e710f0e4408fcbf615597f577903f12a60cfe338841d092c37e40bb2",
    ),
    "agd1-exp-1d": (
        {"algorithm": "agd1", "problem": "exp-1d", "epsilon": 1e-8},
        "f6f617b35724ee8dcaa3ea2008fa184d93c86910aa64a0816154996fc077ea75",
        "47e0beadba6f883bd0463442699322f2cbf84f7b299753bf87b99fbab8201d2e",
    ),
    # an affine claim whose warm-start head is its admissibility boundary
    # 0.008786583206099204, at or below L0 / (64 L1^2) in exact arithmetic, where
    # ell(8 sqrt(delta ell(0))) reads one ulp above 2 ell(0) in floats; the
    # head is kept, not halved, and the run takes 362 oracle calls
    "agd1-exp-1d-affine-edge": (
        {"algorithm": "agd1", "problem": "exp-1d",
         "ell": {"kind": "affine", "L0": 56.23413251903491, "L1": 10.0}, "strict_checks": True},
        "71d58693b64ceeb99b7c249b8498444c9a44eb609c0d07b8dc7670e810580933",
        "b039c87b009c3b6ae9c6f22e02ed7d0006c0987241fbddf57c8d3dbec88bd896",
    ),
    # orthant projection of u; a rho = 2 power claim, so psi increases
    # everywhere (delta_max is infinite) and no m_bar is estimated
    "agd1-neg-log-barrier": (
        {"algorithm": "agd1", "problem": "neg-log-barrier", "epsilon": 1e-8},
        "10e9219a262f059243257f453d10992e0a2e8843a7f896cf90869c5bd7977321",
        "79c3baf7ea4dd3d90d3cb6286a395eefd40823231f02e9e5a3f25b1ba160e6fc",
    ),
    # superquadratic claim: m_bar estimated by sphere sampling, delta clipped
    # to the two-branch region
    "agd1-quadratic-power-rho3": (
        {"algorithm": "agd1", "problem": "quadratic",
         "ell": {"kind": "power", "rho": 3, "L0": 1, "L1": 1}, "x0": [0.3, 0.3]},
        "a18ebaa3b434e299535399c056605330a306b74bbd0152dba3e50742618d1082",
        "d90b7228e68c499c0fa07bfc9bb6866a771d61806f6bb2912ba86daf9ea79933",
    ),
    # a monotone piecewise-linear claim, warm-started and adaptive
    "agd1-exp-1d-custom": (
        {"algorithm": "agd1", "problem": "exp-1d", "ell": CUSTOM_CLAIM},
        "3a7f97c8e4b974581e6cd5e39fb54585a67592e169e7aa977a76ac4890376a07",
        "0cb56111a0267c317cf5a5eced2a023e70bab2f3779419cafd547621b0f38316",
    ),
    "agd2-exp-1d-custom": (
        {"algorithm": "agd2", "problem": "exp-1d", "ell": CUSTOM_CLAIM},
        "ad4d5cdc9e14cd2206a3083dada73509f4c80f19a1d83ffdf849cf694d7f416e",
        "e55749d89e8da6dd067635ee1efdc0117978dea9c55200d69c1ddd157c26678b",
    ),
    "gd-exp-experiment": (
        {"algorithm": "gd", "problem": "exp-experiment", "epsilon": 1e-4},
        "729b3a04710880649658c564804a0c954b41d84be8226f546cd2c49f38e0b633",
        "ece3a2c8a9b2e526965f30ecebae9ffde4794ce4b9aeef5a0757e44ce2b9756f",
    ),
    # a claimed profile too small for the objective: observe-mode flags
    "agd2-quadratic-constant-claim": (
        {"algorithm": "agd2", "problem": "quadratic", "ell": {"kind": "constant", "L": 0.5},
         "epsilon": 1e-8, "budget": 200},
        "7df388908c6279f62450ab80b9a2a8f2170aad0e4a831c4fc67f17ccbc32bc90",
        "ba8fafb63d763f2643ce279e6ae3fad091dfb48c2e568cfa291731ca7e15fc94",
    ),
    # certificate-only stopping: the optimum is withheld
    "agd1-quadratic-no-optimum": (
        {"algorithm": "agd1", "problem": "quadratic",
         "problem_params": {"d": 3, "known_optimum": False}, "r_bar": 2.0,
         "epsilon": 1e-6},
        "185d90376d5cb5b0a3bcc77a3303bcde1beb6dab9c50fdeb100087855c5ee8f5",
        "b897acf33be1ad8ae2abd2d4f790b61d4c6b767302647f7e570448c9b2b928e8",
    ),
    "agd2-stationary-start": (
        {"algorithm": "agd2", "problem": "quadratic", "x0": [0.0, 0.0], "r_bar": 1.0},
        "31c4110d7dc2ec2ac8301858d996331ae6f93786cf00b8bf9daeb05d43223b24",
        "26c310364ab9c3ab1d82c9ab00c3fe1c7787daf970643a39176291081d675578",
    ),
    "agd1-r-bar-too-small": (
        {"algorithm": "agd1", "problem": "exp-1d", "r_bar": 1.0},
        "31c4110d7dc2ec2ac8301858d996331ae6f93786cf00b8bf9daeb05d43223b24",
        "76e7dcafac8d2cc81b91ae9dec61f5f417ff7f126fa1d6d9084aea1e8372ac32",
    ),
}

# Every convexity integral and a general power's q integrate with the
# package's Gauss-Kronrod rule (``smoothness.quad``), and every Bregman
# term's inner product is a ``math.fsum``.
GOLDEN_VERIFY = {
    "exp-1d": "5365dc494ba850b225bd0fe71417e444d260390c0501627101edb21a505f1a68",
    "exp-experiment": "1f4c463e5338eb34af003203646471b6dd1b52279ff7eff5b38aa921d1532be2",
    "neg-log-barrier": "13f8bed4ac945c7c6e0b719af2b0b68cb046c0a01eef9cc60378ea49b91320cc",
    "power-p": "ff3c6b0f3c47d98efe35664a205206911e5cc4371cd150574b5ae9e6cf616a1d",
    "quadratic": "acda2cef54bff0682a31ed6dea590cdaabcacbf15df1f1a10a20effd90772f1a",
}
VERIFY_TRIALS = 60

# An epsilon-quartering sweep shaped like the benchmark's: a 10-d quadratic
# with the optimum withheld, checks and trace off, agd1 then agd2.
SWEEP_DIM = 10
SWEEP_BASE = {
    "problem": "quadratic",
    "problem_params": {"L": 1.0, "d": SWEEP_DIM, "known_optimum": False},
    "x0": [0.1] * SWEEP_DIM, "r_bar": 0.1 * math.sqrt(SWEEP_DIM), "gamma_cap0": 1.0,
    "epsilon": 1e-4, "check_invariants": False, "trace_path": "",
}
SWEEP_LEVELS = 3
GOLDEN_SWEEP = "b05335f146fea41dcda0c55f131ddf2b88e1155d3adb4889707403c4b6ef8989"

PATH_KEYS = ("trace_path", "summary_path")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_digest(text: str) -> str:
    summary = json.loads(text)
    for key in PATH_KEYS:
        summary.pop(key, None)
        summary["config"].pop(key, None)
    return sha256((json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_outputs_are_pinned(name, tmp_path):
    settings, trace_sha, summary_sha = GOLDEN_RUNS[name]
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    execute(config_from_dict(
        {**settings, "trace_path": str(trace), "summary_path": str(summary)}
    ))
    assert sha256(trace.read_bytes()) == trace_sha
    assert summary_digest(summary.read_text()) == summary_sha


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_outputs_are_the_same_on_arrays(name, tmp_path, monkeypatch):
    monkeypatch.setattr(solvers, "_FLOAT_DIM", 0)
    test_run_outputs_are_pinned(name, tmp_path)


@pytest.mark.parametrize("problem", sorted(GOLDEN_VERIFY))
def test_verify_report_is_pinned(problem, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", problem, "claimed", "--trials", str(VERIFY_TRIALS),
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    assert sha256(out.read_bytes()) == GOLDEN_VERIFY[problem]


def test_sweep_report_is_pinned():
    reports = [
        run_sweep(sweep_from_dict({"base": {**SWEEP_BASE, "algorithm": algorithm},
                                   "axis": "epsilon-quartering", "levels": SWEEP_LEVELS}),
                  write_files=False)
        for algorithm in ("agd1", "agd2")
    ]
    text = json.dumps(jsonable(reports), indent=2, sort_keys=True) + "\n"
    assert sha256(text.encode()) == GOLDEN_SWEEP


def test_sweep_report_is_the_same_on_arrays(monkeypatch):
    # the pinned sweep's points hold tuples of floats; here, arrays
    assert SWEEP_DIM <= solvers._FLOAT_DIM
    monkeypatch.setattr(solvers, "_FLOAT_DIM", 0)
    test_sweep_report_is_pinned()
