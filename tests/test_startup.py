"""The package runs without SciPy, and a small run without NumPy.

A general power profile's q inverse and limit and ``verify``'s convexity
integral integrate through ``smoothness.quad``, the package's own
Gauss-Kronrod rule, so no path of the package loads SciPy; it serves only
as a test reference.  Importing the package loads no NumPy either: a run
of dimension at most ``solvers._FLOAT_DIM`` steps on tuples of floats, and
writes the pinned bytes of ``test_golden_traces.py`` with NumPy blocked.
NumPy is loaded by the array path above that cutoff, by ``verify``'s and
the m_bar heuristic's random draws, and by an error message that prints a
point, which without NumPy prints the point's floats and keeps its typed
error.
"""

import os
import subprocess
import sys
from pathlib import Path

import agdsmooth
from agdsmooth import Power, q_inverse, q_max
from agdsmooth import smoothness

# Run in a fresh interpreter in which any import of SciPy raises.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None

import contextlib
import io
import os
import tempfile

import agdsmooth
import agdsmooth.cli
from agdsmooth import CATALOG_NAMES, Power, q_inverse, q_max
from agdsmooth.config import config_from_dict, execute, run_sweep, sweep_from_dict


def run(settings):
    result, _ = execute(config_from_dict({**settings, "trace_path": ""}), write_files=False)
    return result.termination, result.oracle_calls


# the pinned adaptive run of the benchmark, trace off
assert run({"algorithm": "agd2", "problem": "exp-experiment", "problem_params.mu": 1e-3,
            "x0": [-6.0, -5.0], "r_bar": 100.0, "gamma_cap0": 100.0, "epsilon": 1e-6,
            "budget": 20000}) == ("converged", 7265)
# an epsilon-quartering sweep on the quadratic's constant claim
report = run_sweep(sweep_from_dict({
    "axis": "epsilon-quartering", "levels": 3,
    "base": {"algorithm": "agd2", "problem": "quadratic", "epsilon": 1e-4, "trace_path": ""},
}), write_files=False)
assert [p["termination"] for p in report["points"]] == ["converged"] * 3, report
# agd1 on a piecewise-linear claim and on the rho = 2 power claim of neg-log-barrier
custom = {"kind": "custom", "points": [[0, 2], [4, 6], [40, 60]]}
assert run({"algorithm": "agd1", "problem": "exp-1d", "ell": custom})[0] == "converged"
assert run({"algorithm": "agd1", "problem": "neg-log-barrier", "epsilon": 1e-8})[0] == "converged"
# plain gradient descent
assert run({"algorithm": "gd", "problem": "quadratic", "epsilon": 1e-4})[0] == "converged"
# verify on every catalog problem, whose convexity integrals and power-p's
# q inverses integrate
with tempfile.TemporaryDirectory() as out:
    for name in CATALOG_NAMES:
        report = os.path.join(out, name + ".json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = agdsmooth.cli.main(["verify", name, "claimed", "--trials", "20", "--out", report])
        assert code == 0, name
# a general power profile's q inverse and limit, below rho = 2 and above it
for model in (Power(1.5, 1.0, 1.0), Power(3.0, 1.0, 1.0)):
    budget = q_max(model, 0.3)
    assert 0.0 < budget < float("inf") and 0.0 < q_inverse(model, 0.5 * budget, 0.3) < float("inf")

loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] == "scipy" and mod is not None)
assert not loaded, loaded
"""


# Run in a fresh interpreter in which any import of NumPy raises; the
# golden hashes come from test_golden_traces.py, beside this file.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None

import contextlib
import io
import json
import tempfile
from pathlib import Path

import agdsmooth
import agdsmooth.cli
from agdsmooth.config import config_from_dict, execute, jsonable, run_sweep, sweep_from_dict
from test_golden_traces import (
    GOLDEN_RUNS, GOLDEN_SWEEP, SWEEP_BASE, SWEEP_LEVELS, sha256, summary_digest,
)


def digests(out):
    return (sha256((out / "trace.csv").read_bytes()),
            summary_digest((out / "summary.json").read_text()))


def run(name, out):
    settings, trace_sha, summary_sha = GOLDEN_RUNS[name]
    execute(config_from_dict({**settings, "trace_path": str(out / "trace.csv"),
                              "summary_path": str(out / "summary.json")}))
    assert digests(out) == (trace_sha, summary_sha), name


with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    # the pinned adaptive run with checks on and off, and agd1 and agd2 on a
    # piecewise-linear claim
    for name in ("adaptive-exp", "adaptive-exp-checks-off", "agd1-exp-1d-custom",
                 "agd2-exp-1d-custom"):
        run(name, out)
    # the pinned adaptive run through the command line
    settings, trace_sha, summary_sha = GOLDEN_RUNS["adaptive-exp"]
    config = out / "run.json"
    config.write_text(json.dumps({**settings, "trace_path": str(out / "trace.csv"),
                                  "summary_path": str(out / "summary.json")}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert agdsmooth.cli.main(["run", str(config)]) == 0
    assert digests(out) == (trace_sha, summary_sha)

# the pinned epsilon-quartering sweep, agd1 then agd2
reports = [
    run_sweep(sweep_from_dict({"base": {**SWEEP_BASE, "algorithm": algorithm},
                               "axis": "epsilon-quartering", "levels": SWEEP_LEVELS}),
              write_files=False)
    for algorithm in ("agd1", "agd2")
]
text = json.dumps(jsonable(reports), indent=2, sort_keys=True) + "\\n"
assert sha256(text.encode()) == GOLDEN_SWEEP
# plain gradient descent
result, _ = execute(config_from_dict({"algorithm": "gd", "problem": "quadratic",
                                      "epsilon": 1e-4, "trace_path": ""}), write_files=False)
assert result.converged and type(result.state.y) is tuple

assert sys.modules["numpy"] is None
"""


# Run in a fresh interpreter in which any import of NumPy raises: an
# overflow at the start point and a point of the wrong shape still raise
# their typed errors, whose messages print the point and the shape.
ERRORS_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None

import contextlib
import io
import json
import tempfile
from pathlib import Path

import agdsmooth.cli
from agdsmooth import evaluate
from agdsmooth.errors import DomainError
from agdsmooth.problems import catalog

with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "run.json"
    config.write_text(json.dumps({"algorithm": "agd2", "problem": "exp-experiment",
                                  "x0": [-800.0, 0.0], "trace_path": ""}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = agdsmooth.cli.main(["run", str(config)])
    assert code == 4, (code, err.getvalue())
    assert "overflow at [-800.0 0.0]" in err.getvalue(), err.getvalue()
try:
    evaluate(catalog("exp-experiment"), (1.0,))
except DomainError as exc:
    assert "got shape (1,)" in str(exc), exc
else:
    raise AssertionError("a point of the wrong shape was evaluated")
assert sys.modules["numpy"] is None
"""


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports the package from this
    checkout and these tests' modules from beside this file."""
    path = os.pathsep.join([str(Path(agdsmooth.__file__).parent.parent),
                            str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_run_path_loads_no_scipy():
    proc = run_fresh(WITHOUT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_small_runs_need_no_numpy():
    proc = run_fresh(WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_error_paths_raise_typed_errors_without_numpy():
    proc = run_fresh(ERRORS_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_importing_the_package_loads_no_numpy():
    proc = run_fresh("import sys, agdsmooth, agdsmooth.cli; "
                     "assert 'numpy' not in sys.modules, 'numpy'")
    assert proc.returncode == 0, proc.stderr


def test_general_power_integrates_through_smoothness_quad(monkeypatch):
    calls = []
    package_quad = smoothness.quad

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return package_quad(*args, **kwargs)

    monkeypatch.setattr(smoothness, "quad", counting)
    q_inverse(Power(1.5, 1.0, 1.0), 1.0, 0.3)
    assert calls
    calls.clear()
    # the limit integrates a head and a mapped tail, both over finite intervals
    q_max(Power(3.0, 1.0, 1.0), 0.0)
    assert calls == [(0.0, 1.0), (0.0, 1.0)]
