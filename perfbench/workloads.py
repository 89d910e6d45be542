"""The benchmark's workloads: inputs, one op each, and the op's output check.

Every workload drives the package through its public entry points
(``config.execute``, ``config.run_sweep``, ``cli.main``).  An op's program
call is what gets timed; ``check`` reads its outputs back afterwards and is
never timed.  The package is imported by ``build``, so the caller decides
when import time is paid.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("adaptive-exp", "quadratic-sweep", "verify-catalog")

VERIFY_PROBLEMS = ("exp-1d", "exp-experiment", "neg-log-barrier", "power-p", "quadratic")
VERIFY_TRIALS = 150
SWEEP_LEVELS = 8
# Certified 1/sqrt(eps) scaling: quartering epsilon should double iterations.
RATIO_RANGE = (1.6, 2.4)


@dataclass
class OpCheck:
    """Outcome of one op's output check."""

    ok: bool
    oracle_calls: int
    detail: str = ""
    extra: dict = field(default_factory=dict)


class AdaptiveExp:
    """One op: the pinned adaptive run through ``config.execute``.

    Deterministic; the seed is ignored.  Budget 20000 sits above the 7265
    oracle calls the run needs to converge.
    """

    seeded = False
    reports_oracle_calls = True
    psi_inverse_per_step = True

    def __init__(self, seed: int, workdir: Path):
        from agdsmooth import config

        self._config = config
        self.trace_path = workdir / "exp-experiment-agd2-trace.csv"
        self.summary_path = workdir / "exp-experiment-agd2-summary.json"
        settings = {
            "algorithm": "agd2",
            "problem": "exp-experiment",
            "problem_params.mu": 1e-3,
            "x0": [-6.0, -5.0],
            "r_bar": 100.0,
            "gamma_cap0": 100.0,
            "epsilon": 1e-6,
            "budget": 20000,
            "check_invariants": True,
            "strict_checks": False,
            "trace_path": str(self.trace_path),
            "summary_path": str(self.summary_path),
        }
        self.cfg = config.config_from_dict(settings)
        # The same config with runtime checks and the trace off; the traced
        # run times it to split off the cost of checks and trace recording.
        self.bare_cfg = config.config_from_dict(
            {**settings, "check_invariants": False, "trace_path": ""}
        )
        self.f_star = 2.0 * math.sqrt(math.e)
        self._first_trace: bytes | None = None

    def op(self):
        return self._config.execute(self.cfg)

    def bare_op(self):
        return self._config.execute(self.bare_cfg)

    def check_bare(self, out, oracle_calls: int) -> OpCheck:
        result, _ = out
        ok = result.converged and result.oracle_calls == oracle_calls
        return OpCheck(ok, result.oracle_calls,
                       "" if ok else f"unchecked run: {result.termination}, "
                                     f"{result.oracle_calls} oracle calls")

    def check(self, out, oracle_calls: int) -> OpCheck:
        result, _ = out
        calls = int(result.oracle_calls)
        # Outputs are removed once read, so an op that fails to write them
        # cannot pass on the previous op's files.
        trace = self.trace_path.read_bytes()
        self.trace_path.unlink()
        if self._first_trace is None:
            self._first_trace = trace
        problems = []
        if not result.converged:
            problems.append(f"termination {result.termination}")
        if result.flags_total != 0:
            problems.append(f"flags_total {result.flags_total}")
        if trace != self._first_trace:
            problems.append("trace bytes differ from the first op of this run")
        on_disk = json.loads(self.summary_path.read_text())
        self.summary_path.unlink()
        if on_disk.get("termination") != "converged" or on_disk.get("oracle_calls") != calls:
            problems.append("summary JSON disagrees with the run result")
        rows = list(csv.DictReader(io.StringIO(trace.decode())))
        margins = [
            float(r["bound_gap"]) - float(r["f_gap"])
            for r in rows if r["phase"] == "agd"
        ]
        if not margins:
            problems.append("trace has no agd rows")
        elif min(margins) < -1e-9 * abs(self.f_star):
            problems.append(f"certified bound margin {min(margins):.3e}")
        if len(rows) != result.agd_iters:
            problems.append(f"trace has {len(rows)} rows for {result.agd_iters} iterations")
        return OpCheck(
            not problems, calls, "; ".join(problems),
            {"iterations": result.agd_iters, "trace_bytes": len(trace)},
        )


class QuadraticSweep:
    """One op: ``config.run_sweep`` on the epsilon-quartering axis for agd1,
    then agd2, on a 10-d quadratic with the optimum withheld.

    Deterministic; the seed is ignored.  The profile is constant and checks
    are off, so the step loop never calls psi_inverse.
    """

    seeded = False
    reports_oracle_calls = True
    psi_inverse_per_step = False

    def __init__(self, seed: int, workdir: Path):
        from agdsmooth import config

        self._config = config
        d = 10
        base = {
            "problem": "quadratic",
            "problem_params": {"L": 1.0, "d": d, "known_optimum": False},
            "x0": [0.1] * d,
            "r_bar": 0.1 * math.sqrt(d),
            "gamma_cap0": 1.0,
            "epsilon": 1e-4,
            "check_invariants": False,
            "trace_path": "",
        }
        self.specs = [
            config.sweep_from_dict({
                "base": {**base, "algorithm": algorithm},
                "axis": "epsilon-quartering",
                "levels": SWEEP_LEVELS,
            })
            for algorithm in ("agd1", "agd2")
        ]

    def op(self):
        return [self._config.run_sweep(spec, write_files=False) for spec in self.specs]

    def check(self, out, oracle_calls: int) -> OpCheck:
        problems = []
        calls = 0
        iterations = 0
        for spec, report in zip(self.specs, out):
            algorithm = spec.base.algorithm
            if len(report["points"]) != SWEEP_LEVELS:
                problems.append(f"{algorithm}: {len(report['points'])} points")
            for point in report["points"]:
                if point.get("error") or point.get("termination") != "converged":
                    problems.append(f"{algorithm}: point {point} did not converge")
                    continue
                calls += point["oracle_calls"]
                iterations += point["agd_iters"]
            for ratio in report.get("ratios", []):
                if ratio is None or not RATIO_RANGE[0] <= ratio <= RATIO_RANGE[1]:
                    problems.append(f"{algorithm}: quartering ratio {ratio}")
        return OpCheck(not problems, calls, "; ".join(problems), {"iterations": iterations})


class VerifyCatalog:
    """One op: ``agdsmooth verify <problem> claimed`` for all five catalog
    problems, through ``cli.main``, with the benchmark seed."""

    seeded = True
    reports_oracle_calls = False
    psi_inverse_per_step = False

    def __init__(self, seed: int, workdir: Path):
        from agdsmooth import cli

        self._cli = cli
        self.reports = {p: workdir / f"{p}-verify-report.json" for p in VERIFY_PROBLEMS}
        self.argvs = [
            ["verify", p, "claimed", "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
             "--out", str(self.reports[p])]
            for p in VERIFY_PROBLEMS
        ]

    def op(self):
        # The CLI prints one line per check; keep it off the benchmark's stdout.
        with contextlib.redirect_stdout(io.StringIO()):
            return [self._cli.main(argv) for argv in self.argvs]

    def check(self, out, oracle_calls: int) -> OpCheck:
        problems = []
        trials = 0
        for problem, code in zip(VERIFY_PROBLEMS, out):
            if code != 0:
                problems.append(f"{problem}: exit code {code}")
            for entry in json.loads(self.reports[problem].read_text()):
                trials += entry["trials"]
                if entry["violations"] != 0:
                    problems.append(f"{problem}/{entry['name']}: {entry['violations']} violations")
            self.reports[problem].unlink()
        return OpCheck(not problems, oracle_calls, "; ".join(problems), {"trials": trials})


CLASSES = {
    "adaptive-exp": AdaptiveExp,
    "quadratic-sweep": QuadraticSweep,
    "verify-catalog": VerifyCatalog,
}


def build(name: str, seed: int, workdir: Path):
    """Create the workload's inputs in a fresh ``workdir``."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return CLASSES[name](seed, workdir)
