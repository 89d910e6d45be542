"""Benchmark of the agdsmooth package.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload adaptive-exp --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

``--trace 0`` times ops with nothing wrapped and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
ops and reports its per-layer metrics (mapped to workloads and end-to-end
metrics in ``perfbench/layers.json``).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
package is imported from ``src/`` of the checkout; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One process, one thread: pin the BLAS and OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import environment  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile
MIN_TRACED_OPS = 3
MAX_TRACED_OPS = 10  # bounds the spans held in memory (about 1.2M on quadratic-sweep)
CHILD_TIMEOUT_S = 170

# Solver entry points: psi_inverse called straight from their step loop is
# one call per iteration; calls from helpers (warm-up bound, level
# crossings) are not.
RUN_SPANS = ("solvers.algorithm1_run", "solvers.algorithm2_run")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- set-up and untimed checks ----------------------------------------------

def measure_setup(workload: str, seed: int, probe: int) -> float:
    """Import-and-build time of one fresh interpreter."""
    workdir = OUT_DIR / f"setup-{workload}-{os.getpid()}-{probe}"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """One benchmark process: the workload, its ops and their checks."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.work = workloads.build(workload, seed, workdir)
        # One untimed op with problems.evaluate counted at every call site
        # gives the oracle calls per op for every workload, and cross-checks
        # the count the solvers report themselves.
        counter = Tracer(boundaries=(("problems.evaluate", "problems.evaluate", "count"),))
        counter.install()
        try:
            out, _, counts = counter.run_op(0, self.work.op)
        finally:
            counter.uninstall()
        self.oracle_calls = counts["problems.evaluate"]
        self.first = self.record(out)
        if self.work.reports_oracle_calls and self.first.oracle_calls != self.oracle_calls:
            self.problems.append(
                f"program reports {self.first.oracle_calls} oracle calls per op, "
                f"evaluate ran {self.oracle_calls} times"
            )

    def record(self, out, check=None) -> workloads.OpCheck:
        """Check one op's outputs and count it as attempted, and failed if so."""
        self.attempted += 1
        result = (check or self.work.check)(out, self.oracle_calls)
        if not result.ok:
            self.failed += 1
            self.problems.append(result.detail)
        return result

    def timed(self, op, check=None) -> float:
        t0 = time.perf_counter()
        out = op()
        dt = time.perf_counter() - t0
        self.record(out, check)
        return dt


# --- the two kinds of run ---------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_SAMPLES samples beyond it,
    and that percentile."""
    ordered = sorted(samples)
    i = max(len(ordered) - TAIL_SAMPLES - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def run_untraced(run: Run, seed: int) -> tuple[dict, dict]:
    """Time ops for ``run.seconds`` of op time, with set-up probes spread
    evenly over the run.  Reported times are host-adjusted (see
    ``reference.py``); the wall times go beside them into the results."""
    clock = reference.HostClock()
    setup: list[tuple[float, float]] = []  # (wall, host-adjusted) seconds
    ops: list[tuple[float, float]] = []
    spent = 0.0
    while len(setup) < SETUP_PROBES or spent < run.seconds or len(ops) <= TAIL_SAMPLES:
        if len(setup) < SETUP_PROBES and spent >= len(setup) * run.seconds / SETUP_PROBES:
            wall = measure_setup(run.workload, seed, len(setup))
            setup.append((wall, clock.adjust(wall)))
        else:
            wall = run.timed(run.work.op)
            ops.append((wall, clock.adjust(wall)))
            spent += wall

    wall_ops = [w for w, _ in ops]
    adjusted_ops = [a for _, a in ops]
    p50 = statistics.median(adjusted_ops)
    op_tail, pct = tail(adjusted_ops)
    metrics = {
        "setup_s": statistics.median(a for _, a in setup),
        "op_s_p50": p50,
        "op_s_tail": op_tail,
        "us_per_oracle_call": 1e6 * p50 / run.oracle_calls,
        "oracle_calls": run.oracle_calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    trials = run.first.extra.get("trials")
    extra = {
        "ops": len(ops),
        "op_s_tail_percentile": pct,
        "trials_per_s": trials / p50 if trials else None,
        "failed_ratio": run.failed / run.attempted,
        "host_reference_ms": 1e3 * statistics.median(clock.loads),
        "wall_setup_s": statistics.median(w for w, _ in setup),
        "wall_op_s_p50": statistics.median(wall_ops),
        "wall_op_s_tail": tail(wall_ops)[0],
        "setup_samples": setup,
        "op_samples": ops,
    }
    return metrics, extra


def layer_metrics(spans: dict, counts: dict, check: workloads.OpCheck, step_calls: int) -> dict:
    """Per-layer figures of one traced op."""

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "smoothness.psi_inverse.calls": get("smoothness.psi_inverse", "calls"),
        "smoothness.psi_inverse.step_calls": step_calls,
        "smoothness.psi_inverse.time_s": get("smoothness.psi_inverse", "time_s"),
        "smoothness.psi_eval.per_inverse": ratio(
            counts.get("smoothness.psi_eval", 0), get("smoothness.psi_inverse", "calls")),
        "smoothness.ell_eval.calls": counts.get("smoothness.ell_eval", 0),
        "smoothness.q_inverse.calls": get("smoothness.q_inverse", "calls"),
        "smoothness.q_inverse.time_s": get("smoothness.q_inverse", "time_s"),
        "smoothness.q_eval.per_inverse": ratio(
            counts.get("smoothness.q_eval", 0), get("smoothness.q_inverse", "calls")),
        "smoothness.quad.calls": get("smoothness.quad", "calls"),
        "smoothness.quad.time_s": get("smoothness.quad", "time_s"),
        "smoothness.delta_left_right.calls": get("smoothness.delta_left_right", "calls"),
        "smoothness.delta_left_right.time_s": get("smoothness.delta_left_right", "time_s"),
        "problems.evaluate.calls": get("problems.evaluate", "calls"),
        "problems.evaluate.time_s": get("problems.evaluate", "time_s"),
        "problems.evaluate.us_per_call": 1e6 * ratio(
            get("problems.evaluate", "time_s"), get("problems.evaluate", "calls")),
        "problems.project_closure.calls": get("problems.project_closure", "calls"),
        "problems.project_closure.time_s": get("problems.project_closure", "time_s"),
        "solvers.agd_step.calls": get("solvers.agd_step", "calls"),
        "solvers.agd_step.self_s": get("solvers.agd_step", "self_s"),
        "solvers.run.calls": sum(get(n, "calls") for n in RUN_SPANS),
        "solvers.run.self_s": sum(get(n, "self_s") for n in RUN_SPANS),
        "verify.quad.calls": get("verify.quad", "calls"),
        "verify.quad.time_s": get("verify.quad", "time_s"),
        "verify.run_all_checks.self_s": get("verify.run_all_checks", "self_s"),
        "config.execute.self_s": get("config.execute", "self_s"),
        "config.write_trace_csv.time_s": get("config.write_trace_csv", "time_s"),
        "config.trace_bytes": check.extra.get("trace_bytes", 0),
        "config.run_sweep.self_s": get("config.run_sweep", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.spans_per_op": sum(s["calls"] for s in spans.values()),
    }
    for name in ("gradient_transfer", "convexity_smoothness", "descent_step", "gap_to_grad"):
        m[f"verify.check_{name}.calls"] = get(f"verify.check_{name}", "calls")
        m[f"verify.check_{name}.time_s"] = get(f"verify.check_{name}", "time_s")
    return m


def is_count(name: str) -> bool:
    return name.endswith(("calls", ".per_inverse", ".trace_bytes", ".spans_per_op"))


def run_traced(run: Run) -> tuple[dict, dict]:
    """Alternate untraced and traced ops; adaptive-exp also times its config
    with checks and trace off, which prices the runtime checks.  Every time
    is host-adjusted, the per-layer times by their op's factor."""
    clock = reference.HostClock()
    tracer = Tracer()
    bare_op = getattr(run.work, "bare_op", None)
    plain: list[float] = []
    bare: list[float] = []
    traced: list[float] = []
    per_op: list[tuple[int, dict, workloads.OpCheck, float]] = []
    deadline = time.perf_counter() + run.seconds
    while len(traced) < MIN_TRACED_OPS or (
            time.perf_counter() < deadline and len(traced) < MAX_TRACED_OPS):
        plain.append(clock.adjust(run.timed(run.work.op)))
        if bare_op is not None:
            bare.append(clock.adjust(run.timed(bare_op, run.work.check_bare)))
        op_id = len(traced)
        tracer.install()
        try:
            out, dt, counts = tracer.run_op(op_id, run.work.op)
        finally:
            tracer.uninstall()
        check = run.record(out)
        traced.append(clock.adjust(dt))
        per_op.append((op_id, counts, check, traced[-1] / dt))

    spans = tracer.per_op()
    rows = []
    for op_id, counts, check, factor in per_op:
        step_calls = tracer.calls_under(op_id, "smoothness.psi_inverse", RUN_SPANS)
        m = layer_metrics(spans[op_id], counts, check, step_calls)
        rows.append({k: v if is_count(k) else v * factor for k, v in m.items()})
        expected = check.extra.get("iterations", 0) if run.work.psi_inverse_per_step else 0
        if step_calls != expected:
            run.problems.append(f"psi_inverse step calls {step_calls}, expected {expected}")
        if m["problems.evaluate.calls"] != run.oracle_calls:
            run.problems.append(
                f"evaluate spans {m['problems.evaluate.calls']} != oracle calls {run.oracle_calls}")

    metrics = {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        if is_count(name):
            if len(set(values)) != 1:
                run.problems.append(f"{name} differs between ops: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    p50_plain = statistics.median(plain)
    metrics.update({
        "solvers.checks_trace_s": p50_plain - statistics.median(bare) if bare else 0.0,
        "trace.op_s_p50": statistics.median(traced),
        "trace.untraced_op_s_p50": p50_plain,
        "trace.overhead_ratio": statistics.median(traced) / p50_plain,
    })
    spans_path = OUT_DIR / f"spans-{run.workload}.csv.gz"
    tracer.write(spans_path)
    extra = {"traced_ops": len(traced), "untraced_ops": len(plain), "bare_ops": len(bare),
             "spans": tracer.span_count(), "spans_path": str(spans_path.relative_to(ROOT)),
             "host_reference_ms": 1e3 * statistics.median(clock.loads)}
    return metrics, extra


# --- reporting ----------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(workload: str, seed: int, trace: int, metrics: dict, units: dict,
           extra: dict, env: dict, run: Run) -> None:
    seeded = "" if run.work.seeded else " (deterministic: the seed is ignored)"
    print(f"# perfbench {workload} seed={seed} trace={trace}{seeded}")
    print("# env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{name:40s} {_fmt(value):>14s} {units[name]}")
    for name, value in extra.items():
        if name not in metrics and not isinstance(value, list):
            print(f"{name:40s} {_fmt(value) if value is not None else 'n/a':>14s}")
    for problem in run.problems:
        print(f"# FAILED CHECK: {problem}")


def run_one(args) -> int:
    try:
        src = environment.add_package_path(ROOT)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        environment.check_imported(src)
        if args.trace:
            measured, extra = run_traced(run)
        else:
            measured, extra = run_untraced(run, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(measured))
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    metrics = {name: measured[name] for name in units}
    extra.update(
        oracle_calls=run.oracle_calls,
        oracle_calls_reported=run.first.oracle_calls if run.work.reports_oracle_calls else None,
        iterations=run.first.extra.get("iterations"),
    )
    env = environment.describe(ROOT)
    report(args.workload, args.seed, args.trace, metrics, units, extra, env, run)
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "seeded": run.work.seeded, "env": env,
        "metrics": metrics, "extra": extra, "problems": run.problems,
    }, indent=2, default=float) + "\n")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="agdsmooth benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
