"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from agdsmooth import (
    Affine,
    Power,
    agd_step,
    algorithm1_run,
    algorithm2_run,
    catalog,
    check_descent_step,
    delta_left_right,
    ell_eval,
    evaluate,
    kbar,
    psi_eval,
    psi_inverse,
    select_delta,
    AgdState,
)
from agdsmooth.verify import sweep_convexity_smoothness, sweep_gradient_transfer
from test_smoothness import float_admissible

CATALOG_AFFINE = ["exp-1d", "exp-experiment"]


def report(num: int, name: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {verdict} — {name}")
    for msg in failures:
        print(f"    {msg}")
    assert not failures, f"criterion {num} failed: " + " | ".join(failures)


def y_gap_crossing(model: Affine, mu: float, y0: float, gamma_cap0: float,
                   r_bar: float, epsilon: float) -> int:
    """First oracle call at which (mu/2) y^2 <= epsilon on exp-experiment.

    The adaptive step 1 / ell(4 psi_inverse(gamma_cap_k r_bar^2)) depends only
    on gamma_cap0, r_bar and ell, never on the iterate, and the y-part of the
    objective is (mu/2) y^2.  So y follows an exact scalar linear recurrence
    from y = u = y0, and since f - f* >= (mu/2) y^2 no run of that step rule
    reaches a gap <= epsilon before the call returned here.  psi_inverse is
    the affine closed form that criterion 3 pins.
    """
    y = u = y0
    gcap = gamma_cap0
    calls = 1  # the evaluation at the starting point
    while 0.5 * mu * y * y > epsilon:
        t = gcap * r_bar**2
        x = 4 * model.L1 * t + math.sqrt(16 * model.L1**2 * t**2 + 2 * model.L0 * t)
        gamma = 1.0 / (model.L0 + model.L1 * 4.0 * x)
        alpha = math.sqrt(gamma * gcap)
        y = (y + alpha * u - gamma * mu * y) / (1.0 + alpha)
        u -= (alpha / gcap) * mu * y
        gcap /= 1.0 + alpha
        calls += 1
    return calls


@pytest.fixture(scope="module")
def adaptive_reference_run():
    """The pinned adaptive-variant run: exp-experiment, mu = 0.001,
    x0 = (-6, -5), r_bar = 100, gamma_cap0 = 100, epsilon = 1e-6, with the
    oracle-call budget set to the crossing that ``y_gap_crossing`` derives.

    The descent audit needs every (state, step) pair the run visited.  They
    are rebuilt by replaying the trace's ``step_gamma`` column with
    ``agd_step`` from x0, and the replay must land bit for bit on the run's
    final y and u, so the audited states are the run's own."""
    problem = catalog("exp-experiment", {"mu": 0.001})
    budget = y_gap_crossing(problem.ell_model, 0.001, -5.0, 100.0, 100.0, 1e-6)
    x0 = np.array([-6.0, -5.0])
    start = time.perf_counter()
    result = algorithm2_run(problem, x0, gamma_cap0=100.0, r_bar=100.0, epsilon=1e-6,
                            budget=budget)
    elapsed = time.perf_counter() - start

    f0, g0, _ = evaluate(problem, x0)
    state = AgdState(y=x0, u=x0.copy(), gamma_cap=100.0, k=0, f_y=f0, grad_y=g0,
                     grad_norm=float(np.linalg.norm(g0)))
    visited: list[tuple[AgdState, float]] = []
    for row in result.trace:
        visited.append((state, row.step_gamma))
        state = agd_step(state, row.step_gamma, problem)
    assert np.array_equal(state.y, result.state.y)
    assert np.array_equal(state.u, result.state.u)
    return problem, result, visited, elapsed, budget


def test_criterion_01_adaptive_run_reproduction(adaptive_reference_run):
    problem, result, _, elapsed, budget = adaptive_reference_run
    f_star = problem.optimum.f_star
    failures = []

    # the crossing is a lower bound, so a step rule that stops anywhere
    # else (earlier: larger steps; budget: smaller steps) is not the rule
    if not (result.converged and result.achieved_gap <= 1e-6
            and result.oracle_calls == budget):
        failures.append(
            f"derived crossing of f-gap <= 1e-6 at oracle call {budget}, but the run "
            f"ended '{result.termination}' after {result.oracle_calls} calls with "
            f"gap {result.achieved_gap:.3e}"
        )

    agd_rows = [r for r in result.trace if r.phase == "agd"]
    nonmono = sum(1 for a, b in zip(agd_rows, agd_rows[1:]) if b.f_gap > a.f_gap)
    if nonmono < 1:
        failures.append("no iteration with f(y_{k+1}) > f(y_k) found")

    worst = min(r.bound_gap - r.f_gap for r in agd_rows)
    if worst < -1e-9 * abs(f_star):
        failures.append(f"certified bound margin {worst:.3e} below -1e-9*|f*|")

    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")

    report(1, "adaptive-variant run on the 2-d exponential problem", failures)


def test_criterion_02_gamma_envelope():
    rng = np.random.default_rng(0)
    gcap0 = 10.0 ** rng.uniform(-3, 3, 100)
    gamma = 10.0 ** rng.uniform(-3, 3, 100)
    kb = np.array([kbar(float(g0), float(g)) for g0, g in zip(gcap0, gamma)])
    start = time.perf_counter()
    gcap = gcap0.copy()
    violations = 0
    for k in range(10_000):
        gcap = gcap / (1.0 + np.sqrt(gamma * gcap))
        live = k >= kb
        bound = 9.0 / (gamma * (k + 1.0 - kb) ** 2)
        bad = live & (gcap > bound + 4.0 * np.spacing(bound))
        violations += int(bad.sum())
    elapsed = time.perf_counter() - start
    failures = []
    if violations:
        failures.append(f"{violations} envelope violations beyond 4 ulps")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(2, "certificate-sequence envelope over random (gamma_cap0, gamma)", failures)


def test_criterion_03_psi_inverse_closed_form():
    rng = np.random.default_rng(1)
    failures = []
    worst = 0.0
    for _ in range(10):
        L0 = 10.0 ** rng.uniform(-2, 2)
        L1 = 10.0 ** rng.uniform(-2, 2)
        model = Affine(L0, L1)
        for t in np.geomspace(1e-8, 1e6, 100):
            got = psi_inverse(model, float(t))
            closed = 4 * L1 * t + math.sqrt(16 * L1**2 * t**2 + 2 * L0 * t)
            rel = abs(got - closed) / closed
            worst = max(worst, rel)
    if worst > 1e-10:
        failures.append(f"worst relative disagreement {worst:.3e} > 1e-10")
    report(3, "bisection inverse matches the affine closed form", failures)


def test_criterion_04_inverse_sqrt_epsilon_scaling():
    problem = catalog("quadratic", {"L": 1.0, "d": 10, "known_optimum": False})
    x0 = np.full(10, 0.1)
    r_bar = float(np.linalg.norm(x0))
    eps_set = [1e-4, 1e-5, 1e-6, 1e-7]
    failures = []
    start = time.perf_counter()

    def iterations(algo: str, eps: float) -> tuple[int, np.ndarray]:
        if algo == "agd1":
            res = algorithm1_run(problem, x0, math.inf, r_bar, eps, 10**7,
                                 check_invariants=False, collect_trace=False)
        else:
            res = algorithm2_run(problem, x0, 1.0, r_bar, eps, 10**7,
                                 check_invariants=False, collect_trace=False)
        if not res.converged:
            failures.append(f"{algo} at eps={eps} did not converge")
        return res.gd_iters + res.agd_iters, np.asarray(res.state.y)

    for algo in ("agd1", "agd2"):
        for eps in eps_set:
            base, y_base = iterations(algo, eps)
            quarter, y_q = iterations(algo, eps / 4.0)
            ratio = quarter / base
            if not 1.6 <= ratio <= 2.4:
                failures.append(f"{algo}: ratio at eps={eps:.0e} is {ratio:.3f}")
            # soundness of the certified stop: true gap (f* = 0) within eps
            for y, e in ((y_base, eps), (y_q, eps / 4.0)):
                if 0.5 * float(y @ y) > e:
                    failures.append(f"{algo}: certified stop missed the true gap at eps={e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(4, "iteration counts double per epsilon quartering (both variants)", failures)


def test_criterion_05_warm_start_region():
    failures = []
    for name in CATALOG_AFFINE:
        problem = catalog(name)
        model = problem.ell_model
        x0 = np.asarray({"exp-1d": [3.0], "exp-experiment": [-6.0, -5.0]}[name])
        r_bar = {"exp-1d": 5.0, "exp-experiment": 100.0}[name]
        delta = select_delta(model, r_bar)
        try:
            res = algorithm1_run(problem, x0, delta, r_bar, 1e-8, 10**6, strict=True)
        except Exception as exc:  # strict mode aborts on any violation
            failures.append(f"{name}: strict run aborted: {exc}")
            continue
        if not res.converged or res.flags_total != 0:
            failures.append(f"{name}: term={res.termination} flags={res.flags_total}")
            continue
        l0 = ell_eval(model, 0.0)
        gd_rows = [r for r in res.trace if r.phase == "gd"]
        handoff_grad = gd_rows[-1].grad_norm if gd_rows else float(
            np.linalg.norm(evaluate(problem, x0)[1]))
        if ell_eval(model, 4.0 * handoff_grad) > 2.0 * l0:
            failures.append(f"{name}: region condition fails at the GD handoff point")
        for r in res.trace:
            if r.phase == "agd" and ell_eval(model, 4.0 * r.grad_norm) > 2.0 * l0:
                failures.append(f"{name}: region condition fails at agd k={r.k}")
                break
    report(5, "warm start lands and stays in the small-curvature region", failures)


def test_criterion_06_admissibility_boundary():
    rng = np.random.default_rng(2)
    failures = []
    worst = 0.0
    for _ in range(20):
        L0 = 10.0 ** rng.uniform(-2, 2)
        L1 = 10.0 ** rng.uniform(-2, 2)
        model = Affine(L0, L1)
        hi = 1.0
        while float_admissible(model, hi):
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float_admissible(model, mid):
                lo = mid
            else:
                hi = mid
        threshold = 0.5 * (lo + hi)
        expected = L0 / (64.0 * L1**2)
        # the float condition's edge, and the closed form the warm start reads
        for value in (threshold, model.admissible_boundary):
            worst = max(worst, abs(value - expected) / expected)
    if worst > 1e-10:
        failures.append(f"worst relative threshold error {worst:.3e} > 1e-10")
    report(6, "admissibility threshold equals L0 / (64 L1^2)", failures)


def test_criterion_07_inequality_sweeps():
    failures = []
    for name in ["exp-1d", "exp-experiment", "neg-log-barrier", "power-p", "quadratic"]:
        problem = catalog(name)
        for sweep in (sweep_gradient_transfer, sweep_convexity_smoothness):
            rep = sweep(problem, trials=1000, seed=0)
            if rep.violations != 0 or rep.worst_margin < -1e-8:
                failures.append(
                    f"{name}/{rep.name}: violations={rep.violations} "
                    f"worst={rep.worst_margin:.3e} witness={rep.witness}"
                )
    report(7, "gradient-transfer and convexity sweeps are violation-free", failures)


def test_criterion_08_superquadratic_geometry():
    failures = []
    model = Power(3, 1, 1)
    dm = model.delta_max
    if abs(dm - 2 ** (-5 / 3)) > 1e-8:
        failures.append(f"delta_max {dm!r} differs from 2^(-5/3) by more than 1e-8")
    left, right = delta_left_right(model, 0.01)
    for label, root in (("left", left), ("right", right)):
        back = psi_eval(model, root)
        if abs(back - 0.01) > 1e-8:
            failures.append(f"{label} root back-substitution {back!r} misses 0.01")
    if not (left < dm < right):
        failures.append("roots do not bracket the peak")
    report(8, "superquadratic peak and level crossings", failures)


def test_criterion_09_gradient_envelope_and_steps():
    failures = []
    for name in CATALOG_AFFINE:
        problem = catalog(name)
        model = problem.ell_model
        x0 = np.asarray({"exp-1d": [3.0], "exp-experiment": [-6.0, -5.0]}[name])
        r_bar = {"exp-1d": 5.0, "exp-experiment": 100.0}[name]
        gcap0 = {"exp-1d": 5.0, "exp-experiment": 100.0}[name]
        try:
            res = algorithm2_run(problem, x0, gcap0, r_bar, 1e-6, 10**5, strict=True)
        except Exception as exc:
            failures.append(f"{name}: strict run aborted: {exc}")
            continue
        if not res.converged or res.flags_total != 0:
            failures.append(f"{name}: term={res.termination} flags={res.flags_total}")
            continue
        rows = [r for r in res.trace if r.phase == "agd"]
        for r in rows[:: max(1, len(rows) // 500)]:
            env = psi_inverse(model, r.gamma_cap * r_bar**2)
            if r.grad_norm > env * (1 + 1e-9) + 1e-15:
                failures.append(f"{name}: envelope broken at k={r.k}")
                break
        gammas = [r.step_gamma for r in rows]
        for a, b in zip(gammas, gammas[1:]):
            if b < a - 4 * math.ulp(a):
                failures.append(f"{name}: step sizes decreased ({a} -> {b})")
                break
    report(9, "adaptive runs keep the gradient envelope and non-decreasing steps", failures)


def test_criterion_10_descent_audit(adaptive_reference_run):
    problem, _, visited, _, _ = adaptive_reference_run
    model = problem.ell_model
    f_star = problem.optimum.f_star
    failures = []
    worst = math.inf
    for state, gamma in visited:
        margin = check_descent_step(problem, state, gamma)
        scale = max(1.0, state.f_y - f_star)
        worst = min(worst, margin)
        if margin < -1e-9 * scale:
            failures.append(f"descent margin {margin:.3e} at k={state.k}")
            break
    if not visited:
        failures.append("reference run produced no states")

    # quadratic equality configuration: optimum state, gamma = 1/L
    quad = catalog("quadratic", {"L": 1.0, "d": 1})
    for gcap in (0.1, 1.0, 7.3):
        state = AgdState(y=np.zeros(1), u=np.zeros(1), gamma_cap=gcap, k=0,
                         f_y=0.0, grad_y=np.zeros(1), grad_norm=0.0)
        eq_margin = check_descent_step(quad, state, 1.0)
        if abs(eq_margin) > 1e-12:
            failures.append(f"equality-configuration margin {eq_margin!r} exceeds 1e-12")
    report(10, f"descent-bound audit over {len(visited)} visited states", failures)
