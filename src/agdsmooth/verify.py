"""Stand-alone numeric validation of the inequalities the solvers rely on.

Each check evaluates one inequality at concrete points against the
problem's claimed profile (``problem.ell_model``) and returns its margin
(bound side minus sharp side), so a conforming implementation reports
margins >= -tol.  Randomized sweeps drive the checks over many points
through one loop, ``_sweep``, into CheckReports; they are seeded and
reproducible, and record the seed and the worst margin even when passing.
The convexity integral is ``smoothness.quad``, which imports SciPy on its
first call, so SciPy loads with the first sweep, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .problems import Problem, evaluate, project_closure
from .smoothness import (
    QUAD_REL_TOL,
    delta_left_right,
    ell_eval,
    q_inverse,
    q_max,
    quad,
)
from .solvers import AgdState, agd_step, gamma_alpha_step, lyapunov, norm

# Inequality acceptance margin: one order below the quadrature error floor.
MARGIN_TOL = 1e-8


@dataclass
class CheckReport:
    name: str
    trials: int
    violations: int
    worst_margin: float
    witness: tuple | None
    quadrature_tol: float
    seed: int | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _sweep(name: str, trials: int, seed: int, trial) -> CheckReport:
    """Run ``trial(rng)`` ``trials`` times on one generator seeded with
    ``seed``.  A trial returns ``(margin, witness)``, or None to skip its
    point; the report keeps the worst margin with its witness and counts
    margins below ``-MARGIN_TOL`` as violations."""
    rng = np.random.default_rng(seed)
    worst, witness, violations, n = math.inf, None, 0, 0
    for _ in range(trials):
        out = trial(rng)
        if out is None:
            continue
        margin, wit = out
        n += 1
        if margin < worst:
            worst, witness = margin, wit
        if margin < -MARGIN_TOL:
            violations += 1
    return CheckReport(
        name=name, trials=n, violations=violations,
        worst_margin=worst if n else math.nan, witness=witness,
        quadrature_tol=QUAD_REL_TOL, seed=seed,
    )


def check_convexity_smoothness(problem: Problem, x: np.ndarray, y: np.ndarray) -> float:
    """Margin of the smoothed convexity lower bound between two points.

    The sharp side is the gradient-difference energy weighted by the
    curvature profile along the segment of gradient norms,
    ``|gx - gy|^2 * int_0^1 (1 - v) / ell(|gx| + |gx - gy| v) dv``;
    it must not exceed the Bregman gap ``f(x) - f(y) - <gy, x - y>``.
    """
    model = problem.ell_model
    fx, gx = evaluate(problem, x)
    fy, gy = evaluate(problem, y)
    diff = norm(gx - gy)
    a = norm(gx)
    rhs = fx - fy - float(gy @ (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    if diff == 0.0:
        return rhs
    integral, _ = quad(lambda v: (1.0 - v) / model.ell(a + diff * v), 0.0, 1.0)
    return rhs - diff * diff * integral


def check_gradient_transfer(problem: Problem, x: np.ndarray, y: np.ndarray) -> float:
    """Margin of the gradient-variation bound
    ``|grad f(y) - grad f(x)| <= q_inverse(|y - x|; |grad f(x)|)``."""
    model = problem.ell_model
    _, gx = evaluate(problem, x)
    _, gy = evaluate(problem, y)
    a = norm(gx)
    dist = norm(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))
    if dist >= q_max(model, a):
        raise PreconditionError(
            f"|y - x| = {dist} is not below q_max = {q_max(model, a)}"
        )
    return q_inverse(model, dist, a) - norm(gy - gx)


def check_descent_step(problem: Problem, state: AgdState, step_gamma: float) -> float:
    """Margin of the one-step certificate-decrease bound.

    Executes one accelerated step (``solvers.agd_step``) from ``state`` and
    compares the certificate difference against
    ``0.5 * (gamma - 1 / ell(2 |g_y| + |g_next|)) * |g_next - g_y|^2``.
    Requires a known optimum and ``step_gamma <= 1 / ell(2 |g_y|)``.
    """
    if problem.optimum is None:
        raise PreconditionError("descent check needs a known optimum")
    model = problem.ell_model
    gy = state.grad_y
    ny = norm(gy)
    if step_gamma > (1.0 + 1e-12) / ell_eval(model, 2.0 * ny):
        raise PreconditionError(
            f"step_gamma = {step_gamma} exceeds the safety cap "
            f"{1.0 / ell_eval(model, 2.0 * ny)}"
        )
    f_star = problem.optimum.f_star
    x_star = problem.optimum.x_star
    alpha, _ = gamma_alpha_step(state.gamma_cap, step_gamma)
    nxt = agd_step(state, step_gamma, problem, alpha=alpha)
    lhs = (
        (1.0 + alpha) * (nxt.f_y - f_star)
        + 0.5 * (1.0 + alpha) * nxt.gamma_cap * norm(nxt.u - x_star) ** 2
        - lyapunov(state, f_star, x_star)
    )
    rhs = 0.5 * (
        step_gamma - 1.0 / ell_eval(model, 2.0 * ny + norm(nxt.grad_y))
    ) * norm(nxt.grad_y - gy) ** 2
    return rhs - lhs


def check_gap_to_grad(problem: Problem, y: np.ndarray, delta: float) -> bool:
    """Two-branch gradient localization at gap level ``delta``.

    For a point with ``f(y) - f* <= delta`` (caller-verified) the gradient
    norm must satisfy ``|g| <= delta_left(delta)`` or
    ``|g| >= delta_right(delta)``; with an everywhere-increasing psi the
    right branch is infinite and only the left bound remains.
    """
    model = problem.ell_model
    if delta >= model.psi_sup:
        raise PreconditionError(f"delta = {delta} is not below sup psi = {model.psi_sup}")
    left, right = delta_left_right(model, delta)
    _, g = evaluate(problem, y)
    gn = norm(g)
    ok_left = gn <= left * (1.0 + 1e-9) + 1e-15
    ok_right = math.isfinite(right) and gn >= right * (1.0 - 1e-9)
    return ok_left or ok_right


# --- randomized sweeps ------------------------------------------------------

def _uniform(rng: np.random.Generator, lo, hi, shape=None):
    """``rng.uniform(lo, hi)`` in one ``random`` call: NumPy's own formula,
    ``lo + (hi - lo) * next_double``, on the same doubles of the stream, so
    the bits agree, without its per-call broadcasting and range checks."""
    return lo + (hi - lo) * rng.random(shape)


def _interior_sampler(problem: Problem):
    """The draw ``rng -> point`` from the problem's sample box, whose bounds
    are checked once: finite, with ``lo <= hi`` and a finite span."""
    lo = np.asarray(problem.sample_lo, dtype=float)
    hi = np.asarray(problem.sample_hi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    if not (np.isfinite(lo).all() and np.isfinite(span).all() and (span >= 0.0).all()):
        raise PreconditionError(
            f"{problem.name}: sample box [{problem.sample_lo}, {problem.sample_hi}] "
            "needs finite bounds with lo <= hi"
        )
    return lambda rng: _uniform(rng, lo, hi, span.shape)


def sweep_convexity_smoothness(
    problem: Problem, trials: int = 1000, seed: int = 0
) -> CheckReport:
    sample = _interior_sampler(problem)

    def trial(rng):
        x = sample(rng)
        y = sample(rng)
        return check_convexity_smoothness(problem, x, y), (tuple(x), tuple(y))

    return _sweep("convexity-smoothness", trials, seed, trial)


def sweep_gradient_transfer(
    problem: Problem, trials: int = 1000, seed: int = 0
) -> CheckReport:
    """Pairs are shrunk toward x until they fit inside 0.9 q_max, which
    keeps them in the feasible set (it is convex)."""
    model = problem.ell_model
    sample = _interior_sampler(problem)

    def trial(rng):
        x = sample(rng)
        y = sample(rng)
        _, gx = evaluate(problem, x)
        budget = q_max(model, norm(gx))
        dist = norm(y - x)
        if dist >= 0.9 * budget:
            y = x + (y - x) * (0.9 * budget / dist) * _uniform(rng, 0.5, 1.0)
        return check_gradient_transfer(problem, x, y), (tuple(x), tuple(y))

    return _sweep("gradient-transfer", trials, seed, trial)


def sweep_descent_step(
    problem: Problem, trials: int = 200, seed: int = 0
) -> CheckReport:
    """Random solver states: y, u sampled in the problem box, certificate
    level log-uniform, step a random fraction of the safety cap."""
    if problem.optimum is None:
        raise PreconditionError("descent sweep needs a known optimum")
    model = problem.ell_model
    sample = _interior_sampler(problem)

    def trial(rng):
        y = sample(rng)
        u = project_closure(problem.domain, sample(rng))
        f_y, g_y = evaluate(problem, y)
        gcap = 10.0 ** _uniform(rng, -3.0, 2.0)
        cap = 1.0 / ell_eval(model, 2.0 * norm(g_y))
        gamma = cap * _uniform(rng, 0.05, 1.0)
        state = AgdState(y=y, u=u, gamma_cap=gcap, k=0, f_y=f_y, grad_y=g_y)
        margin = check_descent_step(problem, state, gamma)
        return margin, (tuple(y), tuple(u), gcap, gamma)

    return _sweep("descent-step", trials, seed, trial)


def sweep_gap_to_grad(
    problem: Problem, trials: int = 500, seed: int = 0
) -> CheckReport:
    """Sample points, measure their true gap, and check the localization at
    a level just above it (skipping points whose gap is out of psi range)."""
    if problem.optimum is None:
        raise PreconditionError("gap-to-gradient sweep needs a known optimum")
    f_star = problem.optimum.f_star
    sample = _interior_sampler(problem)

    def trial(rng):
        y = sample(rng)
        f_y, _ = evaluate(problem, y)
        delta = (f_y - f_star) * 1.0000001 + 1e-15
        if delta >= problem.ell_model.psi_sup:
            return None
        ok = check_gap_to_grad(problem, y, delta)
        return (0.0 if ok else -1.0), (tuple(y), delta)

    return _sweep("gap-to-gradient", trials, seed, trial)


def run_all_checks(
    problem: Problem, trials: int = 1000, seed: int = 0
) -> list[CheckReport]:
    """Every sweep that applies to ``problem``, each over ``trials`` points;
    the descent and gap-to-gradient sweeps need a known optimum."""
    if trials < 1:
        raise ConfigurationError(f"verify needs trials >= 1, got {trials}")
    reports = [
        sweep_convexity_smoothness(problem, trials=trials, seed=seed),
        sweep_gradient_transfer(problem, trials=trials, seed=seed),
    ]
    if problem.optimum is not None:
        reports.append(sweep_descent_step(problem, trials=trials, seed=seed))
        reports.append(sweep_gap_to_grad(problem, trials=trials, seed=seed))
    return reports
