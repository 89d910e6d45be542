"""Stand-alone numeric validation of the inequalities the solvers rely on.

Each check evaluates one inequality at concrete points against the
problem's claimed profile (``problem.ell_model``) and returns its margin
(bound side minus sharp side), so a conforming implementation reports
margins >= -tol.  Randomized sweeps drive the checks over many points
through one loop, ``_sweep``, into CheckReports; they are seeded and
reproducible, and record the seed and the worst margin even when passing;
a NaN margin holds nothing, so it is a violation and the worst margin.
``evaluate`` refuses a NaN gradient; one sampled with an infinite
component is refused here too, as a point where f overflows is.
The convexity integral is ``smoothness.quad``, the package's Gauss-Kronrod
rule, and a point where it misses its tolerance is a ``PreconditionError``.

The sweeps draw their points as tuples of Python floats, the kind of a
small run's step loop, so ``evaluate``, ``agd_step`` and
``project_closure`` take them as they are and every gradient comes back a
tuple.  The public checks also take arrays, and error messages print a
point in NumPy's form (``problems.show_point``).  Every distance is
``problems.distance`` and the Bregman term's inner product is
``math.fsum``, so no margin bit comes from the BLAS.  NumPy serves only the
sweeps' ``Generator``, an array that a public check is given, and an error
message, and is imported there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, DomainViolationError, PreconditionError
from .problems import Problem, distance, evaluate, norm, project_closure, show_point
from .smoothness import (
    QUAD_REL_TOL,
    delta_left_right,
    ell_eval,
    q_inverse,
    q_max,
    quad,
    square,
)
from .solvers import AgdState, agd_step, lyapunov

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
    point; the report keeps the worst margin with its witness, a NaN being
    worse than any number, and counts every margin that is not at least
    ``-MARGIN_TOL`` as a violation."""
    import numpy as np

    rng = np.random.default_rng(seed)
    worst, witness, violations, n = math.inf, None, 0, 0
    for _ in range(trials):
        out = trial(rng)
        if out is None:
            continue
        margin, wit = out
        n += 1
        if not (margin >= worst or math.isnan(worst)):
            worst, witness = margin, wit
        if not margin >= -MARGIN_TOL:
            violations += 1
    return CheckReport(
        name=name, trials=n, violations=violations,
        worst_margin=worst if n else math.nan, witness=witness,
        quadrature_tol=QUAD_REL_TOL, seed=seed,
    )


def _sampled_norm(problem: Problem, x, g, n: float) -> float:
    """``n``, the norm of the gradient ``g`` at ``x``, refusing a NaN norm (a
    caller-built state's) or an infinite component as a ``DomainViolationError``
    that names x: the checks take differences of gradients, where inf - inf
    is NaN.  Finite components past the float range keep their inf norm."""
    if n != n:
        raise DomainViolationError(f"{problem.name}: the gradient has a NaN component at "
                                   f"{show_point(x)}: {show_point(g)}")
    if n == math.inf and math.inf in map(abs, g):
        raise DomainViolationError(f"{problem.name}: the gradient at {show_point(x)} "
                                   f"has an infinite component: {show_point(g)}")
    return n


def _floats(v) -> tuple[float, ...]:
    """A point that ``evaluate`` has taken, a gradient it gave, or a sample
    box's bound as a tuple of floats; a tuple is taken as it is."""
    if type(v) is tuple:
        return v
    import numpy as np

    return tuple(np.asarray(v, dtype=float).tolist())


def _bregman_inner(g, x, y) -> float:
    """``<g, x - y>`` on tuples of floats, the ``math.fsum`` of its terms,
    rounded once from the exact sum.  Where a partial sum of finite terms
    passes the float range, which fsum refuses, the exact sum is taken in
    Fractions and rounded once, so it is inf only past the float range.
    Where a term is itself inf, it is the IEEE sum of the terms in order,
    inf or NaN (inf - inf), which leaves the margin non-finite."""
    terms = [c * (p - q) for c, p, q in zip(g, x, y)]
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        pass
    if all(map(math.isfinite, terms)):
        exact = sum(map(Fraction, terms))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf
    total = 0.0
    for t in terms:
        total += t
    return total


def check_convexity_smoothness(problem: Problem, x, y) -> float:
    """Margin of the smoothed convexity lower bound between two points.

    The sharp side is the gradient-difference energy weighted by the
    curvature profile along the segment of gradient norms,
    ``|gx - gy|^2 * int_0^1 (1 - v) / ell(|gx| + |gx - gy| v) dv``;
    it must not exceed the Bregman gap ``f(x) - f(y) - <gy, x - y>``.
    """
    model = problem.ell_model
    fx, gx, a = evaluate(problem, x)
    fy, gy, b = evaluate(problem, y)
    _sampled_norm(problem, x, gx, a)
    _sampled_norm(problem, y, gy, b)
    diff = distance(gx, gy)
    rhs = fx - fy - _bregman_inner(_floats(gy), _floats(x), _floats(y))
    if diff == 0.0:
        return rhs
    integral, err = quad(lambda v: (1.0 - v) / model.ell(a + diff * v), 0.0, 1.0)
    if not err <= QUAD_REL_TOL * abs(integral):
        raise PreconditionError(f"convexity integral {integral} has error estimate {err}")
    return rhs - diff * diff * integral


def check_gradient_transfer(problem: Problem, x, y) -> float:
    """Margin of the gradient-variation bound
    ``|grad f(y) - grad f(x)| <= q_inverse(|y - x|; |grad f(x)|)``."""
    model = problem.ell_model
    _, gx, a = evaluate(problem, x)
    _, gy, b = evaluate(problem, y)
    _sampled_norm(problem, x, gx, a)
    _sampled_norm(problem, y, gy, b)
    dist = distance(y, x)
    if dist >= q_max(model, a):
        raise PreconditionError(f"|y - x| = {dist} is not below q_max = {q_max(model, a)}")
    return q_inverse(model, dist, a) - distance(gy, gx)


def check_descent_step(problem: Problem, state: AgdState, step_gamma: float) -> float:
    """Margin of the one-step certificate-decrease bound.

    Executes one accelerated step (``solvers.agd_step``) from ``state`` and
    compares the certificate difference, with |g_y| taken afresh, against
    ``0.5 * (gamma - 1 / ell(2 |g_y| + |g_next|)) * |g_next - g_y|^2``.
    Requires a known optimum and ``0 < step_gamma <= 1 / ell(2 |g_y|)``;
    where |g_y| is infinite, past the float range, the cap is 0 and no step
    is admissible.  The squares of norms are ``smoothness.square``'s, inf
    past the float range.
    """
    if problem.optimum is None:
        raise PreconditionError("descent check needs a known optimum")
    model = problem.ell_model
    gy = state.grad_y
    ny = _sampled_norm(problem, state.y, gy, norm(gy))
    if not step_gamma > 0.0:
        raise PreconditionError(
            f"{problem.name}: step_gamma = {step_gamma} at y = {show_point(state.y)} is not > 0 "
            f"(|g_y| = {ny})"
        )
    if step_gamma > (1.0 + 1e-12) / ell_eval(model, 2.0 * ny):
        raise PreconditionError(f"step_gamma = {step_gamma} exceeds the safety cap "
                                f"{1.0 / ell_eval(model, 2.0 * ny)}")
    f_star = problem.optimum.f_star
    x_star = problem.optimum.x_star
    nxt = agd_step(state, step_gamma, problem)
    alpha = nxt.alpha
    lhs = (
        (1.0 + alpha) * (nxt.f_y - f_star)
        + 0.5 * (1.0 + alpha) * nxt.gamma_cap * square(distance(nxt.u, x_star))
        - lyapunov(state.f_y - f_star, state.gamma_cap, distance(state.u, x_star))
    )
    rhs = 0.5 * (
        step_gamma - 1.0 / ell_eval(model, 2.0 * ny + nxt.grad_norm)
    ) * square(distance(nxt.grad_y, gy))
    return rhs - lhs


def check_gap_to_grad(problem: Problem, y, delta: float) -> bool:
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
    _, g, gn = evaluate(problem, y)
    _sampled_norm(problem, y, g, gn)
    ok_left = gn <= left * (1.0 + 1e-9) + 1e-15
    ok_right = math.isfinite(right) and gn >= right * (1.0 - 1e-9)
    return ok_left or ok_right


# --- randomized sweeps ------------------------------------------------------

def _uniform(rng, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` in one ``random`` call: NumPy's own formula,
    ``lo + (hi - lo) * next_double``, on the same doubles of the stream, so
    the bits agree, without its per-call broadcasting and range checks.  It
    serves the sweeps' scalar draws; the box draw of ``_interior_sampler``
    applies the same formula to each span it has already computed."""
    return lo + (hi - lo) * rng.random()


def _interior_sampler(problem: Problem):
    """The draw ``rng -> point``, a tuple of floats, from the problem's
    sample box, whose bounds are checked once: finite, with ``lo <= hi`` and
    a finite span, which every draw reuses in ``_uniform``'s formula,
    coordinate by coordinate on one ``rng.random`` vector of the stream."""
    lo, hi = _floats(problem.sample_lo), _floats(problem.sample_hi)
    span = [b - a for a, b in zip(lo, hi)]
    if not all(-math.inf < a < math.inf and 0.0 <= s < math.inf for a, s in zip(lo, span)):
        raise PreconditionError(
            f"{problem.name}: sample box [{show_point(problem.sample_lo)}, "
            f"{show_point(problem.sample_hi)}] "
            "needs finite bounds with lo <= hi"
        )
    n = len(span)
    return lambda rng: tuple([a + s * r for a, s, r in zip(lo, span, rng.random(n).tolist())])


def sweep_convexity_smoothness(
    problem: Problem, trials: int = 1000, seed: int = 0
) -> CheckReport:
    sample = _interior_sampler(problem)

    def trial(rng):
        x = sample(rng)
        y = sample(rng)
        return check_convexity_smoothness(problem, x, y), (x, y)

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
        budget = q_max(model, evaluate(problem, x)[2])
        dist = distance(y, x)
        if dist >= 0.9 * budget:
            s, w = 0.9 * budget / dist, _uniform(rng, 0.5, 1.0)
            y = tuple([a + (b - a) * s * w for a, b in zip(x, y)])
        return check_gradient_transfer(problem, x, y), (x, y)

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
        f_y, g_y, gn = evaluate(problem, y)
        gcap = 10.0 ** _uniform(rng, -3.0, 2.0)
        cap = 1.0 / ell_eval(model, 2.0 * gn)
        gamma = cap * _uniform(rng, 0.05, 1.0)
        state = AgdState(y=y, u=u, gamma_cap=gcap, k=0, f_y=f_y, grad_y=g_y, grad_norm=gn)
        margin = check_descent_step(problem, state, gamma)
        return margin, (y, u, gcap, gamma)

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
        f_y = evaluate(problem, y)[0]
        delta = (f_y - f_star) * 1.0000001 + 1e-15
        if delta >= problem.ell_model.psi_sup:
            return None
        ok = check_gap_to_grad(problem, y, delta)
        return (0.0 if ok else -1.0), (y, delta)

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
