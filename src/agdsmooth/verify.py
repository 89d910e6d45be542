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
The convexity bound's weight is ``smoothness.convexity_weight``, in closed
form for the constant, affine and flat or rho = 2 power claims; a general
power or piecewise-linear claim integrates it with ``smoothness.quad``, the
package's Gauss-Kronrod rule, and a point where that misses its tolerance
is a ``PreconditionError``.

ell does not decrease, so ``q_inverse(r; a) >= r ell(a)`` and
``W(a, d) <= 1 / (2 ell(a))``.  The gradient-transfer and convexity checks
take a keyword ``floor`` and first compute the lower bound of their margin
that these give, with a relative slack of 1e-9 (``_BOUND_SLACK``); where
that bound is at or above ``floor`` they return it, and compute neither q
inverse nor W.  ``_sweep`` hands each trial the least margin that could
still change its report, ``max(worst, -MARGIN_TOL)`` (inf before the first
margin, ``-MARGIN_TOL`` once the worst is NaN), so a settled trial changes
nothing.  Rounding is monotone, so the bound is at most the exact margin in
floats wherever the profile's q inverse is at least
``fl(r ell(a) (1 - 1e-9))`` and its W at most ``fl(0.5 (1 + 1e-9) / ell(a))``,
which every profile keeps where those and r are normal floats.  Below
``sys.float_info.min`` the slack can round away, in the bound or in a q
inverse taken at a subnormal r, so where r, ``r ell(a)`` or
``0.5 (1 + 1e-9) / ell(a)`` is subnormal the checks take the exact margin;
the reports are those of always-exact sweeps.  The one difference: a
convexity trial settled by its bound makes no quadrature, so a quadrature
refusal there no longer ends the sweep.  Every trial still evaluates its points, checks their
gradients and, for gradient transfer, q_max, so oracle counts and every
other typed error are unchanged.

The sweeps draw their points as tuples of Python floats, the kind of a
small run's step loop, so ``evaluate``, ``agd_step`` and
``project_closure`` take them as they are and every gradient comes back a
tuple.  The public checks also take arrays, and error messages print a
point in NumPy's form (``problems.show_point``).  Every distance is
``problems.distance`` and the Bregman term's inner product is
``math.fsum``, so no margin bit comes from the BLAS.  Each sweep reads its
doubles from one stream, ``_draws(seed)``, which fills them from NumPy's
``Generator`` a chunk at a time, so a trial makes no NumPy call.  NumPy
serves only that stream, an array that a public check is given, and an
error message, and is imported there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import ConfigurationError, DomainViolationError, PreconditionError
from .problems import Problem, distance, evaluate, norm, project_closure, show_point
from .smoothness import (
    QUAD_REL_TOL,
    convexity_weight,
    delta_left_right,
    ell_eval,
    q_inverse,
    q_max,
    square,
)
from .solvers import AgdState, agd_step, lyapunov

# Inequality acceptance margin: one order below the quadrature error floor.
MARGIN_TOL = 1e-8

# The sweeps' doubles are drawn this many at a time (``_draws``).
_DRAW_CHUNK = 256

# The relative slack of the margin bounds that settle a trial without q
# inverse or the convexity weight (see the module docstring); it covers the
# quadratures' 1e-10 relative tolerance and a profile's roundings.
_BOUND_SLACK = 1e-9

# Below the normal range a float's own rounding can pass that slack, so a
# bound built from such a float settles nothing.
_NORMAL_MIN = sys.float_info.min


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


def _draws(seed: int):
    """The doubles of ``numpy.random.default_rng(seed).random()`` in stream
    order, as one iterator of Python floats: a ``next`` is the double that a
    ``random()`` call would give, and n of them the vector ``random(n)``,
    since each double takes one output of the bit generator.  They are drawn
    ``_DRAW_CHUNK`` at a time (``iter`` with a sentinel no list equals calls
    the draw for ever), so no trial makes a NumPy call of its own."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return chain.from_iterable(iter(lambda: rng.random(_DRAW_CHUNK).tolist(), None))


def _sweep(name: str, trials: int, seed: int, trial) -> CheckReport:
    """Run ``trial(draws, floor)`` ``trials`` times on one stream
    ``_draws(seed)``, which no state outlives.  A trial returns
    ``(margin, witness)``, or None to skip its point; the report keeps the
    worst margin with its witness, a NaN being worse than any number, and
    counts every margin that is not at least ``-MARGIN_TOL`` as a violation.
    So a margin at or above ``floor``, ``max(worst, -MARGIN_TOL)`` (inf
    before the first margin, ``-MARGIN_TOL`` once the worst is NaN), changes
    nothing in the report, and a trial may return any lower bound of its
    margin that is at or above the floor in its place."""
    draws = _draws(seed)
    worst, witness, violations, n = math.inf, None, 0, 0
    floor = math.inf
    for _ in range(trials):
        out = trial(draws, floor)
        if out is None:
            continue
        margin, wit = out
        n += 1
        if not (margin >= worst or math.isnan(worst)):
            worst, witness = margin, wit
            floor = -MARGIN_TOL if math.isnan(worst) else max(worst, -MARGIN_TOL)
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


def check_convexity_smoothness(problem: Problem, x, y, *, floor: float = math.inf) -> float:
    """Margin of the smoothed convexity lower bound between two points.

    The sharp side is the gradient-difference energy weighted by the
    curvature profile along the segment of gradient norms,
    ``|gx - gy|^2 * int_0^1 (1 - v) / ell(|gx| + |gx - gy| v) dv``
    (``smoothness.convexity_weight``); it must not exceed the Bregman gap
    ``f(x) - f(y) - <gy, x - y>``.  The weight is at most 1 / (2 ell(|gx|)),
    so where the margin with ``0.5 (1 + 1e-9) / ell(|gx|)`` in its place is
    at or above ``floor``, and that cap is a normal float, the lower bound is
    returned and no weight is computed; the default floor, inf, always takes
    the exact margin.
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
    energy = diff * diff
    cap = 0.5 * (1.0 + _BOUND_SLACK) / ell_eval(model, a)
    bound = rhs - energy * cap
    if bound >= floor and cap >= _NORMAL_MIN:
        return bound
    return rhs - energy * convexity_weight(model, a, diff)


def check_gradient_transfer(problem: Problem, x, y, *, floor: float = math.inf) -> float:
    """Margin of the gradient-variation bound
    ``|grad f(y) - grad f(x)| <= q_inverse(|y - x|; |grad f(x)|)``.  q
    inverse is at least |y - x| ell(|grad f(x)|), so where the margin with
    ``|y - x| ell(|grad f(x)|) (1 - 1e-9)`` in its place is at or above
    ``floor``, and ``|y - x|`` and ``|y - x| ell(|grad f(x)|)`` are normal
    floats, the lower bound is returned and q inverse is not computed; the
    default floor, inf, always takes the exact margin."""
    model = problem.ell_model
    _, gx, a = evaluate(problem, x)
    _, gy, b = evaluate(problem, y)
    _sampled_norm(problem, x, gx, a)
    _sampled_norm(problem, y, gy, b)
    dist = distance(y, x)
    if dist >= q_max(model, a):
        raise PreconditionError(f"|y - x| = {dist} is not below q_max = {q_max(model, a)}")
    change = distance(gy, gx)
    step = dist * ell_eval(model, a)
    bound = step * (1.0 - _BOUND_SLACK) - change
    if bound >= floor and dist >= _NORMAL_MIN and step >= _NORMAL_MIN:
        return bound
    return q_inverse(model, dist, a) - change


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

def _uniform(draws, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` on the next double of the stream: NumPy's own
    formula, ``lo + (hi - lo) * next_double``, so the bits agree.  It serves
    the sweeps' scalar draws; the box draw of ``_interior_sampler`` applies
    the same formula to each span it has already computed."""
    return lo + (hi - lo) * next(draws)


def _interior_sampler(problem: Problem):
    """The draw ``draws -> point``, a tuple of floats, from the problem's
    sample box, whose bounds are checked once: finite, with ``lo <= hi`` and
    a finite span, which every draw reuses in ``_uniform``'s formula,
    coordinate by coordinate on the next d doubles of the stream (``zip``
    reads ``lo`` first, so it stops without taking a double more)."""
    lo, hi = _floats(problem.sample_lo), _floats(problem.sample_hi)
    span = [b - a for a, b in zip(lo, hi)]
    if not all(-math.inf < a < math.inf and 0.0 <= s < math.inf for a, s in zip(lo, span)):
        raise PreconditionError(
            f"{problem.name}: sample box [{show_point(problem.sample_lo)}, "
            f"{show_point(problem.sample_hi)}] "
            "needs finite bounds with lo <= hi"
        )
    return lambda draws: tuple([a + s * r for a, s, r in zip(lo, span, draws)])


def sweep_convexity_smoothness(
    problem: Problem, trials: int = 1000, seed: int = 0
) -> CheckReport:
    sample = _interior_sampler(problem)

    def trial(draws, floor):
        x = sample(draws)
        y = sample(draws)
        return check_convexity_smoothness(problem, x, y, floor=floor), (x, y)

    return _sweep("convexity-smoothness", trials, seed, trial)


def sweep_gradient_transfer(
    problem: Problem, trials: int = 1000, seed: int = 0
) -> CheckReport:
    """Pairs are shrunk toward x until they fit inside 0.9 q_max, which
    keeps them in the feasible set (it is convex)."""
    model = problem.ell_model
    sample = _interior_sampler(problem)

    def trial(draws, floor):
        x = sample(draws)
        y = sample(draws)
        budget = q_max(model, evaluate(problem, x)[2])
        dist = distance(y, x)
        if dist >= 0.9 * budget:
            s, w = 0.9 * budget / dist, _uniform(draws, 0.5, 1.0)
            y = tuple([a + (b - a) * s * w for a, b in zip(x, y)])
        return check_gradient_transfer(problem, x, y, floor=floor), (x, y)

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

    def trial(draws, _floor):
        y = sample(draws)
        u = project_closure(problem.domain, sample(draws))
        f_y, g_y, gn = evaluate(problem, y)
        gcap = 10.0 ** _uniform(draws, -3.0, 2.0)
        cap = 1.0 / ell_eval(model, 2.0 * gn)
        gamma = cap * _uniform(draws, 0.05, 1.0)
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

    def trial(draws, _floor):
        y = sample(draws)
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
