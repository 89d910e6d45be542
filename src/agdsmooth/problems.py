"""Objective catalog, feasible-set machinery, and gradient oracles.

Each problem bundles an analytic value/gradient oracle, the open feasible
set it lives on, and the curvature profile claimed for it.  Gradients are
hand-coded formulas (no autodiff) so that finite-difference checks have an
exact target.  Problems are immutable and evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, DomainViolationError, require_number
from .smoothness import Affine, Constant, EllModel, Power


@dataclass(frozen=True)
class FullSpace:
    pass


@dataclass(frozen=True)
class PositiveOrthant:
    pass


Domain = FullSpace | PositiveOrthant


def project_closure(domain: Domain, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the closure of the feasible set.

    The full-space projection is the identity and returns its argument as
    a float array, without a copy: a float array passed in comes back
    itself, so a caller that keeps ``x`` passes a copy or a fresh array.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(domain, FullSpace):
        return x
    return np.maximum(x, 0.0)


def interior_violation(domain: Domain, x: np.ndarray) -> tuple[int, str] | None:
    """None if x lies in the open interior, else (coordinate, description)."""
    if isinstance(domain, FullSpace):
        return None
    bad = np.flatnonzero(x <= 0.0)
    if bad.size:
        i = int(bad[0])
        return i, f"coordinate {i} = {x[i]} is not > 0"
    return None


@dataclass(frozen=True)
class Optimum:
    f_star: float
    x_star: np.ndarray


@dataclass(frozen=True)
class Problem:
    """Objective oracle plus the feasible set and claimed curvature profile.

    ``sample_lo``/``sample_hi`` give an interior box used by randomized
    property sweeps; they are part of the test harness, not the math.
    """

    name: str
    dim: int
    domain: Domain
    ell_model: EllModel
    fn: Callable[[np.ndarray], tuple[float, np.ndarray]]
    optimum: Optimum | None
    sample_lo: np.ndarray
    sample_hi: np.ndarray


def evaluate(problem: Problem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient at an interior point.

    Raises ``DomainViolationError`` outside the open feasible set, and where
    the objective overflows or its value is not finite.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise DomainError(f"expected a point of dimension {problem.dim}, got shape {x.shape}")
    bad = interior_violation(problem.domain, x)
    if bad is not None:
        coord, msg = bad
        raise DomainViolationError(f"{problem.name}: {msg}", coordinate=coord)
    try:
        value, grad = problem.fn(x)
    except OverflowError as exc:
        raise DomainViolationError(f"{problem.name}: overflow at {x}: {exc}") from exc
    value = float(value)
    if not math.isfinite(value):
        raise DomainViolationError(f"{problem.name}: value {value} at {x} is not finite")
    return value, np.asarray(grad, dtype=float)


# --- catalog ---------------------------------------------------------------

def _param(params: dict, key: str, default: float) -> float:
    """Take ``key`` out of ``params``; what a builder leaves is unknown."""
    value = require_number(params.pop(key, default), f"problem param {key!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"problem param {key!r} must be finite, got {value}")
    return value


def _int_param(params: dict, key: str, default: int) -> int:
    value = _param(params, key, default)
    if not value.is_integer():
        raise ConfigurationError(f"problem param {key!r} must be an integer, got {value}")
    return int(value)


def _exp_experiment(params: dict) -> Problem:
    mu = _param(params, "mu", 0.001)
    if mu <= 0:
        raise ConfigurationError("exp-experiment needs mu > 0")

    def fn(p: np.ndarray) -> tuple[float, np.ndarray]:
        x, y = p
        ex, e1x = math.exp(x), math.exp(1.0 - x)
        return ex + e1x + 0.5 * mu * y * y, np.array([ex - e1x, mu * y])

    f_star = 2.0 * math.sqrt(math.e)
    return Problem(
        name="exp-experiment",
        dim=2,
        domain=FullSpace(),
        ell_model=Affine(L0=3.3 + mu, L1=1.0),
        fn=fn,
        optimum=Optimum(f_star=f_star, x_star=np.array([0.5, 0.0])),
        sample_lo=np.array([-3.0, -3.0]),
        sample_hi=np.array([3.0, 3.0]),
    )


def _quadratic(params: dict) -> Problem:
    L = _param(params, "L", 1.0)
    d = _int_param(params, "d", 2)
    if L <= 0 or d < 1:
        raise ConfigurationError("quadratic needs L > 0 and d >= 1")

    def fn(p: np.ndarray) -> tuple[float, np.ndarray]:
        return 0.5 * L * float(p @ p), L * p

    return Problem(
        name="quadratic",
        dim=d,
        domain=FullSpace(),
        ell_model=Constant(L=L),
        fn=fn,
        optimum=Optimum(f_star=0.0, x_star=np.zeros(d)),
        sample_lo=np.full(d, -2.0),
        sample_hi=np.full(d, 2.0),
    )


def _power_p(params: dict) -> Problem:
    p = _int_param(params, "p", 4)
    d = _int_param(params, "d", 2)
    L0 = _param(params, "L0", 1.0)
    if p <= 2 or p % 2 != 0:
        raise ConfigurationError("power-p needs an even integer p > 2")
    if d < 1 or L0 <= 0:
        raise ConfigurationError("power-p needs d >= 1 and L0 > 0")

    def fn(x: np.ndarray) -> tuple[float, np.ndarray]:
        return float((x**p).sum()), p * x ** (p - 1)

    # Exact curvature fit: ||hess|| = p(p-1) max|x_i|^(p-2) and
    # ||grad|| >= p max|x_i|^(p-1), so the profile L0 + L1 s^rho with
    # rho = (p-2)/(p-1) and L1 = p(p-1) / p^rho majorizes the Hessian.
    rho = (p - 2) / (p - 1)
    L1 = p * (p - 1) / p**rho
    return Problem(
        name="power-p",
        dim=d,
        domain=FullSpace(),
        ell_model=Power(rho=rho, L0=L0, L1=L1),
        fn=fn,
        optimum=Optimum(f_star=0.0, x_star=np.zeros(d)),
        sample_lo=np.full(d, -1.5),
        sample_hi=np.full(d, 1.5),
    )


def _neg_log_barrier(params: dict) -> Problem:
    c = _param(params, "c", 1.0)
    d = _int_param(params, "d", 2)
    if c <= 0 or d < 1:
        raise ConfigurationError("neg-log-barrier needs c > 0 and d >= 1")

    def fn(x: np.ndarray) -> tuple[float, np.ndarray]:
        return float(-np.log(x).sum() + 0.5 * c * (x @ x)), c * x - 1.0 / x

    # Per coordinate, with t = 1/x and g = c x - 1/x one has
    # hess = t^2 + c and t <= |g| + sqrt(c), hence hess <= 3c + 2 g^2.
    x_star = np.full(d, 1.0 / math.sqrt(c))
    f_star = 0.5 * d * (math.log(c) + 1.0)
    return Problem(
        name="neg-log-barrier",
        dim=d,
        domain=PositiveOrthant(),
        ell_model=Power(rho=2.0, L0=3.0 * c, L1=2.0),
        fn=fn,
        optimum=Optimum(f_star=f_star, x_star=x_star),
        sample_lo=np.full(d, 0.3),
        sample_hi=np.full(d, 3.0),
    )


def _exp_1d(params: dict) -> Problem:
    def fn(x: np.ndarray) -> tuple[float, np.ndarray]:
        ex, emx = math.exp(x[0]), math.exp(-x[0])
        return ex + emx, np.array([ex - emx])

    return Problem(
        name="exp-1d",
        dim=1,
        domain=FullSpace(),
        ell_model=Affine(L0=2.0, L1=1.0),
        fn=fn,
        optimum=Optimum(f_star=2.0, x_star=np.zeros(1)),
        sample_lo=np.array([-2.0]),
        sample_hi=np.array([2.0]),
    )


_BUILDERS = {
    "exp-experiment": _exp_experiment,
    "quadratic": _quadratic,
    "power-p": _power_p,
    "neg-log-barrier": _neg_log_barrier,
    "exp-1d": _exp_1d,
}

CATALOG_NAMES = tuple(sorted(_BUILDERS))

# Natural starting points for runs when the config does not pin one.
DEFAULT_X0 = {
    "exp-experiment": lambda d: (-6.0, -5.0),
    "quadratic": lambda d: (1.0,) * d,
    "power-p": lambda d: (1.0,) * d,
    "neg-log-barrier": lambda d: (2.0,) * d,
    "exp-1d": lambda d: (3.0,),
}


def catalog(name: str, params: dict | None = None) -> Problem:
    """Construct a catalog problem by name.

    ``params`` may carry ``known_optimum: false`` to withhold the stored
    optimum, forcing runs to terminate on certified bounds only.  A key the
    problem does not read, a non-bool ``known_optimum`` and a non-integral
    ``d`` or ``p`` are configuration errors.
    """
    if not isinstance(params, (dict, type(None))):
        raise ConfigurationError(f"problem params must be an object, got {params!r}")
    params = dict(params or {})
    if name not in _BUILDERS:
        raise ConfigurationError(
            f"unknown problem {name!r}; available: {', '.join(CATALOG_NAMES)}"
        )
    known = params.pop("known_optimum", True)
    if not isinstance(known, bool):
        raise ConfigurationError(
            f"problem param 'known_optimum' must be true or false, got {known!r}"
        )
    problem = _BUILDERS[name](params)
    if params:
        raise ConfigurationError(f"unknown problem param {next(iter(params))!r} for {name}")
    if not known:
        problem = replace(problem, optimum=None)
    return problem


def default_x0(name: str, dim: int) -> np.ndarray:
    return np.asarray(DEFAULT_X0[name](dim), dtype=float)
