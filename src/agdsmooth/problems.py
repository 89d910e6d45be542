"""Objective catalog, feasible-set machinery, and the guarded oracle.

Each problem bundles an analytic value/gradient oracle, the open feasible
set it lives on, and the curvature profile claimed for it.  Gradients are
hand-coded formulas (no autodiff) so that finite-difference checks have an
exact target.  Problems are immutable and evaluation is pure.  ``evaluate``
returns the value, the gradient and its ``norm``, which every step rule and
certificate reads, and refuses a NaN gradient, so no caller guards one.

A point comes in one of two kinds.  Below ``solvers``' float cutoff
the step loop, and every ``verify`` sweep, holds its vectors as tuples of
Python floats, which ``evaluate`` and ``project_closure`` take and give
back as tuples; a larger run, and any other caller, holds float arrays.
The catalog's optima and sample boxes are tuples of floats.  Every oracle
computes on Python floats: ``evaluate`` hands it the tuple as it is, or an
array as one ``tolist()``, and turns its gradient back into an array for
an array caller.  NumPy is imported only where an array is met, in
``float_array`` and the array branches of ``evaluate`` and
``project_closure``, and by the error messages that print a point
(``show_point``) or its shape, which fall back to plain Python where NumPy
is not installed.  Each sum over
the coordinates is ``math.fsum``, rounded once from its exact value, so no
value depends on the BLAS, on the coordinates' order or layout, or on the
interpreter (the builtin ``sum`` compensates from 3.12 on, so its bits
differ by version).
``tests/test_problems.py::TestOracleBits`` pins every catalog oracle's
value and gradient bits to a reference form, and those of ``evaluate`` on
a tuple, the norm's included, to those on an array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Callable

from .errors import ConfigurationError, DomainError, DomainViolationError, require_number
from .smoothness import Affine, Constant, EllModel, Power


@dataclass(frozen=True)
class FullSpace:
    pass


@dataclass(frozen=True)
class PositiveOrthant:
    pass


Domain = FullSpace | PositiveOrthant


def project_closure(domain: Domain, x):
    """Euclidean projection onto the closure of the feasible set.

    A tuple of floats comes back a tuple, anything else a float array.  The
    full-space projection is the identity and returns its argument without a
    copy: a float array passed in comes back itself, so a caller that keeps
    ``x`` passes a copy or a fresh array.  On the orthant a tuple takes
    ``np.maximum``'s rule, bit for bit: a NaN stays and -0.0 becomes 0.0.
    """
    if type(x) is tuple:
        if isinstance(domain, FullSpace):
            return x
        return tuple([v if v > 0.0 or v != v else 0.0 for v in x])
    import numpy as np

    x = np.asarray(x, dtype=float)
    if isinstance(domain, FullSpace):
        return x
    return np.maximum(x, 0.0)


def interior_violation(domain: Domain, x) -> tuple[int, str] | None:
    """None if x, a sequence of floats, lies in the open interior, else
    (coordinate, description)."""
    if isinstance(domain, FullSpace):
        return None
    # a NaN coordinate fails the min test but is not <= 0: it is left to
    # the value check.  Python's min skips a NaN after the first item, but
    # then the index search finds no coordinate <= 0 either
    if min(x) > 0.0:
        return None
    i = next((i for i, v in enumerate(x) if v <= 0.0), None)
    if i is None:
        return None
    return i, f"coordinate {i} = {float(x[i])} is not > 0"


@dataclass(frozen=True)
class Optimum:
    f_star: float
    x_star: tuple[float, ...]


@dataclass(frozen=True)
class Problem:
    """Objective oracle plus the feasible set and claimed curvature profile.

    ``fn`` maps a sequence of Python floats, a tuple or a list, to its
    value and gradient, a tuple of floats or any sequence that converts to
    one; ``evaluate`` converts a caller's kind both ways.
    ``sample_lo``/``sample_hi`` give an interior box used by randomized
    property sweeps; they are part of the test harness, not the math.
    """

    name: str
    dim: int
    domain: Domain
    ell_model: EllModel
    fn: Callable[..., tuple[float, Any]]
    optimum: Optimum | None
    sample_lo: tuple[float, ...]
    sample_hi: tuple[float, ...]


def _numpy():
    """NumPy for an error message, or None where it is not installed."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def show_point(x) -> str:
    """A point as an error message prints it: ``np.asarray(x)`` in NumPy's
    ``[...]`` form, whatever the point's kind.  Only an error path reaches
    it, so it imports NumPy there; without NumPy every point is a tuple or
    list of floats, printed as their reprs in brackets."""
    np = _numpy()
    return str(np.asarray(x)) if np is not None else f"[{' '.join(map(repr, x))}]"


def norm(v) -> float:
    """Euclidean norm of a 1-D real vector, a tuple or list of floats or a
    float array: ``math.hypot`` of its components, CPython's own code, so its
    bits depend on neither the BLAS nor the NumPy build and are the same on
    every kind, within one ulp of the true norm (``tests/test_norm_pin.py``
    pins them).  It is inf past the float range, never an ``OverflowError``;
    a NaN component makes it NaN unless another component is infinite."""
    return math.hypot(*(v if type(v) is tuple or type(v) is list else v.tolist()))


def distance(a, b) -> float:
    """Euclidean distance between two 1-D real vectors of one length, each
    a tuple or list of floats or a float array: ``math.dist``, which shares
    ``math.hypot``'s code, so it equals ``norm`` of the componentwise
    difference bit for bit (``tests/test_norm_pin.py`` pins that), with no
    difference vector built.  A difference past the float range reads inf."""
    return math.dist(a if type(a) is tuple or type(a) is list else a.tolist(),
                     b if type(b) is tuple or type(b) is list else b.tolist())


def float_array(problem: Problem, x):
    """``x``, a sequence or an array, as a float array by ``evaluate``'s rule:
    where NumPy holds it as anything but numbers, a coordinate that is not a
    real number (a str or bytes, None, a complex, a sequence) is a
    ``DomainError`` naming it, where NumPy would parse it, read it as NaN,
    cut it to its real part or raise a ``ValueError`` of its own."""
    import numpy as np

    try:
        arr = x if type(x) is np.ndarray else np.asarray(x)
    except ValueError:
        arr = np.asarray(x, dtype=object)
    if arr.dtype.kind not in "biuf":
        coords = arr.tolist() if arr is x else x
        i = next((i for i, v in enumerate(coords) if not isinstance(v, numbers.Real)), None)
        if i is not None:
            raise DomainError(
                f"{problem.name}: coordinate {i} = {coords[i]!r} is not a real number")
    return np.asarray(arr, dtype=float)


def evaluate(problem: Problem, x) -> tuple[float, Any, float]:
    """Value, gradient and gradient ``norm`` at an interior point.

    A tuple (a step state below ``solvers``' float cutoff) must hold Python
    floats, and gets its gradient as a tuple of floats; any other point,
    a list included, is read by ``float_array`` and gets an array.  A
    coordinate that is not a real number is refused on every kind, never
    parsed or read as NaN.  The oracle sees Python floats, converted here
    once, so the two kinds give the same bits and the same errors.

    Raises ``DomainError`` for a point of the wrong shape or with a
    coordinate that is not a real number, and ``DomainViolationError``
    outside the open feasible set, where the objective overflows or its
    value is not finite, and where the gradient has a NaN component; an
    infinite norm (an infinite component, or finite ones past the float
    range) is valid.
    """
    floats = type(x) is tuple
    try:
        if floats:
            point = x
            shaped = len(x) == problem.dim
        else:
            import numpy as np

            x = float_array(problem, x)
            point = x.tolist()
            shaped = x.shape == (problem.dim,)
        if not shaped:
            np = _numpy()
            shape = np.shape(x) if np is not None else (len(x),)
            raise DomainError(f"expected a point of dimension {problem.dim}, got shape {shape}")
        if (bad := interior_violation(problem.domain, point)) is not None:
            raise DomainViolationError(f"{problem.name}: {bad[1]}", coordinate=bad[0])
        value, grad = problem.fn(point)
        value = float(value)
        if type(grad) is not tuple:
            import numpy as np

            grad = tuple(np.asarray(grad, dtype=float).tolist())
        n = norm(grad)
    except DomainError:
        raise
    except OverflowError as exc:
        raise DomainViolationError(
            f"{problem.name}: overflow at {show_point(x)}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        # a coordinate that is not a real number fails where it is used first
        coords = x if floats or not isinstance(x, np.ndarray) else x.tolist()
        i = next((i for i, v in enumerate(coords) if not isinstance(v, numbers.Real)), None)
        if i is None:
            raise
        raise DomainError(f"{problem.name}: coordinate {i} = {coords[i]!r} is not a real number")
    if not math.isfinite(value):
        raise DomainViolationError(
            f"{problem.name}: value {value} at {show_point(x)} is not finite")
    if n != n or (n == math.inf and any(c != c for c in grad)):
        raise DomainViolationError(f"{problem.name}: the gradient has a NaN component at "
                                   f"{show_point(x)}: {show_point(grad)}")
    if floats:
        return value, grad, n
    return value, np.array(grad, dtype=float), n


# --- catalog ---------------------------------------------------------------
# Every oracle computes on Python floats.  Past the float range a product
# reads inf and ``**`` or ``math.fsum`` raises OverflowError; ``evaluate``
# refuses each as a DomainViolationError, and NumPy warns of none.

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

    def fn(p) -> tuple[float, tuple[float, float]]:
        x, y = p
        ex, e1x = math.exp(x), math.exp(1.0 - x)
        return ex + e1x + 0.5 * mu * y * y, (ex - e1x, mu * y)

    f_star = 2.0 * math.sqrt(math.e)
    return Problem(
        name="exp-experiment",
        dim=2,
        domain=FullSpace(),
        ell_model=Affine(L0=3.3 + mu, L1=1.0),
        fn=fn,
        optimum=Optimum(f_star=f_star, x_star=(0.5, 0.0)),
        sample_lo=(-3.0, -3.0),
        sample_hi=(3.0, 3.0),
    )


def _quadratic(params: dict) -> Problem:
    L = _param(params, "L", 1.0)
    d = _int_param(params, "d", 2)
    if L <= 0 or d < 1:
        raise ConfigurationError("quadratic needs L > 0 and d >= 1")

    def fn(p) -> tuple[float, tuple[float, ...]]:
        return 0.5 * L * math.fsum([v * v for v in p]), tuple([L * v for v in p])

    return Problem(
        name="quadratic",
        dim=d,
        domain=FullSpace(),
        ell_model=Constant(L=L),
        fn=fn,
        optimum=Optimum(f_star=0.0, x_star=(0.0,) * d),
        sample_lo=(-2.0,) * d,
        sample_hi=(2.0,) * d,
    )


def _power_p(params: dict) -> Problem:
    p = _int_param(params, "p", 4)
    d = _int_param(params, "d", 2)
    L0 = _param(params, "L0", 1.0)
    if p <= 2 or p % 2 != 0:
        raise ConfigurationError("power-p needs an even integer p > 2")
    if d < 1 or L0 <= 0:
        raise ConfigurationError("power-p needs d >= 1 and L0 > 0")

    def fn(x) -> tuple[float, tuple[float, ...]]:
        return math.fsum([v**p for v in x]), tuple([p * v ** (p - 1) for v in x])

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
        optimum=Optimum(f_star=0.0, x_star=(0.0,) * d),
        sample_lo=(-1.5,) * d,
        sample_hi=(1.5,) * d,
    )


def _neg_log_barrier(params: dict) -> Problem:
    c = _param(params, "c", 1.0)
    d = _int_param(params, "d", 2)
    if c <= 0 or d < 1:
        raise ConfigurationError("neg-log-barrier needs c > 0 and d >= 1")

    def fn(x) -> tuple[float, tuple[float, ...]]:
        value = -math.fsum(map(math.log, x)) + 0.5 * c * math.fsum([v * v for v in x])
        return value, tuple([c * v - 1.0 / v for v in x])

    # Per coordinate, with t = 1/x and g = c x - 1/x one has
    # hess = t^2 + c and t <= |g| + sqrt(c), hence hess <= 3c + 2 g^2.
    x_star = (1.0 / math.sqrt(c),) * d
    f_star = 0.5 * d * (math.log(c) + 1.0)
    return Problem(
        name="neg-log-barrier",
        dim=d,
        domain=PositiveOrthant(),
        ell_model=Power(rho=2.0, L0=3.0 * c, L1=2.0),
        fn=fn,
        optimum=Optimum(f_star=f_star, x_star=x_star),
        sample_lo=(0.3,) * d,
        sample_hi=(3.0,) * d,
    )


def _exp_1d(params: dict) -> Problem:
    def fn(p) -> tuple[float, tuple[float]]:
        (x,) = p
        ex, emx = math.exp(x), math.exp(-x)
        return ex + emx, (ex - emx,)

    return Problem(
        name="exp-1d",
        dim=1,
        domain=FullSpace(),
        ell_model=Affine(L0=2.0, L1=1.0),
        fn=fn,
        optimum=Optimum(f_star=2.0, x_star=(0.0,)),
        sample_lo=(-2.0,),
        sample_hi=(2.0,),
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


def default_x0(name: str, dim: int) -> tuple[float, ...]:
    return DEFAULT_X0[name](dim)
