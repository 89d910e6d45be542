"""Curvature profiles and the analytic machinery derived from them.

The central object is a non-decreasing positive profile ``ell`` that bounds
local curvature by the gradient norm, ``||hess f(x)|| <= ell(||grad f(x)||)``.
Two derived functions drive everything else in the package:

* ``psi(x) = x^2 / (2 ell(4 x))`` converts a bound on the function gap into
  a bound on the gradient norm.  It is strictly increasing up to
  ``delta_max`` (finite only for superquadratic growth), and on a
  non-monotone profile the level set ``psi = delta`` has a left root below
  ``delta_max`` and possibly a second root ``delta_right`` beyond it.
* ``q(s; a) = int_0^s dv / ell(a + v)`` bounds gradient variation between
  nearby points.  The package needs only its inverse in s, the step that
  spends a budget, and its limit ``q_max(a)``, which caps safe step lengths.

Each profile class derives from ``EllModel`` and owns its maths: the profile
itself, its supremum, the inverse and limit of the q budget, the psi peak,
the right crossing and its admissibility boundary, the largest delta that
Algorithm 1's warm start admits, in closed form, and psi's root, which
``psi_inverse`` checks.  The base holds the flat profile's root, the generic
quadrature, the Newton q inverse and ``_bisect``, the one bracketing root
finder, behind the psi inverse's fallback for refused roots, the q inverse's
fallback and the right crossing; the module-level functions validate their
arguments and dispatch to the model, and ``warm_start_refusal`` states which
delta Algorithm 1's warm start accepts: on either branch of psi, one at or
below the closed-form admissibility boundary.
The quadrature is ``quad``, the package's own adaptive Gauss-Kronrod rule
with its error estimate; only a general power profile's q inverse and limit
and ``verify``'s convexity integral integrate.
Models are immutable after construction (their psi geometry is computed
once, on first use) and safe to share across threads.  ``math.inf`` is the
extended-real sentinel for unbounded quantities (never a large finite float).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property

from .errors import (
    ConfigurationError,
    DomainError,
    OutOfRangeError,
    PreconditionError,
    require_number,
)

# Quadrature is kept two orders tighter than the 1e-6/1e-8 test tolerances
# that consume it.
QUAD_REL_TOL = 1e-10

# Bisection policy: geometric bracket growth by 2, hard cap.
BISECT_MAX_ITER = 200

FLOAT_MAX = sys.float_info.max
LOG_FLOAT_MAX = math.log(FLOAT_MAX)
# A profile's own psi root is kept only where psi at it reads t to within
# CLOSED_FORM_RESIDUAL relative: a root computed to a few roundings passes
# many times over, and one that an overflow, an underflow or a cancellation
# has lost fails and hands t to the bisection fallback.
CLOSED_FORM_RESIDUAL = 16.0 * sys.float_info.epsilon

# q(s; a) is increasing and concave in s because 1/ell does not increase, so
# its tangent at s lies above it and the Newton step
# s + (r - q(s)) * ell(a + s) never passes the root of q = r.  Newton from
# below therefore needs no line search; a rounding overshoot or a stall
# hands the bracket to bisection.
NEWTON_MAX_ITER = 50

# QUADPACK's 10/21-point Gauss-Kronrod rule on [-1, 1] (Piessens et al., 1983): node pairs
# +-x, their Kronrod and Gauss weights (0 at Kronrod-only nodes); the centre's weight is last.
GK21_NODES = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
              0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
              0.2943928627014602, 0.14887433898163122)
GK21_KRONROD = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.14944555400291691)
GK21_GAUSS = (0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
              0.0, 0.26926671930999635, 0.0, 0.29552422471475287)
QUAD_MAX_PANELS = 200


def _gk21(func, a: float, b: float) -> tuple[float, float]:
    """Kronrod's 21-point sum of ``func`` over [a, b] and its distance from Gauss's 10."""
    half, mid = 0.5 * (b - a), 0.5 * a + 0.5 * b
    kronrod, gauss = GK21_KRONROD[10] * func(mid), 0.0
    for x, wk, wg in zip(GK21_NODES, GK21_KRONROD, GK21_GAUSS):
        pair = func(mid - half * x) + func(mid + half * x)
        kronrod, gauss = kronrod + wk * pair, gauss + wg * pair
    return half * kronrod, abs(half * (kronrod - gauss))


def quad(func, a: float, b: float) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod quadrature of ``func`` over the finite [a, b] and its error
    estimate, the sum of |K21 - G10| over the panels.  The worst panel is bisected until the
    estimate is within ``QUAD_REL_TOL`` of the value or there are ``QUAD_MAX_PANELS``."""
    value, err = _gk21(func, a, b)
    panels = [(err, a, b, value)]
    while err > QUAD_REL_TOL * abs(value) and len(panels) < QUAD_MAX_PANELS:
        panels.remove(worst := max(panels))
        _, lo, hi, _ = worst
        mid = 0.5 * lo + 0.5 * hi
        for end0, end1 in ((lo, mid), (mid, hi)):
            v, e = _gk21(func, end0, end1)
            panels.append((e, end0, end1, v))
        value, err = math.fsum(p[3] for p in panels), sum(p[0] for p in panels)
    return value, err


def _bisect(below, lo: float, hi: float) -> float:
    """Shrink ``[lo, hi]`` around the point where ``below`` turns false; stops
    once the bracket is 4e-16 wide relative to its midpoint.  The midpoint
    halves each end before adding, which rounds as halving their sum does
    on normal floats but stays finite where that sum overflows."""
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * lo + 0.5 * hi
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * max(mid, 1e-300):
            break
    return 0.5 * lo + 0.5 * hi


def _power(x: float, y: float) -> float:
    """``x**y`` for x >= 0 (x > 0 where y < 0), with its float limit inf
    where it overflows (Python raises there; an underflow already gives 0.0)."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _expm1_over(c: float, x: float, m: float) -> float:
    """``c * expm1(x) / m`` for c, m > 0 and x >= 0, with its float limit inf
    past the float range.  Where expm1 or the product overflows, the
    quotient is taken in logs, which keeps it where it is a float; past
    expm1's range (Python raises there) expm1(x) is exp(x) to far below an
    ulp."""
    try:
        e = math.expm1(x)
    except OverflowError:
        log_e = x
    else:
        value = c * e / m
        if value < math.inf:
            return value
        log_e = math.log(e)
    return _exp(math.log(c) + log_e - math.log(m))


def square(x: float) -> float:
    """``x ** 2``, inf past the float range: the float power's rounding, which
    the pinned traces carry (``x * x`` rounds apart on one draw in 1000)."""
    return _power(x, 2)


def _exp(x: float) -> float:
    """``math.exp(x)``, with its float limit inf where it overflows (Python
    raises there)."""
    return math.exp(x) if x <= LOG_FLOAT_MAX else math.inf


class EllModel:
    """Base of the curvature profiles.

    Subclasses are frozen dataclasses that define ``ell``, ``ell_sup``,
    ``admissible_boundary`` where ell passes 2 ell(0) and, when their fields
    are not plain floats, the config round trip.  Those that are not flat
    supply their own psi root, and they override the generic q machinery and
    psi geometry where they have closed forms.
    Methods take arguments already known to be >= 0; the module-level
    functions check them.
    """

    kind: str

    def ell(self, s: float) -> float:
        raise NotImplementedError

    def ell_sup(self) -> float:
        """Supremum of ell over [0, inf)."""
        raise NotImplementedError

    @cached_property
    def admissible_boundary(self) -> float:
        """Largest delta with ell(8 sqrt(delta ell(0))) <= 2 ell(0), in closed
        form; infinite when ell never passes 2 ell(0)."""
        return math.inf

    def delta_head(self, r_bar: float, m_bar: float | None) -> float:
        """The profile's warm-start delta before any clipping: the
        admissibility boundary, capped by the gap term ell(0) r_bar^2 / 64."""
        return min(self.admissible_boundary, self.ell(0.0) * square(r_bar) / 64.0)

    @cached_property
    def delta_max(self) -> float:
        """Largest bound such that psi is strictly increasing on
        [0, delta_max); infinite unless the profile grows superquadratically."""
        return math.inf

    @cached_property
    def psi_sup(self) -> float:
        """Supremum of psi over [0, delta_max) (may be a limit, not attained)."""
        return math.inf if math.isinf(self.delta_max) else psi_eval(self, self.delta_max)

    def _psi_root(self, t: float) -> float | None:
        """The profile's own root of psi(x) = t, for 0 < t < psi_sup, or None
        where it has none.  Here the seed sqrt(2 ell(0) t): ell does not
        decrease, so psi(x) <= x^2 / (2 ell(0)) and the seed lies at or below
        the root, which it is wherever ell is flat on [0, 4 x]."""
        return math.sqrt(2.0 * self.ell(0.0) * t)

    def _q_between(self, s0: float, s1: float, a: float) -> tuple[float, float]:
        """q(s1; a) - q(s0; a) by ``quad``, with its error estimate.  From the
        origin, where s**rho is not smooth, v = y^2 integrates 2 y / ell(y^2),
        whose singularity is milder (and gone at rho = 1.5)."""
        if a + s0 == 0.0:
            return quad(lambda y: 2.0 * y / self.ell(y * y), 0.0, math.sqrt(s1))
        return quad(lambda v: 1.0 / self.ell(a + v), s0, s1)

    def q_max(self, a: float) -> float:
        return math.inf

    def q_inverse(self, r: float, a: float) -> float:
        """Newton from below on s -> q(s; a) (see ``NEWTON_MAX_ITER``); each
        step integrates only the increment from the last iterate.  The
        iterates stay below the root, so a step landing past r by more than
        rounding brackets the root, and bisection finishes inside that
        bracket, as it does above the last iterate when Newton stalls.  An
        iterate past the float range puts the root there too, and the
        answer reads inf."""
        s = q_s = 0.0
        for _ in range(NEWTON_MAX_ITER):
            step = (r - q_s) * self.ell(a + s)
            if s + step == math.inf:
                return math.inf
            if step <= 1e-15 * s:
                return s + step
            inc, err = self._q_between(s, s + step, a)
            while err > QUAD_REL_TOL * inc:
                # the quadrature missed its tolerance (a near-singular
                # profile close to s); a shorter step still stays below
                step *= 0.5
                inc, err = self._q_between(s, s + step, a)
            q_next = q_s + inc
            if q_next >= r:
                # within a few ulps of r the step has landed; past that the
                # quadrature overshot, and the root lies in [s, s + step]
                if q_next - r <= 4e-16 * r:
                    return s + step
                return self._q_bisect(r, a, s, q_s, s + step)
            s, q_s = s + step, q_next
        return self._q_bisect(r, a, s, q_s, None)

    def _q_bisect(self, r: float, a: float, lo: float, q_lo: float, hi: float | None) -> float:
        """Bisection for q(s; a) = r above ``lo``, where q is ``q_lo``.  With
        ``hi`` None the bracket doubles from ``lo`` first, so that no
        quadrature spans more than a factor of 2 in s; a root above the
        largest float reads inf."""
        if hi is None:
            hi = max(2.0 * lo, 1.0)
            while (q_hi := q_lo + self._q_between(lo, hi, a)[0]) < r:
                if hi == FLOAT_MAX:
                    return math.inf
                lo, q_lo, hi = hi, q_hi, min(2.0 * hi, FLOAT_MAX)
        return _bisect(lambda s: q_lo + self._q_between(lo, s, a)[0] < r, lo, hi)

    def to_config(self) -> dict:
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_config(cls, cfg: dict) -> "EllModel":
        return cls(**{f.name: require_number(cfg[f.name], f"ell field {f.name!r}")
                      for f in fields(cls)})


@dataclass(frozen=True)
class Constant(EllModel):
    """ell(s) = L."""

    L: float
    kind = "constant"

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ConfigurationError(f"Constant profile needs L > 0, got {self.L}")

    def ell(self, s: float) -> float:
        return self.L

    def ell_sup(self) -> float:
        return self.L

    def q_inverse(self, r: float, a: float) -> float:
        return r * self.L


@dataclass(frozen=True)
class Affine(EllModel):
    """ell(s) = L0 + L1 * s."""

    L0: float
    L1: float
    kind = "affine"

    def __post_init__(self):
        if not (self.L0 > 0 and math.isfinite(self.L0)):
            raise ConfigurationError(f"Affine profile needs L0 > 0, got {self.L0}")
        if not (self.L1 >= 0 and math.isfinite(self.L1)):
            raise ConfigurationError(f"Affine profile needs L1 >= 0, got {self.L1}")

    def ell(self, s: float) -> float:
        return self.L0 + self.L1 * s

    def ell_sup(self) -> float:
        return self.L0 if self.L1 == 0 else math.inf

    @cached_property
    def admissible_boundary(self) -> float:
        # ell(s) = 2 L0 at s = L0 / L1; 0.0 where L1^2 overflows, inf where
        # it is 0 (L1 = 0, or an underflow)
        l1_sq = square(self.L1)
        return self.L0 / (64.0 * l1_sq) if l1_sq else math.inf

    def _psi_root(self, t: float) -> float:
        # the positive root of x^2 - 8 L1 t x - 2 L0 t = 0, a sum of two
        # non-negative terms, so nothing cancels; it is inf where (4 L1 t)^2
        # overflows
        a = 4.0 * self.L1 * t
        return a + math.sqrt(a * a + 2.0 * self.L0 * t)

    def q_inverse(self, r: float, a: float) -> float:
        if self.L1 == 0:
            return r * self.L0
        # q_max is infinite, so every r is admissible; past the float
        # range the answer reads inf
        return _expm1_over(self.L0 + self.L1 * a, self.L1 * r, self.L1)


@dataclass(frozen=True)
class Power(EllModel):
    """ell(s) = L0 + L1 * s**rho."""

    rho: float
    L0: float
    L1: float
    kind = "power"

    def __post_init__(self):
        if not (self.rho >= 0 and math.isfinite(self.rho)):
            raise ConfigurationError(f"Power profile needs rho >= 0, got {self.rho}")
        if not (self.L0 > 0 and math.isfinite(self.L0)):
            raise ConfigurationError(f"Power profile needs L0 > 0, got {self.L0}")
        if not (self.L1 >= 0 and math.isfinite(self.L1)):
            raise ConfigurationError(f"Power profile needs L1 >= 0, got {self.L1}")

    def ell(self, s: float) -> float:
        try:
            return self.L0 + self.L1 * s**self.rho
        except OverflowError:
            # s**rho left the float range; L1 s**rho may not have
            e = math.log(self.L1) + self.rho * math.log(s) if self.L1 else -math.inf
            return self.L0 + _exp(e)

    @property
    def _flat(self) -> bool:
        # ell = L0 + L1 identically
        return self.L1 == 0 or self.rho == 0

    def ell_sup(self) -> float:
        return self.L0 + self.L1 if self._flat else math.inf

    @cached_property
    def admissible_boundary(self) -> float:
        """The head (L0 / L1)**(2 / rho) / L0 over 64: ell(s) = 2 L0 at
        s = (L0 / L1)**(1 / rho)."""
        if self._flat:
            return math.inf
        rho, L0, L1 = self.rho, self.L0, self.L1
        try:
            head = L0 ** (2.0 / rho - 1.0) / L1 ** (2.0 / rho)
        except (OverflowError, ZeroDivisionError):
            # a power left the float range; the ratio form may stay inside
            try:
                head = (L0 / L1) ** (2.0 / rho) / L0
            except OverflowError:
                head = math.inf
        return head / 64.0

    def delta_head(self, r_bar: float, m_bar: float | None) -> float:
        if self.rho <= 2:
            return super().delta_head(r_bar, m_bar)
        # the two-branch terms take the head itself, not a 64th of it; each
        # power takes its float limit, so L0 / L1^2 is 0.0 where the square
        # overflows and inf where it underflows
        L0, L1 = self.L0, self.L1
        l1_sq = square(L1)
        return min(64.0 * self.admissible_boundary, L0 / l1_sq if l1_sq else math.inf,
                   _power(1.0 / (2.0 * m_bar), self.rho - 2.0) / L1, L0 * square(r_bar))

    @cached_property
    def delta_max(self) -> float:
        """The exact stationary point of psi,
        ``(1/4) * (2 L0 / ((rho - 2) L1))**(1/rho)``, for rho > 2."""
        if self.rho <= 2 or self.L1 == 0:
            return math.inf
        return 0.25 * (2.0 * self.L0 / ((self.rho - 2.0) * self.L1)) ** (1.0 / self.rho)

    @cached_property
    def psi_sup(self) -> float:
        if self.rho == 2 and self.L1 > 0:
            # psi -> 1 / (32 L1) from below as x -> inf
            return 1.0 / (32.0 * self.L1)
        return super().psi_sup

    def _psi_root(self, t: float) -> float | None:
        if self._flat:
            return super()._psi_root(t)
        rho, L0, L1 = self.rho, self.L0, self.L1
        if rho == 2:
            # x^2 (1 - 32 L1 t) = 2 L0 t; the factor is above 0 for t < psi_sup
            # except where psi_sup, 1 / (32 L1) rounded, lies above the exact one
            d = 1.0 - 32.0 * L1 * t
            if d < 0.5:
                # the difference cancels after 32 L1 t was rounded; take it
                # exactly and round once
                d = float(1 - 32 * Fraction(L1) * Fraction(t))
            return math.sqrt(2.0 * L0 * t / d) if d > 0 else None
        # Newton on g(z) = log psi(e^z) - log t from the seed, which lies at or
        # below the root.  On psi's increasing branch
        # g' = 2 - rho L1 (4 x)^rho / ell(4 x) = 2 - rho (1 - L0 / ell(4 x))
        # is positive and falls, so g is concave and each step
        # x (t / psi(x))^(1 / g') stays at or below the root; ell(4 x) is read
        # back from psi as x^2 / (2 psi).  The residual is the ratio t / psi(x):
        # a difference of logs would lose |log t| ulps.  The iterates stop
        # where x no longer rises.  A long step, log(x1 / x0) = 99 from a seed
        # far below the root, rounds to about that many ulps, so where g is
        # near linear it can land above the root; the step back from there
        # lands at or below the root and is the last one (never below the
        # seed, which the root is not below).
        x = seed = math.sqrt(2.0 * L0 * t)
        for _ in range(NEWTON_MAX_ITER):
            psi = psi_eval(self, x)
            if not (psi > 0 and 0 < (ratio := t / psi) < math.inf):
                return None
            slope = 2.0 - rho * (1.0 - 2.0 * L0 * psi / (x * x))
            if not slope > 0:
                return None
            step = x * _power(ratio, 1.0 / slope)
            if not step > x:
                return max(step, seed)
            x = step
        return x

    def delta_right(self, delta: float) -> float:
        """Bisection on log psi over psi's falling tail, up to the root of
        its majorant x^(2 - rho) / (2 L1 4^rho), which brackets the crossing
        from above; inf where psi stays above delta at every float.  log psi
        is finite at every positive float, where psi itself overflows or
        reads 0 once x * x or 2 ell(4 x) passes the float range, so the root
        is bracketed and bisected in logarithms throughout."""
        rho, dmax = self.rho, self.delta_max
        log_delta = math.log(delta)
        log_hi = -(math.log(2.0 * self.L1) + log_delta + rho * math.log(4.0)) / (rho - 2.0)
        hi = max(math.exp(min(log_hi, LOG_FLOAT_MAX)), dmax * (1.0 + 1e-12))
        while self._log_psi(hi) > log_delta:
            # numerical guard: the majorant's root, taken in logs, can round
            # a few 1e-13 in log psi short of the crossing; grow until below,
            # up to the largest float
            if hi == FLOAT_MAX:
                return math.inf
            hi = min(2.0 * hi, FLOAT_MAX)
        return _bisect(lambda x: self._log_psi(x) > log_delta, dmax, hi)

    def _log_psi(self, x: float) -> float:
        """log psi(x) for x > 0, finite at every positive float x: the
        denominator's log L0 and log(L1 (4 x)^rho) are summed in logs."""
        a = math.log(self.L1) + self.rho * (math.log(4.0) + math.log(x))
        b = math.log(self.L0)
        return 2.0 * math.log(x) - math.log(2.0) - max(a, b) - math.log1p(math.exp(-abs(a - b)))

    def q_max(self, a: float) -> float:
        """In the unit u = s / x_s, where ell(x_s) = 2 L0, ell is L0 (1 + u^rho), so q_max(a) is
        x_s / L0 times the integral of 1 / (1 + u^rho) over [a / x_s, inf): the head up to
        b = max(a / x_s, 1), plus b^(1 - rho) times 1 / (rho - 1), the tail of u^-rho, less the
        integral of c k y / (1 + c y^(k rho)) over [0, 1], into which u = b y^(-k) maps
        1 / (u^rho (1 + u^rho)); k = 2 / (2 rho - 1) and c = b^-rho <= 1 keep that integrand
        bounded.  x_s, b and the scales are taken in logs, so an x_s that underflows or an
        a / x_s that overflows still gives the float q_max; an x_s that overflows is an
        ``OutOfRangeError``."""
        rho, L0, L1 = self.rho, self.L0, self.L1
        if L1 == 0 or rho <= 1:
            return math.inf
        if rho == 2:
            c = math.sqrt(self.L1 / self.L0)
            return (math.pi / 2.0 - math.atan(c * a)) / math.sqrt(self.L0 * self.L1)
        log_x_s = (math.log(L0) - math.log(L1)) / rho
        if log_x_s > LOG_FLOAT_MAX:
            raise OutOfRangeError(f"q_max of {self} needs (L0 / L1)^(1 / rho) in float range")
        log_a = math.log(a) - log_x_s if a > 0 else -math.inf
        log_b, log_scale = max(log_a, 0.0), log_x_s - math.log(L0)
        c, k = math.exp(-rho * log_b), 2.0 / (2.0 * rho - 1.0)
        less = quad(lambda y: c * k * y / (1.0 + c * y ** (k * rho)), 0.0, 1.0)[0]
        tail = _exp(log_scale + (1.0 - rho) * log_b) * (1.0 / (rho - 1.0) - less)
        if log_a >= 0:
            return tail
        head = quad(lambda u: 1.0 / (1.0 + u**rho), math.exp(log_a), 1.0)[0]
        return _exp(log_scale) * head + tail

    def q_inverse(self, r: float, a: float) -> float:
        if self.rho == 2 and self.L1 > 0:
            c = math.sqrt(self.L1 / self.L0)
            ang = r * math.sqrt(self.L0 * self.L1) + math.atan(c * a)
            return math.tan(ang) / c - a
        if self._flat:
            return r * (self.L0 + self.L1)
        return super().q_inverse(r, a)


@dataclass(frozen=True)
class CustomMonotone(EllModel):
    """Piecewise-linear profile through ``points``, constant beyond the last.

    Breakpoints must start at s = 0, be strictly increasing in s and
    non-decreasing in ell(s), with every ell value positive.  Constant
    extrapolation keeps the profile bounded, so ``q_max`` is always
    infinite for this variant.  On a segment ``ell(4 x) = b + 4 m x``, so
    psi' has the sign of ``b + 2 m x``; that grows along the segment, which
    puts the psi geometry in closed form.  The q budget is exact too: a
    segment of length x starting at ell = e spends ``log1p(m x / e) / m``.
    """

    points: tuple[tuple[float, float], ...]
    kind = "custom"

    def __post_init__(self):
        points = self.points
        if not (isinstance(points, (list, tuple)) and all(
                isinstance(p, (list, tuple)) and len(p) == 2 for p in points)):
            raise ConfigurationError(
                f"CustomMonotone points must be [s, ell(s)] pairs, got {points!r}"
            )
        pts = tuple((require_number(s, "breakpoint s"), require_number(v, "breakpoint ell(s)"))
                    for s, v in points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 1:
            raise ConfigurationError("CustomMonotone needs at least one breakpoint")
        if pts[0][0] != 0.0:
            raise ConfigurationError("CustomMonotone breakpoints must start at s = 0")
        for (s0, v0), (s1, v1) in zip(pts, pts[1:]):
            if not s1 > s0:
                raise ConfigurationError("breakpoints must be strictly increasing in s")
            if v1 < v0:
                raise ConfigurationError("breakpoint values must be non-decreasing")
        if any(not (v > 0 and math.isfinite(v)) for _, v in pts):
            raise ConfigurationError("breakpoint values must be positive and finite")

    def ell(self, s: float) -> float:
        pts = self.points
        if s >= pts[-1][0]:
            return pts[-1][1]
        # linear interpolation within the bracketing segment
        hi = bisect_right(pts, s, key=lambda p: p[0])
        (s0, v0), (s1, v1) = pts[hi - 1], pts[hi]
        return v0 + (v1 - v0) * (s - s0) / (s1 - s0)

    def ell_sup(self) -> float:
        return self.points[-1][1]

    @cached_property
    def admissible_boundary(self) -> float:
        """From the point s* where the first segment ending above 2 ell(0)
        crosses it: (s* / 8)^2 / ell(0) in exact arithmetic, rounded down to
        the largest float at or below it, so that the boundary is admissible
        in exact arithmetic too."""
        l0 = self.ell(0.0)
        for (s0, v0), (s1, v1) in zip(self.points, self.points[1:]):
            if v1 > 2.0 * l0:
                s0, v0, s1, v1, l0 = map(Fraction, (s0, v0, s1, v1, l0))
                s_star = s0 + (2 * l0 - v0) * (s1 - s0) / (v1 - v0)
                exact = min((s_star / 8) ** 2 / l0, Fraction(FLOAT_MAX))
                delta = float(exact)
                return math.nextafter(delta, 0.0) if delta > exact else delta
        return math.inf

    @cached_property
    def _segments(self) -> tuple[tuple[float, float, float, float], ...]:
        """``(x0, x1, b, m)`` of each segment, in psi's argument x = s / 4:
        ``ell(s) = b + m s`` on [4 x0, 4 x1]."""
        segments = []
        for (s0, v0), (s1, v1) in zip(self.points, self.points[1:]):
            m = (v1 - v0) / (s1 - s0)
            segments.append((s0 / 4.0, s1 / 4.0, v0 - m * s0, m))
        return tuple(segments)

    def _falling_starts(self):
        """The segments on which psi falls at x0: ``b + 2 m x0 < 0``."""
        return ((x0, x1, b, m) for x0, x1, b, m in self._segments if b + 2.0 * m * x0 < 0)

    def _psi_root(self, t: float) -> float:
        # psi = t is x^2 - 8 m t x - 2 b t = 0 on a segment.  The segment that
        # holds the root is the first whose end x1 has psi(x1) >= t, that is,
        # whose larger root is at most x1; the smaller root lies on psi's falling
        # part where b < 0.  Past the last breakpoint ell is constant.
        for _, x1, b, m in self._segments:
            a = 4.0 * m * t
            disc = a * a + 2.0 * b * t
            if disc >= 0 and (x := a + math.sqrt(disc)) <= x1:
                return x
        return math.sqrt(2.0 * self.points[-1][1] * t)

    @cached_property
    def delta_max(self) -> float:
        """The first breakpoint (over 4) at which psi starts to fall; psi is
        increasing beyond the last breakpoint, where ell is constant."""
        return next((x0 for x0, _, _, _ in self._falling_starts()), math.inf)

    def delta_right(self, delta: float) -> float:
        # Where psi falls from above delta, the crossing is the smaller root
        # of x^2 - 8 delta m x - 2 delta b = 0, taken in the form that does
        # not cancel when b << 0; a segment where psi rises from above delta
        # stays above it.
        for x0, x1, b, m in self._falling_starts():
            disc = (4.0 * delta * m) ** 2 + 2.0 * delta * b
            if disc < 0:
                continue  # the segment's minimum of psi is above delta
            root = -2.0 * delta * b / (4.0 * delta * m + math.sqrt(disc))
            if root <= x1:
                return max(root, x0)
        return math.inf

    def _pieces(self, a: float):
        """``(length, ell_start, m)`` of each linear piece of ell on [a, inf),
        in order; the last is the constant tail, of infinite length."""
        for (s0, v0), (s1, v1) in zip(self.points, self.points[1:]):
            if s1 > a:
                m = (v1 - v0) / (s1 - s0)
                start = max(a, s0)
                yield s1 - start, v0 + m * (start - s0), m
        yield math.inf, self.points[-1][1], 0.0

    def q_inverse(self, r: float, a: float) -> float:
        s = 0.0
        for length, e, m in self._pieces(a):
            spend = length / e if m == 0 else math.log1p(m * length / e) / m
            if spend >= r:
                return s + (r * e if m == 0 else _expm1_over(e, m * r, m))
            s += length
            r -= spend

    def to_config(self) -> dict:
        return {"kind": self.kind, "points": [[s, v] for s, v in self.points]}

    @classmethod
    def from_config(cls, cfg: dict) -> "CustomMonotone":
        return cls(points=cfg["points"])


_KINDS = {cls.kind: cls for cls in (Constant, Affine, Power, CustomMonotone)}


def ell_eval(model: EllModel, s: float) -> float:
    """Evaluate the curvature profile at gradient norm ``s >= 0``."""
    if s < 0 or math.isnan(s):
        raise DomainError(f"ell is defined for s >= 0, got {s}")
    return model.ell(s)


def psi_eval(model: EllModel, x: float) -> float:
    """Gap-to-gradient conversion curve psi(x) = x^2 / (2 ell(4 x))."""
    if x < 0 or math.isnan(x):
        raise DomainError(f"psi is defined for x >= 0, got {x}")
    return x * x / (2.0 * model.ell(4.0 * x))


def psi_inverse(model: EllModel, t: float) -> float:
    """Invert psi on its increasing branch: x in [0, delta_max] with
    psi(x) = t, for 0 <= t < sup psi.

    The profile's own root (``_psi_root``: the seed sqrt(2 ell(0) t) on a flat
    profile, affine and quadratic power in closed form, per segment for a
    piecewise-linear profile, Newton from below for any other power) is kept
    where it is finite and psi at it reads t to within
    ``CLOSED_FORM_RESIDUAL`` relative, which one psi evaluation checks;
    otherwise ``_psi_bisect`` answers.  Either is within a few ulps of the
    exact root where psi is well-conditioned and computed from normal floats.
    Where psi is flat in floats, as near a bounded psi's supremum, the
    bisection closes on the x where psi turns from below t to t or above,
    which can lie far from the root; a t at which 2 ell(0) t or x * x is
    subnormal lies outside the contract (``Affine(1e-12, 1e12)``, t in
    [1e-300, 1e-290]); only a t within rounding of sup psi returns delta_max
    itself.  A t that psi reaches only where x * x overflows, and a NaN psi
    met in the bisection, are an ``OutOfRangeError``.
    """
    if t < 0 or math.isnan(t):
        raise DomainError(f"psi_inverse needs t >= 0, got {t}")
    if t >= model.psi_sup:
        raise OutOfRangeError(
            f"t = {t} is not below sup psi = {model.psi_sup}; "
            "use delta_left_right for the two-branch geometry"
        )
    if t == 0.0:
        return 0.0
    x = model._psi_root(t)
    if x is not None and math.isfinite(x) and (
            abs(psi_eval(model, x) - t) <= CLOSED_FORM_RESIDUAL * t):
        return x
    return _psi_bisect(model, t)


def _psi_bisect(model: EllModel, t: float) -> float:
    """``psi_inverse``'s fallback where the profile's root was refused: the
    bracket's lower end is the seed sqrt(2 ell(0) t), which lies at or below
    the root, and its upper end doubles from twice the seed (capped at
    delta_max), with psi evaluated at each, until psi reaches t; ``_bisect``
    then halves it until it is 4e-16 wide relative."""
    dmax = model.delta_max
    lo = math.sqrt(2.0 * model.ell(0.0) * t)
    if lo >= dmax:
        # the root lies at or below delta_max, so only rounding (a t
        # within an ulp of psi_sup) puts the seed here
        lo, hi = 0.0, dmax
    else:
        # a seed that underflowed to 0 doubles from the least subnormal;
        # psi reads inf or NaN where x * x overflows (past x ~ 1.3e154),
        # and the doublings go on until hi reaches delta_max or inf
        hi = min(2.0 * lo or math.ulp(0.0), dmax)
        while hi < dmax and not t <= psi_eval(model, hi) < math.inf:
            lo, hi = hi, min(2.0 * hi, dmax)
    if math.isinf(hi):
        raise OutOfRangeError(f"t = {t} is beyond the levels psi reaches in float range")

    def below(x: float) -> bool:
        psi = psi_eval(model, x)
        if math.isnan(psi):
            raise OutOfRangeError(f"psi_inverse({t}) found no root in [{lo}, {hi}]: "
                                  f"psi is NaN at {x}")
        return psi < t

    return _bisect(below, lo, hi)


def delta_left_right(model: EllModel, delta: float) -> tuple[float, float]:
    """Both crossings of psi with level ``delta``.

    The left root is the unique solution in [0, delta_max); the right root
    is the smallest solution in [delta_max, inf), or inf when psi stays
    above delta on a divergence-certified tail or at every float past
    delta_max.
    """
    if delta < 0 or math.isnan(delta):
        raise DomainError(f"delta must be >= 0, got {delta}")
    if delta >= model.psi_sup:
        raise OutOfRangeError(f"delta = {delta} is not below sup psi = {model.psi_sup}")
    left = psi_inverse(model, delta)
    if math.isinf(model.delta_max) or delta == 0.0:
        # psi increases everywhere, or meets the level 0 only at the origin
        return left, math.inf
    return left, model.delta_right(delta)


def q_max(model: EllModel, a: float) -> float:
    """Total budget q_max(a) = int_0^inf dv / ell(a + v); inf unless the
    profile grows superlinearly."""
    if a < 0 or math.isnan(a):
        raise DomainError(f"q_max needs a >= 0, got {a}")
    return model.q_max(a)


def q_inverse(model: EllModel, r: float, a: float) -> float:
    """Inverse of q with respect to s: the step length that spends budget r.

    Closed forms for the profiles where q has one; a general power profile
    runs Newton from below on the increasing concave map s -> q(s; a), one
    increment quadrature per step, with a bisection fallback.
    """
    if r < 0 or a < 0 or math.isnan(r) or math.isnan(a):
        raise DomainError(f"q_inverse needs r, a >= 0, got r={r}, a={a}")
    qm = q_max(model, a)
    if r >= qm:
        raise OutOfRangeError(f"r = {r} is not below q_max(a) = {qm}")
    if r == 0.0:
        return 0.0
    return model.q_inverse(r, a)


# --- warm-start delta policy -------------------------------------------------

def warm_start_refusal(model: EllModel, delta: float, m_bar: float | None) -> str:
    """Why ``delta`` cannot seed the warm start ("" if it can); the one
    statement of the two-branch geometry that ``select_delta`` obeys.  On
    both branches the small-curvature condition ell(8 sqrt(delta ell(0)))
    <= 2 ell(0) reads ``delta <= model.admissible_boundary``, its closed form."""
    if not delta > 0:
        return f"resolved delta {delta} is not positive"
    if not math.isfinite(model.delta_max):
        if delta <= model.admissible_boundary:
            return ""
        return f"delta {delta} fails the admissibility check"
    if delta > model.psi_sup / 2.0:
        return f"delta {delta} exceeds half the peak of psi"
    # below half the peak of psi, the small-curvature condition
    # ell(4 delta_left) <= 2 ell(0) is delta <= psi(s* / 4), where
    # ell(s*) = 2 ell(0): the admissibility boundary.  Where s* / 4 lies past
    # delta_max, psi(s* / 4) is above half the peak and every delta here passes
    if delta > model.admissible_boundary:
        return "delta violates the small-curvature branch condition"
    if m_bar is None:
        return "superquadratic profile needs m_bar (gradient bound on the 2*r_bar ball)"
    right = model.delta_right(delta)
    if right < 2.0 * m_bar:
        return f"right crossing {right} is below 2*m_bar = {2 * m_bar}"
    return ""


def select_delta(model: EllModel, r_bar: float, m_bar: float | None = None) -> float:
    """Warm-start gap target for the given profile.

    Constant-like profiles (bounded by 2 ell(0) everywhere) admit every
    delta; the infinite sentinel tells the caller to skip the warm start.
    Otherwise the profile's ``delta_head``, capped at half the peak of psi,
    is halved until ``warm_start_refusal`` passes.  A monotone psi keeps
    its head, which lies at or below the admissibility boundary; the halving
    serves a non-monotone psi, whose head can fail the right-crossing
    condition, and which also needs ``m_bar``, an upper bound on the
    gradient norm over the ball of radius 2 r_bar around the optimum.  An
    r_bar whose square is not positive in floats is a configuration error.
    """
    if not square(r_bar) > 0:
        raise ConfigurationError(f"r_bar^2 must be a positive float (r_bar = {r_bar})")
    if model.ell_sup() <= 2.0 * model.ell(0.0):
        return math.inf
    if math.isfinite(model.delta_max) and m_bar is None:
        raise ConfigurationError(
            "this profile has a non-monotone psi; m_bar (gradient bound on the "
            "2*r_bar ball) is required to select delta"
        )
    delta = min(model.delta_head(r_bar, m_bar), model.psi_sup / 2.0)
    if not delta > 0:
        raise PreconditionError(f"the warm-start head delta = {delta} is not > 0")
    for _ in range(200):
        if not warm_start_refusal(model, delta, m_bar):
            return delta
        delta *= 0.5
    raise PreconditionError(
        "could not find a delta satisfying the two-branch geometry conditions"
    )


# --- serialization ---------------------------------------------------------

def model_from_config(cfg: dict) -> EllModel:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigurationError(f"ell model config needs a 'kind' field: {cfg!r}")
    kind = cfg["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"unknown ell model kind {kind!r}")
    unknown = sorted(set(cfg) - {"kind"} - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"ell model kind {kind!r} has no field(s) {unknown}")
    try:
        return cls.from_config(cfg)
    except KeyError as exc:
        raise ConfigurationError(f"ell model config missing field {exc} for kind {kind!r}")
