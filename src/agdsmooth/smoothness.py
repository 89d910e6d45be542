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
Algorithm 1's warm start admits, in closed form.  The base holds the psi
inverse that every profile uses (Brent's method from the seed
``sqrt(2 ell(0) t)``, which lies at or below the root and is the root on a
flat head, in a doubling bracket that jumps past every upper end below
``x sqrt(t / psi(x))`` of the last point x it evaluated, a bound on the root
because psi(x) / x^2 does not increase; the package's own Brent, a port of
SciPy's ``brentq`` that returns its bits, starts from the psi values the
bracket already has), the generic quadrature, the Newton q inverse and the
bisection behind its fallback and the right crossing; the module-level
functions validate their arguments and dispatch to the model, and
``warm_start_refusal`` states which delta Algorithm 1's warm start accepts.
The quadrature is ``quad``, SciPy's, imported on its first call: only a
general power profile's q inverse and limit and ``verify``'s convexity
integral integrate, so the package and its solvers load no SciPy.
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

# psi inverse.  The seed sqrt(2 ell(0) t) squares back to t within 2.5 ulps
# (four roundings), so a psi(seed) that short of t is a flat head's root.
# The package's Brent (``_brent``, a port of SciPy's brentq.c) stops on a
# bracket 4 ulps wide relative to the root, the tightest rtol brentq
# accepts; the absolute xtol only matters for subnormal roots.  Its
# iterations stay far below the cap: the bracket spans a factor of 2, and
# Brent falls back to bisection (52 halvings to 4 ulps) when interpolation
# does not shrink it.
SEED_ROUNDING = 4.0 * sys.float_info.epsilon
# The bracket's jump floor h sqrt(t / psi(h)) is shrunk by JUMP_SLACK, which
# covers psi's few roundings at both points many times over; a psi(h) or an
# h * h below NORMAL_MIN has lost that precision and sets no floor.
JUMP_SLACK = 1e-12
NORMAL_MIN = sys.float_info.min
FLOAT_MAX = sys.float_info.max
LOG_FLOAT_MAX = math.log(FLOAT_MAX)
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_XTOL = math.ulp(0.0)
BRENT_MAX_ITER = 200

# q(s; a) is increasing and concave in s because 1/ell does not increase, so
# its tangent at s lies above it and the Newton step
# s + (r - q(s)) * ell(a + s) never passes the root of q = r.  Newton from
# below therefore needs no line search; a rounding overshoot or a stall
# hands the bracket to bisection.
NEWTON_MAX_ITER = 50

# SciPy's quad, bound by the first call of ``quad``.
_scipy_quad = None


def quad(func, a: float, b: float, full_output: int = 0):
    """SciPy's ``quad`` of ``func`` over [a, b] at ``QUAD_REL_TOL`` relative
    and no absolute tolerance, imported on the first call and bound once."""
    global _scipy_quad
    if _scipy_quad is None:
        from scipy.integrate import quad as _scipy_quad
    return _scipy_quad(func, a, b, full_output=full_output,
                       epsabs=0.0, epsrel=QUAD_REL_TOL, limit=200)


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


def _no_root(t: float, lo: float, hi: float, why: str) -> OutOfRangeError:
    return OutOfRangeError(f"psi_inverse({t}) found no root in [{lo}, {hi}]: {why}")


def _brent(model: EllModel, t: float, lo: float, hi: float,
           f_lo: float | None, f_hi: float | None) -> float:
    """Brent's method for psi(x) = t on ``[lo, hi]``, where ``f_lo`` and
    ``f_hi`` are psi - t at the ends, or None where psi was not evaluated.

    A line-for-line port of SciPy's ``brentq.c``: the same tolerance
    ``delta``, interpolation and extrapolation steps and bisection fallback,
    in the same arithmetic order, so on a deterministic psi it returns the
    bits ``brentq`` returns.  It evaluates psi only at the ends that have no
    value and at its iterates.  A NaN, ends of one sign or no convergence
    is an ``OutOfRangeError``, as each is a ``ValueError`` or
    ``RuntimeError`` there.
    """
    # locals for the loop; psi_eval is looked up once per call, so a
    # wrapper bound to the module name still sees every evaluation
    psi, xtol, rtol = psi_eval, BRENT_XTOL, BRENT_RTOL
    if f_lo is None:
        f_lo = psi(model, lo) - t
    if f_hi is None:
        f_hi = psi(model, hi) - t
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise _no_root(t, lo, hi, "psi is NaN at an end")
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise _no_root(t, lo, hi, "psi - t has one sign at both ends")
    xpre, fpre, xcur, fcur = lo, f_lo, hi, f_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where Python raises on a division by 0 (a
                # slope that underflows to 0), C's step is an inf or NaN,
                # which the test below rejects
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = psi(model, xcur) - t
        if math.isnan(fcur):
            raise _no_root(t, lo, hi, f"psi is NaN at {xcur}")
    raise _no_root(t, lo, hi, f"no convergence in {BRENT_MAX_ITER} iterations")


class EllModel:
    """Base of the curvature profiles.

    Subclasses are frozen dataclasses that define ``ell``, ``ell_sup``,
    ``admissible_boundary`` where ell passes 2 ell(0) and, when their fields
    are not plain floats, the config round trip.  They override the generic
    psi inverse, q machinery and psi geometry where they have closed forms.
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
        return min(self.admissible_boundary, self.ell(0.0) * r_bar**2 / 64.0)

    @cached_property
    def delta_max(self) -> float:
        """Largest bound such that psi is strictly increasing on
        [0, delta_max); infinite unless the profile grows superquadratically."""
        return math.inf

    @cached_property
    def psi_sup(self) -> float:
        """Supremum of psi over [0, delta_max) (may be a limit, not attained)."""
        return math.inf if math.isinf(self.delta_max) else psi_eval(self, self.delta_max)

    def psi_inverse(self, t: float) -> float:
        """Brent's method on the increasing branch of psi, for 0 < t < psi_sup.

        ell does not decrease, so psi(x) <= x^2 / (2 ell(0)) and the seed
        ``x0 = sqrt(2 ell(0) t)`` lies at or below the root.  Where psi(x0)
        reaches t up to the seed's rounding, ell is flat on [0, 4 x0] and x0
        is the root; otherwise the upper end doubles from 2 x0 (capped at
        delta_max) until psi reaches t, and ``_brent`` solves psi(x) = t
        inside that bracket to 4 ulps.  psi(x) / x^2 does not increase
        either, so each evaluated psi(h) < t puts the root at or above
        ``h sqrt(t / psi(h))``; the upper ends below that floor (less
        ``JUMP_SLACK``) are doubled past without evaluating psi, which ends
        on the bracket that evaluating each would reach.  ``_brent`` takes
        psi at the ends the bracket evaluated (the upper end, and the lower
        one unless it was jumped to) and evaluates only the others, so it
        returns the root SciPy's ``brentq`` returns, with two fewer psi
        evaluations in the usual case.
        """
        dmax = self.delta_max
        lo = math.sqrt(2.0 * self.ell(0.0) * t)
        if lo >= dmax:
            # the root lies at or below delta_max, so only rounding (a t
            # within an ulp of psi_sup) puts x0 here
            lo, hi, f_lo, f_hi = 0.0, dmax, None, None
        elif (p := psi_eval(self, lo)) >= t * (1.0 - SEED_ROUNDING):
            return lo
        else:
            hi = lo
            while True:
                # psi(hi) = p is below t, or inf or NaN where x * x overflows
                # (past x ~ 1.3e154); only a p computed from normal floats
                # sets a floor.  sqrt(t) / sqrt(p) stays finite where t / p
                # would overflow.  The floor lies below the root, so the cap
                # at dmax only guards rounding, and the doublings past it
                # overshoot dmax at most once
                floor = 0.0
                if NORMAL_MIN <= p < math.inf and hi * hi >= NORMAL_MIN:
                    floor = min(hi * (math.sqrt(t) / math.sqrt(p)) * (1.0 - JUMP_SLACK), dmax)
                # a seed that underflowed to 0 doubles from the least
                # subnormal; a lower end jumped to has no psi value
                f_lo = p - t
                lo, hi = hi, 2.0 * hi or math.ulp(0.0)
                while hi < floor:
                    lo, hi, f_lo = hi, 2.0 * hi, None
                if hi >= dmax:
                    hi, f_hi = dmax, None
                    break
                if t <= (p := psi_eval(self, hi)) < math.inf:
                    f_hi = p - t
                    break
        if math.isinf(hi):
            raise OutOfRangeError(f"t = {t} is beyond the levels psi reaches in float range")
        return _brent(self, t, lo, hi, f_lo, f_hi)

    def _q_between(self, s0: float, s1: float, a: float) -> tuple[float, float]:
        """q(s1; a) - q(s0; a) by adaptive quadrature at 1e-10 relative, with
        the quadrature's error estimate.  ``full_output`` keeps a missed
        tolerance out of the warnings; ``q_inverse`` checks the estimate."""
        return quad(lambda v: 1.0 / self.ell(a + v), s0, s1, full_output=1)[:2]

    def q_max(self, a: float) -> float:
        return math.inf

    def q_inverse(self, r: float, a: float) -> float:
        """Newton from below on s -> q(s; a) (see ``NEWTON_MAX_ITER``); each
        step integrates only the increment from the last iterate.  The
        iterates stay below the root, so a step landing past r by more than
        rounding brackets the root, and bisection finishes inside that
        bracket, as it does above the last iterate when Newton stalls."""
        s = q_s = 0.0
        for _ in range(NEWTON_MAX_ITER):
            step = (r - q_s) * self.ell(a + s)
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
        quadrature spans more than a factor of 2 in s."""
        if hi is None:
            hi = max(2.0 * lo, 1.0)
            while (q_hi := q_lo + self._q_between(lo, hi, a)[0]) < r:
                lo, q_lo, hi = hi, q_hi, 2.0 * hi
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
        # ell(s) = 2 L0 at s = L0 / L1
        return math.inf if self.L1 == 0 else self.L0 / (64.0 * self.L1**2)

    def q_inverse(self, r: float, a: float) -> float:
        if self.L1 == 0:
            return r * self.L0
        base = self.L0 + self.L1 * a
        return base * math.expm1(self.L1 * r) / self.L1


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
            return self.L0 if self.L1 == 0 else math.inf

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
        # the two-branch terms take the head itself, not a 64th of it
        L0, L1 = self.L0, self.L1
        return min(64.0 * self.admissible_boundary, L0 / L1**2,
                   (1.0 / (2.0 * m_bar)) ** (self.rho - 2.0) / L1, L0 * r_bar**2)

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
        if self.L1 == 0 or self.rho <= 1:
            return math.inf
        if self.rho == 2:
            c = math.sqrt(self.L1 / self.L0)
            return (math.pi / 2.0 - math.atan(c * a)) / math.sqrt(self.L0 * self.L1)
        return self._q_between(0.0, math.inf, a)[0]

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
        crosses it: (s* / 8)^2 / ell(0) in exact arithmetic, rounded down so
        that the boundary is admissible in exact arithmetic too, then stepped
        down by ulps until ``admissible_delta`` accepts it, which its
        roundings can refuse."""
        l0 = self.ell(0.0)
        for (s0, v0), (s1, v1) in zip(self.points, self.points[1:]):
            if v1 > 2.0 * l0:
                s0, v0, s1, v1, l0 = map(Fraction, (s0, v0, s1, v1, l0))
                s_star = s0 + (2 * l0 - v0) * (s1 - s0) / (v1 - v0)
                exact = min((s_star / 8) ** 2 / l0, Fraction(FLOAT_MAX))
                delta = float(exact)
                if delta > exact:
                    delta = math.nextafter(delta, 0.0)
                while not admissible_delta(self, delta):
                    delta = math.nextafter(delta, 0.0)
                return delta
        return math.inf

    def _falling_starts(self):
        """``(x0, x1, b, m)`` of each segment, in psi's argument x = s / 4,
        on which psi falls at x0: ``ell(s) = b + m s`` and ``b + 2 m x0 < 0``."""
        for (s0, v0), (s1, v1) in zip(self.points, self.points[1:]):
            m = (v1 - v0) / (s1 - s0)
            b = v0 - m * s0
            if b + 2.0 * m * (s0 / 4.0) < 0:
                yield s0 / 4.0, s1 / 4.0, b, m

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
                return s + (r * e if m == 0 else e * math.expm1(m * r) / m)
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
    """Invert psi on its increasing branch.

    Returns x in [0, delta_max] with psi(x) = t: the seed sqrt(2 ell(0) t)
    on a flat head, else Brent's root, within 4 ulps of x; only a t within
    rounding of sup psi returns delta_max itself.  A t that psi reaches
    only where x * x overflows is an ``OutOfRangeError``.
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
    return model.psi_inverse(t)


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


def admissible_delta(model: EllModel, delta: float) -> bool:
    """Warm-start admissibility: ell(8 sqrt(delta ell(0))) <= 2 ell(0).

    Equality is accepted (the condition is non-strict).  A delta passing
    this check keeps the post-warm-start iterates inside the region where
    the local smoothness constant is at most twice its base value.
    """
    if delta < 0 or math.isnan(delta):
        raise DomainError(f"delta must be >= 0, got {delta}")
    l0 = ell_eval(model, 0.0)
    if math.isinf(delta):
        # admissible only if ell is bounded by 2 ell(0) everywhere
        return model.ell_sup() <= 2.0 * l0
    return ell_eval(model, 8.0 * math.sqrt(delta * l0)) <= 2.0 * l0


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
    statement of the two-branch geometry that ``select_delta`` obeys."""
    if not delta > 0:
        return f"resolved delta {delta} is not positive"
    if not math.isfinite(model.delta_max):
        if admissible_delta(model, delta):
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
    is halved until ``warm_start_refusal`` passes: a head on the edge of
    admissibility can fail it by a rounding.  A non-monotone psi also needs
    ``m_bar``, an upper bound on the gradient norm over the ball of radius
    2 r_bar around the optimum.
    """
    if not r_bar > 0:
        raise PreconditionError("r_bar must be positive")
    if admissible_delta(model, math.inf):
        return math.inf
    if math.isfinite(model.delta_max) and m_bar is None:
        raise ConfigurationError(
            "this profile has a non-monotone psi; m_bar (gradient bound on the "
            "2*r_bar ball) is required to select delta"
        )
    delta = min(model.delta_head(r_bar, m_bar), model.psi_sup / 2.0)
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
    try:
        return cls.from_config(cfg)
    except KeyError as exc:
        raise ConfigurationError(f"ell model config missing field {exc} for kind {kind!r}")
