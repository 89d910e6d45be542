"""Unit and property tests for the curvature-profile machinery."""

import math
import sys
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from agdsmooth import (
    Affine,
    Constant,
    CustomMonotone,
    DomainError,
    EllModel,
    OutOfRangeError,
    ConfigurationError,
    Power,
    admissible_delta,
    delta_left_right,
    ell_eval,
    model_from_config,
    psi_eval,
    psi_inverse,
    q_inverse,
    q_max,
)
from agdsmooth import smoothness

# A custom profile whose psi dips: the middle segment is steep enough that
# its backward-extrapolated intercept is negative, so psi turns over exactly
# at the segment edge s/4 = 0.25.
DIPPING_CUSTOM = CustomMonotone(points=((0.0, 1.0), (1.0, 1.0), (2.0, 100.0), (100.0, 100.0)))

MODELS = [
    Constant(L=2.0),
    Affine(L0=1.0, L1=1.0),
    Affine(L0=4.0, L1=0.25),
    Power(rho=1.5, L0=1.0, L1=2.0),
    Power(rho=2.0, L0=1.0, L1=1.0),
    Power(rho=3.0, L0=1.0, L1=1.0),
    DIPPING_CUSTOM,
    # flat profiles, which take the closed forms of a constant
    Affine(L0=3.0, L1=0.0),
    Power(rho=3.0, L0=2.0, L1=0.0),
    Power(rho=0.0, L0=1.0, L1=1.0),
]


@st.composite
def piecewise_linear_profiles(draw):
    """Monotone piecewise-linear profiles; steep rises make psi dip."""
    n = draw(st.integers(min_value=1, max_value=5))
    widths = draw(st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=n, max_size=n))
    rises = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0)),
                          min_size=n, max_size=n))
    s, v = 0.0, draw(st.floats(min_value=0.1, max_value=5.0))
    points = [(s, v)]
    for width, rise in zip(widths, rises):
        s, v = s + width, v + rise
        points.append((s, v))
    return CustomMonotone(points=tuple(points))


def general_powers():
    """Power profiles without a closed-form q: rho in (0, 4], rho != 2."""
    return st.builds(
        Power,
        rho=st.floats(min_value=0.0, max_value=4.0, exclude_min=True).filter(lambda x: x != 2.0),
        L0=st.floats(min_value=0.1, max_value=10.0),
        L1=st.floats(min_value=0.1, max_value=10.0),
    )


def models_strategy():
    pos = st.floats(min_value=1e-3, max_value=1e3)
    return st.one_of(
        st.builds(Constant, L=pos),
        st.builds(Affine, L0=pos, L1=st.floats(min_value=0.0, max_value=1e3)),
        st.builds(Power, rho=st.floats(min_value=0.0, max_value=4.0), L0=pos, L1=pos),
        st.just(DIPPING_CUSTOM),
    )


class TestEllEval:
    def test_affine(self):
        assert ell_eval(Affine(1, 1), 3) == 4

    def test_constant_ignores_s(self):
        assert ell_eval(Constant(2), 1e6) == 2

    def test_power_by_hand(self):
        assert ell_eval(Power(3, 1, 1), 2) == 1 + 2**3

    def test_flat_power_supremum(self):
        # rho = 0: ell = L0 + L1 everywhere
        model = Power(0, 1, 2)
        assert model.ell_sup() == 3.0 == ell_eval(model, 5.0)

    def test_custom_interpolates(self):
        assert ell_eval(DIPPING_CUSTOM, 1.5) == pytest.approx(50.5)
        assert ell_eval(DIPPING_CUSTOM, 500.0) == 100.0  # constant extrapolation

    def test_negative_s_rejected(self):
        with pytest.raises(DomainError):
            ell_eval(Affine(1, 1), -0.1)

    @settings(max_examples=200, deadline=None)
    @given(models_strategy(), st.floats(min_value=0, max_value=1e6),
           st.floats(min_value=0, max_value=1e6))
    def test_monotone_nondecreasing(self, model, s1, s2):
        lo, hi = sorted((s1, s2))
        assert ell_eval(model, lo) <= ell_eval(model, hi) * (1 + 1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            Constant(L=0.0)
        with pytest.raises(ConfigurationError):
            Affine(L0=-1.0, L1=1.0)
        with pytest.raises(ConfigurationError):
            CustomMonotone(points=((0.0, 1.0), (1.0, 0.5)))  # decreasing value
        with pytest.raises(ConfigurationError):
            CustomMonotone(points=((1.0, 1.0),))  # must start at s=0

    def test_power_overflow_is_an_unbounded_profile(self):
        # s**rho past the float range: ell is inf, or L0 on a flat claim
        assert ell_eval(Power(3, 0.5, 1), 1e200) == math.inf
        assert ell_eval(Power(3, 0.5, 0), 1e200) == 0.5


class TestPsi:
    def test_constant_by_hand(self):
        assert psi_eval(Constant(2), 2) == pytest.approx(1.0)

    def test_affine_by_hand(self):
        assert psi_eval(Affine(1, 1), 2) == pytest.approx(2 / 9)

    def test_power_peak_value_against_grid_scan(self):
        # oracle: dense scan of psi locates the same peak as the closed form
        model = Power(3, 1, 1)
        xs = np.linspace(0, 1, 200001)
        vals = xs**2 / (2 * (1 + (4 * xs) ** 3))
        i = int(np.argmax(vals))
        assert abs(xs[i] - 2 ** (-5 / 3)) < 1e-5
        x_peak = 2 ** (-5 / 3)
        assert psi_eval(model, x_peak) == pytest.approx(0.016535427624668746, rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            psi_eval(Constant(1), -1)


class TestDeltaMax:
    def test_affine_infinite(self):
        assert Affine(5, 3).delta_max == math.inf

    def test_quadratic_growth_boundary(self):
        assert Power(2, 1, 1).delta_max == math.inf

    def test_superquadratic_closed_form(self):
        assert Power(3, 1, 1).delta_max == pytest.approx(2 ** (-5 / 3), rel=1e-12)

    def test_superquadratic_matches_grid_argmax(self):
        for rho, L0, L1 in [(2.5, 1.0, 2.0), (3.0, 4.0, 1.0), (4.0, 0.5, 0.5)]:
            model = Power(rho, L0, L1)
            dm = model.delta_max
            xs = np.linspace(max(dm - 0.2 * dm, 0), dm + 0.2 * dm, 100001)
            vals = [psi_eval(model, float(x)) for x in xs]
            assert abs(float(xs[int(np.argmax(vals))]) - dm) < 1e-4 * dm

    def test_custom_scan_finds_segment_edge(self):
        # the steep middle segment turns psi over exactly at s/4 = 0.25
        assert DIPPING_CUSTOM.delta_max == 0.25

    def test_monotone_custom_infinite(self):
        gentle = CustomMonotone(points=((0.0, 1.0), (1.0, 1.5), (2.0, 2.0)))
        assert gentle.delta_max == math.inf

    @settings(max_examples=300, deadline=None)
    @given(piecewise_linear_profiles(), st.floats(min_value=0.01, max_value=0.99))
    def test_piecewise_linear_geometry(self, model, frac):
        # psi can only turn over at a breakpoint, where ell(4 x) changes slope
        dmax = model.delta_max
        x_const = model.points[-1][0] / 4.0
        if math.isinf(dmax):
            vals = [psi_eval(model, float(x)) for x in np.linspace(0.0, 1.5 * x_const, 61)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            return
        assert dmax in {s / 4.0 for s, _ in model.points}
        vals = [psi_eval(model, float(x)) for x in np.linspace(0.0, dmax, 61)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        delta = frac * model.psi_sup
        left, right = delta_left_right(model, delta)
        if math.isfinite(right):
            assert psi_eval(model, right) == pytest.approx(delta, rel=1e-10)
        upper = right if math.isfinite(right) else 2.0 * x_const
        for x in np.linspace(left, upper, 52)[1:-1]:
            assert psi_eval(model, float(x)) > delta


def bisect_psi_inverse(model, t):
    """Reference inverse: the bracket doubles from [0, 1] (capped at
    delta_max) until psi reaches t, then bisection stops 4e-16 wide
    relative."""
    dmax = model.delta_max
    lo, hi = 0.0, min(1.0, dmax)
    while hi < dmax and psi_eval(model, hi) < t:
        lo, hi = hi, min(2.0 * hi, dmax)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi_eval(model, mid) < t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * mid:
            break
    return 0.5 * (lo + hi)


def doubling_psi_inverse(model, t):
    """Reference bracket for the psi inverse: from the seed, the upper end
    doubles (capped at delta_max) with psi evaluated at every one until psi
    reaches t, then SciPy's ``brentq``, which the package's Brent ports,
    with the package's tolerances.  A seed that underflowed to 0 doubles
    from the least subnormal, as the package's does."""
    dmax = model.delta_max
    lo = math.sqrt(2.0 * model.ell(0.0) * t)
    if lo >= dmax:
        lo, hi = 0.0, dmax
    elif smoothness.psi_eval(model, lo) >= t * (1.0 - smoothness.SEED_ROUNDING):
        return lo
    else:
        hi = min(2.0 * lo or math.ulp(0.0), dmax)
        while hi < dmax and not t <= smoothness.psi_eval(model, hi) < math.inf:
            lo, hi = hi, min(2.0 * hi, dmax)
    if math.isinf(hi):
        raise OutOfRangeError("beyond the float range")
    try:
        return brentq(lambda x: smoothness.psi_eval(model, x) - t, lo, hi,
                      xtol=smoothness.BRENT_XTOL, rtol=smoothness.BRENT_RTOL,
                      maxiter=smoothness.BRENT_MAX_ITER)
    except (ValueError, RuntimeError) as exc:
        raise OutOfRangeError("no root") from exc


@pytest.fixture
def psi_evals(monkeypatch):
    """Counts the module's psi evaluations; a count past 10^4 raises, which
    turns a bracket that never closes into a failure instead of a hang."""
    count = [0]
    evaluate = smoothness.psi_eval

    def counted(model, x):
        count[0] += 1
        if count[0] > 10_000:
            raise RuntimeError("psi evaluated more than 10^4 times")
        return evaluate(model, x)

    monkeypatch.setattr(smoothness, "psi_eval", counted)
    return count


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except OutOfRangeError as exc:
        return type(exc)


def counted_call(count, fn, *args):
    """``outcome(fn, *args)`` with the psi evaluations it made."""
    count[0] = 0
    out = outcome(fn, *args)
    return out, count[0]


class TestPsiInverse:
    def test_constant_closed_form(self):
        model = Constant(2)
        assert psi_inverse(model, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_affine_matches_quadratic_formula(self):
        model = Affine(1, 1)
        assert psi_inverse(model, 2 / 9) == pytest.approx(2.0, rel=1e-12)

    def test_out_of_range_beyond_peak(self):
        model = Power(3, 1, 1)
        with pytest.raises(OutOfRangeError):
            psi_inverse(model, 0.02)

    def test_bounded_psi_out_of_range(self):
        # quadratic power growth: psi increases to 1 / (32 L1), never attained
        model = Power(2, 1, 1)
        assert model.psi_sup == pytest.approx(1 / 32)
        with pytest.raises(OutOfRangeError):
            psi_inverse(model, 1 / 32)
        x = psi_inverse(model, 0.9 / 32)
        assert psi_eval(model, x) == pytest.approx(0.9 / 32, rel=1e-9)

    def test_negative_t_rejected(self):
        model = Constant(1)
        with pytest.raises(DomainError):
            psi_inverse(model, -1e-9)

    @pytest.mark.parametrize("model", MODELS)
    def test_inverse_consistency_log_grid(self, model):
        hi = model.psi_sup
        hi = 0.9 * hi if math.isfinite(hi) else 1e6
        for t in np.geomspace(1e-8, hi, 40):
            x = psi_inverse(model, float(t))
            assert psi_eval(model, x) == pytest.approx(float(t), rel=1e-8)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_reference_bisection(self, model):
        sup = model.psi_sup
        for t in np.geomspace(1e-14, 0.999 * sup if math.isfinite(sup) else 1e6, 60):
            t = float(t)
            x = psi_inverse(model, t)
            assert x == pytest.approx(bisect_psi_inverse(model, t), rel=1e-13)
            assert psi_eval(model, x) == pytest.approx(t, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.builds(Affine, L0=st.floats(min_value=1e-3, max_value=1e3),
                               L1=st.floats(min_value=0.0, max_value=1e3)),
                     general_powers(), piecewise_linear_profiles()),
           st.floats(min_value=1e-6, max_value=0.999))
    def test_inverts_psi_on_its_increasing_branch(self, model, frac):
        sup = model.psi_sup
        t = frac * sup if math.isfinite(sup) else frac / (1.0 - frac)
        # a rho near 2 can put the root where x * x overflows, the case
        # test_root_beyond_the_float_range covers; here psi reaches t at or
        # below half of sqrt(max float)
        assume(psi_eval(model, math.sqrt(sys.float_info.max) / 2.0) >= t)
        x = psi_inverse(model, t)
        assert math.sqrt(2.0 * ell_eval(model, 0.0) * t) <= x < model.delta_max
        assert psi_eval(model, x) == pytest.approx(t, rel=1e-15)

    @pytest.mark.parametrize("model", [m for m in MODELS if m.ell_sup() == ell_eval(m, 0.0)]
                             + [DIPPING_CUSTOM])
    def test_flat_head_returns_the_seed(self, model, monkeypatch):
        # ell is flat on [0, 4 x] for these levels, where psi(x) = x^2 / (2 ell(0))
        evals = []
        monkeypatch.setattr(smoothness, "psi_eval",
                            lambda m, x: evals.append(x) or psi_eval(m, x))
        top = 0.9 * model.psi_sup if math.isfinite(model.delta_max) else 1e6
        for t in np.geomspace(1e-14, top, 50):
            seed = math.sqrt(2.0 * ell_eval(model, 0.0) * float(t))
            assert ell_eval(model, 4.0 * seed) == ell_eval(model, 0.0)
            evals.clear()
            assert psi_inverse(model, float(t)) == seed
            assert evals == [seed]

    def test_seed_rounded_onto_delta_max(self):
        # one ulp below sup psi the seed rounds up to delta_max, the end of
        # the flat head; the bracket is then [0, delta_max]
        model = CustomMonotone(points=((0.0, 1.0), (5.0, 1.0), (6.0, 100.0)))
        t = math.nextafter(model.psi_sup, 0.0)
        assert math.sqrt(2.0 * t) >= model.delta_max == 1.25
        x = psi_inverse(model, t)
        assert x <= model.delta_max
        assert psi_eval(model, x) == pytest.approx(t, rel=1e-15)

    @pytest.mark.parametrize("model", MODELS + [
        # psi grows faster than linearly: x^1.5, and x^2 past a ramp
        Power(0.5, 1.0, 1.0),
        CustomMonotone(points=((0.0, 1.0), (1.0, 16.0))),
        Affine(1e-12, 1e12),
        # ell(4 x0) / ell(0) above max float, so t / psi(x0) overflows, with
        # delta_max infinite and finite
        CustomMonotone(points=((0.0, 1e-300), (1e-200, 1e10))),
        CustomMonotone(points=((0.0, 1e-300), (1e-200, 1e10), (1e7, 1e10), (1e7 + 1.0, 1e300))),
    ])
    def test_jump_matches_the_doubling_bracket(self, model, psi_evals):
        # the bracket skips only upper ends where psi stays below t, so it
        # ends on the reference's bracket and Brent returns the same bits;
        # up to 1e300 the grid includes roots beyond the float range
        sup = model.psi_sup
        top = math.nextafter(sup, 0.0) if math.isfinite(sup) else 1e300
        for t in [float(t) for t in np.geomspace(1e-30, top, 200)] + [top]:
            got, n = counted_call(psi_evals, model.psi_inverse, t)
            want, n_ref = counted_call(psi_evals, doubling_psi_inverse, model, t)
            assert got == want, t
            assert n <= n_ref, t

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.builds(Affine, L0=st.floats(min_value=1e-3, max_value=1e3),
                               L1=st.floats(min_value=0.0, max_value=1e3)),
                     general_powers(), piecewise_linear_profiles()),
           st.floats(min_value=0.0, max_value=1.0))
    def test_brent_returns_the_bits_of_scipy_brentq(self, model, shift):
        # the package's Brent ports brentq.c step for step and takes the
        # bracket's psi values instead of evaluating them again: every root
        # and every failure agrees with the reference, whose brentq
        # evaluates both ends, on 40 levels per profile up to one ulp below
        # a finite sup psi, or from 1e-300 to 1e300
        sup = model.psi_sup
        if math.isinf(sup):
            levels = [10.0 ** (15.0 * (k + shift) - 300.0) for k in range(40)]
        else:
            levels = [sup * 2.0 ** (-(k + shift)) for k in range(39)] + [math.nextafter(sup, 0.0)]
        for t in levels:
            assert outcome(model.psi_inverse, t) == outcome(doubling_psi_inverse, model, t), t

    @pytest.mark.parametrize("model, most, reference", [
        (Power(1.5, 1.0, 2.0), 16, 47),
        (Affine(3.301, 1.0), 7, 17),
    ])
    def test_jump_skips_the_doublings_below_the_root(self, model, most, reference, psi_evals):
        # the seed sits 12 decades below the Power root and 3 below the Affine one
        assert counted_call(psi_evals, doubling_psi_inverse, model, 1e6)[1] == reference
        x, n = counted_call(psi_evals, model.psi_inverse, 1e6)
        assert n <= most
        assert x == doubling_psi_inverse(model, 1e6)

    @pytest.mark.parametrize("model", [Constant(1e-12), Affine(1e-12, 1e12)])
    def test_seed_underflowing_to_zero(self, model, psi_evals):
        # 2 ell(0) t underflows to 0, so the bracket cannot double from the
        # seed; it starts at the least subnormal instead
        t = 5e-324
        assert math.sqrt(2.0 * model.ell(0.0) * t) == 0.0
        x = psi_inverse(model, t)
        assert psi_eval(model, x / 2.0) < t <= psi_eval(model, 2.0 * x)

    def test_solver_failure_is_typed(self):
        # not a valid profile: ell is NaN on [4, 8), so psi is NaN at the
        # seed of t = 1 while psi(2 seed) >= 1 brackets a root
        with pytest.raises(OutOfRangeError, match="no root"):
            psi_inverse(NanBand(), 1.0)

    @pytest.mark.parametrize("t", [4e153, 1e307, 1e308])
    def test_root_beyond_the_float_range(self, t):
        # psi grows like x / (8 L1): t = 1e308 needs x near 8e308, and the
        # smaller levels an x whose square overflows inside psi
        with pytest.raises(OutOfRangeError, match="float range"):
            psi_inverse(Affine(1.0, 1.0), t)


def decimal_psi(model, x):
    """psi(x) of a Power profile in 50-digit decimals, which neither
    overflow nor underflow at any float x."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(x)
        return x * x / (2 * (Decimal(model.L0) + Decimal(model.L1) * (4 * x) ** Decimal(model.rho)))


class TestDeltaLeftRight:
    def test_affine_has_no_right_branch(self):
        model = Affine(1, 1)
        left, right = delta_left_right(model, 2 / 9)
        assert left == pytest.approx(2.0, rel=1e-10)
        assert right == math.inf

    def test_superquadratic_both_roots(self):
        model = Power(3, 1, 1)
        left, right = delta_left_right(model, 0.01)
        assert left == pytest.approx(0.1585, abs=2e-4)
        assert right == pytest.approx(0.755, abs=2e-3)
        assert psi_eval(model, left) == pytest.approx(0.01, rel=1e-8)
        assert psi_eval(model, right) == pytest.approx(0.01, rel=1e-8)

    def test_superquadratic_matches_grid_sign_scan(self):
        # oracle: sign changes of psi - delta on a dense grid
        model = Power(3, 1, 1)
        delta = 0.004
        left, right = delta_left_right(model, delta)
        xs = np.linspace(1e-6, 3.0, 300001)
        vals = np.array([psi_eval(model, float(x)) for x in xs]) - delta
        crossings = xs[np.flatnonzero(np.diff(np.sign(vals)) != 0)]
        assert abs(crossings[0] - left) < 1e-4
        assert abs(crossings[1] - right) < 1e-4

    def test_zero_level(self):
        model = Power(3, 1, 1)
        left, right = delta_left_right(model, 0.0)
        assert left == 0.0 and right == math.inf

    def test_custom_dip_crossings(self):
        left, right = delta_left_right(DIPPING_CUSTOM, 0.01)
        # left branch: psi = x^2/2 there, so left = sqrt(0.02)
        assert left == pytest.approx(math.sqrt(0.02), rel=1e-10)
        assert psi_eval(DIPPING_CUSTOM, right) == pytest.approx(0.01, rel=1e-8)
        # interior of (left, right) stays above the level
        for x in np.linspace(left * 1.01, right * 0.99, 50):
            assert psi_eval(DIPPING_CUSTOM, float(x)) > 0.01

    def test_out_of_range(self):
        model = Power(3, 1, 1)
        with pytest.raises(OutOfRangeError):
            delta_left_right(model, model.psi_sup)

    def test_power_right_crossing_beyond_every_float(self):
        # rho = 2.00001 puts the crossing near 2**(10**5): psi at the
        # largest float is still above the level, so the crossing reads inf
        model = Power(2.00001, 1.0, 1.0)
        assert delta_left_right(model, model.psi_sup / 2.0)[1] == math.inf

    def test_power_right_crossing_where_the_tail_bound_underflows(self):
        # 2 L1 4^rho delta underflows to 0, which has no power or log; the
        # crossing, near 7.8e327, is past every float
        model = Power(3.0, 1.0, 1e-300)
        assert delta_left_right(model, 1e-30)[1] == math.inf

    def test_power_right_crossing_where_psi_overflows(self):
        # rho = 2.001 puts the crossing near 2e302, where x * x overflows
        # inside psi; there L0 is negligible against L1 (4 x)^rho, so the
        # crossing solves x^(2 - rho) = 2 L1 4^rho delta
        model = Power(2.001, 1.0, 1.0)
        delta = model.psi_sup / 2.0
        right = delta_left_right(model, delta)[1]
        assert math.log(right) == pytest.approx(-math.log(2.0 * 4.0**2.001 * delta) / 0.001,
                                                rel=1e-12)

    @pytest.mark.parametrize("rho", [600.0, 1e4])
    def test_power_right_crossing_past_overflowing_powers_of_four(self, rho):
        # 4**rho overflows in the tail bound; its logarithm still brackets
        # the crossing
        model = Power(rho, 1.0, 1.0)
        delta = model.psi_sup / 2.0
        right = delta_left_right(model, delta)[1]
        assert right > model.delta_max
        assert psi_eval(model, right) == pytest.approx(delta, rel=1e-10)

    def test_power_right_crossing_where_the_denominator_overflows(self):
        # near x = 5.2e151, 2 ell(4 x) passes the float range before x * x
        # does, so psi reads 0 there; a bisection on psi itself returned
        # 5.163e151, where psi / delta - 1 = +1.7e-4
        model = Power(2.0137393523933977, 6392.36464973713, 17.022353224448562)
        delta = 1.482678612812796e-05
        right = delta_left_right(model, delta)[1]
        assert float(decimal_psi(model, right) / Decimal(delta)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("fraction", [0.6, 0.99])
    def test_power_right_crossing_above_half_the_largest_float(self, fraction):
        # the bracket ends at the largest float, and its midpoints there
        # must not overflow
        model = Power(2.001, 1.0, 1.0)
        delta = float(decimal_psi(model, fraction * sys.float_info.max))
        right = delta_left_right(model, delta)[1]
        assert right < math.inf
        assert float(decimal_psi(model, right) / Decimal(delta)) == pytest.approx(1.0, abs=1e-12)

    def test_right_root_monotone_in_delta(self):
        model = Power(3, 1, 1)
        deltas = np.geomspace(1e-5, 0.95 * model.psi_sup, 25)
        rights = [delta_left_right(model, float(d))[1] for d in deltas]
        # deltas increase along the grid, so right roots must decrease
        for r_small_delta, r_big_delta in zip(rights, rights[1:]):
            assert r_small_delta >= r_big_delta * (1 - 1e-10)
            assert r_small_delta > r_big_delta  # strict, well resolved here


class TestAdmissibleDelta:
    def test_affine_threshold(self):
        assert admissible_delta(Affine(1, 1), 1 / 64)
        assert not admissible_delta(Affine(1, 1), 1 / 63)

    def test_constant_admits_everything(self):
        assert admissible_delta(Constant(7), 1e9)
        assert admissible_delta(Constant(7), math.inf)

    def test_boundary_equality_accepted(self):
        # ell(8 sqrt(delta * 4)) = 4 + 2 * 8 * sqrt(1/16) = 8 = 2 ell(0)
        assert admissible_delta(Affine(4, 2), 1 / 64)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_monotone_with_exact_affine_threshold(self, L0, L1):
        model = Affine(L0, L1)
        threshold = L0 / (64 * L1**2)
        assert admissible_delta(model, threshold * (1 - 1e-9))
        assert not admissible_delta(model, threshold * (1 + 1e-9))


def bisect_admissible_boundary(model):
    """Reference boundary: the largest delta that ``admissible_delta``
    accepts, by bisection on that monotone predicate (inf past 1e308)."""
    hi = 1.0
    while admissible_delta(model, hi):
        hi *= 2.0
        if hi > 1e308:
            return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if admissible_delta(model, mid):
            lo = mid
        else:
            hi = mid
    return lo


def assert_matches_bisection(model):
    boundary = model.admissible_boundary
    if admissible_delta(model, math.inf):
        # ell never passes 2 ell(0); the bisection would meet delta * ell(0)
        # overflowing instead
        assert boundary == math.inf
    else:
        assert boundary == pytest.approx(bisect_admissible_boundary(model), rel=1e-12)


class TestAdmissibleBoundary:
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_reference_bisection(self, model):
        assert_matches_bisection(model)

    @settings(max_examples=200, deadline=None)
    @given(piecewise_linear_profiles())
    def test_custom_closed_form_is_admissible(self, model):
        assert_matches_bisection(model)
        boundary = model.admissible_boundary
        if math.isfinite(boundary):
            # admissible itself, not refused by a rounding, and no more than
            # 1e-12 below the largest admissible delta
            assert admissible_delta(model, boundary)
            assert not admissible_delta(model, boundary * (1 + 1e-12))

    def test_custom_by_hand(self):
        # ell = 1 + 0.4 s reaches 2 at s = 2.5, and (2.5 / 8)^2 = 0.09765625;
        # bisection read 0.09765625000000004
        model = CustomMonotone(((0.0, 1.0), (10.0, 5.0), (11.0, 100.0)))
        assert model.admissible_boundary == 0.09765625


def dyadic_quadrature_q(model, s, a):
    """The generic q(s; a): one quadrature per dyadic bracket [0, 1],
    [1, 2], [2, 4], ...; a single one across many decades can be far off."""
    total, lo, hi = 0.0, 0.0, 1.0
    while lo < s:
        total += model._q_between(lo, min(hi, s), a)[0]
        lo, hi = hi, 2.0 * hi
    return total


def q_reference(model, s, a):
    """q(s; a) = int_0^s dv / ell(a + v), in each profile's closed form
    where it has one, else by ``dyadic_quadrature_q``.  The package computes
    only q's inverse and limit; the tests check them against q itself."""
    if isinstance(model, Constant):
        return s / model.L
    if isinstance(model, Affine):
        if model.L1 == 0:
            return s / model.L0
        base = model.L0 + model.L1 * a
        return math.log1p(model.L1 * s / base) / model.L1
    if isinstance(model, Power):
        if model.rho == 2 and model.L1 > 0:
            c = math.sqrt(model.L1 / model.L0)
            scale = 1.0 / math.sqrt(model.L0 * model.L1)
            return scale * (math.atan(c * (a + s)) - math.atan(c * a))
        if model._flat:
            return s / (model.L0 + model.L1)
    if isinstance(model, CustomMonotone):
        total = 0.0
        for length, e, m in model._pieces(a):
            x = min(length, s)
            total += x / e if m == 0 else math.log1p(m * x / e) / m
            s -= x
            if s <= 0:
                return total
    return dyadic_quadrature_q(model, s, a)


class TestQ:
    def test_constant(self):
        assert q_reference(Constant(4), 2, 99) == pytest.approx(0.5)

    def test_affine_log(self):
        assert q_reference(Affine(1, 1), math.e - 1, 0) == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_power_arctan(self):
        assert q_max(Power(2, 1, 1), 0) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_quadrature_matches_closed_form(self):
        # force the quadrature path with a non-special exponent and compare
        # against the analytic arctan on rho = 2 via a change of variable
        model = Power(1.5, 1.0, 1.0)
        val, a, s = None, 0.3, 2.0
        got = q_reference(model, s, a)
        grid = np.linspace(a, a + s, 200001)
        trapz = np.trapezoid(1.0 / (1.0 + grid**1.5), grid)
        assert got == pytest.approx(float(trapz), rel=1e-7)

    def test_q_max_infinite_cases(self):
        assert q_max(Affine(1, 5), 0) == math.inf
        assert q_max(Constant(3), 17) == math.inf
        assert q_max(DIPPING_CUSTOM, 0.0) == math.inf

    def test_quadrature_across_many_decades(self):
        # one quadrature over [0, 8.5e7] read -0.816; the references are
        # 40-digit mpmath values
        model = Power(1.125, 1, 1)
        assert q_reference(model, 8.5e7, 0) == pytest.approx(7.34838406083305927836959830964,
                                                             rel=1e-12)
        assert q_max(model, 0) == pytest.approx(8.16480215474298512, rel=1e-11)

    def test_q_max_analytic_power(self):
        # int_0^inf dv / (1 + v^p) = pi / (p sin(pi / p))
        p = 1.5
        expected = math.pi / (p * math.sin(math.pi / p))
        assert q_max(Power(p, 1, 1), 0) == pytest.approx(expected, rel=1e-9)

    def test_custom_profile_piecewise_closed_form(self):
        # independent oracle: on each linear segment c + m v the integral of
        # 1/ell is log(ell_end / ell_start) / m; the tail is length / ell_last
        model = DIPPING_CUSTOM
        a, s = 0.4, 150.0
        expected = 0.0
        pts = list(model.points) + [(math.inf, model.points[-1][1])]
        lo = a
        for (s0, v0), (s1, v1) in zip(pts, pts[1:]):
            hi = min(a + s, s1)
            if hi <= lo:
                continue
            if s1 == math.inf or v1 == v0:
                expected += (hi - lo) / v0
            else:
                m = (v1 - v0) / (s1 - s0)
                ell_lo = v0 + m * (lo - s0)
                ell_hi = v0 + m * (hi - s0)
                expected += math.log(ell_hi / ell_lo) / m
            lo = hi
            if lo >= a + s:
                break
        assert q_reference(model, s, a) == pytest.approx(expected, rel=1e-9)

    def test_q_inverse_examples(self):
        assert q_inverse(Constant(4), 0.5, 0) == pytest.approx(2.0)
        assert q_inverse(Affine(1, 1), 1, 0) == pytest.approx(math.e - 1, rel=1e-12)
        with pytest.raises(OutOfRangeError):
            q_inverse(Power(2, 1, 1), 2, 0)

    @pytest.mark.parametrize("model", MODELS)
    def test_inverse_consistency(self, model):
        for a in (0.0, 0.7):
            qm = q_max(model, a)
            hi = 0.9 * qm if math.isfinite(qm) else 10.0
            for r in np.geomspace(1e-6, hi, 15):
                s = q_inverse(model, float(r), a)
                assert q_reference(model, s, a) == pytest.approx(float(r), rel=1e-8)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            q_inverse(Constant(1), -1, 0)
        with pytest.raises(DomainError):
            q_max(Constant(1), -1)


def dyadic_brackets(s):
    """[0, 1], [1, 2], [2, 4], ... cut at s: no bracket spans more than a
    factor of 2, where one quadrature of 1/ell stays accurate."""
    lo, hi = 0.0, 1.0
    while lo < s:
        yield lo, min(hi, s)
        lo, hi = hi, 2.0 * hi


def dyadic_q(model, s, a):
    """q(s; a) summed over dyadic brackets.  A single quadrature across many
    decades can be far off: for Power(1.125, 1, 1) on [0, 8.5e7] it read
    -0.82 where q is 7.35."""
    return sum(q_reference(model, hi - lo, a + lo) for lo, hi in dyadic_brackets(s))


def bisect_q_inverse(model, r, a):
    """Reference inverse: bisection on q(s; a) inside the first dyadic
    bracket that reaches r, stopped 4e-16 wide relative."""
    base, q_base, hi = 0.0, 0.0, 1.0
    while (q_hi := q_base + q_reference(model, hi - base, a + base)) < r:
        base, q_base, hi = hi, q_hi, 2.0 * hi
    lo = base
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_base + q_reference(model, mid - base, a + base) < r:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * mid:
            break
    return 0.5 * (lo + hi)


def linear_pieces(model, s, a):
    """(length, start) of the pieces of [a, a + s] between breakpoints."""
    cuts = sorted({a, a + s} | {p for p, _ in model.points if a < p < a + s})
    return [(hi - lo, lo) for lo, hi in zip(cuts, cuts[1:])]


@dataclass(frozen=True)
class Falling(EllModel):
    """Not a valid profile: ell falls, so q(s; 0) = s + s^2 / 2 is convex
    and a Newton step from below passes the root."""

    def ell(self, s):
        return 1.0 / (1.0 + s)


@dataclass(frozen=True)
class NanBand(EllModel):
    """Not a valid profile: ell is NaN on [4, 8) and 1 elsewhere."""

    def ell(self, s):
        return math.nan if 4.0 <= s < 8.0 else 1.0


@pytest.fixture
def bisections(monkeypatch):
    """Records each call of the module's bisection."""
    calls = []
    bisect = smoothness._bisect
    monkeypatch.setattr(smoothness, "_bisect", lambda *args: calls.append(args) or bisect(*args))
    return calls


class TestQInverse:
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_reference_bisection(self, model):
        for a in (0.0, 0.7, 5.0):
            qm = q_max(model, a)
            hi = 0.9 * qm if math.isfinite(qm) else 10.0
            for r in np.geomspace(1e-6, hi, 15):
                s = q_inverse(model, float(r), a)
                assert s == pytest.approx(bisect_q_inverse(model, float(r), a), rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(general_powers(), piecewise_linear_profiles()),
           st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=1.0))
    def test_newton_inverts_q(self, model, a, frac):
        # r log-uniform over eight decades below 0.9 q_max (below 10 where
        # q_max is infinite or larger)
        r = min(0.9 * q_max(model, a), 10.0) * 1e-8 ** frac
        s = q_inverse(model, r, a)
        assert dyadic_q(model, s, a) == pytest.approx(r, rel=1e-9)
        # Both inverses solve q = r with q good to QUAD_REL_TOL, and
        # kappa = q(s) ell(a + s) / s >= 1 turns a relative error in q into
        # one in s.  They mostly agree to 1e-12; near a = 0, where v**rho is
        # not smooth, either was off by a few 1e-11 against 30-digit roots.
        kappa = r * model.ell(a + s) / s
        tol = 2.0 * smoothness.QUAD_REL_TOL * kappa
        assert s == pytest.approx(bisect_q_inverse(model, r, a), rel=tol)

    def test_stalled_newton_falls_back_to_bisection(self, monkeypatch, bisections):
        monkeypatch.setattr(smoothness, "NEWTON_MAX_ITER", 1)
        model = Power(rho=1.5, L0=1.0, L1=2.0)
        s = q_inverse(model, 0.5, 0.7)
        assert bisections
        assert s == pytest.approx(bisect_q_inverse(model, 0.5, 0.7), rel=1e-13)

    @pytest.mark.parametrize("r", [1e-3, 0.5, 4.0])
    def test_overshoot_falls_back_to_bisection(self, bisections, r):
        s = Falling().q_inverse(r, 0.0)
        assert bisections
        assert s == pytest.approx(math.sqrt(1.0 + 2.0 * r) - 1.0, rel=1e-13)

    def test_inaccurate_increment_is_halved(self, monkeypatch):
        # from a = 1.2e-7 the first Newton steps cross the cusp of s**0.125
        # near 0, where quad misses QUAD_REL_TOL until the increment is
        # halved; the miss is read from the error estimate, not warned
        steps = []
        q_between = EllModel._q_between

        def spy(self, s0, s1, a):
            steps.append((s0, s1))
            return q_between(self, s0, s1, a)

        monkeypatch.setattr(EllModel, "_q_between", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = q_inverse(Power(0.125, 1.0, 2.0), 10.0, 1.2e-7)
        assert any(b[0] == a[0] and b[1] - b[0] == 0.5 * (a[1] - a[0])
                   for a, b in zip(steps, steps[1:]))
        # 30 digits, computed with mpmath
        assert s == pytest.approx(37.6847846041633855504752081385, rel=1e-12)

    def test_custom_inverse_by_hand(self):
        # from a = 0.7: 0.3 on the flat start, log(100) / 99 on the ramp,
        # then 1/100 per unit; quadrature across the ramp got 1000.0
        expected = 1.3 + 100.0 * (10.0 - 0.3 - math.log(100.0) / 99.0)
        assert q_inverse(DIPPING_CUSTOM, 10.0, 0.7) == pytest.approx(expected, rel=1e-13)

    def test_custom_uses_no_quadrature(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature on a piecewise-linear profile")

        monkeypatch.setattr(smoothness, "quad", no_quad)
        gentle = CustomMonotone(points=((0.0, 1.0), (1.0, 1.5), (2.0, 2.0)))
        for model in (DIPPING_CUSTOM, gentle):
            for a in (0.0, 0.5, 1.0, 150.0):
                for r in (1e-6, 0.3, 1.0, 50.0):
                    s = q_inverse(model, r, a)
                    assert q_reference(model, s, a) == pytest.approx(r, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(piecewise_linear_profiles(), st.floats(min_value=0.0, max_value=30.0),
           st.floats(min_value=1e-6, max_value=50.0))
    def test_custom_q_matches_quadrature_per_piece(self, model, a, s):
        # the generic quadrature is reliable on each linear piece, not across
        # a kink; summed per piece it checks the exact per-segment logs
        pieces = linear_pieces(model, s, a)
        reference = sum(dyadic_quadrature_q(model, length, start) for length, start in pieces)
        assert q_reference(model, s, a) == pytest.approx(reference, rel=1e-9)


class TestSerialization:
    @pytest.mark.parametrize("model", MODELS)
    def test_round_trip(self, model):
        assert model_from_config(model.to_config()) == model

    def test_schema(self):
        assert Affine(1.0, 1.0).to_config() == {"kind": "affine", "L0": 1.0, "L1": 1.0}
        cfg = DIPPING_CUSTOM.to_config()
        assert cfg["kind"] == "custom" and cfg["points"][0] == [0.0, 1.0]

    def test_bad_configs(self):
        with pytest.raises(ConfigurationError):
            model_from_config({"kind": "nope"})
        with pytest.raises(ConfigurationError):
            model_from_config({"L": 1.0})
        with pytest.raises(ConfigurationError):
            model_from_config({"kind": "affine", "L0": 1.0})
