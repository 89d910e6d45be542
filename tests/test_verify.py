"""Inequality checks: pointwise cases with hand oracles, plus sweeps."""

import importlib
import json
import math
import pkgutil
import re
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

import agdsmooth
from agdsmooth import (
    Affine,
    AgdState,
    CATALOG_NAMES,
    Constant,
    DomainViolationError,
    EllModel,
    Power,
    PreconditionError,
    catalog,
    check_convexity_smoothness,
    check_descent_step,
    check_gap_to_grad,
    check_gradient_transfer,
    evaluate,
    smoothness,
)
from agdsmooth import cli, verify
from agdsmooth.problems import FullSpace, Problem, norm
from agdsmooth.verify import (
    _bregman_inner,
    _interior_sampler,
    _sweep,
    _uniform,
    run_all_checks,
    sweep_convexity_smoothness,
    sweep_descent_step,
    sweep_gap_to_grad,
    sweep_gradient_transfer,
)


def make_state(problem, y, u, gamma_cap):
    y = np.asarray(y, dtype=float)
    f, g, _ = evaluate(problem, y)
    return AgdState(y=y, u=np.asarray(u, dtype=float), gamma_cap=gamma_cap,
                    k=0, f_y=f, grad_y=g, grad_norm=float(np.linalg.norm(g)))


class TestConvexitySmoothness:
    def test_same_point_is_zero(self):
        p = catalog("exp-1d", {})
        x = np.array([0.7])
        assert check_convexity_smoothness(p, x, x) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_is_tight(self):
        # for f = x^2/2 with a constant profile both sides equal (x-y)^2/2
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        margin = check_convexity_smoothness(p, np.array([1.0]), np.array([0.0]))
        assert abs(margin) <= 1e-12

    def test_exp_experiment_sweep(self):
        p = catalog("exp-experiment", {})
        report = sweep_convexity_smoothness(p, trials=1000, seed=0)
        assert report.violations == 0
        assert report.worst_margin >= -1e-8
        assert report.trials == 1000 and report.seed == 0

    def test_weighted_integral_against_dense_trapezoid(self):
        # independent quadrature route for the weighted curvature integral
        import numpy as np
        from agdsmooth import ell_eval, evaluate

        p = catalog("exp-experiment", {})
        x, y = np.array([1.2, -0.7]), np.array([-1.5, 2.0])
        fx, gx, _ = evaluate(p, x)
        fy, gy, _ = evaluate(p, y)
        diff = float(np.linalg.norm(gx - gy))
        a = float(np.linalg.norm(gx))
        vs = np.linspace(0.0, 1.0, 400001)
        integrand = (1.0 - vs) / np.array([ell_eval(p.ell_model, a + diff * v) for v in vs])
        sharp = diff**2 * float(np.trapezoid(integrand, vs))
        bregman = fx - fy - float(gy @ (x - y))
        margin = check_convexity_smoothness(p, x, y)
        assert margin == pytest.approx(bregman - sharp, rel=1e-8)


@dataclass(frozen=True)
class NanAbove(EllModel):
    """Not a valid profile: ell is NaN above s = 1, so no quadrature of
    1 / ell across s = 1 meets its tolerance."""

    def ell(self, s):
        return math.nan if s > 1.0 else 1.0


def test_missed_quadrature_tolerance_is_a_precondition_error():
    p = replace(catalog("exp-1d", {}), ell_model=NanAbove())
    x, y = np.array([0.0]), np.array([2.0])
    assert check_convexity_smoothness(p, x, np.array([0.1])) == pytest.approx(
        check_convexity_smoothness(replace(p, ell_model=Constant(1.0)), x, np.array([0.1])))
    with pytest.raises(PreconditionError, match="convexity integral"):
        check_convexity_smoothness(p, x, y)


class TestGradientTransfer:
    def test_same_point_is_zero(self):
        p = catalog("exp-1d", {})
        x = np.array([0.3])
        assert check_gradient_transfer(p, x, x) == pytest.approx(0.0, abs=1e-15)

    def test_constant_profile_exact_equality(self):
        # q_inverse(r; a) = L r and |grad f(y) - grad f(x)| = L |y - x|
        p = catalog("quadratic", {"L": 2.0, "d": 1})
        margin = check_gradient_transfer(p, np.array([0.2]), np.array([1.7]))
        assert abs(margin) <= 1e-12

    def test_exp_1d_sweep(self):
        p = catalog("exp-1d", {})
        report = sweep_gradient_transfer(p, trials=1000, seed=0)
        assert report.violations == 0 and report.worst_margin >= -1e-8

    def test_beyond_q_max_rejected(self):
        p = catalog("neg-log-barrier", {"c": 1.0, "d": 1})  # rho=2: finite q_max
        x = np.array([1.0])
        _, gx, _ = evaluate(p, x)
        from agdsmooth import q_max

        budget = q_max(p.ell_model, float(np.abs(gx[0])))
        with pytest.raises(PreconditionError):
            check_gradient_transfer(p, x, x + 1.01 * budget)

    def test_steep_affine_claim_passes_past_the_float_range(self, tmp_path, monkeypatch,
                                                             capsys):
        # an affine claim has q_max = inf, so every pair is admissible; where
        # L1 |y - x| passes about 709.78, q_inverse's expm1 leaves the float
        # range, and q_inverse reads inf, a passing margin, not a raw
        # OverflowError out of the command
        monkeypatch.setenv("AGDSMOOTH_OUTPUT_DIR", str(tmp_path))
        claim = '{"kind":"affine","L0":3.577923071171738,"L1":261.8909489753386}'
        assert cli.main(["verify", "exp-1d", claim, "--trials", "20", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "pass gradient-transfer: trials=20 violations=0" in out
        report = json.loads((tmp_path / "exp-1d-verify-report.json").read_text())
        assert [r["violations"] for r in report] == [0, 0, 0, 0]


class TestDescentStep:
    def test_at_optimum_zero_margin(self):
        # the equality configuration: both gradients vanish, every slack
        # term in the bound is identically zero
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        for gcap in (0.1, 1.0, 7.3):
            state = make_state(p, [0.0], [0.0], gcap)
            margin = check_descent_step(p, state, 1.0)
            assert abs(margin) <= 1e-12

    def test_hand_computed_margin(self):
        # y = u = 1, gamma_cap = 1, gamma = 1/2 on f = x^2/2: alpha = sqrt(2)/2,
        # y' = sqrt(2)/2, u' = 1/2, V = 1, so
        #   lhs = (1 + alpha) alpha^2/2 + 1/8 - 1 = (sqrt(2) - 5)/8
        #   rhs = -(1/4)(1 - alpha)^2    = sqrt(2)/4 - 3/8
        # and the margin rhs - lhs = 1/4 + sqrt(2)/8.
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        state = make_state(p, [1.0], [1.0], 1.0)
        margin = check_descent_step(p, state, 0.5)
        expected = 0.25 + math.sqrt(2.0) / 8.0
        assert margin == pytest.approx(expected, rel=1e-12)
        assert margin >= 0.0

    def test_step_cap_precondition(self):
        p = catalog("exp-1d", {})
        state = make_state(p, [1.0], [1.0], 1.0)
        with pytest.raises(PreconditionError):
            check_descent_step(p, state, 1.0)  # cap is 1/ell(2|g|) < 1

    def test_unknown_optimum_precondition(self):
        p = catalog("quadratic", {"L": 1.0, "d": 1, "known_optimum": False})
        state = AgdState(y=np.ones(1), u=np.ones(1), gamma_cap=1.0, k=0,
                         f_y=0.5, grad_y=np.ones(1), grad_norm=1.0)
        with pytest.raises(PreconditionError):
            check_descent_step(p, state, 0.5)

    @pytest.mark.parametrize("name", ["quadratic", "exp-1d", "exp-experiment"])
    def test_random_state_sweeps(self, name):
        p = catalog(name)
        report = sweep_descent_step(p, trials=200, seed=3)
        assert report.violations == 0 and report.worst_margin >= -1e-8


class TestGapToGrad:
    def test_at_optimum_true(self):
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        assert check_gap_to_grad(p, np.zeros(1), 0.123)

    def test_quadratic_boundary_tight(self):
        # gap delta at y means |y| = sqrt(2 delta) = psi_inverse(delta) exactly
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        delta = 0.08
        y = np.array([math.sqrt(2 * delta)])
        assert check_gap_to_grad(p, y, delta)

    def test_two_branch_disjunction_superquadratic_claim(self):
        # a quadratic with L = 1 is also majorized by 1 + s^3; points with
        # gap <= 0.01 must sit on the left branch of that profile
        p = replace(catalog("quadratic", {"L": 1.0, "d": 2}), ell_model=Power(3, 1, 1))
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(200):
            y = rng.uniform(-0.14, 0.14, size=2)
            f, _, _ = evaluate(p, y)
            gap = f - 0.0
            if gap > 0.01:
                continue
            assert check_gap_to_grad(p, y, 0.01)
            checked += 1
        assert checked > 50

    def test_delta_out_of_range(self):
        p = replace(catalog("quadratic", {"L": 1.0, "d": 1}), ell_model=Power(3, 1, 1))
        with pytest.raises(PreconditionError):
            check_gap_to_grad(p, np.zeros(1), 0.02)

    def test_sweep_all_catalog(self):
        for name in CATALOG_NAMES:
            p = catalog(name)
            report = sweep_gap_to_grad(p, trials=300, seed=0)
            assert report.violations == 0, (name, report)


class TestRunAll:
    @pytest.mark.parametrize("name", sorted(CATALOG_NAMES))
    def test_all_catalog_problems_clean(self, name):
        reports = run_all_checks(catalog(name), trials=1000, seed=0)
        assert len(reports) == 4
        for rep in reports:
            assert rep.violations == 0, (name, rep)
            assert math.isfinite(rep.worst_margin)
            assert rep.quadrature_tol == 1e-10

    @pytest.mark.xfail(strict=True, reason="a sweep that draws no usable sample reports a "
                       "pass with trials == 0 and a NaN margin")
    def test_no_check_passes_on_zero_samples(self):
        # at 60 trials every gap-to-gradient draw on the barrier falls out
        # of psi's range, so that sweep checks nothing and still passes
        reports = run_all_checks(catalog("neg-log-barrier"), trials=60, seed=0)
        vacuous = [rep.name for rep in reports if rep.passed and rep.trials == 0]
        assert not vacuous


# every catalog problem at its default size, and at d = 7 where it takes one
BOXES = [(name, {}) for name in sorted(CATALOG_NAMES)] + [
    (name, {"d": 7}) for name in ("neg-log-barrier", "power-p", "quadratic")
]


def hexes(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


class TestDraws:
    # the box draw is ``lo_i + span_i * r_i`` on the sampler's precomputed
    # spans and one ``rng.random`` vector, a tuple of floats, and
    # ``_uniform`` serves the scalar draws with ``lo + (hi - lo) *
    # rng.random()``; these pin that both give the bits ``rng.uniform``
    # gave, from the same stream

    @pytest.mark.parametrize("name, params", BOXES, ids=lambda v: str(v))
    def test_box_draw_bits_equal_numpy_uniform(self, name, params):
        p = catalog(name, params)
        sample = _interior_sampler(p)
        got_rng, want_rng = np.random.default_rng(0), np.random.default_rng(0)
        for _ in range(2000):
            got, want = sample(got_rng), want_rng.uniform(p.sample_lo, p.sample_hi)
            assert type(got) is tuple and len(got) == p.dim and want.shape == (p.dim,)
            assert hexes(got) == hexes(want)

    @pytest.mark.parametrize("d", [2, 7])
    def test_transfer_pairs_equal_the_array_sweep(self, monkeypatch, d):
        # the gradient-transfer sweep's pairs, drawn and shrunk on floats,
        # have the bits of the array sweep it replaced:
        # y = x + (y - x) * (0.9 budget / |y - x|) * uniform(0.5, 1).  The
        # barrier's rho = 2 claim has a finite q_max, which shrinks most
        # pairs; the other catalog claims shrink none at these draws
        p = catalog("neg-log-barrier", {"d": d})
        pairs = []
        plain = verify.check_gradient_transfer

        def recorded(problem, x, y):
            pairs.append((x, y))
            return plain(problem, x, y)

        monkeypatch.setattr(verify, "check_gradient_transfer", recorded)
        sweep_gradient_transfer(p, trials=300, seed=0)
        rng, shrunk = np.random.default_rng(0), 0
        for x, y in pairs:
            want_x = rng.uniform(p.sample_lo, p.sample_hi)
            want_y = rng.uniform(p.sample_lo, p.sample_hi)
            budget = smoothness.q_max(p.ell_model, evaluate(p, want_x)[2])
            dist = norm(want_y - want_x)
            if dist >= 0.9 * budget:
                shrunk += 1
                want_y = want_x + (want_y - want_x) * (0.9 * budget / dist) * rng.uniform(0.5, 1.0)
            assert (hexes(x), hexes(y)) == (hexes(want_x), hexes(want_y))
        assert len(pairs) == 300 and shrunk > 250

    @pytest.mark.parametrize("lo, hi", [(0.5, 1.0), (-3, 2), (0.05, 1.0)])
    def test_scalar_draw_bits_equal_numpy_uniform(self, lo, hi):
        got_rng, want_rng = np.random.default_rng(0), np.random.default_rng(0)
        for _ in range(2000):
            got, want = _uniform(got_rng, float(lo), float(hi)), want_rng.uniform(lo, hi)
            # a witness keeps these floats; an np.float64 would change its repr
            assert type(got) is float
            assert got.hex() == want.hex()


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Count every ``problems.evaluate`` call, at each module that uses it."""
    calls = [0]

    def counted(problem, x):
        calls[0] += 1
        return evaluate(problem, x)

    for info in pkgutil.iter_modules(agdsmooth.__path__):
        module = importlib.import_module(f"agdsmooth.{info.name}")
        if getattr(module, "evaluate", None) is evaluate:
            monkeypatch.setattr(module, "evaluate", counted)
    return calls


class TestOracleCalls:
    # the count that the verify-catalog benchmark divides its op time by
    @pytest.mark.parametrize("name, calls", [
        ("exp-1d", 1350), ("exp-experiment", 1350), ("neg-log-barrier", 1201),
        ("power-p", 1350), ("quadratic", 1350),
    ])
    def test_run_all_checks_evaluate_calls(self, evaluate_calls, name, calls):
        run_all_checks(catalog(name), trials=150, seed=0)
        assert evaluate_calls[0] == calls


class TestPsiInverseTraffic:
    # which psi inverses of a gap-to-gradient sweep reach the bisection
    # fallback (``smoothness._psi_bisect``): none, since every profile's own
    # root is kept, power-p's rho = 2/3 by Newton and quadratic's constant
    # profile at the seed
    @pytest.mark.parametrize("name, generic", [
        ("exp-1d", 0), ("exp-experiment", 0), ("neg-log-barrier", 0),
        ("power-p", 0), ("quadratic", 0),
    ])
    def test_generic_psi_inverse_calls(self, monkeypatch, name, generic):
        calls = [0]
        fallback = smoothness._psi_bisect

        def counted_fallback(model, t):
            calls[0] += 1
            return fallback(model, t)

        monkeypatch.setattr(smoothness, "_psi_bisect", counted_fallback)
        report = sweep_gap_to_grad(catalog(name), 150, 0)
        assert report.trials > 0 and calls[0] == generic

    def test_power_p_psi_evaluations(self, monkeypatch):
        # power-p's 150 Newton roots, each with its certifying evaluation,
        # took 968 psi evaluations, at most 8 per inverse; the Brent port
        # that solved them before took 1812
        psi_calls = [0]
        psi = smoothness.psi_eval

        def counted_psi(model, x):
            psi_calls[0] += 1
            return psi(model, x)

        monkeypatch.setattr(smoothness, "psi_eval", counted_psi)
        report = sweep_gap_to_grad(catalog("power-p"), 150, 0)
        assert report.trials == 150
        assert psi_calls[0] <= 1812


class TestSampleBox:
    @pytest.mark.parametrize("lo, hi", [
        ([-2.0], [math.inf]),
        ([-math.inf], [2.0]),
        ([math.nan], [2.0]),
        ([-2.0], [math.nan]),
        ([2.0], [-2.0]),
        ([-1e308], [1e308]),  # finite bounds whose span overflows
    ], ids=["hi-inf", "lo-inf", "lo-nan", "hi-nan", "lo-above-hi", "span-overflows"])
    def test_bad_box_is_a_precondition_error(self, evaluate_calls, lo, hi):
        p = replace(catalog("exp-1d"), sample_lo=np.array(lo), sample_hi=np.array(hi))
        for sweep in (sweep_convexity_smoothness, sweep_gradient_transfer,
                      sweep_descent_step, sweep_gap_to_grad):
            with pytest.raises(PreconditionError, match="sample box"):
                sweep(p, trials=5, seed=0)
        with pytest.raises(PreconditionError, match="sample box"):
            run_all_checks(p, trials=5, seed=0)
        assert evaluate_calls[0] == 0  # refused before any draw

    def test_one_point_box_is_accepted(self):
        p = replace(catalog("exp-1d"), sample_lo=np.array([0.5]), sample_hi=np.array([0.5]))
        report = sweep_convexity_smoothness(p, trials=3, seed=0)
        assert report.trials == 3 and report.witness == ((0.5,), (0.5,))


def gradient_from(problem, scale):
    """``problem`` with its gradient multiplied by ``scale`` where x[0] < 0
    and f unchanged.  An oracle on floats returns a tuple, which is scaled
    as an array."""
    fn = problem.fn

    def scaled(x):
        f, g = fn(x)
        return f, (np.asarray(g) * scale if x[0] < 0 else g)

    return replace(problem, fn=scaled)


class TestNonFiniteVerdict:
    """A NaN margin fails its sweep and is its witness; a gradient sampled
    with an infinite component is refused before any difference is taken."""

    def test_nan_margin_is_a_violation_and_the_witness(self):
        margins = iter([1.0, math.nan, -1.0, math.nan])
        report = _sweep("nan", 4, 0, lambda rng: (m := next(margins), m))
        assert report.trials == 4 and report.violations == 3
        assert math.isnan(report.worst_margin) and math.isnan(report.witness)
        assert not report.passed

    def test_margins_at_the_tolerance_pass(self):
        margins = iter([0.0, -1e-8, math.inf])
        report = _sweep("tol", 3, 0, lambda rng: (m := next(margins), m))
        assert report.passed and report.worst_margin == report.witness == -1e-8

    @pytest.mark.parametrize("x, y", [([-0.5], [0.5]), ([0.5], [-0.5])])
    @pytest.mark.parametrize("check", [check_convexity_smoothness, check_gradient_transfer])
    def test_infinite_gradient_names_its_point(self, check, x, y):
        # exp-1d with grad f = [inf] for x < 0: the convexity margin read
        # NaN in either order
        p = gradient_from(catalog("exp-1d"), math.inf)
        with pytest.raises(DomainViolationError, match=r"gradient at \[-0.5\] has an infinite"):
            check(p, np.array(x), np.array(y))

    def test_infinite_gradient_everywhere_is_not_a_nan_difference(self):
        p = gradient_from(catalog("exp-1d"), math.inf)
        with pytest.raises(DomainViolationError) as err:
            check_convexity_smoothness(p, np.array([-0.5]), np.array([-0.25]))
        assert "[-0.5] has an infinite component" in str(err.value)
        assert "NaN" not in str(err.value)

    def test_gap_and_descent_checks_refuse_an_infinite_gradient(self):
        p = gradient_from(catalog("exp-1d"), math.inf)
        y = np.array([-0.5])
        with pytest.raises(DomainViolationError, match="infinite component"):
            check_gap_to_grad(p, y, 0.5)
        f, g, _ = evaluate(p, y)
        state = AgdState(y=y, u=y.copy(), gamma_cap=1.0, k=0, f_y=f, grad_y=g, grad_norm=1.0)
        with pytest.raises(DomainViolationError, match=r"\[-0.5\] has an infinite"):
            check_descent_step(p, state, 0.01)

    def test_a_gradient_whose_square_overflows_has_a_finite_norm(self):
        # finite components, so nothing is refused, and a finite norm
        # (problems.norm is math.hypot), so no NumPy overflow warning leaks
        # from the library check: the energy |gx - gy|^2 passes the float
        # range, and the margin is -inf, a violation
        p = gradient_from(catalog("exp-1d"), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(evaluate(p, np.array([-0.5]))[1]) < math.inf
            margin = check_convexity_smoothness(p, np.array([-0.5]), np.array([0.5]))
        assert margin == -math.inf

    @pytest.mark.parametrize("step_gamma", [0.0, -0.01, math.nan])
    def test_descent_check_refuses_a_step_that_is_not_positive(self, step_gamma):
        p = catalog("exp-1d")
        state = make_state(p, [0.5], [0.25], 1.0)
        with pytest.raises(PreconditionError, match=r"step_gamma = .* at y = \[0.5\] is not > 0"):
            check_descent_step(p, state, step_gamma)

    def test_descent_sweep_refuses_a_state_with_no_positive_step(self):
        # at d = 7 a gradient scaled by 8e307 has finite components and a
        # norm past the float range: an affine claim makes the safety cap
        # 1 / ell(2 |g_y|) 0, so the sweep draws step_gamma = 0, which no
        # accelerated step takes
        p = replace(gradient_from(catalog("quadratic", {"d": 7}), 8e307),
                    ell_model=Affine(1.0, 1.0))
        with warnings.catch_warnings(), pytest.raises(
                PreconditionError, match=r"step_gamma = 0.0 at y = \[-[^]]*\] is not > 0 "
                r"\(\|g_y\| = inf\)"):
            warnings.simplefilter("error")
            sweep_descent_step(p, trials=20, seed=0)

    def test_descent_sweep_fails_where_squared_norms_overflow(self):
        # a finite gradient of norm about 1e200: the safety cap 1 / ell(2 |g_y|)
        # is positive, so the sweep steps, and the certificate's squared
        # norms read inf (smoothness.square), not a raw OverflowError; their
        # difference inf - inf is a NaN margin, which fails the sweep
        p = gradient_from(catalog("exp-1d"), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sweep_descent_step(p, trials=20, seed=0)
        assert report.trials == 20 and report.violations > 0 and not report.passed
        assert math.isnan(report.worst_margin)

    # the Bregman term <g_y, x - y> is math.fsum of its terms, which refuses
    # finite terms whose sum passes the float range (OverflowError; the
    # exact sum then reads inf) and inf - inf (ValueError), and returns a
    # NaN term's NaN; each makes the term inf or NaN and the margin
    # non-finite, a violation
    BREGMAN_CASES = {
        "intermediate-overflow": ((1e308, 1e308), (1.0, 1.0), (0.0, 0.0), OverflowError),
        "inf-minus-inf": ((1e300, 1e300), (1e10, -1e10), (0.0, 0.0), ValueError),
        "nan-term": ((0.0, 1.0), (1e308, 0.0), (-1e308, 0.0), None),
    }

    @pytest.mark.parametrize("case", sorted(BREGMAN_CASES))
    def test_bregman_term_past_fsum_is_a_non_finite_violation(self, case):
        # f = 0 with a constant gradient, so |g_x - g_y| = 0 and the margin
        # is the Bregman gap 0 - 0 - <g, x - y> itself
        g, x, y, refusal = self.BREGMAN_CASES[case]
        p = Problem(name="constant-gradient", dim=2, domain=FullSpace(),
                    ell_model=Constant(1.0), fn=lambda point: (0.0, g), optimum=None,
                    sample_lo=np.full(2, -1.0), sample_hi=np.full(2, 1.0))
        terms = [c * (a - b) for c, a, b in zip(g, x, y)]
        if refusal is None:
            assert math.isnan(math.fsum(terms))
        else:
            with pytest.raises(refusal):
                math.fsum(terms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inner = _bregman_inner(g, x, y)
            margins = [check_convexity_smoothness(p, x, y),
                       check_convexity_smoothness(p, np.array(x), list(y))]
        want = -math.inf if case == "intermediate-overflow" else math.nan
        assert inner.hex() == (-want).hex()
        assert [m.hex() for m in margins] == [want.hex()] * 2
        pairs = iter(margins)
        report = _sweep("convexity-smoothness", 2, 0, lambda rng: (next(pairs), (x, y)))
        assert report.violations == 2 and not report.passed
        assert not math.isfinite(report.worst_margin) and report.witness == (x, y)

    def test_a_finite_bregman_term_is_the_exact_sum_rounded_once(self):
        # 1e16 + 1 - 1e16 is 1 exactly; a sum in order would lose the 1
        assert _bregman_inner((1e16, 1.0, -1e16), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)) == 1.0

    @pytest.mark.parametrize("g, want", [
        # fsum's partial sum 2e308 overflows, which it refuses; the exact sum
        # is 1e308
        ((1e308, 1e308, -1e308), 1e308),
        ((-1e308, -1e308, 1e308, 5.0), -1e308 + 5.0),
        ((1.5e308, 1.5e308, -1.5e308, -1.5e308, 1.0), 1.0),
    ])
    def test_a_finite_sum_past_an_overflowing_partial_sum_is_exact(self, g, want):
        ones, zeros = (1.0,) * len(g), (0.0,) * len(g)
        with pytest.raises(OverflowError):
            math.fsum(g)
        assert _bregman_inner(g, ones, zeros) == float(sum(map(Fraction, g))) == want

    @pytest.fixture
    def steep_catalog(self, monkeypatch, tmp_path):
        monkeypatch.setenv("AGDSMOOTH_OUTPUT_DIR", str(tmp_path))
        plain = cli.catalog

        def steep(scale):
            monkeypatch.setattr(cli, "catalog",
                                lambda name, params=None: gradient_from(plain(name, params), scale))

        return steep

    def test_cli_nan_margin_exits_five(self, steep_catalog, tmp_path, capsys):
        # quadratic without its optimum runs the convexity and transfer
        # sweeps; at d = 7 a gradient scaled by 8e307 has finite components
        # and a norm past the float range, an affine claim reads
        # ell(inf) = inf, so every pair with a point below 0 has a NaN
        # margin, which fails and is the witness
        steep_catalog(8e307)
        argv = ["verify", "quadratic", '{"kind": "affine", "L0": 1, "L1": 1}',
                "--params", '{"known_optimum": false, "d": 7}', "--trials", "20"]
        assert cli.main(argv) == 5
        out = capsys.readouterr().out
        assert "FAIL convexity-smoothness" in out and "worst_margin=nan" in out
        report = json.loads((tmp_path / "quadratic-verify-report.json").read_text())
        convexity = report[0]
        assert convexity["worst_margin"] == "nan" and convexity["violations"] > 0
        assert min(convexity["witness"][0][0], convexity["witness"][1][0]) < 0

    def test_cli_steep_gradient_exits_three_on_the_quadrature(self, steep_catalog, capsys):
        # a gradient of norm about 1e200 beside one of norm about 1: the
        # convexity integrand 1 / ell(|gx| + |gx - gy| v) falls by 200
        # orders within v < 1e-199, and the rule's error estimate misses
        # its tolerance, which refuses the point before any margin
        steep_catalog(1e200)
        assert cli.main(["verify", "exp-1d", "claimed", "--trials", "20"]) == 3
        err = capsys.readouterr().err
        assert re.search(r"precondition failed: convexity integral \S+ has error estimate", err)

    def test_cli_infinite_gradient_exits_four(self, steep_catalog, capsys):
        steep_catalog(math.inf)
        assert cli.main(["verify", "exp-1d", "claimed", "--trials", "20"]) == 4
        assert "has an infinite component" in capsys.readouterr().err
