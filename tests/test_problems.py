"""Objective catalog and domain machinery tests."""

import hashlib
import math
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agdsmooth import (
    CATALOG_NAMES,
    ConfigurationError,
    DomainError,
    DomainViolationError,
    FullSpace,
    PositiveOrthant,
    catalog,
    evaluate,
    project_closure,
)
from agdsmooth.problems import interior_violation, norm
from agdsmooth.verify import sweep_gradient_transfer


class TestEvaluate:
    def test_exp_experiment_optimum(self):
        p = catalog("exp-experiment", {"mu": 0.001})
        f, g, _ = evaluate(p, np.array([0.5, 0.0]))
        assert f == pytest.approx(2 * math.sqrt(math.e), rel=1e-15)
        assert np.allclose(g, 0.0)

    def test_exp_experiment_start_point(self):
        p = catalog("exp-experiment", {"mu": 0.001})
        _, g, _ = evaluate(p, np.array([-6.0, -5.0]))
        assert g[0] == pytest.approx(math.exp(-6) - math.exp(7), rel=1e-14)
        assert g[1] == pytest.approx(-0.005)
        assert np.linalg.norm(g) == pytest.approx(1096.63, abs=0.01)

    def test_quadratic_at_zero(self):
        p = catalog("quadratic", {"L": 1.0, "d": 3})
        f, g, _ = evaluate(p, np.zeros(3))
        assert f == 0.0 and np.all(g == 0.0)

    def test_outside_domain_carries_coordinate(self):
        p = catalog("neg-log-barrier", {"c": 1.0, "d": 3})
        with pytest.raises(DomainViolationError) as err:
            evaluate(p, np.array([1.0, -0.5, 1.0]))
        assert err.value.coordinate == 1

    def test_wrong_dimension(self):
        p = catalog("quadratic", {"L": 1.0, "d": 3})
        with pytest.raises(Exception):
            evaluate(p, np.zeros(2))

    @pytest.mark.parametrize("kind", [tuple, np.array])
    @pytest.mark.parametrize("grad_kind", [tuple, np.array])
    def test_a_nan_gradient_is_refused(self, kind, grad_kind):
        # the oracle returns a NaN gradient, as a tuple or any sequence, at a
        # point of either kind; NaN beside inf is refused too, though its
        # norm is inf
        for grad in ([math.nan], [math.nan, math.inf], [-math.inf, math.nan]):
            p = replace(catalog("quadratic", {"d": len(grad)}),
                        fn=lambda x, g=grad: (1.0, grad_kind(g)))
            with pytest.raises(DomainViolationError, match="the gradient has a NaN component"):
                evaluate(p, kind([0.5] * len(grad)))

    @pytest.mark.parametrize("name", ["exp-1d", "quadratic", "neg-log-barrier"])
    @pytest.mark.parametrize("x", [((1.0,),), ("a",), (1j,), ["a"], [(1.0,)], ["a", 1.0]],
                             ids=repr)
    def test_a_coordinate_that_is_not_a_real_number_is_a_domain_error(self, name, x):
        # on the oracles and the orthant's interior test alike, and never a
        # raw TypeError or ValueError
        with pytest.raises(DomainError):
            evaluate(catalog(name, {"d": 1} if name != "exp-1d" else {}), x)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("text", ["1.5", b"1.5"], ids=repr)
    def test_a_numeric_string_is_refused_on_every_kind(self, name, text):
        # NumPy parses "1.5" where it converts the point; evaluate refuses
        # it there as the tuple's oracle does, with the same message
        problem = catalog(name)
        coords = [text] + [1.0] * (problem.dim - 1)
        messages = set()
        for x in (tuple(coords), coords, np.array(coords)):
            with pytest.raises(DomainError) as err:
                evaluate(problem, x)
            assert type(err.value) is DomainError
            messages.add(str(err.value))
        assert messages == {f"{name}: coordinate 0 = {text!r} is not a real number"}

    @pytest.mark.parametrize("kind", [tuple, list])
    @pytest.mark.parametrize("name, x", [("quadratic", [1e200, 1.0]),
                                         ("neg-log-barrier", [1e200, 1.0]),
                                         ("power-p", [1e100, 1.0])])
    def test_an_overflowing_sum_oracle_is_a_domain_violation(self, kind, name, x):
        # the square or fourth power overflows on Python floats: inf, which
        # evaluate refuses, or an OverflowError, which it reports; no NumPy
        # warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainViolationError):
                evaluate(catalog(name), kind(x))

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_a_subnormal_barrier_coordinate_has_an_infinite_norm(self, kind):
        # 1 / 1e-320 is inf on Python floats, with no NumPy warning, and an
        # infinite gradient component is valid
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, grad, grad_norm = evaluate(catalog("neg-log-barrier"), kind([1e-320, 1.0]))
        assert math.isfinite(value) and grad[0] == -math.inf and grad_norm == math.inf


def exact_sum(terms):
    """The sum of ``terms`` rounded once from its exact value, which is what
    ``math.fsum`` promises: the terms are added as ``Fraction``s, and the
    conversion raises ``OverflowError`` past the float range, as ``fsum``
    does.  A non-finite term makes it the float sum's inf or NaN."""
    if all(map(math.isfinite, terms)):
        return float(sum(map(Fraction, terms)))
    return sum(terms)


def reference_fn(name, params):
    """The catalog oracle ``name`` in a reference form, on a float array.
    The exp oracles take ``np.float64`` coordinates.  The sum oracles take
    each term and gradient component on Python floats, and round each sum
    once from its exact value (``exact_sum``).  The package takes the
    point as ``evaluate`` hands it over, a list of floats, and sums with
    ``math.fsum``; ``TestOracleBits`` holds it to these bits."""
    if name == "exp-experiment":
        mu = params.get("mu", 0.001)

        def fn(p):
            x, y = p
            ex, e1x = math.exp(x), math.exp(1.0 - x)
            return ex + e1x + 0.5 * mu * y * y, np.array([ex - e1x, mu * y])
    elif name == "quadratic":
        L = params.get("L", 1.0)

        def fn(p):
            p = p.tolist()
            return 0.5 * L * exact_sum([v * v for v in p]), [L * v for v in p]
    elif name == "power-p":
        p = params.get("p", 4)

        def fn(x):
            x = x.tolist()
            return exact_sum([v**p for v in x]), [p * v ** (p - 1) for v in x]
    elif name == "neg-log-barrier":
        c = params.get("c", 1.0)

        def fn(x):
            x = x.tolist()
            value = -exact_sum([math.log(v) for v in x]) + 0.5 * c * exact_sum([v * v for v in x])
            return value, [c * v - 1.0 / v for v in x]
    else:
        assert name == "exp-1d"

        def fn(x):
            ex, emx = math.exp(x[0]), math.exp(-x[0])
            return ex + emx, np.array([ex - emx])
    return fn


def oracle_bits(fn, x):
    """``fn(x)`` as the hex of its value and of each gradient component, or
    the name of the error it raises; NumPy's overflow warnings are off, as
    in the runs."""
    try:
        with np.errstate(all="ignore"):
            value, grad = fn(x)
    except OverflowError:
        return "OverflowError"
    grad = np.asarray(grad)
    return float(value).hex(), grad.dtype.str, grad.shape, [g.hex() for g in grad.tolist()]


def numpy_interior_violation(x):
    """``interior_violation`` on the positive orthant, by its index search
    alone: the package settles the all-positive case by ``min(x)`` first."""
    bad = np.flatnonzero(x <= 0.0)
    if bad.size:
        i = int(bad[0])
        return i, f"coordinate {i} = {x[i]} is not > 0"
    return None


# sha256 of the value and gradient bits of each sum oracle at PIN_POINTS
# seeded points of dimension PIN_DIM: one line per point, the float.hex of
# the value and of each gradient component
ORACLE_PIN = {
    "neg-log-barrier": "15b760d16b7e4d13266b977eeebfc3770e9d1db966b872edb19eb6036d86d652",
    "power-p": "8ca7c0b677cccb625cfc01ab8b90d9acc6710580737bf7e0b7cce1cb6b5f22a5",
    "quadratic": "db446d85ebdd084d2f314084bb56fac0be9ddf3e4fa9488d3f02444aaed1b179",
}
PIN_DIM = 20
PIN_POINTS = 300
# binary exponents below each point's scale.  Their squares and fourth
# powers make sums that fall just off a rounding tie, such as
# 1 + 2**-54 + 2**-54 + 2**-108, which a compensated running sum rounds to
# the tie's even side and the exact sum does not
PIN_OFFSETS = (0, 13, 27, 54)


def pin_points(positive):
    """Seeded points whose coordinates are powers of two: most lie at
    ``PIN_OFFSETS`` below the point's scale, the rest 80 below it.  Every
    square and fourth power is exact, so the sums' roundings are what the
    pin holds, beside ``math.log``'s.  ``random.Random`` and ``math.ldexp``
    make the points the same on every platform."""
    rng = random.Random(0)
    for _ in range(PIN_POINTS):
        scale = rng.randrange(-8, 9)
        point = []
        for _ in range(PIN_DIM):
            offset = rng.choice(PIN_OFFSETS) if rng.random() < 0.7 else 80
            v = math.ldexp(1.0, scale - offset)
            point.append(v if positive or rng.random() < 0.5 else -v)
        yield point


# the catalog oracles at their default d and at d = 7
ORACLES = [
    ("exp-1d", {}), ("exp-experiment", {}), ("neg-log-barrier", {}),
    ("neg-log-barrier", {"d": 7}), ("power-p", {}), ("power-p", {"d": 7}),
    ("quadratic", {}), ("quadratic", {"d": 7}),
]


@st.composite
def oracle_points(draw, dim, positive):
    """Coordinates log-uniform from 1e-8 up to an overflow edge: exp's
    (about 710), x^4's (1e77), a square's (1e154) or the float range's;
    laid out contiguous or with stride 2."""
    top = draw(st.sampled_from([2.86, 77.1, 154.2, 308.25]))
    coords = []
    for _ in range(dim):
        magnitude = 10.0 ** draw(st.floats(min_value=-8.0, max_value=top))
        negative = not positive and draw(st.booleans())
        coords.append(-magnitude if negative else magnitude)
    if draw(st.booleans()):
        return np.array(coords)
    buf = np.zeros(2 * dim)
    buf[::2] = coords
    return buf[::2]


# coordinates that evaluate refuses or that make the oracle overflow: the
# orthant's boundary and outside, non-finite values, and magnitudes whose
# square, fourth power or exp overflow
WITNESS_COORDINATES = [0.0, -0.0, -1.0, -1e-300, 5e-324, math.nan, math.inf, -math.inf,
                       800.0, 1e100, 1e200, 1e308]


@st.composite
def evaluate_points(draw, dim, positive):
    """``oracle_points``, with up to two coordinates replaced by refusal
    witnesses, or its length off by one (a shape refusal)."""
    x = draw(oracle_points(dim, positive)).tolist()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        x[draw(st.integers(min_value=0, max_value=dim - 1))] = draw(
            st.sampled_from(WITNESS_COORDINATES))
    shape = draw(st.sampled_from(["same"] * 8 + ["short", "long"]))
    if shape == "short":
        x = x[:-1]
    elif shape == "long":
        x = x + [1.0]
    return np.array(x)


def evaluation(problem, x):
    """``evaluate(problem, x)`` as the hex of its value, gradient and
    gradient-norm bits with the gradient's kind, or the refusal's type,
    message and coordinate; NumPy's floating-point warnings are off, as in
    the runs.  The norm is ``norm`` of the gradient, bit for bit."""
    try:
        with np.errstate(all="ignore"):
            value, grad, grad_norm = evaluate(problem, x)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "coordinate", None)
    assert type(grad_norm) is float and grad_norm.hex() == norm(grad).hex()
    if isinstance(grad, np.ndarray):
        assert grad.dtype == np.float64 and grad.shape == (problem.dim,)
        kind, grad = "array", grad.tolist()
    else:
        assert type(grad) is tuple and all(type(g) is float for g in grad)
        kind = "tuple"
    return kind, value.hex(), [g.hex() for g in grad], grad_norm.hex()


class TestOracleBits:
    @pytest.mark.parametrize("name, params", ORACLES, ids=lambda v: str(v))
    @given(data=st.data())
    def test_evaluate_on_a_tuple_gives_the_bits_of_an_array(self, name, params, data):
        # the float path of small runs and the array path of every other
        # caller: the same value and gradient bits, or the same refusal
        problem = catalog(name, params)
        x = data.draw(evaluate_points(problem.dim, name == "neg-log-barrier"))
        on_array = evaluation(problem, x)
        on_tuple = evaluation(problem, tuple(x.tolist()))
        if on_array[0] == "array":
            assert on_tuple == ("tuple", *on_array[1:])
        else:
            assert on_tuple == on_array

    @pytest.mark.parametrize("name, params", ORACLES, ids=lambda v: str(v))
    @given(data=st.data())
    def test_value_and_gradient_bits_equal_the_reference_form(self, name, params, data):
        problem = catalog(name, params)
        x = data.draw(oracle_points(problem.dim, name == "neg-log-barrier"))
        want = oracle_bits(reference_fn(name, params), x)
        assert oracle_bits(problem.fn, x.tolist()) == want

    @pytest.mark.parametrize("name", ["neg-log-barrier", "power-p", "quadratic"])
    @pytest.mark.parametrize("d", [2, 7, 20])
    def test_value_bits_do_not_depend_on_coordinate_order_or_layout(self, name, d):
        # each sum is rounded once from its exact value, so a permuted point,
        # a strided view and a reversed one give the contiguous point's bits,
        # where a running sum rounds apart on most of these draws
        problem = catalog(name, {"d": d})
        rng = np.random.default_rng(d)
        for _ in range(500):
            buf = rng.uniform(0.3, 30.0, 2 * d)
            want = evaluate(problem, buf[::2].copy())[0].hex()
            order = rng.permutation(d)
            for x in (buf[::2], buf[::2][::-1], buf[::2][order], tuple(buf[::2][order].tolist())):
                assert evaluate(problem, x)[0].hex() == want

    @pytest.mark.parametrize("name", sorted(ORACLE_PIN))
    def test_value_and_gradient_bits_are_pinned(self, name):
        # math.fsum's bits, the same on every CPython.  The builtin sum rounds
        # apart on some of these points: a running sum before 3.12, and from
        # 3.12 on a compensated one, on 37 quadratic, 51 power-p and 8
        # barrier values (through the barrier's sum of squares)
        fn = catalog(name, {"d": PIN_DIM}).fn
        lines = [" ".join(v.hex() for v in (value, *grad))
                 for value, grad in map(fn, pin_points(name == "neg-log-barrier"))]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ORACLE_PIN[name]

    def test_exp_experiment_overflow_is_a_domain_violation(self):
        # 0.5 mu y^2 overflows: on Python floats it is inf, which evaluate
        # refuses, and no NumPy overflow warning escapes the oracle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolationError, match="is not finite"):
                evaluate(catalog("exp-experiment"), [0.0, 1e200])

    @pytest.mark.parametrize("x", [
        [1.0, 2.0], [1.0, 0.0], [1.0, -0.0], [-1.0, 2.0], [2.0, -3.0, -1.0],
        [math.nan, 1.0], [1.0, math.nan], [math.nan, -1.0], [5e-324, 1.0],
        [math.inf, 1.0], [-math.inf, 1.0],
    ])
    def test_interior_verdict_equals_the_index_search(self, x):
        want = numpy_interior_violation(np.array(x))
        assert interior_violation(PositiveOrthant(), np.array(x)) == want
        assert interior_violation(PositiveOrthant(), tuple(x)) == want


class TestProjection:
    def test_full_space_identity(self):
        x = np.array([3.0, -4.0])
        assert np.array_equal(project_closure(FullSpace(), x), x)

    def test_orthant_clamp(self):
        got = project_closure(PositiveOrthant(), np.array([-1.0, 2.0]))
        assert np.array_equal(got, np.array([0.0, 2.0]))

    @pytest.mark.parametrize("domain", [FullSpace(), PositiveOrthant()])
    def test_feasible_points_keep_their_values(self, domain):
        # a point of the closure is its own projection, bit for bit, and the
        # projection leaves its argument as it was
        for x in (np.array([3.0, 0.0, 1e-300]), np.array([2, 5])):
            before = x.copy()
            got = project_closure(domain, x)
            assert got.dtype == np.float64
            assert got.tobytes() == np.asarray(before, dtype=float).tobytes()
            assert x.tobytes() == before.tobytes()

    def test_full_space_returns_its_float_argument(self):
        x = np.array([3.0, -4.0])
        assert project_closure(FullSpace(), x) is x
        t = (3.0, -4.0)
        assert project_closure(FullSpace(), t) is t

    @given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0])), min_size=1,
                    max_size=9))
    def test_a_tuple_projects_to_the_bits_of_an_array(self, x):
        # np.maximum(x, 0.0) keeps a NaN and turns -0.0 into 0.0
        for dom in (FullSpace(), PositiveOrthant()):
            got = project_closure(dom, tuple(x))
            want = project_closure(dom, np.array(x)).tolist()
            assert type(got) is tuple
            assert [(v.hex(), math.copysign(1.0, v)) for v in got] == [
                (v.hex(), math.copysign(1.0, v)) for v in want]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=2),
           st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=2))
    def test_idempotent_and_nonexpansive(self, a, b):
        a, b = np.array(a), np.array(b)
        for dom in (FullSpace(), PositiveOrthant()):
            pa, pb = project_closure(dom, a), project_closure(dom, b)
            assert np.allclose(project_closure(dom, pa), pa, atol=1e-12)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestCatalog:
    def test_exp_experiment_claims(self):
        p = catalog("exp-experiment", {"mu": 0.001})
        assert p.optimum.f_star == pytest.approx(2 * math.sqrt(math.e))
        assert p.ell_model.L0 == pytest.approx(3.301)
        assert p.ell_model.L1 == 1.0

    def test_quadratic_gradient_norm(self):
        p = catalog("quadratic", {"L": 1.0, "d": 10})
        _, g, _ = evaluate(p, np.ones(10))
        assert np.linalg.norm(g) == pytest.approx(math.sqrt(10))

    def test_exp_1d(self):
        p = catalog("exp-1d", {})
        f, g, _ = evaluate(p, np.zeros(1))
        assert f == pytest.approx(2.0) and g[0] == pytest.approx(0.0)
        assert p.optimum.f_star == 2.0

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            catalog("does-not-exist", {})

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            catalog("power-p", {"p": 3})  # odd
        with pytest.raises(ConfigurationError):
            catalog("quadratic", {"L": -1.0})

    def test_known_optimum_withheld(self):
        p = catalog("quadratic", {"L": 1.0, "d": 2, "known_optimum": False})
        assert p.optimum is None

    def test_optimum_validity(self):
        for name in CATALOG_NAMES:
            p = catalog(name)
            _, g, _ = evaluate(p, p.optimum.x_star)
            scale = max(1.0, abs(p.optimum.f_star))
            assert np.linalg.norm(g) <= 1e-8 * scale
            f, _, _ = evaluate(p, p.optimum.x_star)
            assert f == pytest.approx(p.optimum.f_star, abs=1e-12 * scale)

    def test_neg_log_barrier_optimum_position(self):
        p = catalog("neg-log-barrier", {"c": 4.0, "d": 2})
        assert np.allclose(p.optimum.x_star, 0.5)
        f, _, _ = evaluate(p, p.optimum.x_star)
        assert f == pytest.approx(p.optimum.f_star, rel=1e-14)


def finite_diff_check(problem, x, h):
    """Worst per-coordinate relative error of central differences vs the
    analytic gradient.  The stencil x +- h e_i must stay feasible."""
    x = np.asarray(x, dtype=float)
    _, grad, _ = evaluate(problem, x)
    worst = 0.0
    for i in range(problem.dim):
        e = np.zeros(problem.dim)
        e[i] = h
        f_plus, _, _ = evaluate(problem, x + e)
        f_minus, _, _ = evaluate(problem, x - e)
        fd = (f_plus - f_minus) / (2.0 * h)
        worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(grad[i])))
    return worst


class TestFiniteDiff:
    def test_quadratic_exact(self):
        p = catalog("quadratic", {"L": 1.0, "d": 4})
        assert finite_diff_check(p, np.ones(4), 1e-5) <= 1e-8

    def test_exp_experiment(self):
        p = catalog("exp-experiment", {})
        assert finite_diff_check(p, np.zeros(2), 1e-6) <= 1e-6

    def test_stencil_leaves_domain(self):
        p = catalog("neg-log-barrier", {"c": 1.0, "d": 2})
        with pytest.raises(DomainViolationError):
            finite_diff_check(p, np.array([1e-7, 1.0]), 1e-6)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_all_catalog_gradients(self, name):
        p = catalog(name)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(p.sample_lo, p.sample_hi)
            assert finite_diff_check(p, x, 1e-6) <= 5e-6


class TestConvexityAndProfileConsistency:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_convexity_spot_check(self, name):
        p = catalog(name)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.uniform(p.sample_lo, p.sample_hi)
            y = rng.uniform(p.sample_lo, p.sample_hi)
            fx, gx, _ = evaluate(p, x)
            fy, _, _ = evaluate(p, y)
            scale = max(1.0, abs(fx), abs(fy))
            assert fy >= fx + float(gx @ (y - x)) - 1e-9 * scale

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_profile_consistency_via_gradient_transfer(self, name):
        # claimed ell must bound gradient variation through q_inverse
        p = catalog(name)
        report = sweep_gradient_transfer(p, trials=1000, seed=2)
        assert report.violations == 0, report
        assert report.worst_margin >= -1e-8
