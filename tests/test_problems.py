"""Objective catalog and domain machinery tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agdsmooth import (
    CATALOG_NAMES,
    ConfigurationError,
    DomainViolationError,
    FullSpace,
    PositiveOrthant,
    catalog,
    evaluate,
    project_closure,
)
from agdsmooth.verify import sweep_gradient_transfer


class TestEvaluate:
    def test_exp_experiment_optimum(self):
        p = catalog("exp-experiment", {"mu": 0.001})
        f, g = evaluate(p, np.array([0.5, 0.0]))
        assert f == pytest.approx(2 * math.sqrt(math.e), rel=1e-15)
        assert np.allclose(g, 0.0)

    def test_exp_experiment_start_point(self):
        p = catalog("exp-experiment", {"mu": 0.001})
        _, g = evaluate(p, np.array([-6.0, -5.0]))
        assert g[0] == pytest.approx(math.exp(-6) - math.exp(7), rel=1e-14)
        assert g[1] == pytest.approx(-0.005)
        assert np.linalg.norm(g) == pytest.approx(1096.63, abs=0.01)

    def test_quadratic_at_zero(self):
        p = catalog("quadratic", {"L": 1.0, "d": 3})
        f, g = evaluate(p, np.zeros(3))
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
        _, g = evaluate(p, np.ones(10))
        assert np.linalg.norm(g) == pytest.approx(math.sqrt(10))

    def test_exp_1d(self):
        p = catalog("exp-1d", {})
        f, g = evaluate(p, np.zeros(1))
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
            _, g = evaluate(p, p.optimum.x_star)
            scale = max(1.0, abs(p.optimum.f_star))
            assert np.linalg.norm(g) <= 1e-8 * scale
            f, _ = evaluate(p, p.optimum.x_star)
            assert f == pytest.approx(p.optimum.f_star, abs=1e-12 * scale)

    def test_neg_log_barrier_optimum_position(self):
        p = catalog("neg-log-barrier", {"c": 4.0, "d": 2})
        assert np.allclose(p.optimum.x_star, 0.5)
        f, _ = evaluate(p, p.optimum.x_star)
        assert f == pytest.approx(p.optimum.f_star, rel=1e-14)


def finite_diff_check(problem, x, h):
    """Worst per-coordinate relative error of central differences vs the
    analytic gradient.  The stencil x +- h e_i must stay feasible."""
    x = np.asarray(x, dtype=float)
    _, grad = evaluate(problem, x)
    worst = 0.0
    for i in range(problem.dim):
        e = np.zeros(problem.dim)
        e[i] = h
        f_plus, _ = evaluate(problem, x + e)
        f_minus, _ = evaluate(problem, x - e)
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
            fx, gx = evaluate(p, x)
            fy, _ = evaluate(p, y)
            scale = max(1.0, abs(fx), abs(fy))
            assert fy >= fx + float(gx @ (y - x)) - 1e-9 * scale

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_profile_consistency_via_gradient_transfer(self, name):
        # claimed ell must bound gradient variation through q_inverse
        p = catalog(name)
        trials = 1000 if name != "power-p" else 300  # quadrature-backed inverse is slow
        report = sweep_gradient_transfer(p, trials=trials, seed=2)
        assert report.violations == 0, report
        assert report.worst_margin >= -1e-8
