"""A gradient that turns NaN is a typed error at the oracle boundary.

``problems.evaluate`` refuses a NaN gradient as a
``DomainViolationError``: at the start point it leaves the run as that
error (CLI exit 4), and mid-run the step that met it turns it into a
``SafetyViolationError`` naming the NaN gradient (exit 5), whatever the
algorithm, profile, checks, mode and trace.  ``verify`` refuses it at a
sampled point as a ``DomainViolationError`` (exit 4).  It never reaches ell
(no ``DomainError``) or a certificate (no ``InvariantViolationError``).
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agdsmooth import (
    Affine,
    AgdState,
    Constant,
    DomainViolationError,
    Power,
    SafetyViolationError,
    algorithm1_run,
    algorithm2_run,
    catalog,
    check_convexity_smoothness,
    check_descent_step,
    check_gap_to_grad,
    check_gradient_transfer,
    evaluate,
    gd_run,
    select_delta,
)
from agdsmooth import cli, config
from agdsmooth.problems import CATALOG_NAMES, default_x0
from agdsmooth.problems import norm
from agdsmooth.verify import run_all_checks

NAN_MESSAGE = "the gradient has a NaN component"

# profiles valid for each problem, on which a clean strict run from
# ``start`` converges with no flag: the claim, and looser or other shapes
PROFILES = {
    "exp-1d": [None, Affine(4.0, 2.0)],
    "exp-experiment": [None, Affine(7.0, 2.0)],
    "quadratic": [None, Constant(2.0), Affine(1.0, 1.0), Power(1.5, 1.0, 1.0)],
    "power-p": [None],
    "neg-log-barrier": [None],
}


def nan_from(problem, n, calls=None):
    """``problem`` whose gradient has a NaN first component from its n-th
    evaluation on; ``calls`` (a one-element list) counts the evaluations."""
    calls = [0] if calls is None else calls
    fn = problem.fn

    def nan_fn(x):
        calls[0] += 1
        f, g = fn(x)
        if calls[0] >= n:
            g = np.array(g, dtype=float)
            g[0] = math.nan
        return f, g

    return dataclasses.replace(problem, fn=nan_fn)


def start(problem):
    """x0 and r_bar: the default start (next to the optimum on the barrier,
    whose sup psi admits no adaptive level from farther out), r_bar twice
    the initial distance."""
    x_star = np.asarray(problem.optimum.x_star)
    x0 = x_star + 0.005 if problem.name == "neg-log-barrier" else np.asarray(default_x0(
        problem.name, problem.dim))
    return x0, 2.0 * norm(x0 - x_star)


def test_guard_refuses_only_a_nan_norm():
    def grad_norm(g):
        """The norm that ``evaluate`` returns with the gradient ``g``, at a
        point of the gradient's kind."""
        problem = dataclasses.replace(catalog("quadratic"), fn=lambda x: (1.0, np.array(g)))
        return evaluate(problem, (0.5, 0.5) if type(g) is tuple else np.array([0.5, 0.5]))[2]

    assert grad_norm(np.array([3.0, 4.0])) == grad_norm((3.0, 4.0)) == 5.0
    # a finite gradient whose square overflows has a finite norm, and one
    # past the float range an infinite norm that ell takes; neither warns
    assert grad_norm(np.array([1e200, 1e200])) == math.hypot(1e200, 1e200) < math.inf
    assert grad_norm((1.5e308, 1.5e308)) == math.inf
    assert grad_norm(np.array([math.inf, -math.inf])) == math.inf
    # a NaN component is refused even beside an infinite one, whose norm
    # reads inf
    for g in (np.array([1.0, math.nan]), (math.nan, 1.0), np.array([math.inf, math.nan]),
              (math.nan, -math.inf)):
        with pytest.raises(DomainViolationError, match=NAN_MESSAGE):
            grad_norm(g)


@given(name=st.sampled_from(sorted(PROFILES)), data=st.data(),
       algorithm=st.sampled_from(["gd", "agd1", "agd2"]),
       n=st.integers(min_value=1, max_value=60),
       check_invariants=st.booleans(), strict=st.booleans(), collect_trace=st.booleans())
def test_nan_gradient_is_a_typed_error(name, data, algorithm, n, check_invariants, strict,
                                       collect_trace):
    clean = catalog(name)
    model = data.draw(st.sampled_from(PROFILES[name])) or clean.ell_model
    x0, r_bar = start(clean)
    calls = [0]
    problem = nan_from(dataclasses.replace(clean, ell_model=model), n, calls)
    flags = dict(check_invariants=check_invariants, strict=strict, collect_trace=collect_trace)
    budget, epsilon = 10**5, 1e-6
    try:
        if algorithm == "gd":
            result = gd_run(problem, x0, epsilon, r_bar, budget, **flags)
        elif algorithm == "agd1":
            delta = select_delta(model, r_bar, None)
            result = algorithm1_run(problem, x0, delta, r_bar, epsilon, budget, **flags)
        else:
            result = algorithm2_run(problem, x0, None, r_bar, epsilon, budget, **flags)
    except DomainViolationError as exc:
        assert n == 1 and calls[0] == 1
        assert NAN_MESSAGE in str(exc)
        return
    except SafetyViolationError as exc:
        assert n > 1 and calls[0] == n
        assert NAN_MESSAGE in str(exc)
        return
    # the run ended before its n-th evaluation, with no flag on a valid claim
    assert result.converged and result.oracle_calls < n and calls[0] == result.oracle_calls
    assert result.flags_total == 0


@pytest.mark.parametrize("algorithm", ["gd", "agd2"])
def test_mid_run_nan_names_the_iterate_not_the_feasible_set(algorithm):
    # the 5th evaluation is the 4th step's; its point is feasible, and the
    # error keeps evaluate's reason without a claim about feasibility
    clean = catalog("exp-1d")
    x0, r_bar = start(clean)
    problem = nan_from(clean, 5)
    with pytest.raises(SafetyViolationError) as raised:
        if algorithm == "gd":
            gd_run(problem, x0, 1e-6, r_bar, 10**5)
        else:
            algorithm2_run(problem, x0, None, r_bar, 1e-6, 10**5)
    message = str(raised.value)
    iterate = {"gd": "GD iterate", "agd2": "y"}[algorithm]
    assert message.startswith(f"{iterate} at iteration 4 cannot be evaluated: exp-1d: "
                              f"{NAN_MESSAGE}")
    assert "feasible" not in message


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_verify_refuses_a_nan_gradient_at_a_sampled_point(name):
    # NaN below the middle of the sample box's first coordinate, which the
    # first sweep's points reach before any descent step does
    clean = catalog(name)
    fn, mid = clean.fn, 0.5 * (clean.sample_lo[0] + clean.sample_hi[0])

    def nan_fn(x):
        f, g = fn(x)
        return f, (np.full(clean.dim, math.nan) if x[0] < mid else g)

    with pytest.raises(DomainViolationError, match=NAN_MESSAGE):
        run_all_checks(dataclasses.replace(clean, fn=nan_fn), trials=20, seed=0)


@pytest.mark.parametrize("nan_at", [1, 2])
def test_each_check_refuses_a_nan_gradient(nan_at):
    # the n-th evaluation of each check is at x (1) or at y (2); a NaN at
    # either is a DomainViolationError, never a NaN margin or a
    # PreconditionError from the convexity integral
    clean = catalog("exp-1d")
    x, y = np.array([0.3]), np.array([0.5])
    for check in (check_convexity_smoothness, check_gradient_transfer):
        with pytest.raises(DomainViolationError, match=NAN_MESSAGE):
            check(nan_from(clean, nan_at), x, y)
    with pytest.raises(DomainViolationError, match=NAN_MESSAGE):
        check_gap_to_grad(nan_from(clean, 1), y, 0.5)


def test_descent_check_takes_the_state_norm_afresh():
    # a caller-built state whose gradient is NaN, with a finite cached
    # norm, is refused before the step
    clean = catalog("exp-1d")
    y = np.array([0.5])
    f, g, _ = evaluate(clean, y)
    state = AgdState(y=y, u=y.copy(), gamma_cap=1.0, k=0, f_y=f,
                     grad_y=np.array([math.nan]), grad_norm=abs(float(g[0])))
    with pytest.raises(DomainViolationError, match=NAN_MESSAGE):
        check_descent_step(clean, state, 0.01)


class TestCli:
    """Exit codes of a NaN gradient through ``cli.main``, with the catalog
    replaced by one whose gradient turns NaN at the n-th evaluation."""

    @pytest.fixture(autouse=True)
    def out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AGDSMOOTH_OUTPUT_DIR", str(tmp_path))

    @staticmethod
    def nan_catalog(monkeypatch, n):
        plain = config.catalog

        def nan_catalog(name, params=None):
            return nan_from(plain(name, params), n)

        # run and verify both build their problem in config.claimed_problem
        monkeypatch.setattr(config, "catalog", nan_catalog)

    @staticmethod
    def run(tmp_path, algorithm):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": algorithm, "problem": "exp-1d", "x0": [2.0],
                                    "r_bar": 4.0, "gamma_cap0": 4.0, "epsilon": 1e-6,
                                    "strict_checks": True}))
        return cli.main(["run", str(path)])

    @pytest.mark.parametrize("algorithm", ["gd", "agd1", "agd2"])
    def test_start_point_exits_four(self, tmp_path, monkeypatch, capsys, algorithm):
        self.nan_catalog(monkeypatch, 1)
        assert self.run(tmp_path, algorithm) == 4
        assert NAN_MESSAGE in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["gd", "agd1", "agd2"])
    def test_mid_run_exits_five(self, tmp_path, monkeypatch, capsys, algorithm):
        self.nan_catalog(monkeypatch, 5)
        assert self.run(tmp_path, algorithm) == 5
        assert NAN_MESSAGE in capsys.readouterr().err

    def test_verify_exits_four(self, monkeypatch, capsys):
        self.nan_catalog(monkeypatch, 1)
        assert cli.main(["verify", "exp-1d", "claimed", "--trials", "20"]) == 4
        assert NAN_MESSAGE in capsys.readouterr().err

    def test_verify_exits_four_at_a_gap_sweep_point_out_of_psi_range(self, monkeypatch,
                                                                      capsys):
        # on the barrier every gap that the gap-to-gradient sweep samples
        # here is at or above sup psi, so the sweep skips each point, but
        # its evaluation has already refused the NaN gradient there
        problem, trials = catalog("neg-log-barrier"), 20
        calls = [0]
        reports = run_all_checks(nan_from(problem, math.inf, calls), trials=trials, seed=0)
        assert reports[-1].name == "gap-to-gradient" and reports[-1].trials == 0
        first_gap_point = calls[0] - trials + 1
        self.nan_catalog(monkeypatch, first_gap_point)
        assert cli.main(["verify", "neg-log-barrier", "claimed", "--trials", str(trials),
                         "--seed", "0"]) == 4
        assert NAN_MESSAGE in capsys.readouterr().err
