"""Whole-run property tests: any config either ends with a documented
termination or raises one of the package's typed errors, every point of a
sweep has its documented fields or names a typed error, and a run under a
profile that is valid for its problem ends with no flag."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agdsmooth import algorithm2_run, errors, evaluate
from agdsmooth.config import (
    ALGORITHMS,
    SWEEP_AXES,
    config_from_dict,
    execute,
    run_sweep,
    sweep_from_dict,
)
from agdsmooth.problems import CATALOG_NAMES, catalog

TYPED_ERRORS = (
    errors.ConfigurationError,
    errors.DomainError,
    errors.OutOfRangeError,
    errors.PreconditionError,
    errors.DomainViolationError,
    errors.SafetyViolationError,
    errors.InvariantViolationError,
)
TERMINATIONS = ("converged", "budget", "precondition-failed")
DIMS = {name: catalog(name).dim for name in CATALOG_NAMES}


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda e: 10.0**e)


FIELD = log_uniform(-8, 8)
MAYBE_ZERO = st.one_of(st.just(0.0), FIELD)
# JSON reads 1e400 as Infinity
NON_FINITE = st.sampled_from([math.inf, math.nan])
BUDGET = st.one_of(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500).map(float),
    NON_FINITE,
    st.just(True),
)


@st.composite
def custom_points(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    s, v = 0.0, draw(FIELD)
    points = [[s, v]]
    for _ in range(n - 1):
        s, v = s + draw(FIELD), v + draw(MAYBE_ZERO)
        points.append([s, v])
    return points


ELL = st.one_of(
    st.none(),
    st.builds(lambda L: {"kind": "constant", "L": L}, FIELD),
    st.builds(lambda L0, L1: {"kind": "affine", "L0": L0, "L1": L1}, FIELD, MAYBE_ZERO),
    st.builds(lambda rho, L0, L1: {"kind": "power", "rho": rho, "L0": L0, "L1": L1},
              st.one_of(st.just(0.01), st.just(2.00001), st.floats(min_value=0.0, max_value=8.0)),
              FIELD, MAYBE_ZERO),
    st.builds(lambda points: {"kind": "custom", "points": points}, custom_points()),
)


@st.composite
def run_configs(draw):
    problem = draw(st.sampled_from(CATALOG_NAMES))
    coordinate = (log_uniform(-3, 2) if problem == "neg-log-barrier"
                  else st.floats(min_value=-20.0, max_value=20.0))
    cfg = {
        "algorithm": draw(st.sampled_from(ALGORITHMS)),
        "problem": problem,
        "problem_params": draw(st.sampled_from([{}, {"known_optimum": True},
                                                {"known_optimum": False}])),
        "ell": draw(ELL),
        "x0": draw(st.none() | st.lists(coordinate, min_size=DIMS[problem],
                                        max_size=DIMS[problem])),
        "epsilon": draw(log_uniform(-10, 1) | NON_FINITE),
        "budget": draw(BUDGET),
        "check_invariants": draw(st.booleans()),
        "strict_checks": draw(st.booleans()),
        "trace_path": "",
    }
    for name in ("r_bar", "gamma_cap0", "delta", "m_bar"):
        cfg[name] = draw(st.none() | FIELD | NON_FINITE)
    return cfg


@given(run_configs())
def test_run_ends_documented_or_raises_typed_error(raw):
    # NumPy's overflow warnings stay off on the library path too
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result, _ = execute(config_from_dict(raw), write_files=False)
    except TYPED_ERRORS:
        return
    assert result.termination in TERMINATIONS
    assert result.oracle_calls <= raw["budget"]


# a sweep value may be positive, zero, negative or not finite
SWEEP_VALUE = st.one_of(FIELD, st.floats(max_value=0.0), NON_FINITE)
SWEEP_FIELDS = {"epsilon-quartering": "epsilon", "delta-grid": "delta",
                "gamma_cap0-grid": "gamma_cap0"}
POINT_FIELDS = {"iterations", "gd_iters", "agd_iters", "oracle_calls", "termination",
                "achieved_gap", "flags_total", "error"}


@st.composite
def sweep_specs(draw):
    """A sweep spec on any axis, with levels or with values.  Its base is a
    drawn run config on a small budget, without the non-finite scalars that
    would refuse it outright; the sweep's own values carry those."""
    base = {key: value for key, value in draw(run_configs()).items()
            if not (isinstance(value, float) and not math.isfinite(value))}
    base["budget"] = draw(st.integers(min_value=1, max_value=60))
    spec = {"axis": draw(st.sampled_from(SWEEP_AXES)), "base": base}
    if spec["axis"] == "epsilon-quartering":
        spec["levels"] = draw(st.integers(min_value=0, max_value=4))
    else:
        spec["values"] = draw(st.lists(SWEEP_VALUE, max_size=4))
    return spec


# half the profile's examples: drawing a run config alone takes about 6 ms
@settings(max_examples=settings.default.max_examples // 2)
@given(sweep_specs())
def test_sweep_points_have_their_fields_or_a_typed_error(raw):
    # run_sweep records any Exception a point raises as "<type>: <message>",
    # so an untyped error would show here as, say, "TypeError: ..."
    try:
        spec = sweep_from_dict(raw)
    except TYPED_ERRORS:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_sweep(spec, write_files=False)
    field = SWEEP_FIELDS[spec.axis]
    typed = {cls.__name__ for cls in TYPED_ERRORS}
    points = report["points"]
    assert len(points) == (spec.levels if spec.values is None else len(spec.values))
    for point in points:
        if point["error"] is None:
            assert set(point) == POINT_FIELDS | {field}
            assert point["termination"] in TERMINATIONS
            assert point["oracle_calls"] <= spec.base.budget
        else:
            assert set(point) == {field, "error"}
            assert point["error"].partition(":")[0] in typed, point["error"]


@st.composite
def valid_claim_starts(draw):
    """An agd2 start near the optimum of a catalog problem whose own profile
    is valid for it: r_bar in [1, 3] times the initial distance R, and
    gamma_cap0 in [1, 10] times its floor 2 (f0 - f*) / R^2."""
    problem = catalog(draw(st.sampled_from(
        ["exp-1d", "exp-experiment", "quadratic", "neg-log-barrier"])))
    if problem.dim == 1:
        direction = np.array([draw(st.sampled_from([-1.0, 1.0]))])
    else:
        theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        direction = np.array([math.cos(theta), math.sin(theta)])
    # sup psi = 1/64 on the barrier admits only starts within about 0.01
    near = log_uniform(-3, -1.3) if problem.name == "neg-log-barrier" else log_uniform(-2, 0)
    x0 = problem.optimum.x_star + draw(near) * direction
    dist = float(np.linalg.norm(x0 - problem.optimum.x_star))
    f0, _, _ = evaluate(problem, x0)
    floor = 2.0 * (f0 - problem.optimum.f_star) / dist**2
    r_bar = draw(st.floats(min_value=1.0, max_value=3.0)) * dist
    gamma_cap0 = draw(st.floats(min_value=1.0, max_value=10.0)) * floor
    return problem, x0, r_bar, gamma_cap0


@settings(max_examples=100)
@given(valid_claim_starts())
def test_valid_claim_observes_no_flag(start):
    problem, x0, r_bar, gamma_cap0 = start
    if gamma_cap0 * r_bar**2 >= problem.ell_model.psi_sup:
        # the adaptive step is undefined there: a documented exit 4
        with pytest.raises(errors.ConfigurationError, match="sup psi"):
            algorithm2_run(problem, x0, gamma_cap0, r_bar, 1e-6, 10**6)
        return
    result = algorithm2_run(problem, x0, gamma_cap0, r_bar, 1e-6, 10**6, collect_trace=False)
    assert result.converged and result.flags_total == 0
