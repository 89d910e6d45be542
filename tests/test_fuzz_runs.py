"""Whole-run property test: any config either ends with a documented
termination or raises one of the package's typed errors."""

import math

from hypothesis import given, strategies as st

from agdsmooth import errors
from agdsmooth.config import ALGORITHMS, config_from_dict, execute
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
              st.one_of(st.just(0.01), st.floats(min_value=0.0, max_value=8.0)),
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
    try:
        result, _ = execute(config_from_dict(raw), write_files=False)
    except TYPED_ERRORS:
        return
    assert result.termination in TERMINATIONS
    assert result.oracle_calls <= raw["budget"]
