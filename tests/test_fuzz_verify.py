"""Whole-verify property test: a catalog problem under any drawn claim, at
any size, trial count and seed, ends with reports or raises one of the
package's typed errors, and the sweeps that settle trials from their margin
bounds report what the same sweeps report with every margin exact."""

import warnings

import pytest
from hypothesis import given, strategies as st

from agdsmooth import verify
from agdsmooth.config import claimed_problem
from agdsmooth.errors import ConfigurationError, PreconditionError
from agdsmooth.problems import CATALOG_NAMES, catalog
from test_fuzz_runs import ELL, TYPED_ERRORS
from test_verify import force_exact, report_hexes


def takes_a_size(name):
    try:
        catalog(name, {"d": 3})
    except ConfigurationError:
        return False
    return True


SIZED = tuple(filter(takes_a_size, CATALOG_NAMES))


@st.composite
def verify_inputs(draw):
    name = draw(st.sampled_from(CATALOG_NAMES))
    params = {"d": draw(st.integers(min_value=1, max_value=8))} if name in SIZED else {}
    return (name, params, draw(ELL), draw(st.integers(min_value=0, max_value=30)),
            draw(st.integers(min_value=0, max_value=2**32 - 1)))


def outcome(name, params, claim, trials, seed):
    """The reports of ``run_all_checks`` in ``float.hex``, or the typed error
    it raised; NumPy's floating-point warnings stay errors."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            problem = claimed_problem(name, params, claim)
            return report_hexes(verify.run_all_checks(problem, trials=trials, seed=seed))
    except TYPED_ERRORS as exc:
        return type(exc), str(exc)


def is_weight_refusal(result):
    return result[0] is PreconditionError and result[1].startswith("convexity integral")


@given(verify_inputs())
def test_verify_reports_or_raises_typed_error_and_bounds_change_nothing(inputs):
    bounded = outcome(*inputs)
    with pytest.MonkeyPatch.context() as patch:
        force_exact(patch)
        exact = outcome(*inputs)
    if is_weight_refusal(exact):
        # the one documented difference: a convexity trial that its bound
        # settles makes no quadrature, so a refusal there ends no sweep
        return
    assert bounded == exact
