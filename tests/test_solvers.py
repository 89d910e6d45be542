"""Solver mechanics: auxiliary sequence, steps, warm start, both variants."""

import dataclasses
import functools
import io
import math
import operator
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from agdsmooth import (
    CATALOG_NAMES,
    Affine,
    AgdState,
    ConfigurationError,
    Constant,
    CustomMonotone,
    DomainError,
    DomainViolationError,
    Flag,
    FullSpace,
    InvariantViolationError,
    Optimum,
    Power,
    Problem,
    PreconditionError,
    SafetyViolationError,
    agd_step,
    algorithm1_run,
    algorithm2_run,
    catalog,
    delta_left_right,
    ell_eval,
    estimate_grad_bound,
    evaluate,
    gamma_alpha_step,
    gamma_envelope,
    gd_run,
    kbar,
    psi_eval,
    psi_inverse,
    select_delta,
    warmup_iterations_bound,
)
from agdsmooth import problems, smoothness, solvers
from agdsmooth.config import config_from_dict, execute
from agdsmooth.smoothness import warm_start_refusal
from agdsmooth.problems import distance, norm
from agdsmooth.smoothness import square
from agdsmooth.solvers import TRACE_HEADER, TraceRecord, format_trace_row
from test_smoothness import decimal_psi_root, exact_admissible_boundary, piecewise_linear_profiles


def make_state(problem, y, u, gamma_cap, k=0):
    f, g, n = evaluate(problem, np.asarray(y, dtype=float))
    return AgdState(y=np.asarray(y, dtype=float), u=np.asarray(u, dtype=float),
                    gamma_cap=gamma_cap, k=k, f_y=f, grad_y=g, grad_norm=n)


class TestAuxSequence:
    def test_hand_arithmetic(self):
        assert gamma_alpha_step(4, 1) == (2.0, pytest.approx(4 / 3))
        assert gamma_alpha_step(1, 0.25) == (0.5, pytest.approx(2 / 3))

    def test_zero_step_freezes(self):
        alpha, nxt = gamma_alpha_step(3.7, 0.0)
        assert alpha == 0.0 and nxt == 3.7

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-8, max_value=1e8),
           st.floats(min_value=0.0, max_value=1e8))
    def test_alpha_exact_and_decreasing(self, gcap, gamma):
        alpha, nxt = gamma_alpha_step(gcap, gamma)
        assert alpha == math.sqrt(gamma * gcap)
        assert nxt <= gcap
        if alpha > 4e-16:  # below this 1 + alpha saturates to 1.0
            assert nxt < gcap

    def test_kbar_examples(self):
        assert kbar(1, 0.25) == 0.0
        assert kbar(4, 1) == pytest.approx(1.0)
        assert kbar(36, 1) == pytest.approx(1 + 0.5 * math.log(9) / math.log(1.5), rel=1e-12)

    def test_envelope_examples(self):
        assert gamma_envelope(9, 1.0, 0.0) == pytest.approx(0.09)
        assert gamma_envelope(0, 4.0, 0.0) == pytest.approx(9 / 4)
        with pytest.raises(PreconditionError):
            gamma_envelope(3, 1.0, kbar(36, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_recursion_respects_envelope(self, gcap0, gamma):
        kb = kbar(gcap0, gamma)
        gcap = gcap0
        for k in range(300):
            _, gcap = gamma_alpha_step(gcap, gamma)
            if k >= kb:
                env = gamma_envelope(k, gamma, kb)
                assert gcap <= env + 4 * math.ulp(env)


class TestAgdStep:
    def test_fixed_point_at_optimum(self):
        p = catalog("quadratic", {"L": 1.0, "d": 2})
        st0 = make_state(p, [0.0, 0.0], [0.0, 0.0], gamma_cap=1.0)
        nxt = agd_step(st0, 0.5, p)
        assert np.allclose(nxt.y, 0.0) and np.allclose(nxt.u, 0.0)
        assert nxt.k == 1

    def test_hand_arithmetic_quadratic(self):
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        st0 = make_state(p, [1.0], [1.0], gamma_cap=1.0)
        nxt = agd_step(st0, 1.0, p)
        # alpha = 1: y' = (1 + 1 - 1) / 2 = 1/2, u' = 1 - 1 * f'(1/2) = 1/2
        assert nxt.y[0] == pytest.approx(0.5)
        assert nxt.u[0] == pytest.approx(0.5)
        assert nxt.gamma_cap == pytest.approx(0.5)
        assert nxt.f_y == pytest.approx(0.125)

    def test_orthant_projection_clamps_u(self):
        p = catalog("neg-log-barrier", {"c": 1.0, "d": 1})
        # gradient at y=2 is c*2 - 1/2 = 1.5 > 0; huge gamma_cap drives u negative
        st0 = make_state(p, [2.0], [0.05], gamma_cap=1e-4)
        gamma = 1.0 / ell_eval(p.ell_model, 2.0 * abs(st0.grad_y[0]))
        nxt = agd_step(st0, gamma, p)
        assert nxt.u[0] == 0.0  # clamped to the closure boundary

    def test_oracle_count_one_per_step(self, monkeypatch):
        p = catalog("quadratic", {"L": 1.0, "d": 2})
        calls = []
        st0 = make_state(p, [1.0, 1.0], [1.0, 1.0], gamma_cap=1.0)
        monkeypatch.setattr(solvers, "evaluate",
                            lambda problem, x: (calls.append(1), evaluate(problem, x))[1])
        agd_step(st0, 0.5, p)
        assert len(calls) == 1

    @staticmethod
    def sampled_states(problem, n=20, seed=0):
        """(state, step) pairs at random points of the problem's box, with
        levels log-uniform and steps a fraction of the safety cap."""
        rng = np.random.default_rng(seed)
        for _ in range(n):
            y = rng.uniform(problem.sample_lo, problem.sample_hi)
            u = rng.uniform(problem.sample_lo, problem.sample_hi)
            state = make_state(problem, y, u, gamma_cap=10.0 ** rng.uniform(-3.0, 2.0))
            cap = 1.0 / ell_eval(problem.ell_model, 2.0 * norm(state.grad_y))
            yield state, cap * rng.uniform(0.05, 1.0)

    @staticmethod
    def bits(state):
        return (state.y.tobytes(), state.u.tobytes(), state.gamma_cap.hex(), state.k,
                state.f_y.hex(), state.grad_y.tobytes())

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_alpha_and_level_are_the_recurrences_bits(self, name):
        # the step owns alpha = sqrt(step_gamma * gamma_cap) and the next
        # level gamma_cap / (1 + alpha) through gamma_alpha_step, and
        # records that alpha on the state it returns
        p = catalog(name)
        for state, gamma in self.sampled_states(p):
            assert state.alpha is None
            alpha, gamma_next = gamma_alpha_step(state.gamma_cap, gamma)
            nxt = agd_step(state, gamma, p)
            assert (nxt.alpha.hex(), nxt.gamma_cap.hex()) == (alpha.hex(), gamma_next.hex())

    def test_start_state_has_no_alpha(self):
        # a budget of one call stops the adaptive run at its start state;
        # a converged run ends on a stepped state, with the last row's alpha
        p = catalog("exp-1d")
        start = algorithm2_run(p, np.array([2.0]), 4.0, 4.0, 1e-6, 1)
        assert start.termination == "budget" and start.state.k == 0
        assert start.state.alpha is None
        done = algorithm2_run(p, np.array([2.0]), 4.0, 4.0, 1e-6, 10000)
        assert done.converged and done.state.alpha == done.trace[-1].alpha

    @pytest.mark.parametrize("d, kind", [(2, tuple), (solvers._FLOAT_DIM, tuple),
                                         (solvers._FLOAT_DIM + 1, np.ndarray)])
    def test_runs_step_on_one_kind_and_return_it(self, monkeypatch, d, kind):
        # the run picks its vector kind once, from the dimension; the step
        # keeps it, and so does the result
        kinds, plain = set(), solvers.agd_step

        def step(state, *args):
            kinds.update(type(v) for v in (state.y, state.u, state.grad_y))
            nxt = plain(state, *args)
            kinds.update(type(v) for v in (nxt.y, nxt.u, nxt.grad_y))
            return nxt

        monkeypatch.setattr(solvers, "agd_step", step)
        p = catalog("quadratic", {"d": d})
        res = algorithm2_run(p, np.full(d, 0.5), None, float(d), 1e-6, 100)
        assert res.converged and res.agd_iters > 0 and kinds == {kind}
        assert {type(v) for v in (res.state.y, res.state.u, res.state.grad_y)} == {kind}
        if kind is tuple:
            assert all(type(c) is float for v in (res.state.y, res.state.u) for c in v)
        else:
            assert all(v.dtype == np.float64 for v in (res.state.y, res.state.u, res.state.grad_y))

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_next_u_never_aliases_the_state(self, name):
        # the full-space projection returns its argument uncopied, so the
        # dual step itself must make a fresh array
        p = catalog(name)
        for state, gamma in self.sampled_states(p, n=3):
            u = state.u.copy()
            nxt = agd_step(state, gamma, p)
            assert not np.shares_memory(nxt.u, state.u)
            assert not np.shares_memory(nxt.u, nxt.y)
            assert state.u.tobytes() == u.tobytes()


# the benchmark's pinned adaptive run
PINNED_RUN = {"algorithm": "agd2", "problem": "exp-experiment", "problem_params.mu": 1e-3,
              "x0": [-6.0, -5.0], "r_bar": 100.0, "gamma_cap0": 100.0, "epsilon": 1e-6,
              "budget": 20000}


class TestSavedWork:
    """Each accelerated iteration takes three norms: the gradient's, a
    ``problems.norm`` in ``evaluate``, and two ``problems.distance``s, the
    certificate function's |u - x*| (which the next ball check reuses) and
    the row's |y - x*| (likewise)."""

    @staticmethod
    def counted_run(monkeypatch, tmp_path, settings):
        calls = [0]

        def counted(fn):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)
            return wrapper

        for name in ("norm", "distance"):
            wrapped = counted(getattr(problems, name))
            monkeypatch.setattr(problems, name, wrapped)
            monkeypatch.setattr(solvers, name, wrapped)
        result, _ = execute(config_from_dict({
            **settings, "check_invariants": True, "trace_path": str(tmp_path / "trace.csv"),
            "summary_path": str(tmp_path / "summary.json")}))
        return result, calls[0]

    def test_three_norms_per_iteration_with_the_ball_check(self, monkeypatch, tmp_path):
        # a superquadratic claim, so BALL_CONFINEMENT runs every iteration
        settings = {"algorithm": "agd1", "problem": "quadratic",
                    "ell": {"kind": "power", "rho": 3, "L0": 1, "L1": 1}, "x0": [0.3, 0.3]}
        short, short_norms = self.counted_run(monkeypatch, tmp_path, {**settings, "epsilon": 1e-8})
        long, long_norms = self.counted_run(monkeypatch, tmp_path, {**settings, "epsilon": 1e-12})
        assert (short.gd_iters, short.agd_iters, long.gd_iters, long.agd_iters) == (5, 10, 5, 26)
        assert long_norms - short_norms == 3 * (long.agd_iters - short.agd_iters)

    def test_three_norms_per_iteration_on_the_pinned_run(self, monkeypatch, tmp_path):
        result, norms = self.counted_run(monkeypatch, tmp_path, PINNED_RUN)
        # four outside the loop: the start's gradient, which the stationary
        # test and the loop's first iteration share, the start's r_bar check,
        # the adaptive start's distance and the loop's first certificate
        # function
        assert result.agd_iters == 7264
        assert norms == 3 * 7264 + 4

    def test_one_psi_evaluation_per_psi_inverse_on_the_pinned_run(self, monkeypatch, tmp_path):
        # every psi inverse of the affine profile keeps its closed-form root,
        # which one psi evaluation certifies: 7264 steps and the warm-up
        # bound's one, with none handed on to the generic path.  Each name
        # is wrapped in every module on the run's path that binds it
        counts = {"psi_eval": 0, "psi_inverse": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        inverse = counted("psi_inverse", smoothness.psi_inverse)
        monkeypatch.setattr(smoothness, "psi_eval", counted("psi_eval", smoothness.psi_eval))
        monkeypatch.setattr(smoothness, "psi_inverse", inverse)
        monkeypatch.setattr(solvers, "psi_inverse", inverse)
        result, _ = self.counted_run(monkeypatch, tmp_path, PINNED_RUN)
        assert result.agd_iters == 7264 and result.oracle_calls == 7265
        assert counts == {"psi_eval": 7264 + 1, "psi_inverse": 7264 + 1}


class TestSharedChecks:
    """The checks that read shared sums note what they would note with
    each sum taken afresh, with the trace on or off."""

    @staticmethod
    def recorded_run(monkeypatch, bit, trace, *args, **kwargs):
        """algorithm1_run with every ``bit`` noted as (k, value) and every
        state the loop steps from."""
        notes, states = [], []
        plain_note, plain_step = solvers._Run.note, solvers.agd_step

        def note(self, flag, k, value, bound):
            if flag == bit:
                notes.append((k, value))
            return plain_note(self, flag, k, value, bound)

        def step(state, *a, **kw):
            states.append(state)
            return plain_step(state, *a, **kw)

        monkeypatch.setattr(solvers._Run, "note", note)
        monkeypatch.setattr(solvers, "agd_step", step)
        result = algorithm1_run(*args, collect_trace=trace, **kwargs)
        monkeypatch.undo()
        return result, notes, states

    @pytest.mark.parametrize("trace", [True, False])
    def test_ball_check_reads_both_distances(self, monkeypatch, trace):
        # a claimed optimum near x0 and r_bar = |x0 - x*|: the iterates run
        # to the true optimum and leave the ball of radius 2 r_bar about
        # the claim, y and u each the farther at some step
        p = catalog("quadratic")
        claimed = np.array([0.9, 0.0])
        q = dataclasses.replace(p, optimum=Optimum(p.optimum.f_star, claimed))
        x0, model = np.array([1.0, 0.0]), Power(3, 1, 1)
        r_bar = norm(x0 - claimed)
        m_bar = estimate_grad_bound(p, 1.0)
        result, notes, states = self.recorded_run(
            monkeypatch, Flag.BALL_CONFINEMENT, trace, dataclasses.replace(q, ell_model=model),
            x0, select_delta(model, r_bar, m_bar), r_bar, 1e-8, 10000, m_bar=m_bar)
        dists = [(s.k, norm(s.y - claimed), norm(s.u - claimed)) for s in states]
        assert any(dy > du for _, dy, du in dists) and any(du > dy for _, dy, du in dists)
        expected = [(k, max(dy, du)) for k, dy, du in dists
                    if not max(dy, du) <= 2.0 * r_bar * (1.0 + 1e-12)]
        assert notes == expected and len(expected) == result.agd_iters
        assert result.flags_total & Flag.BALL_CONFINEMENT

    @pytest.mark.parametrize("trace", [True, False])
    def test_nan_certificate_is_noted(self, monkeypatch, trace):
        # a certificate that holds is not noted, but a NaN holds nothing
        monkeypatch.setattr(solvers, "lyapunov", lambda gap, gamma_cap, dist_u: math.nan)
        p = dataclasses.replace(catalog("quadratic"), ell_model=Constant(1.0))
        result, notes, _ = self.recorded_run(
            monkeypatch, Flag.LYAPUNOV, trace, p, np.array([0.3, 0.3]), math.inf, 1.0, 1e-8,
            10000)
        assert result.agd_iters > 0
        assert [k for k, _ in notes] == list(range(1, result.agd_iters + 1))
        assert all(math.isnan(v) for _, v in notes)
        assert result.flags_total & Flag.LYAPUNOV

    # an affine claim whose L0 understates the quadratic's curvature 1 ten
    # times admits its boundary delta at a start whose gradient is already
    # outside the warm region: ell(4 |g|) = 0.24 > 2 ell(0) = 0.2
    WARM_MODEL = Affine(0.1, 1.0)
    WARM_RUN = (dataclasses.replace(catalog("quadratic"), ell_model=WARM_MODEL),
                np.array([0.035, 0.0]), WARM_MODEL.admissible_boundary, 1.0, 1e-8, 10)

    @staticmethod
    def flagged_rows(result, bit):
        return [r.k for r in result.trace if r.flags & bit]

    @pytest.mark.parametrize("trace", [True, False])
    def test_warm_region_is_noted(self, monkeypatch, trace):
        model = self.WARM_MODEL
        result, notes, states = self.recorded_run(monkeypatch, Flag.WARM_REGION, trace,
                                                  *self.WARM_RUN)
        cap = 2.0 * model.ell(0.0) * (1.0 + 1e-12)
        stepped = [(s.k, model.ell(4.0 * s.grad_norm)) for s in states]
        assert result.gd_iters == 0 and result.agd_iters == len(states) == 9
        assert notes[:9] == [(k, v) for k, v in stepped if not v <= cap]
        assert notes[0] == (0, model.ell(4.0 * 0.035)) and result.flags_total & Flag.WARM_REGION
        if trace:
            # each row carries the bits noted before the step that made it
            assert self.flagged_rows(result, Flag.WARM_REGION) == [k + 1 for k, _ in notes[:9]]

    def test_strict_warm_region(self):
        with pytest.raises(InvariantViolationError) as err:
            algorithm1_run(*self.WARM_RUN, strict=True)
        assert err.value.flags == Flag.WARM_REGION
        match = re.fullmatch(r"WARM_REGION broken at k=(\d+): (\S+) > (\S+)", str(err.value))
        assert match is not None, str(err.value)
        assert int(match[1]) == 0 and float(match[2]) == self.WARM_MODEL.ell(4.0 * 0.035)
        assert float(match[3]) == 2.0 * 0.1 * (1.0 + 1e-12) < float(match[2])

    # the recurrence stays within a fifth of its own envelope on this run,
    # so the check is made to breach one eight times tighter
    ENVELOPE_RUN = (dataclasses.replace(catalog("quadratic"), ell_model=Constant(1.0)),
                    np.array([0.3, 0.3]), math.inf, 1.0, 1e-8, 10000)

    @staticmethod
    def tighten_envelope(monkeypatch):
        plain = solvers.gamma_envelope

        def tight(k, step_gamma, kbar_value):
            return plain(k, step_gamma, kbar_value) / 8.0

        monkeypatch.setattr(solvers, "gamma_envelope", tight)
        return tight

    @pytest.mark.parametrize("trace", [True, False])
    def test_gamma_envelope_is_noted(self, monkeypatch, trace):
        tight = self.tighten_envelope(monkeypatch)
        result, notes, states = self.recorded_run(monkeypatch, Flag.GAMMA_ENVELOPE, trace,
                                                  *self.ENVELOPE_RUN)
        step, k0 = 0.5, states[0].k
        kbar_value = kbar(states[0].gamma_cap, step)
        expected = []
        for s in states:
            level = gamma_alpha_step(s.gamma_cap, step)[1]
            if s.k - k0 >= kbar_value:
                env = tight(s.k - k0, step, kbar_value)
                if not level <= env + 4.0 * math.ulp(env):
                    expected.append((s.k + 1, level))
        assert result.converged and expected and notes == expected
        assert result.flags_total == Flag.GAMMA_ENVELOPE
        if trace:
            assert self.flagged_rows(result, Flag.GAMMA_ENVELOPE) == [k for k, _ in notes]

    def test_strict_gamma_envelope(self, monkeypatch):
        tight = self.tighten_envelope(monkeypatch)
        observed = algorithm1_run(*self.ENVELOPE_RUN)
        with pytest.raises(InvariantViolationError) as err:
            algorithm1_run(*self.ENVELOPE_RUN, strict=True)
        assert err.value.flags == Flag.GAMMA_ENVELOPE
        match = re.fullmatch(r"GAMMA_ENVELOPE broken at k=(\d+): (\S+) > (\S+)", str(err.value))
        assert match is not None, str(err.value)
        first = next(r for r in observed.trace if r.flags & Flag.GAMMA_ENVELOPE)
        assert int(match[1]) == first.k and float(match[2]) == first.gamma_cap
        # the level the run starts from is 2 (f(x0) - f*) / r_bar^2
        p, x0 = self.ENVELOPE_RUN[:2]
        gamma_cap0 = 2.0 * (evaluate(p, x0)[0] - p.optimum.f_star)
        env = tight(first.k - 1, 0.5, kbar(gamma_cap0, 0.5))
        assert float(match[3]) == env + 4.0 * math.ulp(env) < first.gamma_cap


class TestGdRun:
    def test_quadratic_four_iterations(self):
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        res = gd_run(p, np.array([1.0]), 0.005, 1.0, budget=100)
        assert len(res.trace) == 4
        assert res.state.y[0] == pytest.approx(2.0**-4)

    def test_already_converged(self):
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        res = gd_run(p, np.array([0.05]), 0.005, 1.0, budget=100)
        assert len(res.trace) == 0 and res.state.y[0] == 0.05

    def test_budget_error(self):
        p = catalog("quadratic", {"L": 1.0, "d": 1})
        res = gd_run(p, np.array([1.0]), 0.005, 1.0, budget=2)
        assert res.termination == "budget" and res.oracle_calls == 2

    @pytest.mark.parametrize("checks", [True, False])
    def test_monotone_flag_only_with_checks(self, checks):
        # ell = 0.2 understates the curvature 1, so each step overshoots
        p = dataclasses.replace(catalog("quadratic", {}), ell_model=Constant(0.2))
        res = gd_run(p, np.ones(2), 1e-6, 10.0, budget=20, check_invariants=checks)
        assert res.flags_total == (128 if checks else 0)
        dists = [r.dist_to_opt for r in res.trace]
        assert len(dists) == 19 and dists[-1] > dists[0]

    def test_strict_monotone_breach_is_an_invariant_violation(self):
        # GD_MONOTONE is a flag bit like any other: strict mode raises it
        p = dataclasses.replace(catalog("quadratic", {}), ell_model=Constant(0.2))
        with pytest.raises(InvariantViolationError) as err:
            gd_run(p, np.ones(2), 1e-6, 10.0, budget=20, strict=True)
        assert err.value.flags == Flag.GD_MONOTONE == 128

    def test_strict_message_states_both_sides(self):
        # the strict run stops at the first row the observed run flags, and
        # its message carries that row's distance and the bound it broke
        p = dataclasses.replace(catalog("quadratic", {}), ell_model=Constant(0.2))
        observed = gd_run(p, np.ones(2), 1e-6, 10.0, budget=20)
        with pytest.raises(InvariantViolationError) as err:
            gd_run(p, np.ones(2), 1e-6, 10.0, budget=20, strict=True)
        match = re.fullmatch(r"GD_MONOTONE broken at k=(\d+): (\S+) > (\S+)", str(err.value))
        assert match is not None, str(err.value)
        first = observed.trace[0]
        assert first.flags == Flag.GD_MONOTONE and int(match[1]) == first.k == 1
        assert float(match[2]) == first.dist_to_opt
        assert float(match[3]) == math.sqrt(2.0) * (1.0 + 1e-12) < float(match[2])

    def test_certificate_stop_without_optimum(self):
        p = catalog("quadratic", {"L": 1.0, "d": 1, "known_optimum": False})
        res = gd_run(p, np.array([1.0]), 0.1, 1.0, budget=100)
        # stops once |grad| * r_bar <= epsilon
        assert abs(res.state.y[0]) * 1.0 <= 0.1

    def test_monotone_distance_on_catalog(self):
        p = catalog("exp-experiment", {})
        res = gd_run(p, np.array([-6.0, -5.0]), 0.025, 100.0, budget=10000)
        assert res.converged
        dists = [r.dist_to_opt for r in res.trace]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(dists, dists[1:]))

    def test_gd_divergence_names_the_flags_noted_before_it(self):
        # a claimed L = 0.5 on exp-1d: the first step overshoots the optimum
        # (GD_MONOTONE) and the second overflows
        p = dataclasses.replace(catalog("exp-1d"), ell_model=Constant(0.5))
        run = functools.partial(gd_run, p, np.array([3.0]), 1e-6, 8.0, 1000)
        with pytest.raises(SafetyViolationError, match="GD_MONOTONE"):
            run()
        with pytest.raises(SafetyViolationError) as unchecked:
            run(check_invariants=False)
        assert "flags noted" not in str(unchecked.value)


class TestSelectDelta:
    def test_affine_policy(self):
        assert select_delta(Affine(1, 1), 1.0) == pytest.approx(1 / 64)
        # large r_bar: the admissibility term binds
        assert select_delta(Affine(1, 1), 100.0) == pytest.approx(1 / 64)
        # tiny r_bar: the gap term binds
        assert select_delta(Affine(1, 1), 0.1) == pytest.approx(0.01 / 64)

    def test_constant_sentinel(self):
        assert select_delta(Constant(5), 1.0) == math.inf

    def test_bounded_custom_sentinel(self):
        # ell rises to 1.5 <= 2 ell(0) and stays there: every delta is admissible
        assert select_delta(CustomMonotone(((0.0, 1.0), (1.0, 1.5))), 1.0) == math.inf

    def test_subquadratic_power(self):
        # rho = 2: head term is 1 / (64 L1)
        assert select_delta(Power(2, 1, 2), 100.0) == pytest.approx(1 / 128)

    def test_superquadratic_needs_m_bar(self):
        with pytest.raises(ConfigurationError):
            select_delta(Power(3, 1, 1), 1.0)

    def test_superquadratic_q_set_conditions(self):
        model = Power(3, 1, 1)
        m_bar = 1.0
        delta = select_delta(model, 1.0, m_bar=m_bar)
        assert 0 < delta <= model.psi_sup / 2
        left, right = delta_left_right(model, delta)
        assert ell_eval(model, 4 * left) <= 2 * ell_eval(model, 0)
        assert right >= 2 * m_bar

    def test_custom_profile_numeric_boundary(self):
        from test_smoothness import DIPPING_CUSTOM

        delta = select_delta(DIPPING_CUSTOM, 1.0, m_bar=0.5)
        assert 0 < delta <= DIPPING_CUSTOM.psi_sup / 2
        left, right = delta_left_right(DIPPING_CUSTOM, delta)
        assert ell_eval(DIPPING_CUSTOM, 4 * left) <= 2 * ell_eval(DIPPING_CUSTOM, 0)
        assert right >= 1.0

    def test_head_on_the_admissibility_edge_is_kept(self):
        # L0 / (64 L1^2) sits exactly on the edge, where rounding can put
        # ell(8 sqrt(delta L0)) a hair above 2 ell(0); a monotone psi is
        # decided by the closed-form boundary, so the head stays whole
        grid = [float(v) for v in np.logspace(-3, 3, 25)]
        for L0 in grid:
            for L1 in grid:
                for model in (Affine(L0, L1), *(Power(rho, L0, L1) for rho in (0.5, 1, 1.5, 2))):
                    head = model.delta_head(1e6, None)
                    delta = select_delta(model, 1e6)
                    assert not warm_start_refusal(model, delta, None), model
                    assert delta == head, model

    def test_r_bar_square_past_the_float_range(self):
        # the gap term ell(0) r_bar^2 / 64 is inf, and the boundary binds
        assert select_delta(Affine(2, 1), 1e200) == 0.03125
        assert Power(1.5, 2, 1).delta_head(1e200, None) == Power(1.5, 2, 1).admissible_boundary

    def test_r_bar_square_underflow_is_refused(self):
        # no positive float lies under a gap term of 0; the run refuses the
        # same r_bar as a configuration error too
        with pytest.raises(ConfigurationError, match=r"r_bar\^2 must be a positive float"):
            select_delta(Affine(2, 1), 1e-200)

    def test_a_zero_head_is_refused_at_once(self):
        # r_bar^2 = 1e-20 is positive, but ell(0) r_bar^2 / 64 underflows to
        # 0: the head is refused as it is, not halved 200 times and blamed on
        # the two-branch geometry, which this monotone psi does not test
        model = Affine(1e-310, 1.0)
        assert model.delta_head(1e-10, None) == 0.0
        with pytest.raises(PreconditionError, match=r"head delta = 0.0 is not > 0") as err:
            select_delta(model, 1e-10)
        assert "two-branch" not in str(err.value)

    def test_small_curvature_branch_refused(self):
        # delta_max = 2.5 and sup psi = 0.625; at half the peak the left
        # crossing is 1.435, where ell(4 left) = 3.3 > 2 ell(0)
        model = CustomMonotone(((0.0, 1.0), (10.0, 5.0), (11.0, 100.0)))
        assert (model.delta_max, model.psi_sup) == (2.5, 0.625)
        assert (warm_start_refusal(model, 0.3125, 1.0)
                == "delta violates the small-curvature branch condition")
        delta = select_delta(model, 1e6, 1.0)
        assert delta == 0.09765625 and not warm_start_refusal(model, delta, 1.0)

    def test_custom_head_on_the_edge_is_kept(self):
        # psi dips past delta_max = 0.0201, and the head is the admissibility
        # boundary, admissible in exact arithmetic; its left crossing read
        # ell(4 left) = 10.9672309079366 against 2 ell(0) = 10.967230907936598,
        # one ulp over, and the head was halved to 1.0464978475974648e-06
        model = CustomMonotone(((0.0, 5.483615453968299),
                                (0.08035113780974162, 21.741025970617585),
                                (1.9437224060847778, 9775.451297128395)))
        head = model.admissible_boundary
        assert head == 2.0929956951949297e-06
        assert Fraction(head) <= exact_admissible_boundary(model)
        assert math.isfinite(model.delta_max) and head < model.psi_sup / 2
        assert select_delta(model, 4.887178419395202, 1e-3) == head

    @settings(max_examples=200, deadline=None)
    @given(piecewise_linear_profiles())
    def test_custom_head_passes_the_branch_condition(self, model):
        # every delta up to the boundary meets ell(4 left) <= 2 ell(0) in
        # exact arithmetic, so the policy keeps the head whole
        assume(math.isfinite(model.delta_max) and math.isfinite(model.admissible_boundary))
        head = min(model.delta_head(1e6, None), model.psi_sup / 2)
        assert select_delta(model, 1e6, 1e-300) == head

    def test_power_head_outside_the_float_range(self):
        # L0**(2/rho - 1) overflows, L1**(2/rho) underflows, or both; the
        # head is then (L0/L1)**(2/rho) / L0, or inf past the float range
        assert Power(0.01, 1e3, 1e3).delta_head(1e6, None) == pytest.approx(1e-3 / 64)
        assert Power(0.01, 1e3, 1.0).delta_head(1.0, None) == 1e3 / 64
        tiny = Power(0.01, 8.832141718368205e-05, 0.0006041257682572129)
        assert tiny.delta_head(1.0, None) == pytest.approx(
            (tiny.L0 / tiny.L1) ** 200 / tiny.L0 / 64, rel=1e-12)


class TestAlgorithm1:
    def test_exp_experiment_clean_strict_run(self):
        p = catalog("exp-experiment", {})
        delta = select_delta(p.ell_model, 100.0)
        res = algorithm1_run(p, np.array([-6.0, -5.0]), delta, 100.0,
                             1e-6, 100000, strict=True)
        assert res.converged and res.flags_total == 0
        assert res.achieved_gap <= 1e-6
        assert res.gd_iters > 0 and res.agd_iters > 0

    def test_epsilon_larger_than_initial_gap(self):
        p = catalog("quadratic", {"L": 1.0, "d": 2})
        res = algorithm1_run(p, np.ones(2), 0.5, 2.0, 10.0, 100)
        assert res.converged and res.agd_iters == 0 and res.oracle_calls == 1

    def test_inadmissible_delta_precondition_failed(self):
        p = catalog("exp-1d", {})
        res = algorithm1_run(p, np.array([1.0]), 1e6, 2.0, 1e-6, 100)
        assert res.termination == "precondition-failed"
        assert res.oracle_calls <= 1 and res.agd_iters == 0

    def test_budget_result(self):
        p = catalog("exp-experiment", {})
        delta = select_delta(p.ell_model, 100.0)
        res = algorithm1_run(p, np.array([-6.0, -5.0]), delta, 100.0,
                             1e-12, 40)
        assert res.termination == "budget"
        assert res.oracle_calls == 40

    def test_stationary_start_without_optimum(self):
        p = catalog("quadratic", {"L": 1.0, "d": 2, "known_optimum": False})
        res = algorithm1_run(p, np.zeros(2), 0.5, 1.0, 1e-9, 100)
        assert res.converged and res.message == "stationary start"
        assert res.achieved_gap == 0.0 and res.oracle_calls == 1

    def test_r_bar_below_true_distance(self):
        p = catalog("quadratic", {"L": 1.0, "d": 2})
        res = algorithm1_run(p, np.ones(2), 0.5, 0.1, 1e-6, 100)
        assert res.termination == "precondition-failed"

    def test_oracle_accounting(self):
        p = catalog("exp-1d", {})
        delta = select_delta(p.ell_model, 5.0)
        res = algorithm1_run(p, np.array([3.0]), delta, 5.0, 1e-8, 10000)
        assert res.oracle_calls == res.gd_iters + res.agd_iters + 1
        gd_rows = sum(1 for r in res.trace if r.phase == "gd")
        agd_rows = sum(1 for r in res.trace if r.phase == "agd")
        assert gd_rows == res.gd_iters and agd_rows == res.agd_iters

    def test_superquadratic_path_ball_confinement(self):
        model = Power(3, 1, 1)  # valid majorant: 1 + s^3 >= 1 = ||hess||
        p = dataclasses.replace(catalog("quadratic", {"L": 1.0, "d": 2}), ell_model=model)
        r_bar = 2.0
        m_bar = estimate_grad_bound(p, r_bar)
        delta = select_delta(model, r_bar, m_bar=m_bar)
        res = algorithm1_run(p, np.array([1.0, 1.0]), delta, r_bar, 1e-9, 100000, m_bar=m_bar,
                             strict=True)
        assert res.converged and res.flags_total == 0

    def test_superquadratic_refused_without_m_bar(self):
        model = Power(3, 1, 1)
        p = dataclasses.replace(catalog("quadratic", {"L": 1.0, "d": 2}), ell_model=model)
        delta = select_delta(model, 2.0, m_bar=estimate_grad_bound(p, 2.0))
        res = algorithm1_run(p, np.array([1.0, 1.0]), delta, 2.0, 1e-9, 100)
        assert res.termination == "precondition-failed"
        assert "m_bar" in res.message and res.oracle_calls == 1

    def test_superquadratic_bad_delta(self):
        model = Power(3, 1, 1)
        p = dataclasses.replace(catalog("quadratic", {"L": 1.0, "d": 2}), ell_model=model)
        res = algorithm1_run(p, np.array([1.0, 1.0]), model.psi_sup * 0.9, 2.0, 1e-9, 100,
                             m_bar=5.66)
        assert res.termination == "precondition-failed"


class TestRunParameters:
    RUNS = {
        "gd": lambda p, eps, r_bar, budget: gd_run(p, np.array([2.0]), eps, r_bar, budget),
        "agd1": lambda p, eps, r_bar, budget: algorithm1_run(
            p, np.array([2.0]), math.inf, r_bar, eps, budget),
        "agd2": lambda p, eps, r_bar, budget: algorithm2_run(
            p, np.array([2.0]), 4.0, r_bar, eps, budget),
    }
    BAD = {
        "epsilon-zero": (0.0, 4.0, 10),
        "epsilon-negative": (-1e-6, 4.0, 10),
        "epsilon-nan": (math.nan, 4.0, 10),
        "r_bar-zero": (1e-6, 0.0, 10),
        "r_bar-infinity": (1e-6, math.inf, 10),
        # r_bar^2 scales every certificate: it must not overflow or vanish
        "r_bar-square-overflow": (1e-6, 1e200, 10),
        "r_bar-square-underflow": (1e-6, 1e-200, 10),
        "budget-zero": (1e-6, 4.0, 0),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("algorithm", sorted(RUNS))
    def test_one_check_for_every_run(self, algorithm, case):
        p = catalog("exp-1d")
        with pytest.raises(ConfigurationError, match="a run needs epsilon > 0, "
                           "a finite r_bar > 0 and budget >= 1"):
            self.RUNS[algorithm](p, *self.BAD[case])

    START = {
        "gd": lambda p, x0: gd_run(p, x0, 1e-6, 10.0, 1000),
        "agd1": lambda p, x0: algorithm1_run(p, x0, math.inf, 10.0, 1e-6, 1000),
        "agd2": lambda p, x0: algorithm2_run(p, x0, None, 10.0, 1e-6, 1000),
    }

    @pytest.mark.parametrize("algorithm, x0, shown", [
        ("gd", ["abc", 1.0], "'abc'"),
        ("agd2", ["1.0", 2.0], "'1.0'"),
        ("gd", ("1.0", 2.0), "'1.0'"),
        ("agd1", [None, 2.0], "None"),
        ("agd2", np.array(["1.0", "2.0"]), "'1.0'"),
        ("agd1", [[1.0], 2.0], "[1.0]"),
    ], ids=["gd-list-text", "agd2-list-numeric-text", "gd-tuple-numeric-text",
            "agd1-list-none", "agd2-array-numeric-text", "agd1-list-ragged"])
    def test_a_start_coordinate_that_is_not_a_real_number_is_a_domain_error(
            self, algorithm, x0, shown):
        # x0 is read by evaluate's rule: NumPy would parse "1.0", and the
        # run converge, read None as NaN, or raise a raw ValueError (on
        # "abc" or a ragged point)
        with pytest.raises(DomainError) as err:
            self.START[algorithm](catalog("quadratic"), x0)
        assert type(err.value) is DomainError
        assert str(err.value) == f"quadratic: coordinate 0 = {shown} is not a real number"

    @pytest.mark.parametrize("d", [2, 20])
    @pytest.mark.parametrize("kind", [list, tuple, np.array, lambda v: np.array(v, dtype=object)],
                             ids=["list", "tuple", "array", "object-array"])
    @pytest.mark.parametrize("algorithm", sorted(START))
    def test_every_real_start_runs_as_its_floats(self, algorithm, kind, d):
        # ints, NumPy scalars and arrays start the run that their floats start
        p = catalog("quadratic", {"d": d})
        coords = [3, np.float64(2.0)] + [1] * (d - 2)
        floats = tuple(float(v) for v in coords) if d <= solvers._FLOAT_DIM else np.array(
            coords, dtype=float)
        want, got = (self.START[algorithm](p, x0) for x0 in (floats, kind(coords)))
        assert got.converged and got.oracle_calls == want.oracle_calls
        assert got.trace == want.trace
        assert np.array_equal(got.state.y, want.state.y)

    @pytest.mark.parametrize("algorithm", ["gd", "agd1", "agd2"])
    def test_divergence_raises_without_numpy_warnings(self, algorithm):
        # claiming 1/1000 of the true curvature makes every step diverge;
        # the run ends in a typed error, and NumPy's overflow warnings stay
        # off on the library path as they are under the CLI
        cfg = {"algorithm": algorithm, "problem": "quadratic",
               "ell": {"kind": "constant", "L": 1e-3}, "r_bar": 10.0, "budget": 2000}
        if algorithm == "agd2":
            cfg["gamma_cap0"] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SafetyViolationError):
                execute(config_from_dict(cfg), write_files=False)

    def test_diverged_gd_budget_result_without_numpy_warnings(self):
        # claiming ell = 1 on exp-experiment, two gd steps leave a gradient
        # whose square overflows; the budget result's gap takes its norm
        # without NumPy's overflow warning
        cfg = {"algorithm": "gd", "problem": "exp-experiment",
               "ell": {"kind": "constant", "L": 1.0}, "epsilon": 1.0, "budget": 2}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _ = execute(config_from_dict(cfg), write_files=False)
        assert result.termination == "budget" and result.oracle_calls == 2

    @pytest.mark.parametrize("algorithm", ["gd", "agd1", "agd2"])
    def test_start_gradient_overflow_without_numpy_warnings(self, algorithm):
        # at x0 = 700 on exp-1d the gradient exp(700) is finite and its
        # square is not; agd1 takes its norm before any phase (the
        # stationary-start test and the delta resolution), and every run
        # keeps NumPy's overflow warnings off from its first norm
        cfg = {"algorithm": algorithm, "problem": "exp-1d", "x0": [700.0],
               "epsilon": 1.0, "budget": 3}
        if algorithm == "agd2":
            cfg["gamma_cap0"] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _ = execute(config_from_dict(cfg), write_files=False)
        assert result.termination == ("precondition-failed" if algorithm == "agd2" else "budget")

    def test_grad_bound_estimate_overflows_without_numpy_warnings(self):
        # agd1 on exp-1d claiming a superquadratic profile estimates m_bar
        # from samples at distance 2 r_bar = 400, where the gradient
        # exp(400) is finite and its square is not: its norm is finite, so
        # the bound is twice it, and the run ends on its budget
        cfg = {"algorithm": "agd1", "problem": "exp-1d", "r_bar": 200.0, "budget": 10,
               "ell": {"kind": "power", "rho": 3.0, "L0": 1.0, "L1": 1.0}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = estimate_grad_bound(catalog("exp-1d"), 200.0)
            assert bound == 2.0 * (math.exp(400.0) - math.exp(-400.0)) < math.inf
            result, _ = execute(config_from_dict(cfg), write_files=False)
            assert result.termination == "budget" and result.oracle_calls == 10

    @pytest.mark.parametrize("name", ["neg-log-barrier", "power-p", "quadratic"])
    def test_grad_bound_estimate_at_r_bar_1e200_without_numpy_warnings(self, name):
        # at distance 2e200 every sample's squares or fourth powers overflow,
        # or it leaves the orthant: the oracle on Python floats reads inf or
        # raises OverflowError, evaluate refuses the point, and every sample
        # reads as infeasible, with no np.errstate around the sampling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="all gradient-bound samples fell"):
                estimate_grad_bound(catalog(name), 1e200)

    def test_grad_bound_estimate_refuses_an_infinite_r_bar(self):
        # agd1 on the barrier claiming a superquadratic profile estimates
        # m_bar before the run checks r_bar; on the sphere of radius inf
        # the barrier's value is inf - inf, which leaked NumPy's "invalid
        # value" warning before the estimate read every sample as infeasible
        cfg = {"algorithm": "agd1", "problem": "neg-log-barrier", "r_bar": math.inf,
               "epsilon": 1.0, "budget": 1, "trace_path": "",
               "ell": {"kind": "custom", "points": [[0.0, 1.0], [1.0, 1.0], [1.1, 2.0]]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="needs a finite r_bar > 0, got inf"):
                execute(config_from_dict(cfg), write_files=False)

    def test_r_bar_below_the_distance_goes_unseen_without_the_optimum(self):
        # |x0 - x*| = sqrt(2) against r_bar = 0.01: every certificate scales
        # with r_bar, so both runs "converge" on bounds that do not hold.
        # Only the known optimum exposes the short r_bar
        x0 = np.array([1.0, 1.0])
        blind = catalog("quadratic", {"known_optimum": False})
        res = algorithm2_run(blind, x0, 1.0, 0.01, 1e-2, 1000)
        assert res.converged and res.oracle_calls == 1 and res.flags_total == 0
        assert res.achieved_gap == pytest.approx(1e-4)
        assert evaluate(blind, res.state.y)[0] == 1.0  # f* = 0
        res = algorithm1_run(blind, x0, math.inf, 0.01, 1e-4, 1000)
        assert res.converged and res.oracle_calls == 5 and res.flags_total == 0
        assert res.achieved_gap == pytest.approx(9.85e-5, rel=1e-3)
        assert evaluate(blind, res.state.y)[0] == pytest.approx(0.2284, rel=1e-3)

        seen = catalog("quadratic")
        for res in (algorithm2_run(seen, x0, 1.0, 0.01, 1e-2, 1000),
                    algorithm1_run(seen, x0, math.inf, 0.01, 1e-4, 1000)):
            assert res.termination == "precondition-failed"
            assert res.message == "r_bar is below the true initial distance"


class TestRunScope:
    """Each run function is one ``_Run`` scope, which leaves NumPy's
    floating-point error settings as it found them, on a return and on a
    divergence alike."""

    # settings that differ from the run's own, under which none of these
    # runs computes anything
    OUTSIDE = {"over": "raise", "invalid": "print", "divide": "warn", "under": "ignore"}

    RUNS = {
        "gd": lambda p: gd_run(p, np.array([2.0]), 1e-6, 4.0, 1000),
        "agd1": lambda p: algorithm1_run(p, np.array([2.0]),
                                         select_delta(p.ell_model, 4.0), 4.0, 1e-6, 1000),
        "agd2": lambda p: algorithm2_run(p, np.array([2.0]), 4.0, 4.0,
                                         1e-6, 1000),
    }

    @pytest.mark.parametrize("algorithm", sorted(RUNS))
    def test_settings_restored_on_return(self, algorithm):
        with np.errstate(**self.OUTSIDE):
            before = np.geterr()
            assert self.RUNS[algorithm](catalog("exp-1d")).converged
            assert np.geterr() == before == self.OUTSIDE

    def test_settings_restored_on_divergence(self):
        # Gamma_0 = 1/64 below the start's floor: y overflows after the
        # GRAD_ENVELOPE breach, which the error names on leaving the scope
        p = catalog("exp-1d", {"known_optimum": False})
        with np.errstate(**self.OUTSIDE):
            with pytest.raises(SafetyViolationError, match="flags noted before it: "
                               "GRAD_ENVELOPE"):
                algorithm2_run(p, np.array([8.0]), 1 / 64, 8.0, 1e-6, 1000)
            assert np.geterr() == self.OUTSIDE


class TestAlgorithm2:
    def test_start_distance_whose_square_overflows_is_refused(self):
        # f = x1 + x2 claiming its optimum at 0: at x0 = (1e200, 1e200) the
        # value is finite and |x0 - x*| squares past the float range, so the
        # start's level floor reads 0 (smoothness.square), not a raw
        # OverflowError, and the short r_bar refuses the run
        p = Problem("linear", 2, FullSpace(), Constant(1.0),
                    lambda x: (math.fsum(x), (1.0, 1.0)), Optimum(0.0, np.zeros(2)),
                    np.zeros(2), np.ones(2))
        res = algorithm2_run(p, np.array([1e200, 1e200]), None, 1.0, 1e-6, 10)
        assert res.termination == "precondition-failed" and res.gamma_cap0 == 0.0
        assert res.message == "r_bar is below the true initial distance"

    def test_start_distance_whose_square_underflows_leaves_no_floor(self):
        # |x0 - x*| = 2.8e-241 is positive and its square is 0: the run
        # starts at level 1, as from the optimum itself, with no division
        p = catalog("power-p")
        res = algorithm2_run(p, np.array([0.0, 2.8e-241]), None, 1.0, 1.0, 1,
                             check_invariants=False, collect_trace=False)
        assert res.converged and res.gamma_cap0 == 1.0

    def test_overflowing_start_is_a_domain_violation(self):
        p = catalog("exp-experiment", {})
        with pytest.raises(DomainViolationError, match="overflow"):
            algorithm2_run(p, np.array([-800.0, 0.0]), 1e6, 1e3, 1e-6, 100)

    def test_nan_start_is_a_domain_violation(self):
        p = catalog("exp-1d", {})
        with pytest.raises(DomainViolationError, match="not finite"):
            algorithm2_run(p, np.array([math.nan]), 4.0, 4.0, 1e-6, 100)

    @pytest.mark.parametrize("model", [Affine(4.0, 0.0), Power(0.0, 1.0, 3.0)])
    def test_flat_profiles_use_one_over_ell_zero(self, model):
        p = dataclasses.replace(catalog("quadratic", {"L": 4.0, "d": 2}), ell_model=model)
        res = algorithm2_run(p, np.ones(2), 4.0, 2.0, 1e-10, 10000)
        assert res.converged and res.flags_total == 0
        assert {r.step_gamma for r in res.trace if r.phase == "agd"} == {0.25}

    def test_constant_model_uses_one_over_L(self):
        p = catalog("quadratic", {"L": 4.0, "d": 2})
        res = algorithm2_run(p, np.ones(2), 4.0, 2.0, 1e-10, 10000)
        gammas = {r.step_gamma for r in res.trace if r.phase == "agd"}
        assert gammas == {0.25}

    def test_rejects_superquadratic(self):
        p = dataclasses.replace(catalog("quadratic", {"L": 1.0, "d": 2}),
                                ell_model=Power(3, 1, 1))
        with pytest.raises(ConfigurationError):
            algorithm2_run(p, np.ones(2), 1.0, 2.0, 1e-6, 100)

    def test_rejects_out_of_range_start_level(self):
        # rho = 2 keeps psi bounded: sup psi = 1/(32 L1)
        p = catalog("neg-log-barrier", {"c": 1.0, "d": 2})
        with pytest.raises(ConfigurationError):
            algorithm2_run(p, np.full(2, 2.0), 100.0, 10.0, 1e-6, 100)

    def test_bounded_psi_in_range_works(self):
        # bounded psi (rho = 2) only admits starts whose certificate level
        # fits under sup psi = 1 / (32 L1), so begin close to the optimum
        p = catalog("neg-log-barrier", {"c": 1.0, "d": 1})
        x0 = np.array([1.05])
        r0 = float(np.linalg.norm(x0 - p.optimum.x_star))
        r_bar = 1.05 * r0
        f0, _, _ = evaluate(p, x0)
        gcap0 = 2.0 * (f0 - p.optimum.f_star) / r0**2
        assert gcap0 * r_bar**2 < p.ell_model.psi_sup
        res = algorithm2_run(p, x0, gcap0, r_bar, 1e-12, 100000, strict=True)
        assert res.converged and res.flags_total == 0

    def test_start_level_within_rounding_of_the_peak(self):
        # Gamma_0 r_bar^2 is the float below sup psi = 1 / 32, where psi is
        # flat in floats; the first step is 1 / ell(4 x) at the exact root x
        model = Power(2, 1.0, 1.0)
        p = dataclasses.replace(catalog("quadratic"), ell_model=model)
        r_bar = 0.15
        gcap0 = math.nextafter(1 / 32, 0.0) / r_bar**2
        t = gcap0 * (r_bar * r_bar)
        assert t == math.nextafter(model.psi_sup, 0.0)
        res = algorithm2_run(p, np.array([0.1, 0.1]), gcap0, r_bar, 1e-8, 1000)
        assert res.converged and res.flags_total == 0 and res.oracle_calls == 13
        first = next(r for r in res.trace if r.phase == "agd")
        root = float(decimal_psi_root(model, t))
        assert first.step_gamma == 1.0 / model.ell(4.0 * root)
        assert first.step_gamma.hex() == "0x1.0000000000001p-53"

    def test_gamma_cap0_too_small(self):
        p = catalog("quadratic", {"L": 1.0, "d": 2})
        res = algorithm2_run(p, np.ones(2), 1e-6, 2.0, 1e-10, 1000)
        assert res.termination == "precondition-failed"

    def test_step_sizes_non_decreasing(self):
        p = catalog("exp-1d", {})
        res = algorithm2_run(p, np.array([3.0]), 5.0, 4.0, 1e-9, 10000,
                             strict=True)
        assert res.converged and res.flags_total == 0
        gammas = [r.step_gamma for r in res.trace if r.phase == "agd"]
        assert all(b >= a * (1 - 4e-16) for a, b in zip(gammas, gammas[1:]))

    def test_step_sequence_independent_of_iterate(self):
        # acceptance criterion 1 derives its budget from this: the steps,
        # alphas and certificate levels depend on gamma_cap0, r_bar and ell
        # only, and each step is 1 / ell(4 psi_inverse) in closed form
        p = catalog("exp-experiment", {"mu": 0.001})
        m = p.ell_model
        runs = [algorithm2_run(p, np.array(x0), 100.0, 100.0, 1e-6, 1000)
                for x0 in ([-6.0, -5.0], [3.0, 2.0])]
        rows_a, rows_b = ([r for r in res.trace if r.phase == "agd"] for res in runs)
        n = min(len(rows_a), len(rows_b))
        assert n > 100
        for col in ("gamma_cap", "alpha", "step_gamma"):
            assert ([getattr(r, col) for r in rows_a[:n]]
                    == [getattr(r, col) for r in rows_b[:n]]), (
                f"{col} depends on the start; criterion 1's budget derivation fails")
        gcap = 100.0
        for r in rows_a:
            t = gcap * 100.0**2
            x = 4 * m.L1 * t + math.sqrt(16 * m.L1**2 * t**2 + 2 * m.L0 * t)
            assert r.step_gamma == pytest.approx(1.0 / ell_eval(m, 4.0 * x), rel=1e-12)
            gcap = r.gamma_cap

    @pytest.mark.parametrize("gamma_cap0", [0.5, 3.3, 17.0])
    @pytest.mark.parametrize("r_bar", [0.37, 3.0, 5.9, 7.3, 11.1])
    def test_withheld_optimum_reports_the_last_certified_bound(self, r_bar, gamma_cap0):
        # Gamma r_bar^2 and Gamma r_bar r_bar round differently; the summary
        # must report the bound the loop stopped on, as the trace records it
        p = catalog("exp-1d", {"known_optimum": False})
        res = algorithm2_run(p, np.array([2.0]), gamma_cap0, r_bar, 1e-6, 100000,
                             check_invariants=False)
        assert res.converged
        assert res.achieved_gap == res.trace[-1].bound_gap <= 1e-6

    def test_stationary_start(self):
        p = catalog("quadratic", {"L": 1.0, "d": 2, "known_optimum": False})
        res = algorithm2_run(p, np.zeros(2), 1.0, 1.0, 1e-9, 100)
        assert res.converged and res.achieved_gap == 0.0 and res.oracle_calls == 1

    def test_divergence_names_the_flags_noted_before_it(self):
        # Gamma_0 = 1/64 is below the 2 (f0 - f*) / r0^2 = 93.1 floor: the
        # breach shows as GRAD_ENVELOPE at k = 0, then y overflows
        p = catalog("exp-1d", {"known_optimum": False})
        run = functools.partial(algorithm2_run, p, np.array([8.0]), 1 / 64, 8.0, 1e-6, 1000)
        with pytest.raises(SafetyViolationError, match="GRAD_ENVELOPE") as observed:
            run()
        with pytest.raises(SafetyViolationError) as unchecked:
            run(check_invariants=False)
        assert "flags noted" not in str(unchecked.value)
        assert str(observed.value).startswith(str(unchecked.value))
        with pytest.raises(InvariantViolationError) as strict:
            run(strict=True)
        assert strict.value.flags == Flag.GRAD_ENVELOPE

    def test_bits_noted_before_a_budget_exit_reach_only_the_total(self):
        # the pre-step breaches at k = 0 are noted, then the budget of one
        # call (spent at x0) stops the run before any row is recorded
        p = catalog("exp-1d", {"known_optimum": False})
        res = algorithm2_run(p, np.array([8.0]), 1 / 64, 8.0, 1e-6, 1)
        assert res.termination == "budget" and res.trace == []
        assert res.flags_total == Flag.GRAD_ENVELOPE | Flag.STEP_SAFETY
        first_breach = r"^GRAD_ENVELOPE broken at k=0: \S+ > \S+$"
        with pytest.raises(InvariantViolationError, match=first_breach):
            algorithm2_run(p, np.array([8.0]), 1 / 64, 8.0, 1e-6, 1, strict=True)

    def test_warmup_bound_is_smallest(self):
        model = Affine(3.301, 1.0)
        k = warmup_iterations_bound(model, 100.0, 100.0)
        from agdsmooth import psi_inverse

        lref = ell_eval(model, 4 * psi_inverse(model, 100.0 * 100.0**2))
        c = math.sqrt(lref * ell_eval(model, 0)) * 100.0

        def ok(kk):
            return ell_eval(model, 24 * c / kk) <= 2 * ell_eval(model, 0)

        assert ok(k) and not ok(k - 1)
        assert warmup_iterations_bound(Constant(3), 10.0, 10.0) == 1


def rule_updates(gamma_cap, r_bar, epsilon, step):
    """Updates of ``gamma_alpha_step`` from ``gamma_cap``, each sized by
    ``step(bound)``, until the bound ``gamma_cap r_bar^2`` is at most
    epsilon or the level falls below ``GAMMA_UNDERFLOW``: the oracle's
    part plays no role in it."""
    updates = 0
    while not (gamma_cap * (r_bar * r_bar) <= epsilon or gamma_cap < solvers.GAMMA_UNDERFLOW):
        _, gamma_cap = gamma_alpha_step(gamma_cap, step(gamma_cap * (r_bar * r_bar)))
        updates += 1
    return updates


SCALE = st.floats(min_value=1.0, max_value=4.0)
# (problem, profile kind): a constant profile bounds only the quadratic
COUNTED_PROFILES = [(name, kind) for name in ("exp-1d", "exp-experiment", "quadratic")
                    for kind in ("affine", "power")] + [("quadratic", "constant")]


@st.composite
def counted_runs(draw):
    """A monotone-psi profile at or above a catalog problem's own, a start
    near its optimum with r_bar in [1, 3] times the initial distance R and
    gamma_cap0 in [1, 10] times its floor 2 (f0 - f*) / R^2, and an epsilon
    that the adaptive bound meets within about 200 steps: 1 / sqrt(Gamma)
    grows by about sqrt(gamma) / 2 a step, and gamma is smallest at the
    start.  On the quadratic the profile may be flat."""
    name, kind = draw(st.sampled_from(COUNTED_PROFILES))
    problem = catalog(name)
    own = problem.ell_model
    l0, l1 = (own.L, 0.0) if name == "quadratic" else (own.L0, own.L1)
    slope = st.floats(min_value=0.0, max_value=4.0) if l1 == 0 else SCALE.map(lambda c: c * l1)
    if kind == "constant":
        model = Constant(l0 * draw(SCALE))
    elif kind == "affine":
        model = Affine(l0 * draw(SCALE), draw(slope))
    else:
        # L0' >= L0 + L1 and s^rho >= s past 1 keep it above L0 + L1 s
        model = Power(draw(st.floats(min_value=1.0, max_value=1.5)), (l0 + l1) * draw(SCALE),
                      draw(slope))
    if problem.dim == 1:
        direction = (draw(st.sampled_from([-1.0, 1.0])),)
    else:
        theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        direction = (math.cos(theta), math.sin(theta))
    near = 10.0 ** draw(st.floats(min_value=-2.0, max_value=0.0))
    x0 = tuple(c + near * v for c, v in zip(problem.optimum.x_star, direction))
    f0, _, gn0 = evaluate(problem, x0)
    dist = distance(x0, problem.optimum.x_star)
    r_bar = draw(st.floats(min_value=1.0, max_value=3.0)) * dist
    gamma_cap0 = draw(st.floats(min_value=1.0, max_value=10.0)) * 2.0 * (
        f0 - problem.optimum.f_star) / dist**2
    slowest = model.ell(4.0 * psi_inverse(model, gamma_cap0 * r_bar**2))
    steps = draw(st.floats(min_value=0.0, max_value=200.0))
    epsilon = r_bar**2 / (1.0 / math.sqrt(gamma_cap0) + 0.5 * steps / math.sqrt(slowest))**2
    # the largest warm-start target that the profile admits, up to the one
    # at which a warm start without the optimum takes no GD step
    delta = min(model.admissible_boundary, 2.0 * gn0 * r_bar)
    problem = dataclasses.replace(problem, ell_model=model)
    return problem, model, x0, r_bar, gamma_cap0, epsilon, delta


class TestCountIsTheRecurrence:
    """With the optimum withheld a run stops only on the bound Gamma r_bar^2,
    so its count is the step rule's recurrence alone; with the optimum
    known it may stop earlier, on the true gap."""

    @given(counted_runs())
    def test_the_oracle_count_is_the_step_rules_recurrence(self, case):
        problem, model, x0, r_bar, gamma_cap0, epsilon, delta = case
        withheld = dataclasses.replace(problem, optimum=None)
        quiet = {"check_invariants": False, "collect_trace": False}

        adaptive = rule_updates(gamma_cap0, r_bar, epsilon,
                                lambda bound: 1.0 / model.ell(4.0 * psi_inverse(model, bound)))
        runs = [algorithm2_run(p, x0, gamma_cap0, r_bar, epsilon, 10**6, **quiet)
                for p in (withheld, problem)]
        assert all(res.converged for res in runs)
        assert runs[0].oracle_calls == 1 + adaptive
        assert runs[1].oracle_calls <= 1 + adaptive

        fixed = rule_updates(delta / r_bar**2, r_bar, epsilon,
                             lambda bound: 1.0 / (2.0 * model.ell(0.0)))
        runs = [algorithm1_run(p, x0, delta, r_bar, epsilon, 10**6, **quiet)
                for p in (withheld, problem)]
        assert all(res.converged for res in runs)
        assert runs[0].agd_iters == fixed
        assert runs[1].agd_iters <= fixed


def search_warmup_bound(model, gamma_cap0, r_bar):
    """Reference warm-up bound: the smallest k with ell(24 c / k) <= 2 ell(0),
    by doubling then integer bisection; None past 2**62."""
    l0 = ell_eval(model, 0.0)
    lref = ell_eval(model, 4.0 * psi_inverse(model, gamma_cap0 * r_bar**2))
    c = math.sqrt(lref * l0) * r_bar

    def ok(k):
        return ell_eval(model, 24.0 * c / k) <= 2.0 * l0

    if ok(1):
        return 1
    hi = 2
    while not ok(hi):
        hi *= 2
        if hi > 2**62:
            return None
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


WARMUP_PROFILES = (
    Constant(3.0), Affine(3.301, 1.0), Affine(1e-3, 1e3), Affine(50.0, 1e-4),
    Power(0.5, 2.0, 3.0), Power(1.5, 1.0, 2.0), Power(2.0, 1.0, 1.0), Power(2.0, 1e3, 1e-3),
    Power(3.0, 1.0, 1.0),
    CustomMonotone(((0.0, 2.0), (4.0, 6.0), (40.0, 60.0))),
    CustomMonotone(((0.0, 1.0), (10.0, 5.0), (11.0, 100.0))),
    CustomMonotone(((0.0, 1.0), (1.0, 1.0), (2.0, 100.0), (100.0, 100.0))),
)


class TestWarmupBound:
    @pytest.mark.parametrize("model", WARMUP_PROFILES, ids=repr)
    def test_closed_form_matches_the_search(self, model):
        checked = 0
        for gamma_cap0 in np.geomspace(1e-6, 1e6, 13):
            for r_bar in np.geomspace(1e-3, 1e4, 15):
                gamma_cap0, r_bar = float(gamma_cap0), float(r_bar)
                if gamma_cap0 * r_bar**2 >= model.psi_sup:
                    continue
                reference = search_warmup_bound(model, gamma_cap0, r_bar)
                if reference is None or reference >= 2**51:
                    continue
                assert warmup_iterations_bound(model, gamma_cap0, r_bar) == reference, (
                    gamma_cap0, r_bar)
                checked += 1
        assert checked

    def test_unbounded_level_is_a_configuration_error(self):
        # ell reaches 2 ell(0) at s = 1e-300, so k passes 2**62
        with pytest.raises(ConfigurationError, match="no finite warmup bound"):
            warmup_iterations_bound(Affine(1e-300, 1.0), 1.0, 1.0)


class TestTraceFormat:
    def test_header(self):
        assert TRACE_HEADER == ("k,phase,f_gap,grad_norm,gamma_cap,alpha,"
                                "step_gamma,dist_to_opt,bound_gap,lyapunov,flags")

    def test_round_trip_floats(self):
        p = catalog("exp-1d", {})
        res = algorithm2_run(p, np.array([3.0]), 5.0, 4.0, 1e-6, 1000)
        row = format_trace_row(res.trace[0])
        fields = row.split(",")
        assert len(fields) == 11
        # shortest round-trip decimals: parsing back reproduces the float
        assert float(fields[2]) == res.trace[0].f_gap

    def test_missing_optimum_leaves_blanks(self):
        p = catalog("quadratic", {"L": 1.0, "d": 2, "known_optimum": False})
        res = algorithm2_run(p, np.ones(2), 2.0, 2.0, 1e-3, 1000)
        row = format_trace_row(res.trace[0])
        fields = row.split(",")
        assert fields[2] == "" and fields[7] == "" and fields[9] == ""

    def test_observe_mode_flags_column_is_integer(self):
        # claiming half the true curvature makes the adaptive step twice the
        # stable size; observe mode must record the resulting violation bits
        # as plain integers in every trace row
        p = dataclasses.replace(catalog("quadratic", {"L": 1.0, "d": 2}),
                                ell_model=Constant(0.5))
        res = algorithm2_run(p, np.ones(2), 2.0, 2.0, 1e-10, 40, strict=False)
        assert res.flags_total > 0
        flagged = [r for r in res.trace if r.flags]
        assert flagged, "expected at least one flagged row"
        for rec in res.trace:
            field = format_trace_row(rec).split(",")[-1]
            assert int(field) == rec.flags

    @staticmethod
    def reference_row(rec):
        # one cell per field: int and str columns by str, float columns as
        # the repr of a python float, None as an empty cell
        return ",".join(
            str(v) if f.type in ("int", "str") else "" if v is None else repr(float(v))
            for f in dataclasses.fields(rec) for v in [getattr(rec, f.name)])

    def test_rows_of_runs_match_the_per_cell_reference(self):
        # agd1's warm start writes gd rows, whose level cells are None; the
        # withheld optimum leaves the gap, distance and lyapunov cells None
        p = catalog("exp-1d", {})
        q = catalog("exp-1d", {"known_optimum": False})
        delta = select_delta(p.ell_model, 4.0)
        runs = [algorithm1_run(p, np.array([3.0]), delta, 4.0, 1e-6, 1000),
                algorithm2_run(q, np.array([3.0]), 5.0, 4.0, 1e-6, 1000)]
        assert {r.phase for r in runs[0].trace} == {"gd", "agd"}
        for res in runs:
            for rec in res.trace:
                assert format_trace_row(rec) == self.reference_row(rec)

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["gd", "agd"]),
           st.lists(st.one_of(st.none(), st.floats(), st.floats().map(np.float64)),
                    min_size=8, max_size=8),
           st.integers(min_value=0, max_value=255))
    def test_format_matches_the_per_cell_reference(self, k, phase, cells, flags):
        rec = TraceRecord(k, phase, *cells, flags)
        assert format_trace_row(rec) == self.reference_row(rec)


def vectors():
    """1-D float vectors: any float entries, including inf and NaN, or
    entries at scales from 1e-160 to 1e160, whose squares under- or
    overflow."""
    scaled = st.builds(lambda m, e: m * 10.0 ** e, st.floats(min_value=-10.0, max_value=10.0),
                       st.integers(min_value=-160, max_value=160))
    return st.lists(st.one_of(st.floats(), scaled), min_size=1, max_size=11).map(np.array)


class TestNorm:
    """``norm`` is ``math.hypot`` of the components: the same bits on a
    tuple and on an array, within one ulp of the true norm, finite up to the
    float range and inf past it, with no NumPy warning on the way."""

    @given(vectors())
    def test_within_one_ulp_of_the_true_norm(self, v):
        got = norm(v)
        values = v.tolist()
        assert type(got) is float and got.hex() == norm(tuple(values)).hex()
        if any(math.isinf(c) for c in values):
            assert got == math.inf
            return
        if any(math.isnan(c) for c in values):
            assert math.isnan(got)
            return
        # the true norm squared, exactly
        total = sum(Fraction(c) ** 2 for c in values)
        if got == math.inf:
            assert total > Fraction(sys.float_info.max - math.ulp(sys.float_info.max)) ** 2
        else:
            ulp = Fraction(math.ulp(got))
            assert max(Fraction(got) - ulp, 0) ** 2 <= total <= (Fraction(got) + ulp) ** 2

    @given(vectors(), vectors())
    def test_distance_is_the_norm_of_the_difference_on_every_kind(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        with np.errstate(over="ignore", invalid="ignore"):
            want = norm(a - b).hex()
        assert distance(a, b).hex() == want
        assert distance(tuple(a.tolist()), b).hex() == want
        assert distance(a.tolist(), tuple(b.tolist())).hex() == want

    def test_a_norm_whose_square_underflows_or_overflows(self):
        assert norm((2.0 ** -975,)) == 2.0 ** -975
        assert norm(np.array([3.0, 4.0]) * 2.0 ** -700) == 5.0 * 2.0 ** -700
        assert norm(np.array([3.0, 4.0]) * 2.0 ** 700) == 5.0 * 2.0 ** 700
        assert norm((1.5e308, 1.5e308)) == math.inf

    @given(st.floats())
    def test_square_is_the_float_power_or_inf(self, x):
        try:
            want = x ** 2
        except OverflowError:
            want = math.inf
        got = square(x)
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


class TestCertificates:
    def test_certified_gap_and_lyapunov_bits_clean(self):
        # strict runs over several problems; any violation would raise
        for name, algo in [("exp-experiment", "agd2"), ("exp-1d", "agd1"),
                           ("quadratic", "agd1")]:
            p = catalog(name)
            x0 = np.asarray({"exp-experiment": [-6.0, -5.0], "exp-1d": [3.0],
                             "quadratic": [1.0, 1.0]}[name])
            r_bar = 2.0 * float(np.linalg.norm(x0 - p.optimum.x_star)) + 1.0
            if algo == "agd1":
                delta = select_delta(p.ell_model, r_bar)
                res = algorithm1_run(p, x0, delta, r_bar, 1e-8,
                                     100000, strict=True)
            else:
                f0, _, _ = evaluate(p, x0)
                r0 = float(np.linalg.norm(x0 - p.optimum.x_star))
                gcap0 = 2.0 * (f0 - p.optimum.f_star) / r0**2
                res = algorithm2_run(p, x0, gcap0, r_bar, 1e-8,
                                     100000, strict=True)
            assert res.converged and res.flags_total == 0
            for rec in res.trace:
                if rec.phase == "agd":
                    assert rec.f_gap <= rec.bound_gap + 1e-9 * max(
                        1.0, abs(p.optimum.f_star))


class TestFlagsTotal:
    """``flags_total`` is the OR of the trace rows' flags, whichever phase
    set them."""

    @pytest.mark.parametrize("settings, expected", [
        # the claim understates exp-1d's curvature, so the GD warm start
        # overshoots the optimum until the budget runs out
        ({"algorithm": "agd1", "problem": "exp-1d",
          "ell": {"kind": "affine", "L0": 0.3, "L1": 0.01}, "budget": 3000},
         Flag.GD_MONOTONE),
        # the observe-mode golden run: accelerated-phase bits only
        ({"algorithm": "agd2", "problem": "quadratic",
          "ell": {"kind": "constant", "L": 0.5}, "epsilon": 1e-8, "budget": 200},
         Flag.CERTIFIED_GAP | Flag.LYAPUNOV | Flag.GRAD_ENVELOPE),
    ], ids=["agd1-gd-phase", "agd2-constant-claim"])
    def test_or_of_trace_row_flags(self, settings, expected):
        result, summary = execute(config_from_dict(settings), write_files=False)
        rows = functools.reduce(operator.or_, (r.flags for r in result.trace), 0)
        assert result.flags_total == summary["flags_total"] == rows == expected
