"""First-order solvers with per-iteration certificates.

Two accelerated variants share one primal-dual step:

* ``algorithm1_run`` warms up with plain gradient descent until the gap is
  at most delta/2, then runs accelerated steps with the fixed step size
  1 / (2 ell(0)).  The warm start guarantees every iterate stays in the
  region where the local smoothness constant is at most 2 ell(0).
* ``algorithm2_run`` skips the warm start and adapts the step size each
  iteration through the gap-to-gradient curve:
  ``gamma_k = 1 / ell(4 psi_inverse(Gamma_k * rbar^2))``.
* ``gd_run`` is plain gradient descent with the step 1 / (2 ell(2 |grad|)),
  the same loop that warm-starts ``algorithm1_run``.

The auxiliary sequence ``Gamma_{k+1} = Gamma_k / (1 + alpha_k)`` with
``alpha_k = sqrt(gamma Gamma_k)`` certifies the gap at every iteration:
``f(y_k) - f* <= Gamma_k * rbar^2``, and decays like ``9 / (gamma k^2)``.
Certificates are recomputed at run time, each one ``_Run.note`` of
``value <= bound``; a violation either aborts (strict mode) or sets its
flag bit in the iteration's trace row (observe mode).  ``_Run`` keeps the
run's record: it checks epsilon, r_bar and the budget, states the gap rule
(``gap``) and makes every trace row (``row``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import IntFlag
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    DomainViolationError,
    InvariantViolationError,
    PreconditionError,
    SafetyViolationError,
)
from .problems import Problem, evaluate, project_closure
from .smoothness import EllModel, ell_eval, psi_inverse, warm_start_refusal

LOG_3_2 = math.log(1.5)

# Gamma underflow guard: below this the certified bound is, for every
# representable epsilon, already met.
GAMMA_UNDERFLOW = 1e-300


class Flag(IntFlag):
    """Per-invariant violation bits recorded in trace rows."""

    NONE = 0
    CERTIFIED_GAP = 1
    LYAPUNOV = 2
    WARM_REGION = 4
    GRAD_ENVELOPE = 8
    BALL_CONFINEMENT = 16
    STEP_SAFETY = 32
    GAMMA_ENVELOPE = 64
    GD_MONOTONE = 128


# --- auxiliary sequence ----------------------------------------------------

def gamma_alpha_step(gamma_cap: float, step_gamma: float) -> tuple[float, float]:
    """One update of the certificate sequence.

    Returns ``(alpha, next_gamma_cap)`` with ``alpha = sqrt(step_gamma *
    gamma_cap)`` exactly and ``next = gamma_cap / (1 + alpha)``.
    """
    assert gamma_cap > 0 and step_gamma >= 0
    alpha = math.sqrt(step_gamma * gamma_cap)
    return alpha, gamma_cap / (1.0 + alpha)


def kbar(gamma_cap0: float, step_gamma: float) -> float:
    """Iteration lag before the 1/k^2 envelope applies:
    ``max(1 + 0.5 * log_{3/2}(step_gamma * gamma_cap0 / 4), 0)``."""
    assert gamma_cap0 > 0 and step_gamma > 0
    return max(1.0 + 0.5 * math.log(step_gamma * gamma_cap0 / 4.0) / LOG_3_2, 0.0)


def gamma_envelope(k: int, step_gamma: float, kbar_value: float) -> float:
    """Certified upper bound ``9 / (step_gamma * (k + 1 - kbar)^2)`` on
    ``Gamma_{k+1}``, valid for ``k >= kbar``."""
    if k < kbar_value:
        raise PreconditionError(f"envelope needs k >= kbar, got k={k} < {kbar_value}")
    return 9.0 / (step_gamma * (k + 1.0 - kbar_value) ** 2)


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D real vector: ``np.linalg.norm``'s own formula
    for that case, ``sqrt(v . v)``, so the bits agree, without its dispatch."""
    return math.sqrt(v.dot(v))


# --- state and trace ---------------------------------------------------------

@dataclass(slots=True)
class AgdState:
    """Solver triple (y, u, Gamma_k) plus the cached oracle output at y.

    Caching f and grad at y is what keeps the method at one fresh gradient
    evaluation per iteration.
    """

    y: np.ndarray
    u: np.ndarray
    gamma_cap: float
    k: int
    f_y: float
    grad_y: np.ndarray


@dataclass(slots=True)
class TraceRecord:
    k: int
    phase: str
    f_gap: float | None
    grad_norm: float
    gamma_cap: float | None
    alpha: float | None
    step_gamma: float | None
    dist_to_opt: float | None
    bound_gap: float | None
    lyapunov: float | None
    flags: int


TRACE_HEADER = ",".join(col.name for col in fields(TraceRecord))


def format_trace_row(rec: TraceRecord) -> str:
    """One CSV line: the int and str cells by ``str``, each float cell the
    repr of a python float (the shortest round-trip decimal), None empty."""
    floats = ",".join(["" if v is None else repr(float(v)) for v in (
        rec.f_gap, rec.grad_norm, rec.gamma_cap, rec.alpha, rec.step_gamma,
        rec.dist_to_opt, rec.bound_gap, rec.lyapunov)])
    return f"{rec.k!s},{rec.phase!s},{floats},{rec.flags!s}"


def write_trace_csv(path, records: list[TraceRecord]) -> None:
    lines = [TRACE_HEADER]
    lines += map(format_trace_row, records)
    lines.append("")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))


@dataclass
class RunResult:
    state: AgdState | None
    gd_iters: int
    agd_iters: int
    achieved_gap: float
    trace: list[TraceRecord]
    termination: str  # converged | budget | precondition-failed
    oracle_calls: int
    flags_total: int = 0
    warmup_bound: int | None = None
    gamma_cap0: float | None = None  # the adaptive run's starting level
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


class _Run:
    """One run's context and record, shared by its GD and accelerated phases.

    Holds the counted oracle, the optimum (``f_star``/``x_star``, None when
    withheld), epsilon, r_bar and the oracle-call budget (checked here for
    every run function), ``flags_total`` (the OR of every bit ``note``
    returns), the trace (None when off; ``row`` makes each row) and the GD
    iteration count.  ``gap`` is the gap rule and ``bound`` the certified
    bound.  A phase that stops on the budget sets ``termination``, and one
    that stops on a saturated level sets ``message``; ``result`` and
    ``refuse`` build the RunResult.
    """

    def __init__(self, problem: Problem, model: EllModel, epsilon: float, r_bar: float,
                 budget: int, check_invariants: bool, strict: bool, collect_trace: bool):
        # r_bar scales every certificate, so it must be finite too
        if not (epsilon > 0 and 0 < r_bar < math.inf and budget >= 1):
            raise ConfigurationError(
                "a run needs epsilon > 0, a finite r_bar > 0 and budget >= 1")
        opt = problem.optimum
        self.problem = problem
        self.model = model
        self.f_star = opt.f_star if opt is not None else None
        self.x_star = opt.x_star if opt is not None else None
        self.epsilon = epsilon
        self.r_bar = r_bar
        self.budget = budget
        self.check_invariants = check_invariants
        self.strict = strict
        self.trace: list[TraceRecord] | None = [] if collect_trace else None
        self.calls = 0
        self.gd_iters = 0
        self.flags_total = 0
        self.termination = "converged"
        self.message = ""

    def oracle(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """One counted gradient evaluation: (f, grad) at x."""
        self.calls += 1
        return evaluate(self.problem, x)

    def start(self, x0) -> tuple[AgdState, str]:
        """The first oracle call, at x0, as a state at level 1, and why the
        run must be refused there ("" if it need not be): an r_bar below
        the true initial distance."""
        x0 = np.asarray(x0, dtype=float)
        f0, g0 = self.oracle(x0)
        refusal = ""
        if (self.x_star is not None
                and norm(x0 - self.x_star) > self.r_bar * (1 + 1e-12)):
            refusal = "r_bar is below the true initial distance"
        return AgdState(y=x0, u=x0.copy(), gamma_cap=1.0, k=0, f_y=f0, grad_y=g0), refusal

    def gap(self, f: float, grad_norm: float) -> float:
        """The gap at a point with value ``f``: ``f - f*``, or without the
        optimum the bound ``|grad| * r_bar`` that convexity certifies."""
        return f - self.f_star if self.f_star is not None else grad_norm * self.r_bar

    def bound(self, gamma_cap: float) -> float:
        """The certified bound ``Gamma r_bar^2`` at level ``gamma_cap``, in
        the one rounding order that the stop test, the trace and the
        result share."""
        return gamma_cap * (self.r_bar * self.r_bar)

    def row(self, phase: str, k: int, f_gap: float | None, grad_norm: float,
            step_gamma: float, dist: float | None, flags: int,
            gamma_cap: float | None = None, alpha: float | None = None,
            bound: float | None = None, v: float | None = None) -> None:
        """Append a trace row, if the trace is on.  The caller passes each
        cell as its own checks computed it: the gap ``f - f*`` and the
        distance ``|y - x*|`` (None without the optimum), and in the
        accelerated phase the level, its ``bound`` and the certificate
        function ``v``."""
        if self.trace is not None:
            self.trace.append(TraceRecord(k, phase, f_gap, grad_norm, gamma_cap, alpha,
                                          step_gamma, dist, bound, v, flags))

    def note(self, bit: Flag, k: int, value: float, bound: float) -> int:
        """The certificate ``value <= bound`` at iteration ``k``: 0 if it
        holds, else ``bit``, which also joins ``flags_total``.  In strict
        mode a breach raises, naming the flag, k and both sides."""
        if value <= bound:
            return 0
        # plain ints throughout: IntFlag instances stringify as names on
        # some interpreters, which would corrupt the CSV flags column
        self.flags_total = int(self.flags_total | bit)
        if self.strict:
            raise InvariantViolationError(f"{bit.name} broken at k={k}: {value} > {bound}",
                                          flags=int(bit))
        return int(bit)

    def phase(self, body, state: AgdState, *args) -> AgdState:
        """``body(self, state, *args)``; a divergence in it names the flag
        bits noted before it, which point at the likely cause."""
        try:
            return body(self, state, *args)
        except SafetyViolationError as exc:
            noted = [f.name for f in Flag if f and self.flags_total & f]
            if not noted:
                raise
            raise SafetyViolationError(f"{exc}; flags noted before it: {', '.join(noted)}") from exc

    def result(self, state: AgdState, achieved: float | None = None) -> RunResult:
        """The converged or budget result at ``state``.  The achieved gap
        defaults to the true gap at y, or the certified bound when the
        optimum is unknown."""
        if achieved is None:
            achieved = (state.f_y - self.f_star if self.f_star is not None
                        else self.bound(state.gamma_cap))
        return RunResult(
            state=state, gd_iters=self.gd_iters, agd_iters=state.k,
            achieved_gap=achieved, trace=self.trace or [],
            termination=self.termination, oracle_calls=self.calls,
            flags_total=self.flags_total, message=self.message,
        )

    def stationary(self, state: AgdState) -> RunResult | None:
        """A zero gradient at the start: convexity certifies optimality
        outright.  None when the gradient is not zero."""
        if norm(state.grad_y) != 0.0:
            return None
        self.message = "stationary start"
        return self.result(state, self.gap(state.f_y, 0.0))

    def refuse(self, message: str) -> RunResult:
        """The precondition-failed exit: no state, nothing certified."""
        return RunResult(
            state=None, gd_iters=0, agd_iters=0, achieved_gap=math.inf, trace=[],
            termination="precondition-failed", oracle_calls=self.calls,
            message=message,
        )


def _quiet(run_function):
    """``run_function`` with NumPy's floating-point warnings off for the
    whole run, one scope from its first norm to its result: a diverging run
    ends in a typed error, a noted flag or an infinite gap, which the
    warnings would only repeat."""
    @functools.wraps(run_function)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return run_function(*args, **kwargs)
    return quiet


def lyapunov(state: AgdState, f_star: float, x_star: np.ndarray) -> float:
    """Certificate function ``V_k = f(y_k) - f* + (Gamma_k / 2) |u_k - x*|^2``."""
    return _certificate(state.f_y - f_star, state.gamma_cap, norm(state.u - x_star))


def _certificate(gap: float, gamma_cap: float, dist_u: float) -> float:
    """``lyapunov`` from its parts: the gap ``f(y) - f*``, the level and
    ``|u - x*|``, which the step loop shares with its other checks."""
    return gap + 0.5 * gamma_cap * dist_u ** 2


# --- single AGD step -------------------------------------------------------

def agd_step(
    state: AgdState,
    step_gamma: float,
    problem: Problem,
    _eval: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None,
    alpha: float | None = None,
) -> AgdState:
    """One accelerated step; exactly one fresh gradient evaluation.

    ``y_next`` blends y, u and the cached gradient at y; ``u_next`` takes a
    projected dual step against the fresh gradient.  ``_eval`` replaces the
    plain oracle (the run loops pass their call counter).  ``alpha`` is the
    step's ``sqrt(step_gamma * gamma_cap)`` where the caller has it already
    (the run loop and the descent check do); None computes it, as
    ``gamma_alpha_step`` does.  Raises a safety violation if y_next leaves
    the open feasible set, which signals a breach of the step-size contract
    ``step_gamma <= 1 / ell(2 |grad y|)``; callers check that contract
    themselves, against their own profile.
    """
    assert step_gamma > 0
    gamma_cap = state.gamma_cap
    if alpha is None:
        alpha = math.sqrt(step_gamma * gamma_cap)
    w = 1.0 / (1.0 + alpha)
    y_next = w * (state.y + alpha * state.u - step_gamma * state.grad_y)
    try:
        f_next, g_next = _eval(y_next) if _eval is not None else evaluate(problem, y_next)
    except DomainViolationError as exc:
        raise SafetyViolationError(
            f"y left the feasible set at iteration {state.k + 1}: {exc}"
        ) from exc
    u_next = project_closure(problem.domain, state.u - (alpha / gamma_cap) * g_next)
    return AgdState(y_next, u_next, gamma_cap / (1.0 + alpha), state.k + 1, f_next, g_next)


# --- gradient descent --------------------------------------------------------

def _gd_phase(run: _Run, state: AgdState, target: float) -> AgdState:
    """Run x <- x - grad / (2 ell(2 |grad|)) from ``state.y`` until the gap
    is certified to be at most ``target``.  The returned state keeps the
    level and k of ``state``.  With checks on, a step that moves x away
    from a known optimum notes GD_MONOTONE."""
    x, f, g = state.y, state.f_y, state.grad_y
    gn = norm(g)
    f_star, x_star = run.f_star, run.x_star
    check = run.check_invariants and x_star is not None
    # |x - x*| feeds the monotone check and the trace's distance cell
    track_dist = x_star is not None and (check or run.trace is not None)
    dist = norm(x - x_star) if check else None
    while True:
        if run.gap(f, gn) <= target:
            break
        if run.calls >= run.budget:
            run.termination = "budget"
            break
        gamma_t = 1.0 / (2.0 * ell_eval(run.model, 2.0 * gn))
        try:
            x_next = x - gamma_t * g
            f, g = run.oracle(x_next)
        except DomainViolationError as exc:
            raise SafetyViolationError(f"GD iterate left the feasible set: {exc}") from exc
        x = x_next
        gn = norm(g)
        run.gd_iters += 1
        flags = 0
        dist_next = norm(x - x_star) if track_dist else None
        if check:
            flags = run.note(Flag.GD_MONOTONE, run.gd_iters, dist_next, dist * (1.0 + 1e-12))
        dist = dist_next
        run.row("gd", run.gd_iters, None if f_star is None else f - f_star, gn, gamma_t,
                dist, flags)
    return AgdState(y=x, u=x.copy(), gamma_cap=state.gamma_cap, k=state.k, f_y=f, grad_y=g)


@_quiet
def gd_run(
    problem: Problem,
    model: EllModel,
    x0: np.ndarray,
    epsilon: float,
    r_bar: float,
    budget: int,
    check_invariants: bool = True,
    strict: bool = False,
    collect_trace: bool = True,
) -> RunResult:
    """Plain gradient descent with the step 1 / (2 ell(2 |grad|)).

    Stops once ``f(x) - f* <= epsilon`` (known optimum) or the computable
    certificate ``|grad| * r_bar <= epsilon`` holds; ``budget`` caps oracle
    calls.  The final iterate is the result state's ``y``.
    """
    run = _Run(problem, model, epsilon, r_bar, budget, check_invariants, strict, collect_trace)
    state, _ = run.start(x0)
    state = run.phase(_gd_phase, state, epsilon)
    return run.result(state, run.gap(state.f_y, norm(state.grad_y)))


# --- gradient bound heuristic -----------------------------------------------

# Sphere samples and safety factor of the m_bar heuristic.
GRAD_BOUND_SAMPLES = 64
GRAD_BOUND_SAFETY = 2.0


def estimate_grad_bound(problem: Problem, r_bar: float, seed: int = 0) -> float:
    """Heuristic m_bar: sample ``GRAD_BOUND_SAMPLES`` gradient norms on the
    sphere of radius 2 r_bar around the optimum and scale the largest by
    ``GRAD_BOUND_SAFETY``."""
    if problem.optimum is None:
        raise PreconditionError("gradient-bound estimation needs a known optimum")
    if not 0 < r_bar < math.inf:
        # an infinite sphere has no points to sample
        raise ConfigurationError(f"gradient-bound estimation needs a finite r_bar > 0, got {r_bar}")
    rng = np.random.default_rng(seed)
    x_star = problem.optimum.x_star
    best = 0.0
    # a finite gradient whose square overflows reads as an infinite bound,
    # without NumPy's overflow warning
    with np.errstate(over="ignore"):
        for _ in range(GRAD_BOUND_SAMPLES):
            d = rng.standard_normal(problem.dim)
            d /= norm(d)
            x = x_star + 2.0 * r_bar * d
            try:
                _, g = evaluate(problem, x)
            except DomainViolationError:
                continue
            best = max(best, norm(g))
    if best == 0.0:
        raise PreconditionError("all gradient-bound samples fell outside the feasible set")
    return GRAD_BOUND_SAFETY * best


# --- shared accelerated loop -------------------------------------------------

def _run_agd(run: _Run, state: AgdState, step_gamma_const: float | None) -> AgdState:
    """Accelerated steps from ``state`` until the gap is certified.  A fixed
    ``step_gamma_const`` is the warm-started variant; None selects the
    adaptive step ``1 / ell(4 psi_inverse(Gamma_k r_bar^2))``.

    Each sum is taken once per iteration and shared: the gap ``f(y) - f*``
    and the level's bound ``Gamma r_bar^2`` by the stop test, CERTIFIED_GAP
    and the row; ``|u - x*|`` by the certificate function and, at the next
    iteration, BALL_CONFINEMENT, which also takes the row's ``|y - x*|``.
    A certificate is noted only when it does not hold (a NaN does not)."""
    problem, model, budget = run.problem, run.model, run.budget
    epsilon, f_star, x_star = run.epsilon, run.f_star, run.x_star
    check_invariants, oracle, note, row = run.check_invariants, run.oracle, run.note, run.row
    l0 = ell_eval(model, 0.0)
    adaptive = step_gamma_const is None
    kbar_value = None if adaptive else kbar(state.gamma_cap, step_gamma_const)
    gap_tol = 1e-9 * (max(1.0, abs(f_star)) if f_star is not None else 1.0)
    warm_cap = 2.0 * l0 * (1.0 + 1e-12)
    ball_cap = 2.0 * run.r_bar * (1.0 + 1e-12)
    flat = model.ell_sup() == l0
    check_v = check_invariants and x_star is not None
    ball = check_v and math.isfinite(model.delta_max)
    # the certificate function feeds the LYAPUNOV check and the trace
    # column, |y - x*| the ball check and the distance column
    track_v = x_star is not None and (check_invariants or run.trace is not None)
    track_dist = x_star is not None and (ball or run.trace is not None)

    gap = None if f_star is None else state.f_y - f_star
    bound = run.bound(state.gamma_cap)
    grad_norm = norm(state.grad_y)
    dist_u = norm(state.u - x_star) if check_v else None
    v_prev = _certificate(gap, state.gamma_cap, dist_u) if check_v else None
    dist = norm(state.y - x_star) if ball else None
    k0 = state.k
    while True:
        if (gap is not None and gap <= epsilon) or bound <= epsilon:
            return state
        if state.gamma_cap < GAMMA_UNDERFLOW:
            run.message = "gamma_cap underflow; certified bound saturated"
            return state

        # step size for this iteration
        if not adaptive:
            step_gamma = step_gamma_const
            envelope_x = None
        else:
            if flat:
                # ell(4 psi_inverse(bound)) = ell(0) identically; the envelope
                # value itself is only needed for the check
                envelope_x = psi_inverse(model, bound) if check_invariants else None
                step_gamma = 1.0 / l0
            else:
                envelope_x = psi_inverse(model, bound)
                step_gamma = 1.0 / ell_eval(model, 4.0 * envelope_x)

        # bits noted before a budget exit reach only flags_total
        flags, k = 0, state.k
        if check_invariants:
            if not adaptive:
                value = ell_eval(model, 4.0 * grad_norm)
                if not value <= warm_cap:
                    flags |= note(Flag.WARM_REGION, k, value, warm_cap)
            elif envelope_x is not None:
                cap = envelope_x * (1.0 + 1e-9) + 1e-15
                if not grad_norm <= cap:
                    flags |= note(Flag.GRAD_ENVELOPE, k, grad_norm, cap)
            if ball:
                value = max(dist, dist_u)
                if not value <= ball_cap:
                    flags |= note(Flag.BALL_CONFINEMENT, k, value, ball_cap)
            cap = (1.0 + 1e-12) / ell_eval(model, 2.0 * grad_norm)
            if not step_gamma <= cap:
                flags |= note(Flag.STEP_SAFETY, k, step_gamma, cap)

        if run.calls >= budget:
            run.termination = "budget"
            return state

        alpha = math.sqrt(step_gamma * state.gamma_cap)
        state = agd_step(state, step_gamma, problem, oracle, alpha)
        gamma_cap = state.gamma_cap
        grad_norm = norm(state.grad_y)
        gap = None if f_star is None else state.f_y - f_star
        bound = run.bound(gamma_cap)
        v_new = None
        if track_v:
            dist_u = norm(state.u - x_star)
            v_new = _certificate(gap, gamma_cap, dist_u)

        if check_invariants:
            if f_star is not None:
                cap = bound + gap_tol
                if not gap <= cap:
                    flags |= note(Flag.CERTIFIED_GAP, state.k, gap, cap)
            if check_v:
                cap = v_prev / (1.0 + alpha) + 1e-9 * max(1.0, v_prev)
                if not v_new <= cap:
                    flags |= note(Flag.LYAPUNOV, state.k, v_new, cap)
                v_prev = v_new
            if kbar_value is not None and k - k0 >= kbar_value:
                env = gamma_envelope(k - k0, step_gamma_const, kbar_value)
                cap = env + 4.0 * math.ulp(env)
                if not gamma_cap <= cap:
                    flags |= note(Flag.GAMMA_ENVELOPE, state.k, gamma_cap, cap)

        dist = norm(state.y - x_star) if track_dist else None
        row("agd", state.k, gap, grad_norm, step_gamma, dist, flags, gamma_cap, alpha,
            bound, v_new)


@_quiet
def algorithm1_run(
    problem: Problem,
    model: EllModel,
    x0: np.ndarray,
    delta: float,
    r_bar: float,
    epsilon: float,
    budget: int,
    m_bar: float | None = None,
    check_invariants: bool = True,
    strict: bool = False,
    collect_trace: bool = True,
) -> RunResult:
    """Warm-started accelerated run with the fixed step 1 / (2 ell(0)).

    ``budget`` caps total oracle calls across both phases.  An infinite
    ``delta`` (the select_delta sentinel for constant-like profiles) is
    replaced by twice the initial gap (or its gradient certificate), which
    makes the warm start a no-op.  A profile with a non-monotone psi needs
    ``m_bar``; without it the run is refused.  The certificate assumes
    ``r_bar >= |x0 - x*|``: with the optimum known a shorter r_bar is
    refused, but without it nothing checks that, and a bound certified on
    too short an r_bar need not hold.
    """
    run = _Run(problem, model, epsilon, r_bar, budget, check_invariants, strict, collect_trace)
    state, refusal = run.start(x0)
    if refusal:
        return run.refuse(refusal)
    f_star = run.f_star

    if f_star is not None and state.f_y - f_star <= epsilon:
        state.gamma_cap = delta / r_bar**2 if (math.isfinite(delta) and delta > 0) else 1.0
        return run.result(state)
    stationary = run.stationary(state)
    if stationary is not None:
        return stationary

    # resolve the warm-start gap target
    if math.isinf(delta):
        delta = 2.0 * run.gap(state.f_y, norm(state.grad_y))
    refusal = warm_start_refusal(model, delta, m_bar)
    if refusal:
        return run.refuse(refusal)

    state.gamma_cap = delta / r_bar**2
    state = run.phase(_gd_phase, state, delta / 2.0)
    if run.termination == "budget":
        return run.result(state)
    return run.result(run.phase(_run_agd, state, 1.0 / (2.0 * ell_eval(model, 0.0))))


def warmup_iterations_bound(model: EllModel, gamma_cap0: float, r_bar: float) -> int:
    """Smallest integer k such that the decayed certificate level forces the
    small-curvature condition ``ell(24 sqrt(C)/k) <= 2 ell(0)`` with
    ``C = ell(4 psi_inverse(gamma_cap0 r_bar^2)) ell(0) r_bar^2``.

    The condition holds while ``24 sqrt(C)/k`` stays within
    ``8 sqrt(delta* ell(0))``, where delta* is the profile's
    ``admissible_boundary``, so k = ceil(3 r_bar sqrt(lref / delta*)) with
    lref = ell(4 psi_inverse(gamma_cap0 r_bar^2)); k = 1 where ell never
    passes 2 ell(0), and a k above 2**62 is a ``ConfigurationError``.  The
    adaptive algorithm does not steer by it; every agd2 run reports it as
    ``warmup_bound`` in its result and summary.
    """
    t0 = gamma_cap0 * r_bar**2
    if t0 >= model.psi_sup:
        raise ConfigurationError("gamma_cap0 * r_bar^2 is out of the psi range")
    boundary = model.admissible_boundary
    if math.isinf(boundary):
        return 1
    lref = ell_eval(model, 4.0 * psi_inverse(model, t0))
    x = 3.0 * r_bar * math.sqrt(lref / boundary) if boundary > 0 else math.inf
    if not x <= 2**62:
        raise ConfigurationError("no finite warmup bound found (profile unbounded?)")
    # x carries a few ulps of rounding, which past k ~ 1e13 can cross an
    # integer or two; the condition itself settles those last steps
    l0 = ell_eval(model, 0.0)
    c = math.sqrt(lref * l0) * r_bar
    k = max(1, math.ceil(x))
    while ell_eval(model, 24.0 * c / k) > 2.0 * l0:
        k += 1
    while k > 1 and ell_eval(model, 24.0 * c / (k - 1)) <= 2.0 * l0:
        k -= 1
    return k


@_quiet
def algorithm2_run(
    problem: Problem,
    model: EllModel,
    x0: np.ndarray,
    gamma_cap0: float | None,
    r_bar: float,
    epsilon: float,
    budget: int,
    check_invariants: bool = True,
    strict: bool = False,
    collect_trace: bool = True,
) -> RunResult:
    """Adaptive-step accelerated run without a warm start.

    Requires psi to be strictly increasing on all of [0, inf); profiles
    with a finite increase region are rejected as a configuration error,
    as is a starting certificate level outside the range of psi.  With a
    known optimum the start admits no level below twice the initial gap
    over the squared initial distance; ``gamma_cap0=None`` starts there (at
    1 from the optimum itself).  The result's ``gamma_cap0`` is the level
    the run started from.  As in ``algorithm1_run``, the certificate assumes
    ``r_bar >= |x0 - x*|``, which nothing checks without the optimum.
    """
    run = _Run(problem, model, epsilon, r_bar, budget, check_invariants, strict, collect_trace)
    if not (gamma_cap0 is None or gamma_cap0 > 0):
        raise ConfigurationError("algorithm2_run needs gamma_cap0 > 0")
    if math.isfinite(model.delta_max):
        raise ConfigurationError(
            "psi is not invertible on [0, inf) for this profile "
            f"(increase stops at {model.delta_max}); use the warm-started variant"
        )
    if gamma_cap0 is None and problem.optimum is None:
        raise ConfigurationError("gamma_cap0 is required when the problem optimum is unknown")
    state, refusal = run.start(x0)
    x_star = run.x_star
    r0 = norm(state.y - x_star) if x_star is not None else 0.0
    floor = 2.0 * (state.f_y - run.f_star) / r0**2 if r0 > 0 else None
    if gamma_cap0 is None:
        gamma_cap0 = 1.0 if floor is None else floor
    if gamma_cap0 * r_bar**2 >= model.psi_sup:
        raise ConfigurationError(
            f"gamma_cap0 * r_bar^2 = {gamma_cap0 * r_bar**2} is not below "
            f"sup psi = {model.psi_sup}; the adaptive step is undefined"
        )
    if not refusal and floor is not None and gamma_cap0 < floor * (1 - 1e-12):
        refusal = f"gamma_cap0 must be >= {floor}"
    if refusal:
        result = run.refuse(refusal)
    else:
        try:
            warmup = warmup_iterations_bound(model, gamma_cap0, r_bar)
        except ConfigurationError:
            warmup = None
        state.gamma_cap = gamma_cap0
        result = run.stationary(state) or run.result(run.phase(_run_agd, state, None))
        result.warmup_bound = warmup
    result.gamma_cap0 = gamma_cap0
    return result
