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
Both accelerated variants run one loop, ``_run_agd``, which asks the
variant's step rule for each step: ``_FixedStep`` (``algorithm1_run``) owns
the step 1 / (2 ell(0)), the WARM_REGION check and kbar, from which it
checks the GAMMA_ENVELOPE; ``_AdaptiveStep`` (``algorithm2_run``) owns the
adaptive step and the GRAD_ENVELOPE check.  The loop itself checks the
CERTIFIED_GAP, LYAPUNOV, BALL_CONFINEMENT and STEP_SAFETY certificates of
both, and ``_gd_phase`` GD_MONOTONE.
Certificates are recomputed at run time; each breach of one is a
``_Run.note``, which either aborts (strict mode) or sets its flag bit in
the iteration's trace row (observe mode).  ``_Run`` is the run's scope and
record: it checks epsilon, r_bar and the budget, keeps NumPy's
floating-point warnings off while an array run lasts, states the gap rule
(``gap``) and makes every trace row (``row``).

A run of dimension at most ``_FLOAT_DIM`` holds y, u and the gradient as
tuples of Python floats, which ``evaluate`` and ``project_closure`` take as
they are; a larger one holds float arrays.  The run chooses once, at its
start, and the step's vector helpers follow the kind they are given:
elementwise IEEE operations round alike in both, and ``problems.norm`` and
``problems.distance`` are ``math.hypot`` and ``math.dist`` on both, so the
choice moves no bit.  ``evaluate`` returns each gradient with its norm, and
refuses a NaN gradient.  ``RunResult.state`` and ``agd_step`` keep the kind
of the run or state they are given.  NumPy is imported only by the array
path, by an x0 that is not already a tuple of floats, and by the m_bar
heuristic's sphere draw; a small run from a tuple of floats needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import IntFlag
from typing import Any

from .errors import (
    ConfigurationError,
    DomainViolationError,
    InvariantViolationError,
    PreconditionError,
    SafetyViolationError,
)
from .problems import Problem, distance, evaluate, norm, project_closure
from .smoothness import EllModel, psi_inverse, square, warm_start_refusal

LOG_3_2 = math.log(1.5)

# Gamma underflow guard: below this the certified bound is, for every
# representable epsilon, already met.
GAMMA_UNDERFLOW = 1e-300

# The largest dimension whose run holds its vectors as tuples of floats.
# Every catalog oracle takes a tuple with no conversion; the vector helpers
# cost about the same on floats as on arrays between d = 16 and d = 32, and
# grow with d on floats only (BENCH_26.json times each helper alone).
_FLOAT_DIM = 16


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


# --- vector kinds ------------------------------------------------------------
# Each helper takes tuples of floats or float arrays and returns the kind it
# was given, in the rounding order of the array expression it names.

def _blend(w: float, y, alpha: float, u, gamma: float, g):
    """``w * (y + alpha * u - gamma * g)``."""
    if type(y) is tuple:
        return tuple([w * (a + alpha * b - gamma * c) for a, b, c in zip(y, u, g)])
    return w * (y + alpha * u - gamma * g)


def _descend(v, c: float, g):
    """``v - c * g``: a gradient step, or the dual step before projection."""
    if type(v) is tuple:
        return tuple([a - c * b for a, b in zip(v, g)])
    return v - c * g


def _copy(v):
    """A copy that a state may keep beside ``v``; a tuple is its own."""
    return v if type(v) is tuple else v.copy()


def check_run_parameters(epsilon: float, r_bar: float, budget: int) -> None:
    """Refuse a run without epsilon > 0, budget >= 1 and an r_bar > 0 whose
    square is a positive float: r_bar^2 scales every certificate, so an
    r_bar^2 that is 0 or inf in floats certifies nothing."""
    if not (epsilon > 0 and r_bar > 0 and 0 < r_bar * r_bar < math.inf and budget >= 1):
        raise ConfigurationError(
            "a run needs epsilon > 0, a finite r_bar > 0 and budget >= 1, "
            f"with r_bar^2 a positive float (r_bar = {r_bar})")


# --- state and trace ---------------------------------------------------------

@dataclass(slots=True)
class AgdState:
    """Solver triple (y, u, Gamma_k), ``evaluate``'s f, grad and ``grad_norm``
    at y, and the ``alpha`` of the step that made it (None at a start state).

    Caching them is what keeps the method at one fresh gradient evaluation,
    and one gradient norm, per iteration.  In a run of dimension at most
    ``_FLOAT_DIM``, y, u and ``grad_y`` are tuples of Python floats, and
    float arrays in a larger one; a state keeps its run's kind when it
    leaves the run in a ``RunResult``, and ``agd_step`` returns the kind it
    is given.
    """

    y: Any
    u: Any
    gamma_cap: float
    k: int
    f_y: float
    grad_y: Any
    grad_norm: float
    alpha: float | None = None


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
    """One run's scope and record, shared by its GD and accelerated phases.

    Holds the run's vector kind (``floats``: tuples of floats up to
    ``_FLOAT_DIM``), the counted oracle, the optimum (``f_star``/``x_star``,
    None when withheld; ``x_star`` the catalog's tuple, which ``distance``
    takes beside either kind), epsilon, r_bar and the oracle-call budget
    (checked here for every run function),
    ``flags_total`` (the OR of every bit ``note`` returns), the trace (None
    when off; ``row`` makes each row) and the GD iteration count.  ``gap``
    is the gap rule and ``bound`` the certified bound.  A phase that stops
    on the budget sets ``termination``, and one that stops on a saturated
    level sets ``message``; ``result`` and ``refuse`` build the RunResult.
    As a context manager it keeps NumPy's floating-point warnings off from
    an array run's first norm to its result (a divergence ends in a typed
    error, a noted flag or an infinite gap, which they would only repeat;
    a float run does no NumPy arithmetic), and a
    ``SafetyViolationError`` leaving it names the flag bits noted before it,
    which point at the likely cause.
    """

    def __init__(self, problem: Problem, model: EllModel, epsilon: float, r_bar: float,
                 budget: int, check_invariants: bool, strict: bool, collect_trace: bool):
        check_run_parameters(epsilon, r_bar, budget)
        opt = problem.optimum
        self.problem = problem
        self.model = model
        self.floats = problem.dim <= _FLOAT_DIM
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

    def oracle(self, x) -> tuple[float, object, float]:
        """One counted ``evaluate``: (f, grad, |grad|) at x."""
        self.calls += 1
        return evaluate(self.problem, x)

    def start(self, x0) -> tuple[AgdState, str]:
        """The first oracle call, at x0 in the run's vector kind, as a state
        at level 1, and why the run must be refused there ("" if it need not
        be): an r_bar below the true initial distance.  A tuple of floats
        starts a float run as it is; any other x0 is read by NumPy."""
        if not (self.floats and type(x0) is tuple and all(type(v) is float for v in x0)):
            import numpy as np

            x0 = np.asarray(x0, dtype=float)
            if self.floats and x0.shape == (self.problem.dim,):
                x0 = tuple(x0.tolist())
        f0, g0, gn0 = self.oracle(x0)
        refusal = ""
        if (self.x_star is not None
                and distance(x0, self.x_star) > self.r_bar * (1 + 1e-12)):
            refusal = "r_bar is below the true initial distance"
        return AgdState(x0, _copy(x0), 1.0, 0, f0, g0, gn0), refusal

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
        """A breach of the certificate ``value <= bound`` at iteration
        ``k``, which the caller found (a NaN breaks every bound): returns
        ``bit``, which also joins ``flags_total``.  In strict mode the
        breach raises, naming the flag, k and both sides."""
        # plain ints throughout: IntFlag instances stringify as names on
        # some interpreters, which would corrupt the CSV flags column
        self.flags_total = int(self.flags_total | bit)
        if self.strict:
            raise InvariantViolationError(f"{bit.name} broken at k={k}: {value} > {bound}",
                                          flags=int(bit))
        return int(bit)

    def __enter__(self) -> "_Run":
        if not self.floats:
            import numpy as np

            self._errors = np.seterr(over="ignore", invalid="ignore", divide="ignore")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.floats:
            import numpy as np

            np.seterr(**self._errors)
        if isinstance(exc, SafetyViolationError):
            noted = [f.name for f in Flag if f and self.flags_total & f]
            if noted:
                raise SafetyViolationError(
                    f"{exc}; flags noted before it: {', '.join(noted)}") from exc

    def result(self, state: AgdState, achieved: float | None = None) -> RunResult:
        """The converged or budget result at ``state``, whose vectors it
        holds in the run's kind.  The achieved gap defaults to the true gap
        at y, or the certified bound when the optimum is unknown."""
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
        if state.grad_norm != 0.0:
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


def lyapunov(gap: float, gamma_cap: float, dist_u: float) -> float:
    """Certificate function ``V_k = f(y_k) - f* + (Gamma_k / 2) |u_k - x*|^2``
    from its parts: the gap ``f(y_k) - f*``, the level and ``|u_k - x*|``,
    which the step loop shares with its other checks."""
    return gap + 0.5 * gamma_cap * square(dist_u)


# --- single AGD step -------------------------------------------------------

def agd_step(state: AgdState, step_gamma: float, problem: Problem) -> AgdState:
    """One accelerated step; exactly one fresh gradient evaluation, by
    ``evaluate``, which the caller counts.

    ``y_next`` blends y, u and the cached gradient at y; ``u_next`` takes a
    projected dual step against the fresh gradient.  ``alpha`` and the next
    level are ``gamma_alpha_step``'s; the returned state records that alpha
    and the fresh gradient's norm.  Its vectors are the kind of
    ``state``'s: tuples of floats inside a small run, arrays otherwise.  A
    y_next that ``evaluate`` refuses raises a safety violation naming y_next,
    its iteration and ``evaluate``'s reason: it breaches the step-size
    contract ``step_gamma <= 1 / ell(2 |grad y|)``, which callers check
    themselves, against their own profile.
    """
    assert step_gamma > 0
    gamma_cap = state.gamma_cap
    alpha, gamma_next = gamma_alpha_step(gamma_cap, step_gamma)
    y_next = _blend(1.0 / (1.0 + alpha), state.y, alpha, state.u, step_gamma, state.grad_y)
    try:
        f_next, g_next, gn_next = evaluate(problem, y_next)
    except DomainViolationError as exc:
        raise SafetyViolationError(
            f"y at iteration {state.k + 1} cannot be evaluated: {exc}") from exc
    u_next = project_closure(problem.domain, _descend(state.u, alpha / gamma_cap, g_next))
    return AgdState(y_next, u_next, gamma_next, state.k + 1, f_next, g_next, gn_next, alpha)


# --- gradient descent --------------------------------------------------------

def _gd_phase(run: _Run, state: AgdState, target: float) -> AgdState:
    """Run x <- x - grad / (2 ell(2 |grad|)) from ``state.y`` until the gap
    is certified to be at most ``target``.  The returned state keeps the
    level and k of ``state``.  With checks on, a step that moves x away
    from a known optimum notes GD_MONOTONE."""
    x, f, g, gn = state.y, state.f_y, state.grad_y, state.grad_norm
    f_star, x_star = run.f_star, run.x_star
    check = run.check_invariants and x_star is not None
    # |x - x*| feeds the monotone check and the trace's distance cell
    track_dist = x_star is not None and (check or run.trace is not None)
    dist = distance(x, x_star) if check else None
    while True:
        if run.gap(f, gn) <= target:
            break
        if run.calls >= run.budget:
            run.termination = "budget"
            break
        gamma_t = 1.0 / (2.0 * run.model.ell(2.0 * gn))
        try:
            x_next = _descend(x, gamma_t, g)
            f, g, gn = run.oracle(x_next)
        except DomainViolationError as exc:
            raise SafetyViolationError(
                f"GD iterate at iteration {run.gd_iters + 1} cannot be evaluated: {exc}") from exc
        x = x_next
        run.gd_iters += 1
        flags = 0
        dist_next = distance(x, x_star) if track_dist else None
        if check:
            cap = dist * (1.0 + 1e-12)
            if not dist_next <= cap:
                flags = run.note(Flag.GD_MONOTONE, run.gd_iters, dist_next, cap)
        dist = dist_next
        run.row("gd", run.gd_iters, None if f_star is None else f - f_star, gn, gamma_t,
                dist, flags)
    return AgdState(x, _copy(x), state.gamma_cap, state.k, f, g, gn)


def gd_run(
    problem: Problem,
    model: EllModel,
    x0,
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
    with _Run(problem, model, epsilon, r_bar, budget, check_invariants, strict,
              collect_trace) as run:
        state, _ = run.start(x0)
        state = _gd_phase(run, state, epsilon)
        return run.result(state, run.gap(state.f_y, state.grad_norm))


# --- gradient bound heuristic -----------------------------------------------

# Sphere samples and safety factor of the m_bar heuristic.
GRAD_BOUND_SAMPLES = 64
GRAD_BOUND_SAFETY = 2.0


def estimate_grad_bound(problem: Problem, r_bar: float, seed: int = 0) -> float:
    """Heuristic m_bar: sample ``GRAD_BOUND_SAMPLES`` gradient norms on the
    sphere of radius 2 r_bar around the optimum and scale the largest by
    ``GRAD_BOUND_SAFETY``.  The draws are NumPy's ``standard_normal``, and
    the points float arrays, whose arithmetic warns of nothing: an
    overflowing point is one that ``evaluate`` refuses."""
    if problem.optimum is None:
        raise PreconditionError("gradient-bound estimation needs a known optimum")
    if not 0 < r_bar < math.inf:
        # an infinite sphere has no points to sample
        raise ConfigurationError(f"gradient-bound estimation needs a finite r_bar > 0, got {r_bar}")
    import numpy as np

    rng = np.random.default_rng(seed)
    x_star = np.asarray(problem.optimum.x_star, dtype=float)
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(GRAD_BOUND_SAMPLES):
            d = rng.standard_normal(problem.dim)
            d /= norm(d)
            x = x_star + 2.0 * r_bar * d
            try:
                best = max(best, evaluate(problem, x)[2])
            except DomainViolationError:
                continue
    if best == 0.0:
        raise PreconditionError("all gradient-bound samples fell outside the feasible set")
    return GRAD_BOUND_SAFETY * best


# --- step rules --------------------------------------------------------------
# A rule sizes each accelerated step and owns the check on that size:
# ``step`` returns the step at iteration k from the level's bound and the
# gradient norm, with the breach that the loop notes before stepping, as
# ``note``'s arguments (None where the check holds or is off); ``envelope``
# is the certified cap on the next level, or None where it certifies none.

class _FixedStep:
    """Algorithm 1's rule after its warm start: the step 1 / (2 ell(0)),
    safe while ``ell(4 |grad y|) <= 2 ell(0)`` (WARM_REGION), and from
    kbar on the level's ``9 / (gamma k^2)`` envelope (GAMMA_ENVELOPE)."""

    def __init__(self, model: EllModel, gamma_cap0: float, check: bool):
        self.model = model
        self.check = check
        self.gamma = 1.0 / (2.0 * model.ell(0.0))
        self.warm_cap = 2.0 * model.ell(0.0) * (1.0 + 1e-12)
        self.kbar = kbar(gamma_cap0, self.gamma)

    def step(self, k: int, bound: float, grad_norm: float) -> tuple[float, tuple | None]:
        if self.check:
            value = self.model.ell(4.0 * grad_norm)
            if not value <= self.warm_cap:
                return self.gamma, (Flag.WARM_REGION, k, value, self.warm_cap)
        return self.gamma, None

    def envelope(self, k: int) -> float | None:
        if k < self.kbar:
            return None
        env = gamma_envelope(k, self.gamma, self.kbar)
        return env + 4.0 * math.ulp(env)


class _AdaptiveStep:
    """Algorithm 2's rule: the step ``1 / ell(4 psi_inverse(Gamma r_bar^2))``,
    whose psi inverse caps ``|grad y|`` while the bound holds
    (GRAD_ENVELOPE).  A flat profile's step is 1 / ell(0) at every level,
    so there the psi inverse is taken only for the check."""

    def __init__(self, model: EllModel, check: bool):
        self.model = model
        self.check = check
        self.l0 = model.ell(0.0)
        self.flat = model.ell_sup() == self.l0

    def step(self, k: int, bound: float, grad_norm: float) -> tuple[float, tuple | None]:
        if self.flat and not self.check:
            return 1.0 / self.l0, None
        # psi_inverse returns an x >= 0, never NaN, so ell needs no
        # argument check
        x = psi_inverse(self.model, bound)
        gamma = 1.0 / (self.l0 if self.flat else self.model.ell(4.0 * x))
        cap = x * (1.0 + 1e-9) + 1e-15
        if self.check and not grad_norm <= cap:
            return gamma, (Flag.GRAD_ENVELOPE, k, grad_norm, cap)
        return gamma, None

    def envelope(self, k: int) -> None:
        return None


# --- shared accelerated loop -------------------------------------------------

def _run_agd(run: _Run, state: AgdState, rule: _FixedStep | _AdaptiveStep) -> AgdState:
    """Accelerated steps from ``state``, each sized by ``rule``, until the
    gap is certified.

    Each sum is taken once per iteration and shared: the gap ``f(y) - f*``
    and the level's bound ``Gamma r_bar^2`` by the stop test, the rule,
    CERTIFIED_GAP and the row; ``|u - x*|`` by the certificate function and,
    at the next iteration, BALL_CONFINEMENT, which also takes the row's
    ``|y - x*|``.  A certificate is noted only when it does not hold (a NaN
    does not): the rule's own breach first, then BALL_CONFINEMENT and
    STEP_SAFETY before the step, and CERTIFIED_GAP, LYAPUNOV and the rule's
    GAMMA_ENVELOPE after it."""
    problem, model, budget = run.problem, run.model, run.budget
    epsilon, f_star, x_star = run.epsilon, run.f_star, run.x_star
    check_invariants, note, row = run.check_invariants, run.note, run.row
    gap_tol = 1e-9 * (max(1.0, abs(f_star)) if f_star is not None else 1.0)
    ball_cap = 2.0 * run.r_bar * (1.0 + 1e-12)
    check_v = check_invariants and x_star is not None
    ball = check_v and math.isfinite(model.delta_max)
    # the certificate function feeds the LYAPUNOV check and the trace
    # column, |y - x*| the ball check and the distance column
    track_v = x_star is not None and (check_invariants or run.trace is not None)
    track_dist = x_star is not None and (ball or run.trace is not None)

    gap = None if f_star is None else state.f_y - f_star
    bound = run.bound(state.gamma_cap)
    gn = state.grad_norm
    dist_u = distance(state.u, x_star) if check_v else None
    v_prev = lyapunov(gap, state.gamma_cap, dist_u) if check_v else None
    dist = distance(state.y, x_star) if ball else None
    while True:
        if (gap is not None and gap <= epsilon) or bound <= epsilon:
            return state
        if state.gamma_cap < GAMMA_UNDERFLOW:
            run.message = "gamma_cap underflow; certified bound saturated"
            return state

        k = state.k
        step_gamma, breach = rule.step(k, bound, gn)
        # bits noted before a budget exit reach only flags_total
        flags = 0 if breach is None else note(*breach)
        if check_invariants:
            if ball:
                value = max(dist, dist_u)
                if not value <= ball_cap:
                    flags |= note(Flag.BALL_CONFINEMENT, k, value, ball_cap)
            cap = (1.0 + 1e-12) / model.ell(2.0 * gn)
            if not step_gamma <= cap:
                flags |= note(Flag.STEP_SAFETY, k, step_gamma, cap)

        if run.calls >= budget:
            run.termination = "budget"
            return state

        run.calls += 1
        state = agd_step(state, step_gamma, problem)
        gamma_cap, alpha, gn = state.gamma_cap, state.alpha, state.grad_norm
        gap = None if f_star is None else state.f_y - f_star
        bound = run.bound(gamma_cap)
        v_new = None
        if track_v:
            dist_u = distance(state.u, x_star)
            v_new = lyapunov(gap, gamma_cap, dist_u)

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
            cap = rule.envelope(k)
            if cap is not None and not gamma_cap <= cap:
                flags |= note(Flag.GAMMA_ENVELOPE, state.k, gamma_cap, cap)

        dist = distance(state.y, x_star) if track_dist else None
        row("agd", state.k, gap, gn, step_gamma, dist, flags, gamma_cap, alpha,
            bound, v_new)


def algorithm1_run(
    problem: Problem,
    model: EllModel,
    x0,
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
    with _Run(problem, model, epsilon, r_bar, budget, check_invariants, strict,
              collect_trace) as run:
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
            delta = 2.0 * run.gap(state.f_y, state.grad_norm)
        refusal = warm_start_refusal(model, delta, m_bar)
        if refusal:
            return run.refuse(refusal)

        state.gamma_cap = delta / r_bar**2
        state = _gd_phase(run, state, delta / 2.0)
        if run.termination == "budget":
            return run.result(state)
        rule = _FixedStep(model, state.gamma_cap, check_invariants)
        return run.result(_run_agd(run, state, rule))


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
    lref = model.ell(4.0 * psi_inverse(model, t0))
    x = 3.0 * r_bar * math.sqrt(lref / boundary) if boundary > 0 else math.inf
    if not x <= 2**62:
        raise ConfigurationError("no finite warmup bound found (profile unbounded?)")
    # x carries a few ulps of rounding, which past k ~ 1e13 can cross an
    # integer or two; the condition itself settles those last steps
    l0 = model.ell(0.0)
    c = math.sqrt(lref * l0) * r_bar
    k = max(1, math.ceil(x))
    while model.ell(24.0 * c / k) > 2.0 * l0:
        k += 1
    while k > 1 and model.ell(24.0 * c / (k - 1)) <= 2.0 * l0:
        k -= 1
    return k


def algorithm2_run(
    problem: Problem,
    model: EllModel,
    x0,
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
    with _Run(problem, model, epsilon, r_bar, budget, check_invariants, strict,
              collect_trace) as run:
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
        # the floor needs |x0 - x*|^2 > 0: a distance whose square
        # underflows leaves no floor, as the optimum itself does
        r0_sq = square(distance(state.y, x_star)) if x_star is not None else 0.0
        floor = 2.0 * (state.f_y - run.f_star) / r0_sq if r0_sq > 0 else None
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
            rule = _AdaptiveStep(model, check_invariants)
            result = run.stationary(state) or run.result(_run_agd(run, state, rule))
            result.warmup_bound = warmup
        result.gamma_cap0 = gamma_cap0
        return result
