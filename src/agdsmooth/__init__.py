"""Accelerated gradient methods under generalized smoothness.

A curvature profile ``ell`` bounding ``||hess f|| <= ell(||grad f||)``
drives everything: the analytic gap/gradient conversion machinery
(:mod:`agdsmooth.smoothness`), two accelerated solvers with per-iteration
certificates (:mod:`agdsmooth.solvers`), an objective catalog
(:mod:`agdsmooth.problems`), stand-alone inequality checks
(:mod:`agdsmooth.verify`), and a config-driven CLI
(:mod:`agdsmooth.cli`).
"""

from .errors import (
    ConfigurationError,
    DomainError,
    DomainViolationError,
    InvariantViolationError,
    OutOfRangeError,
    PreconditionError,
    SafetyViolationError,
)
from .smoothness import (
    Affine,
    Constant,
    CustomMonotone,
    EllModel,
    Power,
    admissible_delta,
    delta_left_right,
    ell_eval,
    model_from_config,
    psi_eval,
    psi_inverse,
    q_inverse,
    q_max,
    select_delta,
)
from .problems import (
    CATALOG_NAMES,
    Domain,
    FullSpace,
    Optimum,
    PositiveOrthant,
    Problem,
    catalog,
    evaluate,
    project_closure,
)
from .solvers import (
    AgdState,
    Flag,
    RunResult,
    TraceRecord,
    agd_step,
    algorithm1_run,
    algorithm2_run,
    estimate_grad_bound,
    gamma_alpha_step,
    gamma_envelope,
    gd_run,
    kbar,
    warmup_iterations_bound,
    write_trace_csv,
)
from .verify import (
    CheckReport,
    check_convexity_smoothness,
    check_descent_step,
    check_gap_to_grad,
    check_gradient_transfer,
    run_all_checks,
)
from .config import RunConfig, SweepSpec, execute, load_config, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
