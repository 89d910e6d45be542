"""Exception taxonomy shared across the package.

CLI exit codes map onto these: ``ConfigurationError``, ``DomainError``,
``OutOfRangeError`` and ``DomainViolationError`` exit 4;
``PreconditionError`` exits 3; ``InvariantViolationError`` and
``SafetyViolationError`` exit 5.  Budget exhaustion is not an exception:
runs return the ``budget`` termination, which exits 2.
"""


class ConfigurationError(ValueError):
    """Invalid model parameters, run configuration, or catalog request."""


class DomainError(ValueError):
    """Numeric argument outside the mathematical domain of an operation."""


class OutOfRangeError(ValueError):
    """Inverse queried beyond the range of the function it inverts."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class DomainViolationError(RuntimeError):
    """The objective cannot be evaluated at a point: it lies outside the open
    feasible set (``coordinate`` names the offending one), or the value
    overflows or is not finite.  The run loops turn one raised mid-run into a
    ``SafetyViolationError``, so at the CLI it comes from the start point."""

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate


class SafetyViolationError(RuntimeError):
    """A step-size or monotonicity contract was breached during a run."""


class InvariantViolationError(RuntimeError):
    """A runtime certificate failed while running in strict mode."""

    def __init__(self, message: str, flags: int = 0):
        super().__init__(message)
        self.flags = flags
