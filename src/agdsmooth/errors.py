"""Exception taxonomy shared across the package.

CLI exit codes map onto these: ``ConfigurationError``, ``DomainError``,
``OutOfRangeError`` and ``DomainViolationError`` exit 4;
``PreconditionError`` exits 3; ``InvariantViolationError`` and
``SafetyViolationError`` exit 5.  Budget exhaustion is not an exception:
runs return the ``budget`` termination, which exits 2.  ``require_number``
is the type check that the config, catalog and profile boundaries share.
"""

import numbers


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
    feasible set (``coordinate`` names the offending one), its value overflows
    or is not finite, or its gradient has a NaN component.  The run loops turn
    one raised mid-run into a ``SafetyViolationError``, so at the CLI it comes
    from the start point or a point ``verify`` sampled."""

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate


class SafetyViolationError(RuntimeError):
    """``evaluate`` refused an iterate of a run or a descent check, which
    breaches the step-size contract; the message names the iterate, its
    iteration and ``evaluate``'s reason.  Raised in either mode."""


class InvariantViolationError(RuntimeError):
    """A runtime certificate failed while running in strict mode.  Every
    strict-mode flag bit raises it, ``GD_MONOTONE`` included, with the bit
    in ``flags`` and the message ``"<FLAG> broken at k=<k>: <value> >
    <bound>"``, the two sides of the inequality that failed."""

    def __init__(self, message: str, flags: int = 0):
        super().__init__(message)
        self.flags = flags


def require_number(value, name: str) -> float:
    """``value`` as a float if it is a real number.  Anything else, a
    string or a bool included, is a ``ConfigurationError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    return float(value)
