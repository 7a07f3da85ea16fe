"""Exception types shared across the package."""


class HopsimError(Exception):
    """Base class for all package errors."""


class ParameterError(HopsimError, ValueError):
    """One or more parameter invariants are violated.

    ``fields`` lists the offending field names so callers can report them.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        self.fields = [f for f, _ in self.violations]
        msg = "; ".join(f"{field}: {reason}" for field, reason in self.violations)
        super().__init__(f"invalid parameters: {msg}")


class NoLiftOffError(HopsimError, ValueError):
    """The spring cannot support the foot weight at the configured amplitude."""


class UnreachableLengthError(HopsimError, ValueError):
    """Requested leg length lies outside the open reach interval."""

    def __init__(self, y, lo, hi):
        self.y = y
        self.lo = lo
        self.hi = hi
        bound = lo if y <= lo else hi
        super().__init__(
            f"unreachable length: y={y:.6g} m violates bound {bound:.6g} m "
            f"(reach interval is ({lo:.6g}, {hi:.6g}))"
        )


class ConfigError(HopsimError, ValueError):
    """Configuration file or run-configuration problem."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SimulationAbort(HopsimError, RuntimeError):
    """A run was aborted; the partial telemetry log carries a failure record."""
