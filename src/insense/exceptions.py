"""Exception types shared across the package."""


class InsenseError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidSubsetError(InsenseError, ValueError):
    """Sensor subset is malformed, out of range, or not strictly increasing."""


class InfeasibleConstraintError(InsenseError, ValueError):
    """Row budget defines an empty feasible set (m <= 0 or m > d)."""


class ExhaustiveLimitError(InsenseError):
    """(d choose m) exceeds the configured enumeration budget."""


class SolverFailureError(InsenseError):
    """Basis-pursuit solve did not reach a feasible optimum."""

    def __init__(self, message, residual=float("nan")):
        super().__init__(message)
        self.residual = residual


class MatrixParseError(InsenseError, ValueError):
    """Matrix file could not be parsed; carries the offending location."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col
