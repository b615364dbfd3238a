"""Exception types shared across the package, and its integer check."""

import numbers


class SingularScatterError(ArithmeticError):
    """A point cloud's covariance is singular even after ridge regularization."""


class DegenerateDataError(ArithmeticError):
    """Every candidate subset produced a singular covariance matrix."""


class InvalidCovarianceError(ArithmeticError):
    """A covariance matrix stayed non-positive-definite after jitter escalation."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Attributes:
        last_iterate: the final iterate reached before giving up.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class UnsupportedParameterError(ValueError):
    """A parameter value falls outside the implemented range."""


class CsvFormatError(ValueError):
    """A dataset file violates the curves CSV schema.

    Attributes:
        row: 1-based file row where the problem was detected (0 = header/global).
    """

    def __init__(self, message, row=0):
        super().__init__(f"row {row}: {message}" if row else message)
        self.row = row


def check_integer(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
