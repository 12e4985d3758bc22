"""Exception types shared across the package.

Every failure a caller can reasonably branch on gets its own class; generic
misuse (bad parameter values, empty inputs) stays close to the builtin
ValueError hierarchy so idiomatic ``except ValueError`` still works.
"""


class GridGapError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(GridGapError, ValueError):
    """A function argument is outside its documented domain."""


class EmptyInputError(GridGapError, ValueError):
    """An input table, frame, or file contains no usable rows."""


class UnknownColumnError(GridGapError, KeyError):
    """A named column does not exist in the frame."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class InsufficientDataError(GridGapError, ValueError):
    """Too few observations for the requested operation."""


class MissingValueError(GridGapError, ValueError):
    """A core transform received missing values; run QC first."""


class DegenerateSeriesError(GridGapError, ValueError):
    """A series is constant or otherwise carries no usable variation."""


class SchemaError(GridGapError, ValueError):
    """A source descriptor or raw file does not match its declared layout."""


class DomainError(GridGapError, ValueError):
    """A record violates a physical or accounting constraint."""


class CoverageError(GridGapError, ValueError):
    """Training data does not cover the required calendar span."""


class CollinearityError(GridGapError, ValueError):
    """A regression design matrix is rank deficient.

    ``columns`` names the offending regressors when they could be identified.
    """

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


class FactorizationError(GridGapError, ValueError):
    """A covariance matrix is not positive definite."""


class DivergenceError(GridGapError, ArithmeticError):
    """An iterative computation failed to converge."""


class NoModelError(GridGapError, RuntimeError):
    """A model search rejected every candidate.

    ``failures`` maps a short description of each candidate to the reason it
    was rejected, so callers can report why nothing was admissible.
    """

    def __init__(self, message: str, failures: list | None = None):
        super().__init__(message)
        self.failures = failures or []


class ConfigError(GridGapError, ValueError):
    """A run configuration file is missing keys or holds bad values."""
