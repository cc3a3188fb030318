"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/IndexError so callers
can distinguish contract violations (bad input) from numerical degeneracies.
"""


class SudferError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SudferError, ValueError):
    """Vector/matrix dimensions disagree (or have the wrong rank)."""


class NotSymmetric(SudferError, ValueError):
    """A covariance matrix is not exactly symmetric as stored."""


class NotPSD(SudferError, ValueError):
    """A covariance matrix fails the positive-semidefiniteness tolerance."""


class InvalidInput(SudferError, ValueError):
    """Input is malformed beyond the specific conditions above (NaN/inf, wrong type)."""


class FactorizationFailure(SudferError):
    """The eigendecomposition of a covariance that Cholesky rejected did not converge."""


class MeanMismatch(SudferError, ValueError):
    """Two laws that must share a mean vector do not (within tolerance)."""


class EmptyInput(SudferError, ValueError):
    """An operation that needs at least one coordinate received none."""


class DomainError(SudferError, ValueError):
    """A scalar argument lies outside its required open interval."""


class DegenerateGamma(SudferError, ValueError):
    """gamma <= 0 where a strictly positive discrepancy is required."""


class DegenerateN(SudferError, ValueError):
    """n < 2 where at least two coordinates are required."""


class UnknownGenerator(SudferError, ValueError):
    """Unrecognized random-spec generator name."""


class ConfigError(SudferError, ValueError):
    """Experiment configuration is invalid or incomplete."""
