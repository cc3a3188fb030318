"""Semantic exception hierarchy, and the two checks every scalar argument goes through.

Public functions raise these instead of bare ValueError/IndexError so callers
can distinguish contract violations (bad input) from numerical degeneracies.
Every public integer argument (a dimension, a count, a seed) passes
:func:`check_integer` and every real one (beta, gamma, t) :func:`check_real`,
once, at the public entry point: each returns a plain int or float, and
refuses bools, strings, None, nan, +-inf and ints beyond the float range with
InvalidInput, never with a traceback or a silent coercion.
"""

from __future__ import annotations

import math
import numbers
import sys


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


def check_integer(name: str, value, lo: int, hi: int | None = None, error: type[SudferError] = InvalidInput) -> int:
    """``value`` as a plain int in [lo, hi].  A non-integer, a float such as 1.0 too, raises InvalidInput;
    an integer out of range raises ``error``, so each caller keeps its own range error class."""
    v = int(value) if not isinstance(value, bool) and isinstance(value, numbers.Integral) else math.nan
    if not abs(v) <= sys.float_info.max:
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if v < lo or (hi is not None and v > hi):
        raise error(f"{name} must be an integer {f'>= {lo}' if hi is None else f'in [{lo}, {hi}]'}, got {v}")
    return v


def check_real(name: str, value) -> float:
    """``value`` as a plain finite float; bools, strings, None, nan, +-inf and ints beyond float range raise
    InvalidInput.  ``abs(v) <= float max``, not math.isfinite, which overflows on such ints; a numpy float is
    made a plain float first, so that float max is never cast to its narrower type."""
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    v = (int(value) if isinstance(value, numbers.Integral) else float(value)) if real else math.nan
    if not abs(v) <= sys.float_info.max:
        raise InvalidInput(f"{name} must be a finite real number, got {value!r}")
    return float(v)
