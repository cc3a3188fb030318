"""Semantic exception hierarchy, and the checks every numeric argument goes through.

Public functions raise these instead of bare ValueError/IndexError so callers
can distinguish contract violations (bad input) from numerical degeneracies.
Every public integer argument (a dimension, a count, a seed) passes
:func:`check_integer` and every real one (beta, gamma, t) :func:`check_real`,
once, at the public entry point: each returns a plain int or float, and
refuses bools, strings, None, nan, +-inf and ints beyond the float range with
InvalidInput, never with a traceback or a silent coercion.  Every array
argument (a mean, a covariance, smooth-max input) passes
:func:`check_real_array`, which applies check_real to each entry of a list,
refuses arrays of any dtype but integer and float, and refuses nan and +-inf.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np


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


def check_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array (no copy of one) of finite entries, none coerced: an ndarray must have an
    integer or float dtype, and nested lists and tuples are checked entry by entry (check_real, or this dtype
    rule for an array among them).  Ragged nesting, nan and +-inf raise InvalidInput too."""
    _check_real_entries(name, value)
    try:
        a = np.asarray(value, dtype=np.float64)
    except ValueError as exc:
        raise InvalidInput(f"{name} must be an array of real numbers: {exc}") from exc
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} entries must be finite")
    return a


def _check_real_entries(name: str, value) -> None:
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_real_entries(name, item)
    elif not isinstance(value, np.ndarray):
        check_real(f"an entry of {name}", value)
    elif value.dtype.kind not in "iuf":
        raise InvalidInput(f"{name} must hold real numbers, got an array of dtype {value.dtype}")
