"""Log-sum-exp smooth max, its softmax gradient, and its explicit Hessian.

For inverse temperature b > 0,

    F_b(x) = (1/b) * log(sum_i exp(b*x_i))

sandwiches the true maximum:  max(x) <= F_b(x) <= max(x) + log(n)/b.
Its gradient is the softmax probability vector p(x), and its Hessian is

    H(x) = b * (diag(p) - p p^T),

a PSD matrix whose rows sum to zero.

Every exponential sum here is max-subtracted, so finite input can never
overflow (large b times large spreads is the normal operating regime).

All functions broadcast over leading axes: a (..., n) input is treated as a
stack of vectors along the last axis.  Scalars and empty vectors are
rejected with EmptyInput; nan and +-inf entries, entries that are not real
numbers (errors.check_real_array) and a ``params`` that is not a
SmoothMaxParams with InvalidInput.  The
public functions work on one private float64 copy and never write to their
input.  The smart-path estimators reduce their sample blocks with the
private row reductions, which overwrite the block they are handed instead
of allocating block-sized temporaries; both paths run the same operations,
so their results are bitwise equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidInput, check_real, check_real_array


@dataclass(frozen=True)
class SmoothMaxParams:
    """Inverse temperature b of the smooth max.  Finite and strictly positive."""

    beta: float

    def __post_init__(self) -> None:
        b = check_real("beta", self.beta)
        if not b > 0.0:
            raise InvalidInput(f"beta must be finite and > 0, got {self.beta!r}")
        object.__setattr__(self, "beta", b)


def _check_params(params) -> SmoothMaxParams:
    if not isinstance(params, SmoothMaxParams):
        raise InvalidInput(f"params must be a SmoothMaxParams, got {params!r}")
    return params


def _check_vectors(x, params) -> np.ndarray:
    """A private float64 copy of ``x``, once ``params`` and every entry are checked."""
    _check_params(params)
    a = check_real_array("x", x).copy()
    if a.ndim == 0 or a.shape[-1] == 0:
        raise EmptyInput("need at least one coordinate")
    return a


def _exp_shifted(a: np.ndarray, beta: float) -> np.ndarray:
    """Overwrite a with exp(beta*(a - max)) along the last axis; return the max, keepdims.

    A shifted entry is <= 0, so where the subtraction or the product overflows it is -inf, whose exp is the
    right 0: that overflow is the expected case, not an error."""
    m = a.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        np.subtract(a, m, out=a)
        np.multiply(beta, a, out=a)
    np.exp(a, out=a)
    return m


def _smooth_max_rows(rows: np.ndarray, params: SmoothMaxParams) -> np.ndarray:
    """smooth_max of finite float64 rows, overwriting them."""
    m = _exp_shifted(rows, params.beta)
    return m[..., 0] + np.log(rows.sum(axis=-1)) / params.beta


def _softmax_rows(rows: np.ndarray, params: SmoothMaxParams) -> np.ndarray:
    """softmax of finite float64 rows, computed in place and returned."""
    _exp_shifted(rows, params.beta)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


def smooth_max(x, params: SmoothMaxParams):
    """F_b(x) = max(x) + log(sum exp(b*(x - max)))/b, along the last axis."""
    out = _smooth_max_rows(_check_vectors(x, params), params)
    return float(out) if out.ndim == 0 else out


def softmax(x, params: SmoothMaxParams):
    """p_i(x) = exp(b*x_i) / sum_j exp(b*x_j), max-subtracted: the gradient of F_b."""
    return _softmax_rows(_check_vectors(x, params), params)


def smooth_max_hessian(x, params: SmoothMaxParams):
    """Hessian b*(diag(p) - p p^T); shape (..., n, n)."""
    p = softmax(x, params)
    outer = p[..., :, None] * p[..., None, :]
    n = p.shape[-1]
    diag = np.zeros(outer.shape, dtype=np.float64)
    idx = np.arange(n)
    diag[..., idx, idx] = p
    return params.beta * (diag - outer)


def sandwich_gap(x, params: SmoothMaxParams):
    """Slacks of the two-sided max bound.

    Returns (lower, upper) with lower = F_b(x) - max(x) and
    upper = log(n)/b - lower.  Both are >= 0 up to rounding.
    """
    a = _check_vectors(x, params)
    n = a.shape[-1]
    lower = smooth_max(a, params) - a.max(axis=-1)
    upper = math.log(n) / params.beta - lower
    if np.ndim(lower) == 0:
        return float(lower), float(upper)
    return lower, upper
