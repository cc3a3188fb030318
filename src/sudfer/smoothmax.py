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
rejected with EmptyInput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidInput


@dataclass(frozen=True)
class SmoothMaxParams:
    """Inverse temperature b of the smooth max.  Finite and strictly positive."""

    beta: float

    def __post_init__(self) -> None:
        b = float(self.beta)
        if not (math.isfinite(b) and b > 0.0):
            raise InvalidInput(f"beta must be finite and > 0, got {self.beta!r}")
        object.__setattr__(self, "beta", b)


def _check_vectors(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0 or a.shape[-1] == 0:
        raise EmptyInput("need at least one coordinate")
    return a


def smooth_max(x, params: SmoothMaxParams):
    """F_b(x) = max(x) + log(sum exp(b*(x - max)))/b, along the last axis."""
    a = _check_vectors(x)
    b = params.beta
    m = a.max(axis=-1)
    s = np.exp(b * (a - m[..., None])).sum(axis=-1)
    out = m + np.log(s) / b
    return float(out) if out.ndim == 0 else out


def softmax(x, params: SmoothMaxParams):
    """p_i(x) = exp(b*x_i) / sum_j exp(b*x_j), max-subtracted: the gradient of F_b."""
    a = _check_vectors(x)
    e = np.exp(params.beta * (a - a.max(axis=-1, keepdims=True)))
    return e / e.sum(axis=-1, keepdims=True)


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
    a = _check_vectors(x)
    n = a.shape[-1]
    lower = smooth_max(a, params) - a.max(axis=-1)
    upper = math.log(n) / params.beta - lower
    if np.ndim(lower) == 0:
        return float(lower), float(upper)
    return lower, upper
