"""Smart-path interpolation between two Gaussian laws, and its diagnostics.

With equal-mean laws X and Y and independent centered copies Xc, Yc, the
path  Z_t = sqrt(1-t)*Xc + sqrt(t)*Yc + mu  moves the law of X into the law
of Y while staying Gaussian; phi(t) = E F_b(Z_t) interpolates the smoothed
expected maxima.  Gaussian integration by parts collapses phi'(t) to an
endpoint-finite expectation over Z_t alone:

    phi'(t) = (b/4) * E[ sum_{i,j} p_i(Z_t) p_j(Z_t) * (gY[i,j] - gX[i,j]) ],

where p is the softmax and gX, gY are the increment matrices.  The explicit
formula, a central finite difference of phi, and a direct residual check of
the integration-by-parts identity (for a law of any mean) are all
implemented as Monte Carlo estimators so each step of the calculus can be
cross-validated numerically.  The path verdicts built from these estimates
(consistency, sign, endpoint monotonicity) live in the path-diagnostics
experiment.

Along the path only the factor applied to the standard normals changes with
t, so each estimator is a reduction passed to gaussian.common_draw_values.
The smooth max and softmax reductions of phi and phi_derivative overwrite
the sample block they are handed (smoothmax's private row reductions), so
a dense law holds no block-sized temporary beyond the integrand's product.
The residual check takes its blocks from the same draw loop
(gaussian._draw_blocks) and folds each into per-coordinate sums as it
comes, so its memory is a few blocks whatever the sample count.
Whenever two quantities are differenced (finite differences, the
integration-by-parts residual), both sides are evaluated on common draws:
variance reduction with no bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidInput, check_integer, check_real
from .estimator import MCEstimate, estimate_from_values
from .gaussian import (
    GaussianSpec, _covariance_times, _difference_panels, _draw_blocks, blended_spec, common_draw_values
)
from .smoothmax import SmoothMaxParams, _check_params, _smooth_max_rows, _softmax_rows, smooth_max, softmax

# Cap on the half-width of the central finite-difference step.
FD_STEP_CAP = 1e-3

DEFAULT_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class DerivativeEstimate:
    """Two estimates of the same phi'(t) from the same draws, kept side by side."""

    explicit: MCEstimate
    finite_difference: MCEstimate


def phi(
    spec_x: GaussianSpec,
    spec_y: GaussianSpec,
    params: SmoothMaxParams,
    t: float,
    samples: int,
    seed: int,
) -> MCEstimate:
    """Monte Carlo estimate of phi(t) = E F_b(Z_t), for t in [0, 1]."""
    params, samples = _check_params(params), check_integer("samples", samples, 2)
    law = blended_spec(spec_x, spec_y, t)
    (values,) = common_draw_values([(law, partial(_smooth_max_rows, params=params))], samples, seed)
    return estimate_from_values(values)


def phi_derivative(
    spec_x: GaussianSpec,
    spec_y: GaussianSpec,
    params: SmoothMaxParams,
    t: float,
    samples: int,
    seed: int,
) -> DerivativeEstimate:
    """phi'(t) two ways, from one set of common draws.

    ``explicit`` averages the integration-by-parts integrand
    (b/4) * p^T (gY - gX) p over draws of Z_t; it is bounded by b*gamma/4 in
    absolute value (p is a probability vector), so the estimate inherits that
    bound up to Monte Carlo noise.  ``finite_difference`` is the central
    difference of phi over Z_{t+h} and Z_{t-h}, with half-step
    h = min(t, 1-t, 1e-3)/2 keeping both inside (0, 1) and the O(h^2) bias
    below Monte Carlo noise at realistic sample counts; its stderr is that of
    the paired per-draw differences.
    """
    params, t, samples = _check_params(params), check_real("t", t), check_integer("samples", samples, 2)
    if not (0.0 < t < 1.0):
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")
    diff = np.empty((spec_x.n, spec_x.n))
    for lo, panel in _difference_panels(spec_x, spec_y):
        diff[lo : lo + len(panel)] = panel
    del panel  # else the last panel stays alive through the draws
    quarter_beta = params.beta / 4.0
    h = min(t, 1.0 - t, FD_STEP_CAP) / 2.0

    def integrand(rows: np.ndarray) -> np.ndarray:
        p = _softmax_rows(rows, params)
        return quarter_beta * ((p @ diff) * p).sum(axis=1)

    smooth = partial(_smooth_max_rows, params=params)
    explicit, upper, lower = common_draw_values(
        [
            (blended_spec(spec_x, spec_y, t), integrand),
            (blended_spec(spec_x, spec_y, t + h), smooth),
            (blended_spec(spec_x, spec_y, t - h), smooth),
        ],
        samples,
        seed,
    )
    return DerivativeEstimate(
        explicit=estimate_from_values(explicit),
        finite_difference=estimate_from_values((upper - lower) / (2.0 * h)),
    )


def stein_residuals(
    spec: GaussianSpec,
    params: SmoothMaxParams,
    samples: int,
    seed: int,
    functional: Callable[[np.ndarray], np.ndarray] | None = None,
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[MCEstimate]:
    """Residual estimates of the Gaussian integration-by-parts identity, one per coordinate.

    For a law with mean mu and covariance S, the identity says
    E((V_i - mu_i) F(V)) = sum_j S[i,j] E(dF/dx_j (V)) for every i.  The
    per-draw residual of coordinate i,

        (V_i - mu_i) * F(V) - sum_j S[i,j] * dF/dx_j(V),

    is built from common draws for both terms and is zero in expectation for
    any C^1 functional of moderate growth; the default functional is the
    smooth max.  ``functional`` must return one value per row and
    ``gradient`` one row per row (else InvalidInput).  Each block of draws is
    folded into per-coordinate means and sums of squared deviations by Chan,
    Golub & LeVeque's pairwise update, in block order, so memory does not grow
    with samples x n; the estimate is the mean with stderr sd/sqrt(N), and a
    zero-variance coordinate, whose residuals are all zero, gets exactly
    (0.0, 0.0).  A residual that is not finite raises InvalidInput.
    """
    params, samples = _check_params(params), check_integer("samples", samples, 2)
    if (functional is None) != (gradient is None):
        raise InvalidInput("functional and gradient must be overridden together")
    if functional is None:  # the public functions copy their input: residual reads its rows after both
        functional, gradient = partial(smooth_max, params=params), partial(softmax, params=params)

    def residual(rows: np.ndarray) -> np.ndarray:
        f = np.asarray(functional(rows), dtype=np.float64)
        g = np.asarray(gradient(rows), dtype=np.float64)
        if f.shape != rows.shape[:1] or g.shape != rows.shape:
            raise InvalidInput(f"functional and gradient shapes {f.shape} and {g.shape} do not fit rows {rows.shape}")
        return (rows - spec.mean) * f[:, None] - _covariance_times(spec, g)

    mean, squares = np.zeros(spec.n), np.zeros(spec.n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is reported once, below
        for _, start, values in _draw_blocks([(spec, residual)], samples, seed):
            block_mean = values.mean(axis=0)
            values -= block_mean
            delta, weight = block_mean - mean, len(values) / (start + len(values))
            mean += delta * weight
            squares += np.einsum("ij,ij->j", values, values) + delta * delta * (start * weight)
    if not (np.isfinite(mean).all() and np.isfinite(squares).all()):
        raise InvalidInput("stein residuals must be finite: the functional, its gradient or the law overflows float64")
    stderr = np.sqrt(squares / (samples - 1)) / np.sqrt(samples)
    return [MCEstimate(float(m), float(e)) for m, e in zip(mean, stderr)]
