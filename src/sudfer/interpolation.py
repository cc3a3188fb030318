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
from .gaussian import GaussianSpec, _covariance_times, _difference_panels, blended_spec, common_draw_values
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


def stein_residual_values(
    spec: GaussianSpec,
    params: SmoothMaxParams,
    samples: int,
    seed: int,
    functional: Callable[[np.ndarray], np.ndarray] | None = None,
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Per-draw residuals of the Gaussian integration-by-parts identity.

    For a law with mean mu and covariance S, the identity says
    E((V_i - mu_i) F(V)) = sum_j S[i,j] E(dF/dx_j (V)) for every i.  The
    returned (samples x n) matrix holds, per draw and coordinate,

        (V_i - mu_i) * F(V) - sum_j S[i,j] * dF/dx_j(V),

    built from common draws for both terms.  Column means estimate the
    residuals, which are zero in expectation for any C^1 functional of
    moderate growth; the default functional is the smooth max.
    """
    params, samples = _check_params(params), check_integer("samples", samples, 2)
    if (functional is None) != (gradient is None):
        raise InvalidInput("functional and gradient must be overridden together")
    if functional is None:  # the public functions copy their input: residual reads its rows after both
        functional, gradient = partial(smooth_max, params=params), partial(softmax, params=params)

    def residual(rows: np.ndarray) -> np.ndarray:
        f = np.asarray(functional(rows), dtype=np.float64)
        g = np.asarray(gradient(rows), dtype=np.float64)
        return (rows - spec.mean) * f[:, None] - _covariance_times(spec, g)

    return common_draw_values([(spec, residual)], samples, seed)[0]


def stein_residuals(
    spec: GaussianSpec,
    params: SmoothMaxParams,
    samples: int,
    seed: int,
    functional: Callable[[np.ndarray], np.ndarray] | None = None,
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[MCEstimate]:
    """Residual estimates for every coordinate, from one shared batch."""
    values = stein_residual_values(spec, params, samples, seed, functional, gradient)
    return [estimate_from_values(values[:, i]) for i in range(spec.n)]

