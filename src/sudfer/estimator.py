"""Monte Carlo estimation of E max for Gaussian vectors, with a 2-d oracle.

Every stochastic output is an MCEstimate: a value and its CLT standard error.
Draws go through gaussian.common_draw_values, which reduces each shard to one
value per row as soon as it is transformed, so large (samples x n) products
never have to fit in memory at once.  The iid law, the sharpness experiment's
worst case, skips the rows altogether: its maximum is drawn directly by
gaussian.iid_maxima, one uniform per sample whatever n is, and the zero law's
maximum is its mean.

For n = 2 there is a closed form.  With d = mu1 - mu2 and
theta^2 = Var(V1 - V2) = cov[0,0] + cov[1,1] - 2*cov[0,1],

    E max(V1, V2) = mu1*Phi(d/theta) + mu2*Phi(-d/theta) + theta*phi(d/theta),

degenerating to max(mu1, mu2) at theta = 0.  The test suite validates this
once against brute-force 2-d tensor quadrature before anything relies on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .gaussian import GaussianSpec, check_count, check_seed, common_draw_values, derive_seed, iid_maxima


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo value with its CLT uncertainty."""

    value: float
    stderr: float

    def __post_init__(self) -> None:
        if not (self.stderr >= 0.0):
            raise InvalidInput(f"stderr must be >= 0, got {self.stderr}")


def estimate_from_values(values: np.ndarray) -> MCEstimate:
    """Reduce per-draw values to (mean, sd/sqrt(N)).  Needs N >= 2."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise InvalidInput("need a 1-d array of at least two per-draw values")
    return MCEstimate(value=float(v.mean()), stderr=float(v.std(ddof=1) / math.sqrt(v.shape[0])))


def expected_max_mc(spec: GaussianSpec, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of E max_i V_i from one maximum per draw.
    Deterministic per (spec, samples, seed).

    An iid law (a 1-d factor of equal entries sigma, a constant mean mu) never
    builds its rows: for sigma > 0 its maxima are mu + sigma * iid_maxima, one
    uniform per draw; for sigma = 0 they are mu and nothing is drawn.  Every
    other law reduces the rows of common_draw_values to their maxima.
    """
    if samples < 2:
        raise InvalidInput(f"samples must be >= 2, got {samples}")
    check_count(samples)
    check_seed(seed)
    factor, mean = spec.factor, spec.mean
    if factor.ndim == 1 and factor.min() == factor.max() and mean.min() == mean.max():
        mu, sigma = mean[0], factor[0]
        maxima = (mu + sigma * iid_maxima(spec.n, samples, seed)) if sigma else np.full(samples, mu)
    else:
        (maxima,) = common_draw_values([(spec, lambda rows: rows.max(axis=1))], samples, seed)
    return estimate_from_values(maxima)


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def expected_max_bivariate_exact(spec: GaussianSpec) -> float:
    """Closed-form E max(V1, V2) for a 2-dimensional law."""
    if spec.n != 2:
        raise DimensionMismatch(f"closed form needs n = 2, got n = {spec.n}")
    mu1, mu2 = (float(m) for m in spec.mean)
    c = spec.covariance
    theta_sq = float(c[0, 0] + c[1, 1] - 2.0 * c[0, 1])
    if theta_sq <= 0.0:
        # V1 - V2 is a.s. constant: the max is just the larger mean.
        return mu1 if mu1 >= mu2 else mu2
    theta = math.sqrt(theta_sq)
    d = mu1 - mu2
    return mu1 * _Phi(d / theta) + mu2 * _Phi(-d / theta) + theta * _phi(d / theta)


def empirical_gap(
    spec_x: GaussianSpec,
    spec_y: GaussianSpec,
    samples: int,
    seed: int,
) -> tuple[MCEstimate, MCEstimate, MCEstimate]:
    """(est_x, est_y, gap): both expected maxima and their difference.

    The two laws are sampled on distinct substreams derived from the one
    seed, so the estimates are independent and the gap's stderr combines
    theirs in quadrature.
    """
    est_x = expected_max_mc(spec_x, samples, derive_seed(seed, 0))
    est_y = expected_max_mc(spec_y, samples, derive_seed(seed, 1))
    return est_x, est_y, MCEstimate(est_x.value - est_y.value, math.hypot(est_x.stderr, est_y.stderr))
