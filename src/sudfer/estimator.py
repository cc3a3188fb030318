"""Monte Carlo estimation of E max for Gaussian vectors, with a 2-d oracle.

Every stochastic output is an MCEstimate: a value and its CLT standard error.
Per-draw maxima come from one primitive for one law or a pair: one call of
gaussian.common_draw_values, which reduces each shard to one value per row as
soon as it is transformed, so (samples x n) products never sit in memory.
A constant law (an all-zero factor) is its maximum, max(mean): it draws
nothing, holds no per-draw array, and its estimate is exact.  iid laws skip
the rows: one gaussian.iid_maxima draw serves them, one uniform per sample
whatever n is, scaled in place for the last of them.  The gap of
empirical_gap is paired: X and Y share draws, its stderr is the differences',
and against a constant it is the other law's, since Var(X - c) = Var(X).

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

from .errors import DimensionMismatch, InvalidInput, check_integer
from .gaussian import (
    GaussianSpec,
    _covariance_matrix,
    check_seed,
    common_draw_values,
    derive_seed,
    iid_maxima,
    is_iid,
)


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo value with its CLT uncertainty."""

    value: float
    stderr: float

    def __post_init__(self) -> None:
        if not (self.stderr >= 0.0):
            raise InvalidInput(f"stderr must be >= 0, got {self.stderr}")


def estimate_from_values(values: np.ndarray) -> MCEstimate:
    """Reduce per-draw values to (mean, sd/sqrt(N)).  Needs N >= 2.

    Equal values give that value with stderr 0 exactly: numpy's mean and sd of
    a constant array can round (0.1 repeated reads 0.09999999999999999).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise InvalidInput("need a 1-d array of at least two per-draw values")
    if v.min() == v.max():
        return MCEstimate(value=float(v[0]), stderr=0.0)
    return MCEstimate(value=float(v.mean()), stderr=float(v.std(ddof=1) / math.sqrt(v.shape[0])))


def _maxima(specs: list[GaussianSpec], samples: int, seed: int) -> list[np.ndarray | float]:
    """Per-draw maxima of laws of one dimension, all from ``seed``, so they are coupled draw by draw.

    A law with an all-zero factor is constant: its maximum is the float max(mean), and it takes no part in any draw.
    If every law is iid (equal variances, so one factor entry sigma, and a constant mean mu), no rows are built: the
    other maxima are mu + sigma * M for one M = iid_maxima(n, samples, seed), the last of them scaled into M itself.
    Else the other laws reduce the rows of one common_draw_values call: uniforms and normals never share a substream.
    The public callers' samples and seed are checked here: a constant law draws nothing that would check them.
    """
    samples, seed = check_integer("samples", samples, 2), check_seed(seed)
    if len({spec.n for spec in specs}) != 1:
        raise DimensionMismatch(f"laws of one dimension needed, got dimensions {[spec.n for spec in specs]}")
    maxima: list = [None if s.factor.any() else float(s.mean.max()) for s in specs]
    drawn = [j for j, m in enumerate(maxima) if m is None]
    if not drawn:
        return maxima
    if all(is_iid(s) for s in specs):
        m = iid_maxima(specs[0].n, samples, seed)
        for j in drawn[:-1]:
            maxima[j] = specs[j].mean[0] + specs[j].factor[0] * m
        m *= specs[drawn[-1]].factor[0]
        m += specs[drawn[-1]].mean[0]
        maxima[drawn[-1]] = m
        return maxima
    values = common_draw_values([(specs[j], _row_max) for j in drawn], samples, seed)
    for j, v in zip(drawn, values):
        maxima[j] = v
    return maxima


def _row_max(rows: np.ndarray) -> np.ndarray:
    """``rows.max(axis=1)``.  Below 32 columns the columns are folded by np.maximum into one buffer instead,
    which beats numpy's per-row reduction loop; the value is the same, bitwise except that a tie between
    -0.0 and +0.0 may keep the other zero (a law's rows hold -0.0 only where its mean has one)."""
    if rows.shape[1] >= 32:
        return rows.max(axis=1)
    m = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        np.maximum(m, rows[:, j], out=m)
    return m


def expected_max_mc(spec: GaussianSpec, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of E max_i V_i from its _maxima; deterministic per (spec, samples, seed)."""
    return _estimate(_maxima([spec], samples, seed)[0])


def _estimate(maxima: np.ndarray | float) -> MCEstimate:
    """estimate_from_values of per-draw maxima; a constant law's maximum is exact, with stderr 0."""
    return MCEstimate(maxima, 0.0) if isinstance(maxima, float) else estimate_from_values(maxima)


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def expected_max_bivariate_exact(spec: GaussianSpec) -> float:
    """Closed-form E max(V1, V2) for a 2-dimensional law."""
    if spec.n != 2:
        raise DimensionMismatch(f"closed form needs n = 2, got n = {spec.n}")
    mu1, mu2 = (float(m) for m in spec.mean)
    c = _covariance_matrix(spec)
    theta_sq = float(c[0, 0] + c[1, 1] - 2.0 * c[0, 1])
    if theta_sq <= 0.0:
        # V1 - V2 is a.s. constant: the max is just the larger mean.
        return mu1 if mu1 >= mu2 else mu2
    theta = math.sqrt(theta_sq)
    d = mu1 - mu2
    return mu1 * _Phi(d / theta) + mu2 * _Phi(-d / theta) + theta * _phi(d / theta)


def empirical_gap(
    spec_x: GaussianSpec, spec_y: GaussianSpec, samples: int, seed: int
) -> tuple[MCEstimate, MCEstimate, MCEstimate]:
    """(est_x, est_y, gap): both expected maxima and their difference.

    Both laws take their maxima from the same draws, on derive_seed(seed, 0),
    so the gap's stderr is the sd of the per-draw differences over sqrt(N),
    not the two stderrs in quadrature.  Against a constant law c it is the
    other law's stderr, since Var(X - c) = Var(X): for c = +-0.0 the same bits
    as the differences', elsewhere the same up to rounding.  Laws of two
    dimensions raise DimensionMismatch.
    """
    mx, my = _maxima([spec_x, spec_y], samples, derive_seed(seed, 0))
    est_x, est_y = _estimate(mx), _estimate(my)
    if isinstance(my, float):
        stderr = est_x.stderr
    elif isinstance(mx, float):
        stderr = est_y.stderr
    else:
        stderr = estimate_from_values(mx - my).stderr
    return est_x, est_y, MCEstimate(est_x.value - est_y.value, stderr)
