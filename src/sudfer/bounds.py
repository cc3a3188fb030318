"""Increment-discrepancy certificates for expected maxima of Gaussian vectors.

Given two n-dimensional Gaussian laws with increment matrices gX, gY and

    gamma = max_{i,j} |gX[i,j] - gY[i,j]|,

the expected maxima can differ by at most sqrt(gamma * ln n) when the means
agree entrywise, and if gX <= gY entrywise then E max X <= E max Y.  The
sqrt bound is what the smooth-max tradeoff

    T(b) = b*gamma/4 + ln(n)/b

attains at its minimizer b* = 2*sqrt(ln(n)/gamma).  Natural logarithms
throughout: the tradeoff algebra closes with ln only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGamma, DegenerateN, DimensionMismatch, DomainError, InvalidInput
from .errors import check_integer, check_real
from .gaussian import GaussianSpec, _difference_panels, is_iid, means_equal


@dataclass(frozen=True)
class BoundCertificate:
    """Everything the comparison theorem says about one pair of laws.

    ``optimal_beta`` is math.inf when gamma == 0 (the exact max needs no
    smoothing).  ``dominates_xy`` is the entrywise gX <= gY flag; the
    one-sided conclusion E max X <= E max Y is asserted only when
    ``means_equal`` also holds.
    """

    n: int
    gamma: float
    bound: float
    optimal_beta: float
    dominates_xy: bool
    dominates_yx: bool
    means_equal: bool


def sf_bound(gamma: float, n: int) -> float:
    """sqrt(gamma * ln n): the certified width for the expected-max gap."""
    gamma, n = check_real("gamma", gamma), check_integer("n", n, 1, error=DegenerateN)
    if gamma < 0:
        raise DegenerateGamma(f"gamma must be >= 0, got {gamma}")
    return math.sqrt(gamma * math.log(n))


def beta_tradeoff_bound(beta: float, gamma: float, n: int) -> float:
    """The smoothing tradeoff b*gamma/4 + ln(n)/b at inverse temperature b."""
    beta, gamma, n = check_real("beta", beta), check_real("gamma", gamma), check_integer("n", n, 1, error=DegenerateN)
    if not beta > 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    if gamma < 0:
        raise DegenerateGamma(f"gamma must be >= 0, got {gamma}")
    return beta * gamma / 4.0 + math.log(n) / beta


def optimal_beta(gamma: float, n: int) -> float:
    """Minimizer 2*sqrt(ln(n)/gamma) of the tradeoff; needs gamma > 0, n >= 2.

    Callers must branch on gamma == 0 themselves (the bound is 0 there and no
    finite smoothing is meaningful).
    """
    gamma, n = check_real("gamma", gamma), check_integer("n", n, 2, error=DegenerateN)
    if not gamma > 0:
        raise DegenerateGamma(f"gamma must be > 0, got {gamma}")
    return 2.0 * math.sqrt(math.log(n) / gamma)


def certify(spec_x: GaussianSpec, spec_y: GaussianSpec) -> BoundCertificate:
    """Full comparison certificate for a pair of laws of equal dimension.

    gamma and the domination flags are the largest absolute entry and the sign
    pattern of one difference gY - gX, defined even when the means differ;
    ``means_equal`` records whether the comparison conclusions actually apply.
    Two iid laws with equal variances take O(1) steps (_iid_difference),
    every other pair one pass over row panels of about 1 MiB.
    """
    if spec_x.n != spec_y.n:
        raise DimensionMismatch(f"dimensions differ: {spec_x.n} vs {spec_y.n}")
    n = spec_x.n
    iid = _iid_difference(spec_x, spec_y)
    panels = [iid] if iid is not None else (rows for _, rows in _difference_panels(spec_x, spec_y))
    # A max and an all() over panels are exact reductions.
    gamma, dominates_xy, dominates_yx = 0.0, True, True
    for diff in panels:
        gamma = max(gamma, float(np.max(np.abs(diff))))
        # Exact, no tolerance on purpose: slack would silently weaken the theorem's
        # hypothesis.  Callers with noisy increments add explicit slack upstream.
        dominates_xy = dominates_xy and bool(np.all(diff >= 0.0))
        dominates_yx = dominates_yx and bool(np.all(diff <= 0.0))
    beta_star = optimal_beta(gamma, n) if (gamma > 0 and n >= 2) else math.inf
    return BoundCertificate(
        n=n,
        gamma=gamma,
        bound=sf_bound(gamma, n),
        optimal_beta=beta_star,
        dominates_xy=dominates_xy,
        dominates_yx=dominates_yx,
        means_equal=means_equal(spec_x, spec_y),
    )


def _iid_difference(spec_x: GaussianSpec, spec_y: GaussianSpec) -> np.ndarray | None:
    """The distinct entries of gY - gX when both laws are iid (:func:`is_iid`), else None.

    An iid law's increments are v + v off the diagonal and 0 on it, so gY - gX
    holds 0 and, for n >= 2, the one number (vY + vY) - (vX + vX): its max and
    signs are the panels', bitwise.
    """
    if not (is_iid(spec_x) and is_iid(spec_y)):
        return None
    vx, vy = float(spec_x.covariance[0]), float(spec_y.covariance[0])
    gx, gy = vx + vx, vy + vy
    if math.isinf(gx) or math.isinf(gy):
        raise InvalidInput("increment entries must be finite: the law's scale overflows float64")
    return np.array([0.0, gy - gx][: min(spec_x.n, 2)])
