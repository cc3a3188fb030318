"""Independent numerical oracles used by the test suite.

Everything here is deliberately implemented from scratch (quadrature over
densities), sharing no code with the package, so agreement between package
output and these values is evidence rather than tautology.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import log_ndtr, ndtr


@functools.cache
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per node count."""
    return np.polynomial.legendre.leggauss(nodes)


def iid_expected_max_quad(n: int, nodes: int = 3000) -> float:
    """E max of n iid standard normals by Gauss-Legendre quadrature.

    Uses the order-statistic density: E max = int n z phi(z) Phi(z)^(n-1) dz,
    with the power computed in log space so large n cannot underflow.
    """
    x, w = _legendre(nodes)
    lo, hi = -12.0, 14.0
    z = (hi - lo) / 2.0 * x + (hi + lo) / 2.0
    wz = (hi - lo) / 2.0 * w
    log_phi = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    integrand = n * z * np.exp(log_phi + (n - 1) * log_ndtr(z))
    return float(integrand @ wz)


def bivariate_expected_max_quad(mean, cov, nodes: int = 400) -> float:
    """E max(V1, V2) by brute-force 2-d tensor quadrature over +/- 8 sd.

    The integrand max(v1, v2) * density has a kink along v1 = v2, so the
    inner integral is split there; each piece is analytic and the tensor
    Gauss-Legendre rule converges spectrally.  Needs a nonsingular
    covariance (there is a density to integrate against).
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    det = float(cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2)
    if det <= 0.0:
        raise ValueError("quadrature oracle needs a nonsingular covariance")
    x, w = np.polynomial.legendre.leggauss(nodes)
    s1, s2 = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
    a1, b1 = mean[0] - 8.0 * s1, mean[0] + 8.0 * s1
    a2, b2 = mean[1] - 8.0 * s2, mean[1] + 8.0 * s2
    v2 = (b2 - a2) / 2.0 * x + (a2 + b2) / 2.0
    w2 = (b2 - a2) / 2.0 * w
    kink = np.clip(v2, a1, b1)

    def density(v1, v2col):
        d1 = v1 - mean[0]
        d2 = v2col - mean[1]
        q = (cov[1, 1] * d1 * d1 - 2.0 * cov[0, 1] * d1 * d2 + cov[0, 0] * d2 * d2) / det
        return np.exp(-q / 2.0) / (2.0 * math.pi * math.sqrt(det))

    total = 0.0
    for lo, hi, use_v2 in ((np.full_like(kink, a1), kink, True), (kink, np.full_like(kink, b1), False)):
        half = (hi - lo) / 2.0
        v1 = half[:, None] * x[None, :] + ((hi + lo) / 2.0)[:, None]
        w1 = half[:, None] * w[None, :]
        f = density(v1, v2[:, None])
        g = (v2[:, None] if use_v2 else v1) * f
        total += float(((g * w1).sum(axis=1) * w2).sum())
    return total


def gaussian_expectation_2d_quad(func, mean, cov, nodes: int = 300, width: float = 10.0):
    """E func(V) for a nonsingular 2-d Gaussian V, for smooth func.

    Plain tensor Gauss-Legendre over +/- width sd; func receives an
    (m, m, 2) array of points and must return an (m, m) array.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    det = float(cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2)
    if det <= 0.0:
        raise ValueError("needs a nonsingular covariance")
    x, w = np.polynomial.legendre.leggauss(nodes)
    s1, s2 = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
    v1 = width * s1 * x + mean[0]
    w1 = width * s1 * w
    v2 = width * s2 * x + mean[1]
    w2 = width * s2 * w
    V1, V2 = np.meshgrid(v1, v2, indexing="ij")
    d1, d2 = V1 - mean[0], V2 - mean[1]
    q = (cov[1, 1] * d1 * d1 - 2.0 * cov[0, 1] * d1 * d2 + cov[0, 0] * d2 * d2) / det
    dens = np.exp(-q / 2.0) / (2.0 * math.pi * math.sqrt(det))
    vals = func(np.stack([V1, V2], axis=-1))
    return float(((vals * dens * w1[:, None]).sum(axis=0) * w2).sum())


def normal_cdf(z):
    return ndtr(z)


def increment_oracle(mean, cov) -> np.ndarray:
    """E (V_i - V_j)^2 = C[i,i] + C[j,j] - 2 C[i,j] + (mu_i - mu_j)^2, clamped at 0, from the dense matrix C.

    1-d variances are first put on the diagonal of an n x n matrix, so every
    entry comes from the same written-out formula, whatever the law stores.
    Overflowing entries are left as inf or nan for the caller to see.
    """
    c = np.diag(cov) if np.ndim(cov) == 1 else np.asarray(cov, dtype=np.float64)
    d = np.diagonal(c)
    mu = np.asarray(mean, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum(d[:, None] + d[None, :] - 2.0 * c + (mu[:, None] - mu[None, :]) ** 2, 0.0)
