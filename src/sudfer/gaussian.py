"""Finite-dimensional Gaussian laws: validation, increments, sampling, blending.

A law is a mean vector plus a symmetric PSD covariance matrix.  The module
also computes the increment matrix

    g[i, j] = E (V_i - V_j)^2 = cov[i,i] + cov[j,j] - 2 cov[i,j] + (mu_i - mu_j)^2

whose entrywise comparison is the currency of Gaussian comparison theorems,
and realizes the "square-root blend" between two equal-mean laws,

    (1 - t) * centered covariance of X  +  t * centered covariance of Y,

i.e. the law of sqrt(1-t) * Xc + sqrt(t) * Yc + mu for independent centered
copies Xc, Yc.

Sampling is deterministic per (spec, count, seed): the batch is the
concatenation of fixed-size shards, shard k drawn from the substream
SeedSequence(seed, spawn_key=(k,)).  Worker count or chunked consumption can
never change the result.  Laws of one dimension share the normals of a seed,
so :func:`common_draw_values`, on which every Monte Carlo estimator is built,
draws each shard once for a group of laws and keeps per-row reductions only.
Every shard is drawn and transformed into the same two buffers.  Diagonal
covariances (the iid and zero laws) are recognised in O(n^2) and skip every
O(n^3) step: eigvalsh in validation, Cholesky and eigh in factoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    FactorizationFailure,
    InvalidInput,
    MeanMismatch,
    NotPSD,
    NotSymmetric,
)

# Relative PSD tolerance: eigenvalues down to -PSD_RTOL*(1+trace) are treated
# as rounding noise and clamped to zero.
PSD_RTOL = 1e-10

# Relative tolerance for the equal-means hypothesis of the comparison theorem.
MEAN_RTOL = 1e-9

# Rows per sampling shard.  Each shard has its own derived substream, so
# results are identical no matter how the shards are produced or consumed.
SHARD_ROWS = 8192

_MAX_SEED = 2**64


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, order="C")  # always a private copy
    out.setflags(write=False)
    return out


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    s = int(seed)
    if s != seed or not (0 <= s < _MAX_SEED):
        raise InvalidInput(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return s


def derive_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed from a base seed and an integer path.

    Used for every internal stream split (per-trial seeds, per-law seeds),
    so that one experiment seed determines all downstream randomness.
    """
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(p) for p in path))
    lo, hi = (int(w) for w in ss.generate_state(2, np.uint32))
    return lo | (hi << 32)


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """The law of one finite Gaussian vector: mean and covariance.

    Construction checks shapes, finiteness and exact symmetry.  The PSD
    tolerance check (and clamping of tiny negative eigenvalues) lives in
    :func:`validate_spec`, which is how specs should normally be built.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.ndim != 1 or cov.ndim != 2:
            raise DimensionMismatch(
                f"mean must be 1-d and covariance 2-d, got shapes {mean.shape} and {cov.shape}"
            )
        n = mean.shape[0]
        if n < 1:
            raise DimensionMismatch("need at least one coordinate")
        if cov.shape != (n, n):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} does not match mean length {n}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise InvalidInput("mean/covariance entries must be finite")
        if not (_is_diagonal(cov) or np.array_equal(cov, cov.T)):  # the transposed compare is the slow one
            raise NotSymmetric("covariance is not exactly symmetric as stored")
        object.__setattr__(self, "mean", _as_readonly(mean))
        object.__setattr__(self, "covariance", _as_readonly(cov))

    @property
    def n(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class IncrementMatrix:
    """Matrix of squared L2 increments g[i,j] = E (V_i - V_j)^2.

    Symmetric, zero diagonal, nonnegative.  sqrt(g) is a pseudometric on the
    coordinates (checked statistically in the test suite, not on every
    construction).
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.entries, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatch(f"entries must be square, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise InvalidInput("increment entries must be finite")
        if not np.array_equal(g, g.T):
            raise NotSymmetric("increment matrix is not exactly symmetric")
        if np.any(np.diagonal(g) != 0.0):
            raise InvalidInput("increment matrix must have an exactly zero diagonal")
        if np.any(g < 0.0):
            raise InvalidInput("increment entries must be nonnegative")
        object.__setattr__(self, "entries", _as_readonly(g))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def validate_spec(mean, covariance) -> GaussianSpec:
    """Build a validated GaussianSpec.

    Raises DimensionMismatch / NotSymmetric / NotPSD per the failed check.
    Eigenvalues in [-PSD_RTOL*(1+trace), 0) are rounding noise: the covariance
    is re-assembled with them clamped to zero so that downstream factorization
    cannot trip over them.
    """
    spec = GaussianSpec(np.asarray(mean, dtype=np.float64), np.asarray(covariance, dtype=np.float64))
    cov = spec.covariance
    if _is_diagonal(cov) and float(np.diagonal(cov).min()) >= 0.0:
        return spec  # a diagonal matrix is PSD exactly when its diagonal is nonnegative
    tol = PSD_RTOL * (1.0 + float(np.trace(cov)))
    smallest = float(np.linalg.eigvalsh(cov)[0])
    if smallest < -tol:
        raise NotPSD(f"covariance has eigenvalue {smallest:.6g} below tolerance {-tol:.6g}")
    if smallest < 0.0:
        w, v = np.linalg.eigh(cov)
        w = np.maximum(w, 0.0)
        clamped = (v * w) @ v.T
        clamped = (clamped + clamped.T) / 2.0  # exact symmetry after the matmul
        return GaussianSpec(spec.mean, clamped)
    return spec


def increment_matrix(spec: GaussianSpec) -> IncrementMatrix:
    """Increment matrix g[i,j] = cov[i,i]+cov[j,j]-2cov[i,j]+(mu_i-mu_j)^2.

    For a valid spec this is nonnegative up to rounding; entries that round
    to tiny negatives are clamped to zero so the type invariant holds.
    """
    cov = spec.covariance
    mu = spec.mean
    d = np.diagonal(cov)
    g = d[:, None] + d[None, :] - 2.0 * cov + (mu[:, None] - mu[None, :]) ** 2
    return IncrementMatrix(np.maximum(g, 0.0))


def _is_diagonal(a: np.ndarray) -> bool:
    """True when ``a`` has no nonzero off-diagonal entry: one O(n^2) scan."""
    return np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


def _factor(spec: GaussianSpec) -> np.ndarray:
    """A factor L with L @ L.T equal to the covariance (1-d when L is diagonal).

    An all-positive or all-zero diagonal gets sqrt(diagonal), bitwise what
    Cholesky gives.  Other laws get Cholesky when numerically PD, else the
    eigendecomposition with negative eigenvalues clamped to zero (degenerate
    laws, and zero/positive diagonals, whose factor may permute the normals).
    """
    cov = spec.covariance
    d = np.diagonal(cov)
    if _is_diagonal(cov) and (float(d.min()) > 0.0 or not d.any()):
        return np.sqrt(d)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            w, v = np.linalg.eigh(cov)
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailure(f"eigendecomposition failed: {exc}") from exc
        tol = PSD_RTOL * (1.0 + float(np.trace(cov)))
        if float(w[0]) < -tol:
            raise FactorizationFailure(f"covariance is numerically indefinite (eigenvalue {float(w[0]):.6g})")
        factor = v * np.sqrt(np.maximum(w, 0.0))
    return np.diagonal(factor).copy() if _is_diagonal(factor) else factor


def _transform(z: np.ndarray, factor: np.ndarray, mean: np.ndarray, out: np.ndarray) -> np.ndarray:
    # out = z @ factor.T + mean; a 1-d (diagonal) factor skips the matmul, with bitwise equal results.
    if factor.ndim == 1:
        np.multiply(z, factor, out=out)
    else:
        np.matmul(z, factor.T, out=out)
    out += mean
    return out


def common_draw_values(
    laws: Sequence[tuple[GaussianSpec, Callable[[np.ndarray], np.ndarray]]], count: int, seed: int
) -> list[np.ndarray]:
    """Per-row values of several laws evaluated on common standard normals.

    ``laws`` is a sequence of ``(spec, reduce)`` pairs of one dimension.  Shard
    k (rows [k*SHARD_ROWS, ...)) draws z once from the substream derived from
    (seed, k), transforms it by each law in turn, and keeps only what that
    law's ``reduce`` returns for the shard's rows.  Law j's result is the
    concatenation of those parts, so it does not depend on the other laws:
    ``sample(spec, count, seed)`` is ``common_draw_values([(spec, np.asarray)],
    count, seed)[0]``.  A law with an all-zero factor is its mean on every
    row and draws no normals.  Shards are drawn into one buffer and
    transformed into another, shared by all laws: ``reduce`` never sees z,
    and may modify its rows or return a view of them (that result is copied).
    """
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
    check_seed(seed)
    dimensions = {spec.n for spec, _ in laws}
    if len(dimensions) != 1:
        raise DimensionMismatch(f"common draws need laws of one dimension, got dimensions {sorted(dimensions)}")
    (n,) = dimensions
    factors = [_factor(spec) for spec, _ in laws]
    drawn = [bool(factor.any()) for factor in factors]  # z * 0 + mean == mean: zero factors draw nothing
    zbuf, rowbuf = (np.empty((min(SHARD_ROWS, count), n)) for _ in range(2))
    parts: list[list[np.ndarray]] = [[] for _ in laws]
    for k, start in enumerate(range(0, count, SHARD_ROWS)):
        rows = min(SHARD_ROWS, count - start)
        z = zbuf[:rows]
        if any(drawn):
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,))).standard_normal(out=z)
        for (spec, reduce), factor, random, out in zip(laws, factors, drawn, parts):
            if random:
                values = reduce(_transform(z, factor, spec.mean, rowbuf[:rows]))
            else:
                values = reduce(np.broadcast_to(spec.mean, (rows, n)))
            out.append(np.array(values) if np.may_share_memory(values, rowbuf) else values)
    return [np.concatenate(out, axis=0) for out in parts]


def sample(spec: GaussianSpec, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` iid rows as a (count x n) array.  Deterministic per (spec, count, seed)."""
    return common_draw_values([(spec, np.asarray)], count, seed)[0]


def means_equal(spec_x: GaussianSpec, spec_y: GaussianSpec) -> bool:
    """Equal-means hypothesis check, with a relative floating-point band."""
    if spec_x.n != spec_y.n:
        raise DimensionMismatch(f"dimensions differ: {spec_x.n} vs {spec_y.n}")
    scale = max(float(np.max(np.abs(spec_x.mean))), float(np.max(np.abs(spec_y.mean))))
    return bool(np.max(np.abs(spec_x.mean - spec_y.mean)) <= MEAN_RTOL * (1.0 + scale))


def blended_spec(spec_x: GaussianSpec, spec_y: GaussianSpec, t: float) -> GaussianSpec:
    """Law of the square-root blend at time t in [0, 1].

    Covariance is the entrywise convex combination of the two (centered)
    covariances; the mean is the shared mean (interpolated, so that the
    t=0 / t=1 endpoints reproduce the inputs exactly even when the means
    differ by tolerance-level noise).  PSD holds by convexity, so no
    re-clamping is done and endpoints round-trip bit-identically.
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if not means_equal(spec_x, spec_y):
        raise MeanMismatch("blending requires entrywise equal means")
    s = 1.0 - t
    mean = s * spec_x.mean + t * spec_y.mean
    cov = s * spec_x.covariance + t * spec_y.covariance
    return GaussianSpec(mean, cov)
