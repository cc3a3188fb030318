"""Finite-dimensional Gaussian laws: validation, increments, sampling, blending.

A law is a mean vector plus a symmetric PSD covariance matrix.  The module
also computes the increment matrix

    g[i, j] = E (V_i - V_j)^2 = cov[i,i] + cov[j,j] - 2 cov[i,j] + (mu_i - mu_j)^2

as a plain read-only array, whose entrywise comparison is the currency of
Gaussian comparison theorems (:func:`sudfer.bounds.certify` compares a pair),
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
A shard is drawn in row blocks of about 4 MiB, or whole when a dense law
draws, into one buffer and transformed into a second, both reused; the last
diagonal law is transformed in place when no later law draws, so the iid law
holds one 4 MiB buffer whatever n is.  Per-row values go into one result per
law, preallocated.  Each law is checked and factored once, when its
GaussianSpec is built, by one decomposition (:func:`_factor`); diagonal laws
(the iid and zero laws) skip every O(n^3) step.
"""

from __future__ import annotations

import contextlib
import numbers
from dataclasses import dataclass, field
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
    """The law of one finite Gaussian vector: mean, covariance and its factor.

    Construction checks shapes, finiteness and exact symmetry, then makes the
    one PSD decision (:func:`_factor`): rounding-level negative eigenvalues
    are clamped to zero in the stored covariance, larger ones raise NotPSD.
    ``factor`` is a read-only L with L @ L.T equal to the stored covariance,
    1-d when L is diagonal; every draw of the law is mean + L z.
    """

    mean: np.ndarray
    covariance: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            if np.iscomplexobj(self.mean) or np.iscomplexobj(self.covariance):
                raise TypeError("complex entries are not truncated to their real part")
            mean = np.asarray(self.mean, dtype=np.float64)
            cov = np.asarray(self.covariance, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"mean/covariance must be arrays of real numbers: {exc}") from exc
        if mean.ndim != 1 or cov.ndim != 2:
            raise DimensionMismatch(f"mean must be 1-d and covariance 2-d, got shapes {mean.shape} and {cov.shape}")
        n = mean.shape[0]
        if n < 1:
            raise DimensionMismatch("need at least one coordinate")
        if cov.shape != (n, n):
            raise DimensionMismatch(f"covariance shape {cov.shape} does not match mean length {n}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise InvalidInput("mean/covariance entries must be finite")
        diagonal = _is_diagonal(cov)
        if not (diagonal or np.array_equal(cov, cov.T)):  # the transposed compare is the slow one
            raise NotSymmetric("covariance is not exactly symmetric as stored")
        cov, factor = _factor(cov, diagonal)
        factor.setflags(write=False)  # always a fresh array: no copy needed
        object.__setattr__(self, "mean", _as_readonly(mean))
        object.__setattr__(self, "covariance", _as_readonly(cov))
        object.__setattr__(self, "factor", factor)

    @property
    def n(self) -> int:
        return self.mean.shape[0]


def validate_spec(mean, covariance) -> GaussianSpec:
    """Build a GaussianSpec: every check, clamp and factorization is the constructor's."""
    return GaussianSpec(mean, covariance)


def increment_matrix(spec: GaussianSpec) -> np.ndarray:
    """Read-only increment matrix g[i,j] = cov[i,i]+cov[j,j]-2cov[i,j]+(mu_i-mu_j)^2.

    Symmetric with a zero diagonal by construction (every term is symmetric in
    floating point, and the diagonal is 2d_i - 2d_i + 0).  Entries that round
    to tiny negatives are clamped to zero; InvalidInput if any overflows.
    """
    g = _increments(spec, 0, spec.n)
    g.setflags(write=False)
    return g


def _increments(spec: GaussianSpec, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the increment matrix, each entry from the one expression.

    Overflow is reported once, by InvalidInput, not by numpy warnings.
    """
    cov = spec.covariance
    mu = spec.mean
    d = np.diagonal(cov)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.maximum(d[lo:hi, None] + d[None, :] - 2.0 * cov[lo:hi] + (mu[lo:hi, None] - mu[None, :]) ** 2, 0.0)
    if not np.isfinite(g).all():
        raise InvalidInput("increment entries must be finite: the law's scale overflows float64")
    return g


def _is_diagonal(a: np.ndarray) -> bool:
    """True when ``a`` has no nonzero off-diagonal entry: one O(n^2) scan."""
    return np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


def _factor(cov: np.ndarray, diagonal: bool) -> tuple[np.ndarray, np.ndarray]:
    """The one PSD decision: ``(cov, factor)`` with factor @ factor.T equal to cov.

    ``diagonal`` is ``_is_diagonal(cov)``.  An all-positive or all-zero
    diagonal gets sqrt(diagonal), bitwise what Cholesky gives; other matrices
    that Cholesky accepts keep its factor.  Otherwise one eigendecomposition
    (degenerate laws, zero/positive diagonals) rejects an eigenvalue below
    -PSD_RTOL*(1+trace) with NotPSD and clamps negative ones above it to zero,
    in the covariance and the factor alike.  A diagonal factor is returned 1-d.
    """
    d = np.diagonal(cov)
    if diagonal and (float(d.min()) > 0.0 or not d.any()):
        return cov, np.sqrt(d)
    with contextlib.suppress(np.linalg.LinAlgError):
        return cov, np.linalg.cholesky(cov)
    try:
        w, v = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"eigendecomposition did not converge: {exc}") from exc
    tol = PSD_RTOL * (1.0 + float(np.trace(cov)))
    if float(w[0]) < -tol:
        raise NotPSD(f"covariance has eigenvalue {float(w[0]):.6g} below tolerance {-tol:.6g}")
    if float(w[0]) < 0.0:
        w = np.maximum(w, 0.0)
        cov = (v * w) @ v.T
        cov = (cov + cov.T) / 2.0  # exact symmetry after the matmul
    factor = v * np.sqrt(w)
    return cov, (np.diagonal(factor).copy() if _is_diagonal(factor) else factor)


def _panel_rows(n: int) -> int:
    """Rows of an n-column float64 panel of about 4 MiB, at most one shard."""
    return min(SHARD_ROWS, max(1, 2**19 // n))


def _transform(z: np.ndarray, factor: np.ndarray, mean: np.ndarray, out: np.ndarray) -> np.ndarray:
    # out = z @ factor.T + mean; a 1-d (diagonal) factor skips the matmul, with bitwise equal results,
    # and may then transform z in place (out is z).
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

    ``laws`` is a sequence of ``(spec, reduce)`` pairs of one dimension, and
    ``count`` an integer.  Shard k (rows [k*SHARD_ROWS, ...)) draws z from the
    one generator derived from (seed, k), in consecutive row blocks, each
    transformed by each law's factor in turn; ``reduce`` returns one entry per
    row, with the same trailing shape on every block (else InvalidInput), kept
    in law j's preallocated result.  Blocks hold about 4 MiB unless a law with
    a dense (2-d) factor draws: a product's last bits depend on its row count.
    That result does not depend on the other laws: ``sample(spec, count, seed)``
    is ``common_draw_values([(spec, np.asarray)], count, seed)[0]``.  A law with
    an all-zero factor is its mean on every row and draws no normals.  Blocks
    are drawn into one buffer and transformed into another, shared by all laws;
    the last diagonal law is transformed in place when no later law draws.
    ``reduce`` may modify its rows or return a view of them, which the result
    copies; neither reaches another law or block.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise InvalidInput(f"count must be an integer >= 1, got {count!r}")
    check_seed(seed)
    dimensions = {spec.n for spec, _ in laws}
    if len(dimensions) != 1:
        raise DimensionMismatch(f"common draws need laws of one dimension, got dimensions {sorted(dimensions)}")
    (n,) = dimensions
    # z * 0 + mean == mean: zero factors draw nothing; the row buffer holds their mean.  The last law that draws
    # overwrites z when its factor is diagonal (elementwise, same bits); the others use the row buffer, so z survives.
    drawn = [j for j, (spec, _) in enumerate(laws) if spec.factor.any()]
    in_place = drawn[-1] if drawn and laws[drawn[-1]][0].factor.ndim == 1 else None
    block = SHARD_ROWS if any(laws[j][0].factor.ndim == 2 for j in drawn) else _panel_rows(n)
    shape = (min(block, count), n)
    zbuf = np.empty(shape if drawn else (0, n))
    rowbuf = np.empty(shape) if len(laws) > (in_place is not None) else None
    results: list[np.ndarray | None] = [None] * len(laws)
    for k, first in enumerate(range(0, count, SHARD_ROWS)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,))) if drawn else None
        for start in range(first, min(first + SHARD_ROWS, count), block):
            rows = min(block, count - start, first + SHARD_ROWS - start)
            z = zbuf[:rows]
            if drawn:
                rng.standard_normal(out=z)
            for j, (spec, reduce) in enumerate(laws):
                out = z if j == in_place else rowbuf[:rows]
                if j in drawn:
                    _transform(z, spec.factor, spec.mean, out)
                else:
                    out[...] = spec.mean
                values = np.asarray(reduce(out))
                if results[j] is None and values.ndim > 0:
                    results[j] = np.empty((count,) + values.shape[1:], values.dtype)
                if results[j] is None or values.shape != (rows,) + results[j].shape[1:]:
                    raise InvalidInput(f"reduce must return one entry per row ({rows}), got shape {values.shape}")
                results[j][start : start + rows] = values
    return results


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
    covariances, PSD by convexity; the shared mean is interpolated likewise
    (the two may differ by tolerance-level noise).  At t = 0 and t = 1 the
    inputs themselves are returned, factor included, so endpoints round-trip
    bit-identically and a clamped law is never clamped twice.
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if not means_equal(spec_x, spec_y):
        raise MeanMismatch("blending requires entrywise equal means")
    if t in (0.0, 1.0):
        return spec_y if t else spec_x
    s = 1.0 - t
    return GaussianSpec(s * spec_x.mean + t * spec_y.mean, s * spec_x.covariance + t * spec_y.covariance)
