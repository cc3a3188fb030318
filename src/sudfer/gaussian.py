"""Finite-dimensional Gaussian laws: validation, increments, sampling, blending.

A law is a mean vector plus a symmetric PSD covariance.  A diagonal
covariance, given as variances or as a matrix, is stored as its variances (a
diagonal law: iid, zero, independent coordinates), with a 1-d factor and no
n x n array; every other law stores the n x n matrix.  The module also
computes the increment matrix

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
so one loop, the private generator :func:`_draw_blocks`, draws each shard
once for a group of laws and yields each law's per-row reduction of each
block with its row offset.  Every Monte Carlo estimator is built on it:
:func:`common_draw_values` collects the blocks into one preallocated result
per law, and a caller that needs only sums (the Stein check) folds them.
A shard is drawn in row blocks of about 1 MiB (BLOCK_BYTES) into one buffer
and transformed into a second, both reused; the last diagonal law is
transformed in place when no later law draws, so a lone diagonal law holds one
1 MiB buffer whatever n is.  The block size is a fixed rule, never tuned per
machine: a dense product's last bits may depend on its row count, so a block
that varied would make report bodies machine-dependent.  A dense law's factor
depends on the BLAS library too: with OpenBLAS, np.linalg.cholesky of an
n = 256 wishart covariance differs in its last bits between 1 and 2 threads
(the products do not), so a dense law's draws are reproducible for one BLAS
build and thread count; diagonal laws never call BLAS.  Each law is checked
and factored once, when its GaussianSpec is built, by one decomposition
(:func:`_factor`); a diagonal law is decided on its variances alone, whatever
their signs, skips every O(n^3) step, and built from its variances costs O(n).

:func:`iid_maxima` draws the maximum of n iid standard normals without the
vector: one uniform per draw, inverted through Phi^n with Wichura's AS241,
from the same per-shard substreams, so its memory and time do not grow with n.
AS241 evaluates one branch per draw: each of its three rational
approximations (central, near tail, far tail) runs only on the draws that
fall in it, with no gather or scatter when one branch holds a whole shard:
the near tail holds nearly every shard for n from 256 to about 10^5.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    FactorizationFailure,
    InvalidInput,
    MeanMismatch,
    NotPSD,
    NotSymmetric,
    check_integer,
    check_real,
    check_real_array,
)

# Relative PSD tolerance: eigenvalues down to -PSD_RTOL*(1+trace) are treated
# as rounding noise and clamped to zero.
PSD_RTOL = 1e-10

# Relative tolerance for the equal-means hypothesis of the comparison theorem.
MEAN_RTOL = 1e-9

# Rows per sampling shard.  Each shard has its own derived substream, so
# results are identical no matter how the shards are produced or consumed.
SHARD_ROWS = 8192

# Bytes of one float64 row block, for the draw loop and the increment panels alike.  On 2 CPUs with 2 MiB of L2,
# 4 MiB blocks were no faster and held 12 MB more resident memory on a dense n = 256 path run; 256 KiB blocks
# were about 15% slower.
BLOCK_BYTES = 2**20


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, order="C")  # always a private copy
    out.setflags(write=False)
    return out


def check_seed(seed: int) -> int:
    """A 64-bit unsigned seed as a plain int."""
    return check_integer("seed", seed, 0, 2**64 - 1)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed from a base seed and an integer path.

    Used for every internal stream split (per-trial seeds, per-law seeds),
    so that one experiment seed determines all downstream randomness.
    """
    spawn_key = tuple(check_integer("path entry", p, 0) for p in path)
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=spawn_key)
    lo, hi = (int(w) for w in ss.generate_state(2, np.uint32))
    return lo | (hi << 32)


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """The law of one finite Gaussian vector: mean, covariance and its factor.

    ``covariance`` is either the n x n matrix or a 1-d array of n variances,
    the covariance of independent coordinates.  Construction checks shapes,
    finiteness and exact symmetry, then makes the one PSD decision
    (:func:`_factor`): rounding-level negative eigenvalues (or variances) are
    clamped to zero in the stored covariance, larger ones raise NotPSD.
    ``factor`` is a read-only L with L @ L.T equal to the stored covariance;
    every draw of the law is mean + L z.  A diagonal covariance, given as
    variances or as a matrix, is stored as its variances d, with the 1-d
    factor sqrt(d) and no n x n array; every other law keeps both n x n.
    """

    mean: np.ndarray
    covariance: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean, cov = check_real_array("mean", self.mean), check_real_array("covariance", self.covariance)
        if mean.ndim != 1 or cov.ndim not in (1, 2):
            raise DimensionMismatch(
                f"mean must be 1-d and covariance 2-d (or 1-d variances), got shapes {mean.shape} and {cov.shape}"
            )
        n = mean.shape[0]
        if n < 1:
            raise DimensionMismatch("need at least one coordinate")
        if cov.shape != (n,) * cov.ndim:
            raise DimensionMismatch(f"covariance shape {cov.shape} does not match mean length {n}")
        if cov.ndim == 2 and np.count_nonzero(cov) == np.count_nonzero(np.diagonal(cov)):  # one O(n^2) scan
            cov = np.diagonal(cov)  # no nonzero off-diagonal entry: the law is stored as its variances
        elif cov.ndim == 2 and not np.array_equal(cov, cov.T):
            raise NotSymmetric("covariance is not exactly symmetric as stored")
        cov, factor = _factor(cov)
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


def is_iid(spec: GaussianSpec) -> bool:
    """True when the law draws iid coordinates: stored equal variances and a constant mean.

    Equal variances have equal square roots, so the factor is constant too.
    The test reads the variances, on which the increments depend: sqrt can
    round two neighbouring variances to one factor entry, and such a law's
    off-diagonal increments are not all one number.
    """
    cov, mean = spec.covariance, spec.mean
    return cov.ndim == 1 and cov.min() == cov.max() and mean.min() == mean.max()


def _covariance_matrix(spec: GaussianSpec) -> np.ndarray:
    """The n x n covariance; a law that stores its variances gets their diagonal matrix built."""
    cov = spec.covariance
    return np.diag(cov) if cov.ndim == 1 else cov


def _covariance_times(spec: GaussianSpec, g: np.ndarray) -> np.ndarray:
    """``g @ covariance``; stored variances d give g * d, bitwise (every other term of the product is 0)."""
    cov = spec.covariance
    return g * cov if cov.ndim == 1 else g @ cov


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

    A law that stores its variances d has cov[i,j] = 0 off the diagonal, and
    subtracting 2 * 0 changes no bit, so only the diagonal entries subtract
    2 d_i.  Overflow is reported once, by InvalidInput, not by numpy warnings.
    """
    cov = spec.covariance
    mu = spec.mean
    d = cov if cov.ndim == 1 else np.diagonal(cov)
    with np.errstate(over="ignore", invalid="ignore"):
        g = d[lo:hi, None] + d[None, :]
        if cov.ndim == 2:
            g -= 2.0 * cov[lo:hi]
        else:
            rows = np.arange(g.shape[0])
            g[rows, lo + rows] -= 2.0 * d[lo:hi]  # 0, or NaN where d_i + d_i overflows
        g += (mu[lo:hi, None] - mu[None, :]) ** 2
        np.maximum(g, 0.0, out=g)
    if not np.isfinite(g).all():
        raise InvalidInput("increment entries must be finite: the law's scale overflows float64")
    return g


def _difference_panels(spec_x: GaussianSpec, spec_y: GaussianSpec) -> Iterator[tuple[int, np.ndarray]]:
    """``(lo, rows)`` for consecutive row panels of gY - gX of about 1 MiB each, rows [lo, lo + len(rows))."""
    if spec_x.n != spec_y.n:
        raise DimensionMismatch(f"dimensions differ: {spec_x.n} vs {spec_y.n}")
    panel = _panel_rows(spec_x.n)
    for lo in range(0, spec_x.n, panel):
        yield lo, _increments(spec_y, lo, lo + panel) - _increments(spec_x, lo, lo + panel)


def _factor(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one PSD decision: ``(cov, factor)`` with factor @ factor.T equal to cov.

    ``cov`` is an n x n matrix with a nonzero off-diagonal entry, or the 1-d
    variances of a diagonal one.  Variances are the eigenvalues of their own
    diagonal matrix: they get :func:`_psd_clamped` and their square roots,
    both 1-d, with no n x n step.  A matrix gets one Cholesky, else one
    eigendecomposition whose eigenvalues get :func:`_psd_clamped`; a clamped
    matrix is rebuilt from them, in the covariance and the factor alike.
    """
    if cov.ndim == 1:
        cov = _psd_clamped(cov, cov)
        return cov, np.sqrt(cov)
    with contextlib.suppress(np.linalg.LinAlgError):
        return cov, np.linalg.cholesky(cov)
    try:
        w, v = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"eigendecomposition did not converge: {exc}") from exc
    clamped = _psd_clamped(w, np.diagonal(cov))
    if clamped is not w:
        cov = (v * clamped) @ v.T
        cov = (cov + cov.T) / 2.0  # exact symmetry after the matmul
    return cov, v * np.sqrt(clamped)


def _psd_clamped(w: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """The one PSD rule, for the eigenvalues ``w`` of a covariance with the given diagonal.

    ``w`` itself when no entry is negative; else NotPSD for an entry below
    -PSD_RTOL*(1+trace), and ``w`` with its negative entries clamped to zero.
    The trace is summed only then, and an overflowing sum (an infinite
    tolerance) prints no warning: the law's increments report the overflow.
    """
    low = float(w.min())
    if low >= 0.0:
        return w
    with np.errstate(over="ignore"):
        tol = PSD_RTOL * (1.0 + float(diagonal.sum()))
    if low < -tol:
        raise NotPSD(f"covariance has eigenvalue {low:.6g} below tolerance {-tol:.6g}")
    return np.maximum(w, 0.0)


def _panel_rows(n: int) -> int:
    """Rows of an n-column float64 panel of about BLOCK_BYTES (1 MiB), at most one shard."""
    return min(SHARD_ROWS, max(1, BLOCK_BYTES // (8 * n)))


def _transform(z: np.ndarray, factor: np.ndarray, mean: np.ndarray, out: np.ndarray) -> np.ndarray:
    # out = z @ factor.T + mean; a 1-d (diagonal) factor skips the matmul, with bitwise equal results,
    # and may then transform z in place (out is z).
    if factor.ndim == 1:
        np.multiply(z, factor, out=out)
    else:
        np.matmul(z, factor.T, out=out)
    out += mean
    return out


def _draw_blocks(
    laws: Sequence[tuple[GaussianSpec, Callable[[np.ndarray], np.ndarray]]], count: int, seed: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The one normal-draw loop: ``(j, start, values)``, law j's reduced rows [start, start + len(values)).

    ``laws`` is a sequence of ``(spec, reduce)`` pairs of one dimension, and
    ``count`` an integer.  Shard k (rows [k*SHARD_ROWS, ...)) draws z from the
    one generator derived from (seed, k), in consecutive row blocks of about
    1 MiB whose rows depend on n alone, each transformed by each law's factor
    in turn (in the z buffer itself for the last law that draws, if it is
    diagonal) and handed to that law's ``reduce``.  It must return one entry
    per row, with the same trailing shape on every block (else InvalidInput).
    A law with an all-zero factor is its mean on every row and draws no
    normals.  ``reduce`` may modify its rows or return a view of them: the
    buffers are reused, so ``values`` holds only until the next block is drawn.
    """
    count, seed = check_integer("count", count, 1), check_seed(seed)
    dimensions = {spec.n for spec, _ in laws}
    if len(dimensions) != 1:
        raise DimensionMismatch(f"common draws need laws of one dimension, got dimensions {sorted(dimensions)}")
    (n,) = dimensions
    # z * 0 + mean == mean: zero factors draw nothing; the row buffer holds their mean.  The last law that draws
    # overwrites z when its factor is diagonal (elementwise, same bits); the others use the row buffer, so z survives.
    drawn = [j for j, (spec, _) in enumerate(laws) if spec.factor.any()]
    in_place = drawn[-1] if drawn and laws[drawn[-1]][0].factor.ndim == 1 else None
    block = _panel_rows(n)
    shape = (min(block, count), n)
    zbuf = np.empty(shape if drawn else (0, n))
    rowbuf = np.empty(shape) if len(laws) > (in_place is not None) else None
    trailing: dict[int, tuple] = {}  # law j's trailing shape, from its first block
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
                if values.ndim == 0 or values.shape != (rows,) + trailing.setdefault(j, values.shape[1:]):
                    raise InvalidInput(f"reduce must return one entry per row ({rows}), got shape {values.shape}")
                yield j, start, values


def common_draw_values(
    laws: Sequence[tuple[GaussianSpec, Callable[[np.ndarray], np.ndarray]]], count: int, seed: int
) -> list[np.ndarray]:
    """Per-row values of several laws evaluated on common standard normals: the collector of :func:`_draw_blocks`.

    Law j's result is preallocated at its first block, with that block's
    dtype and trailing shape, and each block is copied in at its row offset,
    so no other law or block changes it: ``sample(spec, count, seed)`` is
    ``common_draw_values([(spec, np.asarray)], count, seed)[0]``.  Prefixes
    agree bitwise, except that a dense product's last bits depend on its row
    count: rows of a final block that a count cut short may differ.
    """
    results: list[np.ndarray | None] = [None] * len(laws)
    for j, start, values in _draw_blocks(laws, count, seed):
        if results[j] is None:
            results[j] = np.empty((count,) + values.shape[1:], values.dtype)
        results[j][start : start + len(values)] = values
    return results


def sample(spec: GaussianSpec, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` iid rows as a (count x n) array.  Deterministic per (spec, count, seed)."""
    return common_draw_values([(spec, np.asarray)], count, seed)[0]


# Wichura's AS241 (PPND16), Applied Statistics 37 (1988) 477-484: Phi^-1 by rational approximations, relative
# error about 1e-16.  Each table's rows are a numerator's and a denominator's coefficients, constant term first.
_PPND16_CENTRAL = np.array((
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3, 1.3731693765509461125e4,
     4.5921953931549871457e4, 6.7265770927008700853e4, 3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4, 5.2264952788528545610e3),
))
_PPND16_NEAR_TAIL = np.array((
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0, 3.64784832476320460504e0,
     1.27045825245236838258e0, 2.41780725177450611770e-1, 2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4, 1.05075007164441684324e-9),
))
_PPND16_FAR_TAIL = np.array((
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0, 2.96560571828504891230e-1,
     2.65321895265761230930e-2, 1.24266094738807843860e-3, 2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7, 2.04426310338993978564e-15),
))


def _horner(coefficients: np.ndarray, r: np.ndarray) -> np.ndarray:
    """numerator(r) / denominator(r) for a (2, k) coefficient table, both by Horner's rule in one (2, m) buffer.

    Each step multiplies and adds in place, in the order ``numerator * r + a`` would: the same bits, with no
    per-step temporaries.
    """
    nd = np.multiply(coefficients[:, -1:], r)
    for i in range(coefficients.shape[1] - 2, 0, -1):
        nd += coefficients[:, i : i + 1]
        nd *= r
    nd += coefficients[:, :1]
    return nd[0] / nd[1]


def _piecewise(inside: np.ndarray, f: Callable, g: Callable, *args: np.ndarray) -> np.ndarray:
    """f(*args) where ``inside`` holds and g(*args) elsewhere, each evaluated on its own entries only.

    When one side holds every entry, it is evaluated on the arrays themselves, with no gather or scatter.
    """
    if inside.all():
        return f(*args)
    if not inside.any():
        return g(*args)
    out = np.empty(inside.shape)
    out[inside] = f(*(a[inside] for a in args))
    out[~inside] = g(*(a[~inside] for a in args))
    return out


def _ppnd16(p: np.ndarray) -> np.ndarray:
    """Phi^-1(p) for p strictly inside (0, 1), entrywise (AS241), each branch on its own entries only."""
    q = p - 0.5
    return _piecewise(np.abs(q) <= 0.425, _ppnd16_central, _ppnd16_tail, p, q)


def _ppnd16_central(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return q * _horner(_PPND16_CENTRAL, 0.180625 - q * q)


def _ppnd16_tail(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))  # 1 - p is exact where it is the smaller
    near, far = (lambda r: _horner(_PPND16_NEAR_TAIL, r - 1.6)), (lambda r: _horner(_PPND16_FAR_TAIL, r - 5.0))
    return np.copysign(_piecewise(r <= 5.0, near, far, r), q)


def iid_maxima(n: int, count: int, seed: int) -> np.ndarray:
    """Maxima of ``count`` draws of n iid standard normals, one uniform each, never the n-vector.

    The maximum has CDF Phi^n, so for a uniform U it is Phi^-1((1 - U)^(1/n)) = -Phi^-1(q), with upper tail
    q = -expm1(log1p(-U)/n) computed without cancellation (inversion; Devroye, Non-Uniform Random Variate
    Generation, 1986).  U is the midpoint of one of 2^52 equal cells, strictly inside (0, 1); with n up to 2^1000,
    q stays positive and every maximum is finite.  Shard k draws its uniforms from the generator derived from
    (seed, k), as ``common_draw_values`` draws its normals: prefixes agree and chunking cannot change the result.
    """
    n, count, seed = check_integer("n", n, 1, 2**1000), check_integer("count", count, 1), check_seed(seed)
    maxima = np.empty(count)
    for k, first in enumerate(range(0, count, SHARD_ROWS)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        u = (rng.integers(0, 2**52, min(SHARD_ROWS, count - first)) + 0.5) * 2.0**-52
        maxima[first : first + len(u)] = -_ppnd16(-np.expm1(np.log1p(-u) / float(n)))
    return maxima


def means_equal(spec_x: GaussianSpec, spec_y: GaussianSpec) -> bool:
    """Equal-means hypothesis check, with a relative floating-point band."""
    if spec_x.n != spec_y.n:
        raise DimensionMismatch(f"dimensions differ: {spec_x.n} vs {spec_y.n}")
    scale = max(float(np.max(np.abs(spec_x.mean))), float(np.max(np.abs(spec_y.mean))))
    with np.errstate(over="ignore"):  # a difference past the float range is inf, and not equal
        return bool(np.max(np.abs(spec_x.mean - spec_y.mean)) <= MEAN_RTOL * (1.0 + scale))


def blended_spec(spec_x: GaussianSpec, spec_y: GaussianSpec, t: float) -> GaussianSpec:
    """Law of the square-root blend at time t in [0, 1].

    Covariance is the entrywise convex combination of the two (centered)
    covariances, PSD by convexity (two diagonal laws blend their variances,
    with no n x n array); the shared mean is interpolated likewise
    (the two may differ by tolerance-level noise).  At t = 0 and t = 1 the
    inputs themselves are returned, factor included, so endpoints round-trip
    bit-identically and a clamped law is never clamped twice.
    """
    t = check_real("t", t)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if not means_equal(spec_x, spec_y):
        raise MeanMismatch("blending requires entrywise equal means")
    if t in (0.0, 1.0):
        return spec_y if t else spec_x
    s = 1.0 - t
    cov_x, cov_y = spec_x.covariance, spec_y.covariance
    if cov_x.ndim != cov_y.ndim:  # a 1-d law against a dense one: blend its matrix, never broadcast its variances
        cov_x, cov_y = _covariance_matrix(spec_x), _covariance_matrix(spec_y)
    return GaussianSpec(s * spec_x.mean + t * spec_y.mean, s * cov_x + t * cov_y)
