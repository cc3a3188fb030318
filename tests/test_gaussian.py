"""Gaussian law plumbing: validation, increments, sampling, blending."""

import math
import tracemalloc

import numpy as np
import pytest

from sudfer import (
    DimensionMismatch,
    DomainError,
    GaussianSpec,
    InvalidInput,
    MeanMismatch,
    NotPSD,
    NotSymmetric,
    blended_spec,
    derive_seed,
    expected_max_mc,
    increment_matrix,
    sample,
    validate_spec,
)
from sudfer import gaussian
from sudfer.experiments import ExperimentConfig, run_bound_check, run_sharpness
from sudfer.gaussian import PSD_RTOL, SHARD_ROWS, check_seed, common_draw_values, means_equal


def random_psd_spec(rng, n):
    a = rng.standard_normal((n, n))
    cov = a @ a.T / n
    return validate_spec(rng.standard_normal(n), (cov + cov.T) / 2.0)


class TestValidateSpec:
    def test_accepts_valid_input_and_freezes_arrays(self):
        spec = validate_spec([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
        assert spec.n == 2
        assert not spec.mean.flags.writeable
        assert not spec.covariance.flags.writeable
        with pytest.raises(ValueError):
            spec.covariance[0, 0] = 7.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_spec([0.0, 0.0], [[1.0]])
        with pytest.raises(DimensionMismatch):
            validate_spec([[0.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            validate_spec([], np.zeros((0, 0)))

    def test_rejects_asymmetry_and_nonfinite(self):
        with pytest.raises(NotSymmetric):
            validate_spec([0.0, 0.0], [[1.0, 0.1], [0.2, 1.0]])
        with pytest.raises(InvalidInput):
            validate_spec([0.0, np.nan], np.eye(2))
        with pytest.raises(InvalidInput):
            validate_spec([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]])
        # Complex input is rejected, never truncated to its real part.
        with pytest.raises(InvalidInput):
            validate_spec([0.0], np.array([[1.0 + 2.0j]]))
        with pytest.raises(InvalidInput):
            validate_spec(np.array([1.0j, 0.0]), np.eye(2))

    def test_rejects_indefinite_covariance(self):
        # The constructor makes the PSD decision, so a raw spec is checked too.
        with pytest.raises(NotPSD):
            validate_spec([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPSD):
            GaussianSpec(np.zeros(2), -np.eye(2))
        with pytest.raises(NotPSD):
            GaussianSpec(np.zeros(3), np.array([[1.0, 0.5, 2.0], [0.5, 1.0, 0.1], [2.0, 0.1, 1.0]]))

    def test_clamps_rounding_level_negative_eigenvalue(self):
        # Eigenvalues {1, -eps} with eps inside the relative band get clamped
        # to zero rather than rejected.
        eps = 0.5 * PSD_RTOL * 2.0
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        cov = u @ np.diag([1.0, -eps]) @ u.T
        cov = (cov + cov.T) / 2.0
        spec = validate_spec([0.0, 0.0], cov)
        assert np.linalg.eigvalsh(spec.covariance)[0] >= -1e-18
        assert np.array_equal(spec.covariance, spec.covariance.T)


class TestSeeds:
    def test_check_seed_range(self):
        assert check_seed(0) == 0
        assert check_seed(2**64 - 1) == 2**64 - 1
        for bad in (-1, 2**64, 0.5):
            with pytest.raises(InvalidInput):
                check_seed(bad)

    def test_derive_seed_is_deterministic_and_splits(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0, 1) != derive_seed(7, 1, 0)
        assert 0 <= derive_seed(7, 3) < 2**64


class TestIncrementMatrix:
    def test_pure_mean_gap(self):
        # Zero covariance, means (0, 1): the only increment is the mean gap.
        spec = validate_spec([0.0, 1.0], np.zeros((2, 2)))
        g = increment_matrix(spec)
        assert g[0, 1] == 1.0
        assert g[1, 0] == 1.0
        assert g[0, 0] == 0.0 and g[1, 1] == 0.0

    def test_matches_monte_carlo_second_moments(self):
        # E (V_i - V_j)^2 straight from a big sample batch.
        rng = np.random.default_rng(11)
        spec = random_psd_spec(rng, 4)
        g = increment_matrix(spec)
        draws = sample(spec, 10**6, seed=902)
        for i in range(4):
            for j in range(4):
                d = (draws[:, i] - draws[:, j]) ** 2
                se = d.std(ddof=1) / math.sqrt(d.size)
                assert abs(d.mean() - g[i, j]) <= 3.0 * se + 1e-12

    def test_invariants_on_random_specs(self):
        # Symmetry, zero diagonal, nonnegativity, and the triangle inequality
        # of sqrt(g), swept over 120 random laws of varying dimension.
        rng = np.random.default_rng(23)
        for _ in range(120):
            n = int(rng.integers(1, 9))
            g = increment_matrix(random_psd_spec(rng, n))
            assert np.array_equal(g, g.T)
            assert np.all(np.diagonal(g) == 0.0)
            assert np.all(g >= 0.0)
            d = np.sqrt(g)
            pairwise = d[:, None, :] + d.T[None, :, :]  # [i, j, k] = d_ik + d_kj
            assert np.all(d[:, :, None] <= pairwise + 1e-12)

    def test_returns_read_only_array(self):
        g = increment_matrix(validate_spec([0.0, 1.0], np.eye(2)))
        assert type(g) is np.ndarray and g.dtype == np.float64
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 1] = 7.0


class TestSample:
    def test_degenerate_law_repeats_the_mean(self):
        spec = validate_spec([3.0, -1.0], np.zeros((2, 2)))
        draws = sample(spec, 50, seed=1)
        assert np.all(draws == np.array([3.0, -1.0]))
        assert draws.shape == (50, 2)

    def test_identity_covariance_moments(self):
        spec = validate_spec(np.zeros(3), np.eye(3))
        draws = sample(spec, 10**6, seed=42)
        assert np.all(np.abs(draws.mean(axis=0)) < 4e-3)
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - 1.0) < 1e-2)

    def test_correlated_pair_sample_correlation(self):
        spec = validate_spec([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
        draws = sample(spec, 10**6, seed=5)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr - 0.9) < 1e-2

    def test_deterministic_and_shard_consistent(self):
        rng = np.random.default_rng(3)
        spec = random_psd_spec(rng, 3)
        count = SHARD_ROWS + 257  # forces a partial second shard
        a = sample(spec, count, seed=99)
        b = sample(spec, count, seed=99)
        assert np.array_equal(a, b)
        shapes = []

        def keep(rows):
            shapes.append(rows.shape)
            return rows

        (kept,) = common_draw_values([(spec, keep)], count, seed=99)
        assert shapes == [(SHARD_ROWS, 3), (257, 3)]
        assert np.array_equal(kept, a)
        c = sample(spec, count, seed=100)
        assert not np.array_equal(a, c)

    def test_prefix_property_of_shards(self):
        # Asking for fewer rows yields a prefix of the longer batch.
        spec = validate_spec(np.zeros(2), np.eye(2))
        long = sample(spec, 300, seed=8)
        short = sample(spec, 120, seed=8)
        assert np.array_equal(long[:120], short)

    def test_count_validation(self):
        spec = validate_spec([0.0], [[1.0]])
        with pytest.raises(InvalidInput):
            sample(spec, 0, seed=1)


class TestCommonDrawValues:
    def test_fused_equals_separate(self):
        # Each law's values depend on its own spec, reduction and the seed
        # only, never on the other laws evaluated on the same draws.
        rng = np.random.default_rng(7)
        dense = random_psd_spec(rng, 4)
        flat = validate_spec([1.0, -2.0, 0.5, 3.0], np.zeros((4, 4)))
        diagonal = validate_spec(np.zeros(4), np.diag([0.5, 1.0, 2.0, 4.0]))
        laws = [
            (dense, lambda rows: rows.max(axis=1)),
            (flat, lambda rows: rows.sum(axis=1)),
            (diagonal, np.asarray),
        ]
        count = SHARD_ROWS + 257
        fused = common_draw_values(laws, count, seed=21)
        for law, values in zip(laws, fused):
            (alone,) = common_draw_values([law], count, seed=21)
            assert np.array_equal(values, alone)
        assert np.array_equal(fused[2], sample(diagonal, count, seed=21))
        assert np.all(fused[1] == 2.5)

    def test_laws_share_their_normals(self):
        # Scaling the covariance by 4 doubles every draw of the same seed.
        spec = validate_spec(np.zeros(3), np.eye(3))
        wide = validate_spec(np.zeros(3), 4.0 * np.eye(3))
        narrow, broad = common_draw_values([(spec, np.asarray), (wide, np.asarray)], 500, seed=3)
        assert np.array_equal(broad, 2.0 * narrow)

    def test_zero_factor_laws_draw_nothing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a zero-covariance law drew normals")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        spec = validate_spec([1.0, 2.0], np.zeros((2, 2)))
        (rows,) = common_draw_values([(spec, np.asarray)], SHARD_ROWS + 1, seed=4)
        assert np.all(rows == np.array([1.0, 2.0]))

    def test_reductions_may_return_the_shared_rows(self):
        rng = np.random.default_rng(8)
        dense = random_psd_spec(rng, 3)
        diagonal = validate_spec(np.ones(3), np.diag([1.0, 2.0, 3.0]))
        count = SHARD_ROWS + 257
        both = common_draw_values([(dense, lambda rows: rows), (diagonal, lambda rows: rows[:, ::2])], count, seed=9)
        assert np.array_equal(both[0], sample(dense, count, seed=9))
        assert np.array_equal(both[1], sample(diagonal, count, seed=9)[:, ::2])

    def test_a_reduction_that_overwrites_its_rows_leaves_later_laws_alone(self):
        rng = np.random.default_rng(9)
        first, second = random_psd_spec(rng, 3), random_psd_spec(rng, 3)

        def spoil(rows):
            total = rows.sum(axis=1)
            rows[...] = np.nan
            return total

        count = SHARD_ROWS + 257
        _, values = common_draw_values([(first, spoil), (second, np.asarray)], count, seed=10)
        assert np.array_equal(values, sample(second, count, seed=10))

    def test_consecutive_samples_do_not_share_memory(self):
        spec = validate_spec(np.zeros(2), np.eye(2))
        a = sample(spec, 100, seed=1)
        b = sample(spec, 100, seed=2)
        assert not np.shares_memory(a, b)
        assert not np.array_equal(a, b)

    def test_sample_peaks_at_its_result_plus_two_shard_buffers(self):
        # Each shard is drawn into z, transformed into the row buffer and
        # written straight into the one (count x n) result.
        n, count = 256, 4 * SHARD_ROWS
        spec = validate_spec(np.zeros(n), np.eye(n))
        tracemalloc.start()
        try:
            rows = sample(spec, count, seed=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (count, n)
        assert peak <= (count + 2 * SHARD_ROWS) * n * 8 + 2**20

    def test_in_place_diagonal_laws_keep_their_bits(self):
        # The last law that draws is transformed in z itself when it is
        # diagonal; every law must still equal its own sample and, for
        # diagonal laws, a reference built shard by shard outside the package.
        rng = np.random.default_rng(12)
        n, count, seed = 5, SHARD_ROWS + 257, 13
        dense = random_psd_spec(rng, n)
        diag = validate_spec(rng.standard_normal(n), np.diag([0.5, 1.0, 2.0, 4.0, 8.0]))
        other = validate_spec(rng.standard_normal(n), np.diag([3.0, 0.25, 1.0, 9.0, 0.5]))
        zero = validate_spec(rng.standard_normal(n), np.zeros((n, n)))

        def reference(spec):
            shards = []
            for k, start in enumerate(range(0, count, SHARD_ROWS)):
                rows = min(SHARD_ROWS, count - start)
                z = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))).standard_normal((rows, n))
                shards.append(z * np.sqrt(np.diagonal(spec.covariance)) + spec.mean)
            return np.concatenate(shards)

        for order in ([diag], [dense, diag], [diag, dense], [diag, zero], [zero, diag, other]):
            values = common_draw_values([(spec, np.asarray) for spec in order], count, seed)
            for spec, rows in zip(order, values):
                assert np.array_equal(rows, sample(spec, count, seed))
                if spec is diag or spec is other:
                    assert np.array_equal(rows, reference(spec))
                if spec is zero:
                    assert np.all(rows == spec.mean)

    def test_a_reduction_that_overwrites_the_in_place_rows_leaves_the_rest_alone(self):
        rng = np.random.default_rng(14)
        dense = random_psd_spec(rng, 3)
        diag = validate_spec(np.ones(3), np.diag([1.0, 2.0, 3.0]))
        zero = validate_spec([1.0, 2.0, 3.0], np.zeros((3, 3)))

        def spoil(rows):
            total = rows.sum(axis=1)
            rows[...] = np.nan
            return total

        count = 2 * SHARD_ROWS + 257
        before, totals, after = common_draw_values([(dense, np.asarray), (diag, spoil), (zero, np.asarray)], count, 15)
        assert np.array_equal(before, sample(dense, count, seed=15))
        assert np.array_equal(totals, sample(diag, count, seed=15).sum(axis=1))
        assert np.all(after == zero.mean)

    def test_expected_max_of_the_iid_law_peaks_at_one_shard_buffer(self):
        # The identity law is the only law that draws, so it is transformed
        # in the z buffer and no row buffer is allocated.
        n, count = 1024, 2 * SHARD_ROWS
        spec = validate_spec(np.zeros(n), np.eye(n))
        tracemalloc.start()
        try:
            expected_max_mc(spec, count, seed=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= SHARD_ROWS * n * 8 + count * 8 + 2**20

    def test_a_reduction_must_return_one_entry_per_row(self):
        spec = validate_spec(np.zeros(2), np.eye(2))
        for reduce in (lambda rows: rows.sum(), lambda rows: rows[1:], lambda rows: rows.T):
            with pytest.raises(InvalidInput):
                common_draw_values([(spec, reduce)], 10, seed=1)
        with pytest.raises(InvalidInput):  # the trailing shape changes in the last, partial shard
            common_draw_values([(spec, lambda rows: rows[:, : 1 + (len(rows) < SHARD_ROWS)])], SHARD_ROWS + 1, seed=1)

    def test_rejects_bad_arguments(self):
        spec = validate_spec([0.0], [[1.0]])
        with pytest.raises(DimensionMismatch):
            common_draw_values([], 10, seed=1)
        with pytest.raises(DimensionMismatch):
            common_draw_values([(spec, np.asarray), (validate_spec(np.zeros(2), np.eye(2)), np.asarray)], 10, seed=1)
        with pytest.raises(InvalidInput):
            common_draw_values([(spec, np.asarray)], 0, seed=1)
        for count in (10.5, True, 10.0):
            with pytest.raises(InvalidInput):
                sample(spec, count, 1)
        with pytest.raises(InvalidInput):
            expected_max_mc(spec, 100.0, 1)
        assert sample(spec, np.int64(3), 1).shape == (3, 1)


class TestStructuredLaws:
    def test_trivial_laws_pay_no_cubic_step(self, monkeypatch):
        def cubic(*args, **kwargs):
            raise AssertionError("a diagonal law reached an O(n^3) decomposition")

        for name in ("eigvalsh", "eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, cubic)
        for mean, cov in (
            (np.zeros(5), np.eye(5)),
            ([1.0, -2.0, 0.5], np.zeros((3, 3))),
            ([0.0, 1.0, 2.0], np.diag([0.25, 4.0, 1e-300])),
        ):
            spec = validate_spec(mean, cov)
            draws = sample(spec, 700, seed=2)
            assert draws.shape == (700, spec.n)
        report = run_sharpness(ExperimentConfig(experiment="sharpness", n=[16, 64], samples=2000, seed=5))
        assert len(report.records) == 2

    def test_positive_diagonal_matches_the_dense_path(self):
        mean = np.array([0.5, -1.0, 2.0, 0.0])
        cov = np.diag([2.0, 0.3, 1.0, 7.5])
        spec = validate_spec(mean, cov)
        assert spec.factor.ndim == 1
        count = SHARD_ROWS + 257
        dense_factor = np.linalg.cholesky(cov)
        expected = []
        for k, start in enumerate(range(0, count, SHARD_ROWS)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=6, spawn_key=(k,)))
            expected.append(rng.standard_normal((min(SHARD_ROWS, count - start), 4)) @ dense_factor.T + mean)
        assert np.array_equal(sample(spec, count, seed=6), np.concatenate(expected))

    def test_mixed_zero_and_positive_diagonal_keeps_its_draws(self):
        # Unsorted, so the eigenvector factor permutes the normals; the
        # values below pin the draws of that path.
        spec = validate_spec([0.5, -1.0, 2.0], np.diag([2.0, 0.0, 1.0]))
        golden = [
            ["0x1.de88c4b049860p-1", "-0x1.0000000000000p+0", "0x1.588664fc971a6p+0"],
            ["-0x1.72678b867b030p-2", "-0x1.0000000000000p+0", "0x1.451a9f4864bb4p+1"],
            ["-0x1.541c52d8a69e6p-2", "-0x1.0000000000000p+0", "0x1.82e9f6e21eec8p+1"],
        ]
        expected = np.array([[float.fromhex(x) for x in row] for row in golden])
        assert np.array_equal(sample(spec, 3, seed=11), expected)
        assert np.array_equal(sample(spec, SHARD_ROWS + 1, seed=11)[:3], expected)

    def test_rank_one_law_keeps_its_draws(self):
        # Cholesky rejects the all-ones matrix; its factor comes from the one
        # eigendecomposition that also clamps the covariance.  The values below
        # pin the draws of that path.
        spec = validate_spec([0.0, 1.0, -1.0], np.ones((3, 3)))
        golden = [
            ["0x1.3ab601396fc78p-2", "0x1.4ead804e5bf1dp+0", "-0x1.62a4ff63481c6p-1"],
            ["-0x1.37fa22c7da34fp-1", "0x1.900bba704b96cp-2", "-0x1.9bfd1163ed1a6p+0"],
            ["-0x1.2d4440442e965p-1", "0x1.a5777f77a2d40p-2", "-0x1.96a22022174b1p+0"],
        ]
        expected = np.array([[float.fromhex(x) for x in row] for row in golden])
        assert np.array_equal(sample(spec, 3, seed=11), expected)
        assert np.array_equal(sample(spec, SHARD_ROWS + 1, seed=11)[:3], expected)


class TestLawObject:
    def test_dense_law_needs_no_eigendecomposition(self, monkeypatch):
        def eigen(*args, **kwargs):
            raise AssertionError("a positive definite law reached an eigendecomposition")

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, eigen)
        cov = [[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.5]]
        spec = validate_spec([0.0, 1.0, 0.5], cov)
        assert spec.factor.ndim == 2 and not spec.factor.flags.writeable
        assert np.array_equal(sample(spec, 500, seed=3), sample(spec, 500, seed=3))
        doc = {"mean": [0.0, 1.0, 0.5], "covariance": cov}
        config = ExperimentConfig(experiment="bound-check", generator="explicit", spec_x=doc, samples=2000, trials=1)
        assert run_bound_check(config).passed()

    def test_each_law_is_factored_once(self, monkeypatch):
        calls = []
        factor = gaussian._factor

        def counting(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(gaussian, "_factor", counting)
        spec = validate_spec(np.zeros(3), [[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.5]])
        sample(spec, 100, seed=1)
        sample(spec, 200, seed=2)
        expected_max_mc(spec, 100, seed=3)
        assert len(calls) == 1


class TestMeansEqual:
    def test_band_is_relative(self):
        a = validate_spec([0.0, 0.0], np.eye(2))
        b = validate_spec([0.0, 5e-10], np.eye(2))
        c = validate_spec([0.0, 1e-8], np.eye(2))
        assert means_equal(a, b)
        assert not means_equal(a, c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            means_equal(validate_spec([0.0], [[1.0]]), validate_spec([0.0, 0.0], np.eye(2)))


class TestBlendedSpec:
    def test_endpoints_round_trip_exactly(self):
        rng = np.random.default_rng(17)
        x = random_psd_spec(rng, 4)
        y = validate_spec(x.mean, random_psd_spec(rng, 4).covariance)
        at0 = blended_spec(x, y, 0.0)
        at1 = blended_spec(x, y, 1.0)
        assert np.array_equal(at0.mean, x.mean)
        assert np.array_equal(at0.covariance, x.covariance)
        assert np.array_equal(at1.covariance, y.covariance)
        for _ in range(50):  # rank-deficient laws, some clamped at construction, are not clamped again
            n = int(rng.integers(2, 7))
            a, b = (rng.standard_normal((n, int(rng.integers(1, n)))) for _ in range(2))
            x = validate_spec(rng.standard_normal(n), (a @ a.T + (a @ a.T).T) / 2.0)
            y = validate_spec(x.mean, (b @ b.T + (b @ b.T).T) / 2.0)
            for t, spec in ((0.0, x), (1.0, y)):
                blend = blended_spec(x, y, t)
                assert np.array_equal(blend.mean, spec.mean)
                assert np.array_equal(blend.covariance, spec.covariance)
                assert np.array_equal(blend.factor, spec.factor)

    def test_constant_path_for_equal_specs(self):
        spec = validate_spec([1.0, 1.0], [[2.0, 1.0], [1.0, 2.0]])
        mid = blended_spec(spec, spec, 0.5)
        assert np.array_equal(mid.mean, spec.mean)
        assert np.array_equal(mid.covariance, spec.covariance)

    def test_convex_combination_exact_for_rational_t(self):
        x = validate_spec([0.0, 0.0], [[4.0, 0.0], [0.0, 8.0]])
        y = validate_spec([0.0, 0.0], [[8.0, 4.0], [4.0, 16.0]])
        mid = blended_spec(x, y, 0.25)
        assert np.array_equal(mid.covariance, np.array([[5.0, 1.0], [1.0, 10.0]]))

    def test_domain_and_mean_checks(self):
        x = validate_spec([0.0], [[1.0]])
        with pytest.raises(DomainError):
            blended_spec(x, x, 1.5)
        with pytest.raises(DomainError):
            blended_spec(x, x, -0.1)
        y = validate_spec([1.0], [[1.0]])
        with pytest.raises(MeanMismatch):
            blended_spec(x, y, 0.5)

    def test_blend_of_psd_is_psd(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            x = random_psd_spec(rng, n)
            y = validate_spec(x.mean, random_psd_spec(rng, n).covariance)
            t = float(rng.uniform())
            cov = blended_spec(x, y, t).covariance
            assert np.linalg.eigvalsh(cov)[0] >= -PSD_RTOL * (1.0 + np.trace(cov))
