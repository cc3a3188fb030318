"""Gaussian law plumbing: validation, increments, sampling, blending."""

import math

import numpy as np
import pytest

from sudfer import (
    DimensionMismatch,
    DomainError,
    GaussianSpec,
    IncrementMatrix,
    InvalidInput,
    MeanMismatch,
    NotPSD,
    NotSymmetric,
    blended_spec,
    derive_seed,
    increment_matrix,
    sample,
    validate_spec,
)
from sudfer.experiments import ExperimentConfig, run_sharpness
from sudfer.gaussian import PSD_RTOL, SHARD_ROWS, _factor, check_seed, common_draw_values, means_equal


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

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPSD):
            validate_spec([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

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
        assert g.entries[0, 1] == 1.0
        assert g.entries[1, 0] == 1.0
        assert g.entries[0, 0] == 0.0 and g.entries[1, 1] == 0.0

    def test_matches_monte_carlo_second_moments(self):
        # E (V_i - V_j)^2 straight from a big sample batch.
        rng = np.random.default_rng(11)
        spec = random_psd_spec(rng, 4)
        g = increment_matrix(spec).entries
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
            g = increment_matrix(random_psd_spec(rng, n)).entries
            assert np.array_equal(g, g.T)
            assert np.all(np.diagonal(g) == 0.0)
            assert np.all(g >= 0.0)
            d = np.sqrt(g)
            pairwise = d[:, None, :] + d.T[None, :, :]  # [i, j, k] = d_ik + d_kj
            assert np.all(d[:, :, None] <= pairwise + 1e-12)

    def test_type_rejects_broken_matrices(self):
        with pytest.raises(NotSymmetric):
            IncrementMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(InvalidInput):
            IncrementMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]))
        with pytest.raises(InvalidInput):
            IncrementMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))


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

    def test_rejects_bad_arguments(self):
        spec = validate_spec([0.0], [[1.0]])
        with pytest.raises(DimensionMismatch):
            common_draw_values([], 10, seed=1)
        with pytest.raises(DimensionMismatch):
            common_draw_values([(spec, np.asarray), (validate_spec(np.zeros(2), np.eye(2)), np.asarray)], 10, seed=1)
        with pytest.raises(InvalidInput):
            common_draw_values([(spec, np.asarray)], 0, seed=1)


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
        assert _factor(spec).ndim == 1
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
