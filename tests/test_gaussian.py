"""Gaussian law plumbing: validation, increments, sampling, blending."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

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
    random_spec,
    sample,
    validate_spec,
)
from sudfer import gaussian
from sudfer.experiments import ExperimentConfig, iid_standard_spec, run_experiment, zero_spec
from sudfer.gaussian import PSD_RTOL, SHARD_ROWS, check_seed, common_draw_values, is_iid, means_equal


def row_max(rows):
    return rows.max(axis=1)


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

    @given(kind=st.sampled_from(["dense", "diagonal"]), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_sqrt_increments_are_a_pseudometric(self, kind, n, seed):
        d = np.sqrt(increment_matrix(_law(kind, n, seed)))
        assert np.all(np.diagonal(d) == 0.0) and np.array_equal(d, d.T)
        through = d[:, None, :] + d.T[None, :, :]  # [i, j, k] = d_ik + d_kj
        assert np.all(d[:, :, None] <= through * (1.0 + 1e-12))

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
        # Asking for fewer rows yields a prefix of the longer batch, bitwise
        # for diagonal and zero laws.  A dense product's last bits may depend
        # on its row count, so a dense law agrees on every row before its
        # final block, and on all rows when the count ends on a block
        # boundary: at n = 300 blocks of 1 MiB hold 2**17 // 300 = 436 rows,
        # restarting at each shard.
        spec = validate_spec(np.zeros(2), np.eye(2))
        assert np.array_equal(sample(spec, 300, seed=8)[:120], sample(spec, 120, seed=8))
        n, block, seed = 300, 436, 7
        long_count = 2 * SHARD_ROWS + 17
        rng = np.random.default_rng(20)
        diag = validate_spec(rng.standard_normal(n), np.diag(rng.uniform(0.1, 8.0, n)))
        zero = validate_spec(rng.standard_normal(n), np.zeros((n, n)))
        for spec in (diag, zero):
            long = sample(spec, long_count, seed)
            for count in (1, 17, SHARD_ROWS + 1):
                assert np.array_equal(sample(spec, count, seed), long[:count]), count
        dense = random_spec(n, 5, "wishart")
        long = sample(dense, long_count, seed)
        for count in (block, 2 * block, SHARD_ROWS, SHARD_ROWS + block, 1, 17, SHARD_ROWS + 1, SHARD_ROWS + block + 17):
            shard = (count - 1) // SHARD_ROWS * SHARD_ROWS
            final = shard + (count - 1 - shard) // block * block  # first row of the final block
            rows = count if count - final == min(block, shard + SHARD_ROWS - final) else final
            assert np.array_equal(sample(dense, count, seed)[:rows], long[:rows]), count

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
        # A zero law's rows are a private copy of its mean, so they may be written too.
        zero = validate_spec([1.0, 2.0, 3.0], np.zeros((3, 3)))
        totals, values, rows = common_draw_values([(zero, spoil), (second, np.asarray), (zero, np.asarray)], count, 10)
        assert np.all(totals == 6.0)
        assert np.array_equal(values, sample(second, count, seed=10))
        assert np.all(rows == zero.mean)

    def test_consecutive_samples_do_not_share_memory(self):
        spec = validate_spec(np.zeros(2), np.eye(2))
        a = sample(spec, 100, seed=1)
        b = sample(spec, 100, seed=2)
        assert not np.shares_memory(a, b)
        assert not np.array_equal(a, b)

    def test_sample_peaks_at_its_result_plus_two_panel_blocks(self, traced_peak):
        # Each block of 1 MiB is drawn into z, transformed into the row
        # buffer (or into z itself for the identity law) and written straight
        # into the one (count x n) result, whether the law is dense or not.
        # Measured: 2.07 MiB above the result for the dense law, 1.07 for
        # the identity law.
        n, count = 256, 4 * SHARD_ROWS
        panel = 2**20
        for spec in (validate_spec(np.zeros(n), np.eye(n)), random_spec(n, 19, "wishart")):
            rows, peak = traced_peak(lambda: sample(spec, count, seed=11))
            assert rows.shape == (count, n)
            assert peak <= count * n * 8 + 2 * panel + 2**18, spec.factor.ndim

    def test_in_place_diagonal_laws_keep_their_bits(self):
        # The last law that draws is transformed in z itself when it is
        # diagonal.  Every call draws a shard in blocks of about 1 MiB, whatever
        # laws it holds: at n = 100, 1310 rows, so a full shard splits into
        # six such blocks and 332 rows.  The blocks are one generator's
        # consecutive fills, so every law must still equal its own sample and
        # a reference built outside the package in the same blocks, since a
        # dense product's last bits may depend on its row count.
        rng = np.random.default_rng(12)
        n, count, seed = 100, SHARD_ROWS + 257, 13
        dense = random_psd_spec(rng, n)
        diag = validate_spec(rng.standard_normal(n), np.diag(rng.uniform(0.1, 8.0, n)))
        other = validate_spec(rng.standard_normal(n), np.diag(rng.uniform(0.1, 8.0, n)))
        zero = validate_spec(rng.standard_normal(n), np.zeros((n, n)))
        blocks = [1310] * 6 + [332, 257]

        def reference(spec):
            shards = []
            for k, start in enumerate(range(0, count, SHARD_ROWS)):
                rows = min(SHARD_ROWS, count - start)
                z = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))).standard_normal((rows, n))
                for lo in range(0, rows, blocks[0]):
                    block = z[lo : lo + blocks[0]]
                    shards.append(block @ spec.factor.T if spec is dense else block * np.sqrt(spec.covariance))
            return np.concatenate(shards) + spec.mean

        for order in ([diag], [dense], [dense, diag], [diag, dense], [diag, zero], [zero, diag, other], [zero, dense]):
            shapes = []

            def record(rows):
                shapes.append(rows.shape)
                return rows

            values = common_draw_values([(spec, record) for spec in order], count, seed)
            assert shapes == [(rows, n) for rows in blocks for _ in order], order
            for spec, rows in zip(order, values):
                assert np.array_equal(rows, sample(spec, count, seed))
                assert np.array_equal(rows, np.broadcast_to(spec.mean, rows.shape) if spec is zero else reference(spec))

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

    # expected_max_mc draws the iid and zero laws' maxima without rows, so the
    # three block-path memory tests below reduce rows to their maxima directly.

    def test_row_maxima_of_the_iid_law_peak_at_one_block_buffer(self, traced_peak):
        # The identity law is the only law that draws, so it is drawn in
        # blocks of 1 MiB, transformed in the z buffer, and no row buffer is
        # allocated: measured 1.07 MiB above the maxima.
        n, count = 1024, 2 * SHARD_ROWS
        spec = validate_spec(np.zeros(n), np.eye(n))
        _, peak = traced_peak(lambda: common_draw_values([(spec, row_max)], count, seed=16))
        assert peak <= 2**20 + count * 8 + 2**18

    def test_a_law_that_draws_nothing_allocates_no_z_block(self, traced_peak):
        # The zero law is its mean on every row: one 1 MiB row block, no z
        # block (measured 1.00 MiB above the maxima).
        count = 2 * SHARD_ROWS
        for n in (1024, 2048):
            spec = validate_spec(np.zeros(n), np.zeros((n, n)))
            (maxima,), peak = traced_peak(lambda: common_draw_values([(spec, row_max)], count, seed=18))
            assert (maxima == 0.0).all()
            assert peak <= 2**20 + count * 8 + 2**18, n

    def test_row_maxima_of_a_dense_pair_peak_at_two_blocks(self, traced_peak):
        # Two dense laws share a 1 MiB z block and a 1 MiB row block, next to
        # their two 20 000-entry results: measured 2.39 MiB (8.43 with 4 MiB
        # blocks).
        x, y = random_spec(64, 20, "wishart"), random_spec(64, 21, "wishart")
        common_draw_values([(x, row_max), (y, row_max)], 2, seed=19)  # first-call allocations
        _, peak = traced_peak(lambda: common_draw_values([(x, row_max), (y, row_max)], 20_000, seed=19))
        assert peak <= 3 * 2**20

    def test_row_maxima_of_the_iid_law_hold_memory_flat_in_n(self, traced_peak):
        count = 20_000
        common_draw_values([(validate_spec(np.zeros(64), np.eye(64)), row_max)], 2, seed=17)  # first-call allocations
        peaks = []
        for n in (1024, 2048, 4096):
            spec = validate_spec(np.zeros(n), np.eye(n))
            _, peak = traced_peak(lambda: common_draw_values([(spec, row_max)], count, seed=17))
            peaks.append(peak)
        assert max(peaks) <= 1.1 * min(peaks), peaks

    def test_expected_max_of_the_iid_law_allocates_no_row_block(self, traced_peak):
        # One 4096-wide row block would take 1 MiB, 8 times count * 8 bytes;
        # the maxima drawn directly take about five count-long arrays
        # (measured 5.15).
        count = 2 * SHARD_ROWS
        spec = validate_spec(np.zeros(4096), np.eye(4096))
        expected_max_mc(spec, 2, seed=16)  # first-call allocations
        _, peak = traced_peak(lambda: expected_max_mc(spec, count, seed=16))
        assert peak <= 6 * count * 8

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
        report = run_experiment(ExperimentConfig(experiment="sharpness", n=[16, 64], samples=2000, seed=5))
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
        # Unsorted mixed variances draw mean_i + sqrt(d_i) z_i, coordinate by coordinate, like any diagonal law.
        mean, variances = np.array([0.5, -1.0, 2.0]), np.array([2.0, 0.0, 1.0])
        spec = validate_spec(mean, np.diag(variances))
        count = SHARD_ROWS + 257
        expected = []
        for k, start in enumerate(range(0, count, SHARD_ROWS)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(k,)))
            z = rng.standard_normal((min(SHARD_ROWS, count - start), 3))
            expected.append(mean + np.sqrt(np.maximum(variances, 0.0)) * z)
        assert np.array_equal(sample(spec, count, seed=11), np.concatenate(expected))

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


class TestVarianceLaws:
    # A law with a 1-d factor stores its covariance 1-d, as its variances, however it was given.

    def test_variances_and_their_diagonal_matrix_make_one_law(self):
        rng = np.random.default_rng(30)
        for variances in (rng.uniform(0.1, 3.0, 5), np.zeros(4), np.full(3, 2.0), np.array([7.0])):
            mean = rng.standard_normal(len(variances))
            a, b = validate_spec(mean, variances), validate_spec(mean, np.diag(variances))
            for spec in (a, b):
                assert spec.covariance.shape == spec.factor.shape == (len(variances),)
                assert np.array_equal(spec.covariance, variances)
                assert not spec.covariance.flags.writeable
            assert np.array_equal(a.factor, b.factor)
            assert np.array_equal(sample(a, 300, seed=31), sample(b, 300, seed=31))
            assert np.array_equal(increment_matrix(a), increment_matrix(b))

    def test_the_stored_covariance_has_the_factor_dimensions(self):
        rng = np.random.default_rng(32)
        laws = [random_psd_spec(rng, 4), validate_spec(np.zeros(3), np.ones((3, 3))), validate_spec([0.0], [[2.0]])]
        generators = ("wishart", "equicorrelated", "diagonal")
        laws += [random_spec(5, seed, generator) for seed in range(3) for generator in generators]
        laws += [validate_spec(np.zeros(3), d) for d in ([0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [-1e-12, 1.0, 1.0])]
        for spec in laws:
            assert spec.covariance.ndim == spec.factor.ndim
        assert [spec.factor.ndim for spec in laws[-3:]] == [1, 1, 1]

    def test_other_variances_are_decided_on_their_own(self):
        # Mixed zero and positive variances, or rounding-level negative ones, take the PSD rule as the eigenvalues
        # of their diagonal matrix, errors included; a 1-d input gets exactly what its diagonal matrix gets.
        for variances in ([2.0, 0.0, 1.0], [0.0, 1.0, 2.0], [-1e-12, 1.0, 3.0], [1.0, -1e-12, 3.0]):
            a, b = validate_spec(np.ones(3), variances), validate_spec(np.ones(3), np.diag(variances))
            assert np.array_equal(a.covariance, b.covariance) and np.array_equal(a.factor, b.factor), variances
            assert np.array_equal(a.covariance, np.maximum(variances, 0.0)) and a.factor.ndim == 1, variances
            assert np.array_equal(sample(a, 50, seed=33), sample(b, 50, seed=33))
        # The tolerance's trace overflows here: it is clamped with no RuntimeWarning (an error under pytest).
        assert validate_spec(np.zeros(3), [1e308, 1e308, -1e-300]).covariance[2] == 0.0
        for bad in ([1.0, -0.5], [-1.0]):
            for cov in (bad, np.diag(bad)):
                with pytest.raises(NotPSD):
                    validate_spec(np.zeros(len(bad)), cov)

    def test_rejects_malformed_variances(self):
        with pytest.raises(DimensionMismatch):
            validate_spec(np.zeros(3), np.ones(2))
        with pytest.raises(DimensionMismatch):
            validate_spec(np.zeros(2), np.ones((2, 2, 2)))
        with pytest.raises(DimensionMismatch):
            validate_spec(np.zeros(1), np.float64(1.0))
        with pytest.raises(InvalidInput):
            validate_spec(np.zeros(2), [1.0, np.inf])
        with pytest.raises(InvalidInput):
            validate_spec(np.zeros(2), [1.0, 1.0j])

    def test_blending_a_diagonal_law_with_a_dense_one_blends_the_matrices(self):
        # Variances never broadcast against a matrix: the blend is the entrywise combination of the two matrices.
        rng = np.random.default_rng(34)
        dense = random_psd_spec(rng, 4)
        diag = validate_spec(dense.mean, rng.uniform(0.5, 2.0, 4))
        for x, y in ((diag, dense), (dense, diag)):
            blend = blended_spec(x, y, 0.25)
            cov = [np.diag(s.covariance) if s.covariance.ndim == 1 else s.covariance for s in (x, y)]
            assert np.array_equal(blend.covariance, 0.75 * cov[0] + 0.25 * cov[1])
        both = blended_spec(diag, validate_spec(dense.mean, np.full(4, 3.0)), 0.5)
        assert np.array_equal(both.covariance, 0.5 * diag.covariance + 0.5 * np.full(4, 3.0))

    def test_building_the_iid_law_costs_linear_memory(self, traced_peak):
        # The mean, the variances and the factor: three n-long arrays, and no n x n one (8 TiB at 2^20).
        n = 2**20
        spec, peak = traced_peak(lambda: iid_standard_spec(n))
        assert spec.covariance.shape == (n,) and is_iid(spec)
        assert peak <= 4 * 8 * n
        _, peak = traced_peak(lambda: zero_spec(n))
        assert peak <= 4 * 8 * n

    def test_no_linear_algebra_on_a_diagonal_law(self, monkeypatch):
        def decomposition(*args, **kwargs):
            raise AssertionError("a diagonal law reached a decomposition")

        for name in ("cholesky", "eigh"):
            monkeypatch.setattr(np.linalg, name, decomposition)
        for variances in ([2.0, 0.0, 1.0], [0.0, 1.0, 2.0], [1.0] * 6 + [0.0], [-1e-12, 1.0, 1.0]):
            for cov in (np.array(variances), np.diag(variances)):
                spec = validate_spec(np.zeros(len(variances)), cov)
                assert spec.covariance.ndim == spec.factor.ndim == 1, variances

    def test_a_zero_or_rounding_negative_variance_costs_linear_memory(self, traced_peak):
        # No n x n array (32 MiB at n = 2048): the mean, the variances and the factor.
        n = 2048
        for position, value in ((0, 0.0), (n - 1, 0.0), (0, -1e-13)):
            variances = np.ones(n)
            variances[position] = value
            spec, peak = traced_peak(lambda: validate_spec(np.zeros(n), variances))
            assert spec.covariance.shape == spec.factor.shape == (n,), (position, value)
            assert spec.covariance[position] == spec.factor[position] == 0.0
            assert peak < 2**20, (position, value, peak)

    @given(
        codes=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(0.01, 0.99).map(lambda f: -f)),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_variances_and_their_diagonal_matrix_take_one_psd_rule(self, codes, seed):
        # A code c >= 0 is a variance; c < 0 makes a variance |c| of the way down to the tolerance
        # -PSD_RTOL * (1 + sum(d)), which the negative entries themselves lower.
        positive = [c for c in codes if c >= 0.0]
        negatives = len(codes) - len(positive)
        scale = PSD_RTOL * (1.0 + math.fsum(positive)) / (1.0 + negatives * PSD_RTOL)
        d = np.array([c if c >= 0.0 else c * scale for c in codes])
        mean = np.arange(len(d), dtype=np.float64)
        a, b = validate_spec(mean, d), validate_spec(mean, np.diag(d))
        root = np.sqrt(np.maximum(d, 0.0))
        for spec in (a, b):
            assert spec.covariance.shape == spec.factor.shape == d.shape
            assert spec.covariance.tobytes() == np.maximum(d, 0.0).tobytes()
            assert spec.factor.tobytes() == root.tobytes()
        assert sample(a, 40, seed).tobytes() == sample(b, 40, seed).tobytes()
        bad = d.copy()
        bad[len(d) // 2] = -1.5 * PSD_RTOL * (1.0 + math.fsum(positive))  # below the tolerance of any such d
        for cov in (bad, np.diag(bad)):
            with pytest.raises(NotPSD):
                validate_spec(mean, cov)


def _law(kind, n, seed):
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(n)
    if kind == "diagonal":
        return validate_spec(mean, rng.uniform(0.1, 4.0, n))
    if kind == "zero":
        return validate_spec(mean, np.zeros(n))
    a = rng.standard_normal((n, n))
    return validate_spec(mean, (a @ a.T + (a @ a.T).T) / 2.0)


class TestDrawProperties:
    @given(
        kind=st.sampled_from(["diagonal", "zero"]),
        n=st.one_of(st.integers(1, 40), st.just(300)),  # at n = 300 a shard splits into blocks of 436 rows
        counts=st.lists(st.integers(1, SHARD_ROWS + 2000), min_size=2, max_size=3),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_diagonal_and_zero_laws_agree_on_every_prefix_and_chunking(self, kind, n, counts, seed):
        spec = _law(kind, n, seed % 2**32)
        longest = max(counts)
        rows = sample(spec, longest, seed)
        for count in counts:
            (short,) = common_draw_values([(spec, np.asarray)], count, seed)
            assert np.array_equal(short, rows[:count])
            (maxima,) = common_draw_values([(spec, row_max)], count, seed)  # reduced block by block
            assert np.array_equal(maxima, rows[:count].max(axis=1))

    @settings(max_examples=30)
    @given(
        n=st.integers(1, 300),
        shards=st.integers(0, 1),
        blocks=st.integers(1, 20),
        extra=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_laws_agree_on_their_prefixes_at_block_aligned_counts(self, n, shards, blocks, extra, seed):
        # A shard is drawn in blocks of 2**17 // n rows (1 MiB), restarting at
        # each shard.  A dense product's last bits may depend on its row
        # count, so the promise holds for a count whose final block is whole
        # (it ends on a block or at the shard's end): its rows are a bitwise
        # prefix of every longer batch.
        spec = _law("dense", n, seed)
        count = shards * SHARD_ROWS + min(blocks * min(SHARD_ROWS, 2**17 // n), SHARD_ROWS)
        assert np.array_equal(sample(spec, count, seed), sample(spec, count + extra, seed)[:count])

    @given(
        kinds=st.lists(st.sampled_from(["diagonal", "zero", "dense"]), min_size=2, max_size=4),
        n=st.integers(1, 12),
        count=st.integers(1, SHARD_ROWS + 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_fused_call_equals_the_separate_calls(self, kinds, n, count, seed):
        laws = [(_law(kind, n, seed + j), row_max if j % 2 else np.asarray) for j, kind in enumerate(kinds)]
        fused = common_draw_values(laws, count, seed)
        for law, values in zip(laws, fused):
            assert np.array_equal(values, common_draw_values([law], count, seed)[0])

    @given(
        variances=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30).map(np.array),
        zero=st.booleans(),
        count=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_law_from_its_variances_samples_as_from_its_diagonal_matrix(self, variances, zero, count, seed):
        variances = 0.0 * variances if zero else variances
        mean = np.linspace(-1.0, 1.0, len(variances))
        a, b = validate_spec(mean, variances), validate_spec(mean, np.diag(variances))
        assert np.array_equal(sample(a, count, seed), sample(b, count, seed))


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
        assert run_experiment(config).passed()

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


class TestIidMaxima:
    def test_quantile_port_matches_scipy(self):
        # (1e-300, 1/2], dense near both ends, with both branch boundaries
        # (|p - 1/2| = 0.425, i.e. p = 0.075, and r = 5, i.e. p = exp(-25))
        # approached from each side.
        p = np.concatenate(
            [
                np.logspace(-300, np.log10(0.5), 20_001),
                np.linspace(0.05, 0.5, 20_001),
                np.nextafter([0.075, math.exp(-25.0)], 0.0),
                np.nextafter([0.075, math.exp(-25.0)], 1.0),
            ]
        )
        np.testing.assert_allclose(-gaussian._ppnd16(p), -ndtri(p), rtol=1e-14, atol=0.0)
        upper = 1.0 - p[p >= 2.0**-53]  # the upper half (0.5, 1); both functions see the same rounded 1 - p
        np.testing.assert_allclose(gaussian._ppnd16(upper), ndtri(upper), rtol=1e-14, atol=0.0)

    def test_r_of_exactly_five_takes_the_near_tail(self):
        # AS241 takes the near-tail rational for r = sqrt(-ln p) <= 5.  At this p, r is 5.0 exactly, and the two
        # tail rationals differ in their last bits there: a branch on r < 5 gives the far tail's value.
        p = np.array([1.3887943864963948e-11])
        assert np.sqrt(-np.log(p))[0] == 5.0
        near = -gaussian._horner(gaussian._PPND16_NEAR_TAIL, np.array([5.0 - 1.6]))[0]
        far = -gaussian._horner(gaussian._PPND16_FAR_TAIL, np.array([5.0 - 5.0]))[0]
        assert (near, far) == (-6.6579046435011024, -6.657904643501103)
        assert gaussian._ppnd16(p)[0] == near

    # sha256 of iid_maxima(n, 3 * SHARD_ROWS + 5, seed): three full shards and a short one; central and tail draws
    # share every shard at n <= 3, and n = 2^40 and 2^1000 reach the far tail.
    GOLDEN = {
        (1, 0): "3d5c28f90792c2f89e6dafddf050af3cb24e2180ca918b58b15b5e8a451d62ee",
        (1, 7): "d75294aaf650ba63140896fc89346f8936e30abb4028cf78d86ba80defb38419",
        (2, 0): "5700a08e567722b3f0e86b11056084ec40c1e631c19ea0dfa316432a3b1078ec",
        (2, 7): "0d3e42b094021b013e8040aa45600237d50da8a1c709888cadfa4164237a9126",
        (3, 0): "a8992d11d1f3bde5c8ef0bb018344fe058b14a5831b5e767b46a93d9b3665048",
        (3, 7): "ffd939f65bafc7e7c8a292868b9c8b80ba33934f9bfd452f59bf42e7ecdd80c7",
        (2**40, 0): "a7d09dd0e707cfac7c6d864ec340343cfed0e454c37057f05d0677f326805601",
        (2**40, 7): "ff372739a1677cac3d79c16379d40c3bb59cbcd02c3c66321065b2258f691e1e",
        (2**1000, 0): "5a60cfe6b820a16fcfec73c4acaad43aa04af3507aaecd5da9b5fa554cb85274",
        (2**1000, 7): "df789266c6dd322d146653a9c4621f0b83e7f51d1a207d18f730fe741b828d69",
    }

    @pytest.mark.parametrize("n, seed", list(GOLDEN), ids=lambda v: str(v) if v < 2**64 else "2^1000")
    def test_maxima_keep_their_bits(self, n, seed):
        maxima = gaussian.iid_maxima(n, 3 * SHARD_ROWS + 5, seed)
        assert hashlib.sha256(maxima.tobytes()).hexdigest() == self.GOLDEN[n, seed]

    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                st.floats(0.0, 740.0).map(lambda t: math.exp(-t)),  # deep into the far tail
                st.floats(1e-17, 36.0).map(lambda t: -math.expm1(-t)),  # the upper tail, up to 1 - 2^-52
                st.sampled_from([np.nextafter(b, d) for b in (0.075, 0.925, math.exp(-25.0)) for d in (0.0, 1.0)]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_each_entry_is_inverted_alone(self, p):
        p = np.array([x for x in p if 0.0 < x < 1.0] or [0.5])
        alone = np.concatenate([gaussian._ppnd16(p[i : i + 1]) for i in range(p.size)])
        assert np.array_equal(gaussian._ppnd16(p).view(np.uint64), alone.view(np.uint64))

    def test_extreme_uniforms_give_finite_maxima(self, monkeypatch):
        class Extremes:
            def integers(self, low, high, size):
                return np.resize([low, high - 1], size)  # the smallest and the largest cell

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Extremes())
        for n in (1, 2, 4096, 2**40, 2**1000):
            largest, smallest = gaussian.iid_maxima(n, 2, seed=1)
            assert math.isfinite(smallest) and math.isfinite(largest) and smallest < largest, n
        extreme = 2.0**-53  # U = 2^-53 and 1 - 2^-53: at n = 1 the maximum is one normal
        assert np.allclose(gaussian.iid_maxima(1, 2, seed=1), [-ndtri(extreme), ndtri(extreme)], rtol=1e-14, atol=0)

    def test_prefixes_agree_and_seeds_differ(self):
        count = 1000
        for n in (1, 16, 2**40):
            longer = gaussian.iid_maxima(n, count + SHARD_ROWS + 1, seed=41)
            assert np.array_equal(gaussian.iid_maxima(n, count, seed=41), longer[:count])
            assert np.array_equal(gaussian.iid_maxima(n, SHARD_ROWS + 1, seed=41), longer[: SHARD_ROWS + 1])
            assert not np.array_equal(gaussian.iid_maxima(n, count, seed=42), longer[:count])

    def test_rejects_bad_arguments(self):
        for n in (0, -1, 2**1000 + 1, 2.0, True):
            with pytest.raises(InvalidInput):
                gaussian.iid_maxima(n, 10, seed=1)
        for count in (0, 10.0, True):
            with pytest.raises(InvalidInput):
                gaussian.iid_maxima(4, count, seed=1)
        with pytest.raises(InvalidInput):
            gaussian.iid_maxima(4, 10, seed=-1)
        assert gaussian.iid_maxima(np.int64(4), np.int64(3), seed=1).shape == (3,)


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

    @given(
        kinds=st.tuples(*[st.sampled_from(["dense", "diagonal", "zero"])] * 2),
        n=st.integers(1, 8),
        t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blend_is_its_inputs_at_the_ends_and_their_convex_combination_inside(self, kinds, n, t, seed):
        x = _law(kinds[0], n, seed)
        y = validate_spec(x.mean, _law(kinds[1], n, seed + 1).covariance)
        assert blended_spec(x, y, 0.0) is x and blended_spec(x, y, 1.0) is y
        cov_x, cov_y = x.covariance, y.covariance
        if cov_x.ndim != cov_y.ndim:  # a law that stores its variances blends as its diagonal matrix
            cov_x, cov_y = (np.diag(c) if c.ndim == 1 else c for c in (cov_x, cov_y))
        assert blended_spec(x, y, t).covariance.tobytes() == ((1.0 - t) * cov_x + t * cov_y).tobytes()

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
            if cov.ndim == 1:  # a law of one coordinate stores its variance
                cov = np.diag(cov)
            assert np.linalg.eigvalsh(cov)[0] >= -PSD_RTOL * (1.0 + np.trace(cov))
