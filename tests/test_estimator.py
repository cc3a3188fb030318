"""Expected-max Monte Carlo estimates and the bivariate closed form.

The closed form is cross-validated here against the brute-force tensor
quadrature oracle in oracles.py before anything else leans on it.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bivariate_expected_max_quad, iid_expected_max_quad

from sudfer import (
    DimensionMismatch,
    InvalidInput,
    MCEstimate,
    derive_seed,
    empirical_gap,
    expected_max_bivariate_exact,
    expected_max_mc,
    iid_standard_spec,
    random_spec,
    validate_spec,
    zero_spec,
)
from sudfer import estimator
from sudfer.estimator import estimate_from_values
from sudfer.gaussian import SHARD_ROWS, common_draw_values, iid_maxima

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def row_max(rows):
    return rows.max(axis=1)


def random_2d_spec(rng, with_mean=True):
    a = rng.standard_normal((2, 2))
    cov = a @ a.T / 2.0
    mean = rng.standard_normal(2) if with_mean else np.zeros(2)
    return validate_spec(mean, (cov + cov.T) / 2.0)


class TestMCEstimate:
    def test_field_validation(self):
        est = MCEstimate(value=1.0, stderr=0.1)
        assert (est.value, est.stderr) == (1.0, 0.1)
        with pytest.raises(InvalidInput):
            MCEstimate(value=0.0, stderr=-0.1)
        with pytest.raises(InvalidInput):
            MCEstimate(value=0.0, stderr=math.nan)

    def test_estimate_from_values(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        est = estimate_from_values(values)
        assert est.value == 2.5
        assert est.stderr == pytest.approx(values.std(ddof=1) / 2.0, abs=0)
        with pytest.raises(InvalidInput):
            estimate_from_values(np.array([1.0]))

    def test_equal_values_give_their_value_exactly(self):
        # numpy's mean of 0.1 repeated 7 times is 0.09999999999999999, its sd 5.7e-18.
        for value in (0.1, -2.7, 1e-300, 3.0e300, 0.0):
            for count in (2, 7, 1000, SHARD_ROWS + 3):
                est = estimate_from_values(np.full(count, value))
                assert (est.value, est.stderr) == (value, 0.0), (value, count)
        est = expected_max_mc(validate_spec(np.full(3, 0.1), np.zeros((3, 3))), 7, 1)
        assert (est.value, est.stderr) == (0.1, 0.0)


class TestExpectedMaxMC:
    def test_degenerate_law_is_exact(self):
        spec = validate_spec([3.0, -1.0], np.zeros((2, 2)))
        est = expected_max_mc(spec, 1000, seed=4)
        assert est.value == 3.0
        assert est.stderr == 0.0

    def test_scalar_law_recovers_mean(self):
        spec = validate_spec([2.5], [[1.7]])
        est = expected_max_mc(spec, 10**5, seed=6)
        assert abs(est.value - 2.5) <= 3.0 * est.stderr

    def test_bivariate_iid_matches_inverse_sqrt_pi(self):
        spec = validate_spec(np.zeros(2), np.eye(2))
        est = expected_max_mc(spec, 10**6, seed=8)
        assert abs(est.value - INV_SQRT_PI) <= 3.0 * est.stderr

    def test_deterministic_per_seed(self):
        spec = validate_spec(np.zeros(3), np.eye(3))
        a = expected_max_mc(spec, 5000, seed=10)
        b = expected_max_mc(spec, 5000, seed=10)
        c = expected_max_mc(spec, 5000, seed=11)
        assert (a.value, a.stderr) == (b.value, b.stderr)
        assert a.value != c.value

    def test_translation_shifts_estimate(self):
        rng = np.random.default_rng(13)
        spec = random_2d_spec(rng, with_mean=False)
        c = 4.75
        shifted = validate_spec(spec.mean + c, spec.covariance)
        a = expected_max_mc(spec, 10**4, seed=14)
        b = expected_max_mc(shifted, 10**4, seed=14)
        assert b.value - a.value == pytest.approx(c, abs=1e-10)
        assert b.stderr == pytest.approx(a.stderr, abs=1e-10)


class TestIidShortcut:
    def test_iid_maxima_match_the_order_statistic_oracle(self):
        for n in (16, 4096, 2**40):
            est = estimate_from_values(iid_maxima(n, 10**6, seed=51))
            assert abs(est.value - iid_expected_max_quad(n)) <= 4.0 * est.stderr, n

    def test_an_iid_law_draws_its_maxima_directly(self):
        spec = validate_spec(np.full(3, 2.5), 4.0 * np.eye(3))
        count = SHARD_ROWS + 3
        expected = estimate_from_values(2.5 + 2.0 * iid_maxima(3, count, seed=52))
        assert expected_max_mc(spec, count, seed=52) == expected

    def test_a_constant_law_draws_nothing_and_keeps_its_estimate(self, monkeypatch):
        # An all-zero factor makes a law constant, whether or not its mean is: its maximum is max(mean).
        specs = [validate_spec(np.full(5, 1.5), np.zeros((5, 5))), validate_spec([0.0, 1.0], np.zeros((2, 2)))]
        rows = [common_draw_values([(spec, row_max)], 1000, seed=53)[0] for spec in specs]
        monkeypatch.setattr(np.random, "default_rng", None)  # any draw would fail
        for spec, maxima in zip(specs, rows):
            est = expected_max_mc(spec, 1000, seed=53)
            assert (est.value, est.stderr) == (spec.mean.max(), 0.0)
            assert est == estimate_from_values(maxima)
        est_x, est_y, gap = empirical_gap(specs[0], validate_spec(np.full(5, -0.5), np.zeros(5)), 1000, seed=53)
        assert (est_x, est_y, gap) == (MCEstimate(1.5, 0.0), MCEstimate(-0.5, 0.0), MCEstimate(2.0, 0.0))

    def test_other_diagonal_laws_reduce_their_rows(self):
        for mean, cov in (([0.0, 1.0], np.eye(2)), (np.zeros(2), np.diag([1.0, 2.0]))):
            spec = validate_spec(mean, cov)
            (maxima,) = common_draw_values([(spec, lambda rows: rows.max(axis=1))], 1000, seed=54)
            assert expected_max_mc(spec, 1000, seed=54) == estimate_from_values(maxima)

    def test_arguments_are_checked_before_the_shortcut(self):
        for spec in (validate_spec([0.0], [[1.0]]), validate_spec([0.0], [[0.0]])):
            for samples in (100.0, True, 1):
                with pytest.raises(InvalidInput):
                    expected_max_mc(spec, samples, seed=1)
            with pytest.raises(InvalidInput):
                expected_max_mc(spec, 100, seed=-1)


class TestBivariateClosedForm:
    def test_iid_standard_value(self):
        spec = validate_spec(np.zeros(2), np.eye(2))
        assert expected_max_bivariate_exact(spec) == pytest.approx(INV_SQRT_PI, abs=1e-15)

    def test_degenerate_difference(self):
        spec = validate_spec([5.0, 5.0], np.ones((2, 2)))
        assert expected_max_bivariate_exact(spec) == 5.0

    def test_separated_means_limit(self):
        spec = validate_spec([0.0, 10.0], (1e-12 / 2.0) * np.eye(2))
        assert expected_max_bivariate_exact(spec) == pytest.approx(10.0, abs=1e-9)

    def test_rejects_other_dimensions(self):
        with pytest.raises(DimensionMismatch):
            expected_max_bivariate_exact(validate_spec(np.zeros(3), np.eye(3)))

    def test_validated_against_tensor_quadrature(self):
        # The load-bearing cross-check: closed form vs brute-force 2-d
        # quadrature on a spread of correlations, scales and mean gaps.
        cases = [
            ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            ([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]]),
            ([0.0, 0.0], [[1.0, -0.7], [-0.7, 1.0]]),
            ([1.0, -1.0], [[2.0, 0.3], [0.3, 0.5]]),
            ([0.0, 3.0], [[1.0, 0.5], [0.5, 4.0]]),
            ([-2.0, -2.0], [[0.2, 0.1], [0.1, 0.3]]),
        ]
        rng = np.random.default_rng(20260814)
        while len(cases) < 12:
            a = rng.standard_normal((2, 2))
            cov = a @ a.T / 2.0 + 0.05 * np.eye(2)
            cases.append((rng.standard_normal(2).tolist(), ((cov + cov.T) / 2.0).tolist()))
        for mean, cov in cases:
            spec = validate_spec(mean, cov)
            closed = expected_max_bivariate_exact(spec)
            quad = bivariate_expected_max_quad(mean, cov, nodes=400)
            assert abs(closed - quad) <= 1e-6, (mean, cov, closed, quad)

    def test_monte_carlo_agreement_sweep(self):
        rng = np.random.default_rng(15)
        for k in range(10):
            spec = random_2d_spec(rng)
            exact = expected_max_bivariate_exact(spec)
            est = expected_max_mc(spec, 10**5, seed=1000 + k)
            assert abs(est.value - exact) <= 3.0 * est.stderr


class TestEmpiricalGap:
    def test_identical_specs_gap_near_zero(self):
        # Both laws reduce the same draws, so the gap is exactly (0, 0): through the iid shortcut and
        # through common_draw_values alike.
        for spec in (validate_spec(np.zeros(4), np.eye(4)), random_spec(4, 21, "wishart")):
            est_x, est_y, gap = empirical_gap(spec, spec, 10**5, seed=21)
            assert est_x == est_y
            assert (gap.value, gap.stderr) == (0.0, 0.0)
            assert est_x.stderr > 0.0

    def test_iid_vs_zero_matches_oracle(self):
        # E max of 16 iid standard normals, per the order-statistic
        # quadrature in oracles.py (MC-confirmed at 1e7 samples).
        x = validate_spec(np.zeros(16), np.eye(16))
        y = validate_spec(np.zeros(16), np.zeros((16, 16)))
        _, _, gap = empirical_gap(x, y, 2 * 10**5, seed=23)
        assert abs(abs(gap.value) - 1.7659913931) <= 3.0 * gap.stderr

    def test_shift_of_both_means_cancels(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T / 3.0
        cov = (cov + cov.T) / 2.0
        x = validate_spec(np.zeros(3), cov)
        y = validate_spec(np.zeros(3), np.eye(3))
        _, _, gap = empirical_gap(x, y, 10**4, seed=29)
        xs = validate_spec(x.mean + 2.5, cov)
        ys = validate_spec(y.mean + 2.5, np.eye(3))
        _, _, gap_shifted = empirical_gap(xs, ys, 10**4, seed=29)
        assert gap_shifted.value == pytest.approx(gap.value, abs=1e-10)

    def test_both_laws_share_one_draw_and_the_gap_stderr_is_paired(self):
        # X and Y come from one common_draw_values call on derive_seed(seed, 0); the gap's stderr is that of
        # the per-draw differences.
        x, y = random_spec(3, 30, "wishart"), validate_spec(np.zeros(3), np.eye(3) + 0.5)
        est_x, est_y, gap = empirical_gap(x, y, 10**4, seed=31)
        mx, my = common_draw_values([(x, row_max), (y, row_max)], 10**4, derive_seed(31, 0))
        assert est_x == estimate_from_values(mx) and est_y == estimate_from_values(my)
        assert gap == MCEstimate(est_x.value - est_y.value, estimate_from_values(mx - my).stderr)

    def test_laws_of_two_dimensions_are_refused(self):
        pairs = [
            (iid_standard_spec(4), zero_spec(8)),  # both would skip the rows
            (random_spec(4, 32, "wishart"), random_spec(8, 32, "wishart")),  # both draw rows
            (iid_standard_spec(4), random_spec(8, 32, "wishart")),
        ]
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                with pytest.raises(DimensionMismatch):
                    empirical_gap(a, b, 1000, seed=1)

    def test_an_iid_law_paired_with_a_dense_law_takes_its_maxima_from_rows(self):
        x, y = iid_standard_spec(4), random_spec(4, 33, "wishart")
        est_x, _, _ = empirical_gap(x, y, 5000, seed=33)
        (rows,) = common_draw_values([(x, row_max)], 5000, derive_seed(33, 0))
        assert est_x == estimate_from_values(rows)
        assert est_x != expected_max_mc(x, 5000, derive_seed(33, 0))  # the iid_maxima estimate

    def test_two_iid_laws_are_comonotone(self):
        x, y = validate_spec(np.full(5, 1.0), 4.0 * np.eye(5)), validate_spec(np.full(5, -2.0), 0.25 * np.eye(5))
        mx, my = estimator._maxima([x, y], 4000, seed=34)
        assert np.allclose((mx - 1.0) / 2.0, (my + 2.0) / 0.5, rtol=1e-12, atol=1e-12)
        est_x, est_y, gap = empirical_gap(x, y, 4000, seed=34)
        assert gap.stderr == pytest.approx(est_x.stderr - est_y.stderr, rel=1e-12)  # the bracket's lower end

    def test_a_dense_pair_makes_one_common_draw_call_with_both_laws(self, monkeypatch):
        calls = []

        def spy(laws, count, seed):
            calls.append([spec for spec, _ in laws])
            return common_draw_values(laws, count, seed)

        monkeypatch.setattr(estimator, "common_draw_values", spy)
        x, y = random_spec(6, 35, "wishart"), random_spec(6, 36, "wishart")
        empirical_gap(x, y, 1000, seed=35)
        assert calls == [[x, y]]  # GaussianSpec compares by identity

    def test_a_dense_law_paired_with_a_constant_draws_alone_with_the_same_bits(self, monkeypatch):
        calls = []

        def spy(laws, count, seed):
            calls.append([spec for spec, _ in laws])
            return common_draw_values(laws, count, seed)

        # The dense law's maxima are those it has when the constant law shares its common_draw_values call.
        x = random_spec(6, 37, "wishart")
        constants = [zero_spec(6), validate_spec([0.0, 2.0, -1.0, 0.5, 0.0, 1.0], np.zeros(6))]
        want = [common_draw_values([(x, estimator._row_max), (c, estimator._row_max)], 1000, 37)[0] for c in constants]
        monkeypatch.setattr(estimator, "common_draw_values", spy)
        for c, want_x in zip(constants, want):
            for pair, j in (([x, c], 0), ([c, x], 1)):
                maxima = estimator._maxima(pair, 1000, 37)
                assert np.array_equal(maxima[j].view(np.uint64), want_x.view(np.uint64))
                assert maxima[1 - j] == float(c.mean.max())
        assert calls == 4 * [[x]]


    def test_the_iid_gap_against_the_zero_law_holds_two_per_draw_arrays(self, traced_peak):
        # The iid maxima, scaled in place, and one temporary of the sd; the zero law holds no per-draw array.
        # 2 MiB of slack covers iid_maxima's per-shard temporaries (and a first import of numpy.random).
        x, y, samples = iid_standard_spec(4096), zero_spec(4096), 10**6
        (est_x, est_y, gap), peak = traced_peak(lambda: empirical_gap(x, y, samples, 5))
        assert (est_y, gap) == (MCEstimate(0.0, 0.0), est_x)
        assert peak <= 2 * 8 * samples + 2**21


class TestNarrowRowMaxima:
    """Rows of fewer than 32 columns are folded column by column; every other width keeps numpy's row max."""

    def laws(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        dense = (a @ a.T + a.T @ a) / 2.0
        flat = dense.copy()
        flat[0, :] = flat[:, 0] = 0.0  # a zero-variance coordinate
        mixed = np.diag(np.r_[0.0, rng.uniform(0.1, 3.0, n - 1)])  # zero and positive variances
        mean = rng.standard_normal(n)
        return [validate_spec(mean, dense), validate_spec(np.zeros(n), flat), validate_spec(np.zeros(n), mixed)]

    def test_maxima_equal_the_row_max_bit_for_bit(self):
        count = SHARD_ROWS + 77
        for n in (2, 3, 7, 8, 9, 16, 31, 32, 33, 64):
            laws = self.laws(n)
            expected = common_draw_values([(spec, row_max) for spec in laws], count, seed=71)
            for spec, want in zip(laws, expected):
                (got,) = estimator._maxima([spec], count, seed=71)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
            for got, want in zip(estimator._maxima(laws[:2], count, seed=71), expected):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def _pair_laws(n, kinds, seed):
    rng = np.random.default_rng(seed)
    for kind in kinds:
        mean = np.full(n, rng.standard_normal())
        if kind == "dense":
            a = rng.standard_normal((n, n))
            yield validate_spec(mean, (a @ a.T + a.T @ a) / 2.0)
        elif kind == "diagonal":
            yield validate_spec(mean, np.diag(rng.uniform(0.1, 3.0, n)))
        elif kind == "iid":
            yield validate_spec(mean, rng.uniform(0.1, 3.0) * np.eye(n))
        else:
            yield validate_spec(mean, np.zeros((n, n)))


class TestPairedStderrProperty:
    @given(
        n=st.integers(1, 6),
        mus=st.tuples(*2 * [st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))]),
        variances=st.tuples(*2 * [st.one_of(st.just(0.0), st.floats(0.01, 9.0))]),
        samples=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_an_iid_or_constant_pair_gap_is_its_definition(self, n, mus, variances, samples, seed):
        # The definition: per-draw maxima mu + sigma * M on one iid_maxima draw M, or mu on every draw if sigma = 0.
        x, y = (validate_spec(np.full(n, mu), np.full(n, v)) for mu, v in zip(mus, variances))
        m = iid_maxima(n, samples, derive_seed(seed, 0))
        mx, my = (s.mean[0] + s.factor[0] * m if s.factor[0] else np.full(samples, s.mean[0]) for s in (x, y))
        want_x, want_y = estimate_from_values(mx), estimate_from_values(my)
        want_stderr = estimate_from_values(mx - my).stderr
        est_x, est_y, gap = empirical_gap(x, y, samples, seed)
        assert (est_x, est_y) == (want_x, want_y)
        assert gap.value == want_x.value - want_y.value
        # Against a constant c the gap's stderr is the other law's: the differences' exactly when c is a zero,
        # up to the rounding of m - c elsewhere.
        if all(s.factor[0] or s.mean[0] == 0.0 for s in (x, y)):
            assert gap.stderr == want_stderr
        else:
            assert gap.stderr == pytest.approx(want_stderr, rel=1e-12, abs=0)


    @given(
        n=st.integers(1, 6),
        kinds=st.tuples(*2 * [st.sampled_from(["dense", "diagonal", "iid", "zero"])]),
        samples=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gap_stderr_lies_between_the_difference_and_the_sum(self, n, kinds, samples, seed):
        x, y = _pair_laws(n, kinds, seed)
        est_x, est_y, gap = empirical_gap(x, y, samples, seed)
        # 1e-12 relative to the size of the maxima: c - m has the sample sd of m only up to rounding.
        slack = 1e-12 * (abs(est_x.value) + abs(est_y.value) + est_x.stderr + est_y.stderr)
        assert abs(est_x.stderr - est_y.stderr) - slack <= gap.stderr <= est_x.stderr + est_y.stderr + slack
