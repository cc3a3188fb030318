"""Expected-max Monte Carlo estimates and the bivariate closed form.

The closed form is cross-validated here against the brute-force tensor
quadrature oracle in oracles.py before anything else leans on it.
"""

import math

import numpy as np
import pytest

from oracles import bivariate_expected_max_quad, iid_expected_max_quad

from sudfer import (
    DimensionMismatch,
    InvalidInput,
    MCEstimate,
    empirical_gap,
    expected_max_bivariate_exact,
    expected_max_mc,
    validate_spec,
)
from sudfer.estimator import estimate_from_values
from sudfer.gaussian import SHARD_ROWS, common_draw_values, iid_maxima

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


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
        spec = validate_spec(np.full(5, 1.5), np.zeros((5, 5)))
        (rows,) = common_draw_values([(spec, lambda rows: rows.max(axis=1))], 1000, seed=53)
        monkeypatch.setattr(np.random, "default_rng", None)  # any draw would fail
        est = expected_max_mc(spec, 1000, seed=53)
        assert (est.value, est.stderr) == (1.5, 0.0)
        assert est == estimate_from_values(rows)

    def test_other_diagonal_laws_reduce_their_rows(self):
        for mean, cov in (([0.0, 1.0], np.eye(2)), (np.zeros(2), np.diag([1.0, 2.0])), ([0.0, 1.0], np.zeros((2, 2)))):
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
        spec = validate_spec(np.zeros(4), np.eye(4))
        _, _, gap = empirical_gap(spec, spec, 10**5, seed=21)
        assert abs(gap.value) <= 3.0 * gap.stderr

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

    def test_stderr_combines_in_quadrature(self):
        x = validate_spec(np.zeros(2), np.eye(2))
        y = validate_spec(np.zeros(2), 2.0 * np.eye(2))
        est_x, est_y, gap = empirical_gap(x, y, 10**4, seed=31)
        from sudfer import derive_seed

        ex = expected_max_mc(x, 10**4, derive_seed(31, 0))
        ey = expected_max_mc(y, 10**4, derive_seed(31, 1))
        assert est_x == ex and est_y == ey
        assert gap.value == ex.value - ey.value
        assert gap.stderr == pytest.approx(math.hypot(ex.stderr, ey.stderr), abs=0)
