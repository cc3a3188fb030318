"""Discrepancy, the sqrt(gamma ln n) bound, tradeoff algebra, certificates."""

import math
import tracemalloc

import numpy as np
import pytest

from sudfer import (
    DegenerateGamma,
    DegenerateN,
    DimensionMismatch,
    DomainError,
    InvalidInput,
    beta_tradeoff_bound,
    certify,
    dominated_pair,
    increment_matrix,
    optimal_beta,
    random_spec,
    sf_bound,
    validate_spec,
)


def iid_spec(n):
    return validate_spec(np.zeros(n), np.eye(n))


def zero_spec(n):
    return validate_spec(np.zeros(n), np.zeros((n, n)))


def mean_law(mean):
    # Zero covariance: the increments are the squared mean gaps (mu_i - mu_j)^2.
    return validate_spec(mean, np.zeros((len(mean), len(mean))))


def random_law(rng, n):
    a = rng.standard_normal((n, n))
    return validate_spec(np.zeros(n), (a @ a.T + (a @ a.T).T) / 2.0)


class TestGammaDiscrepancy:
    def test_identical_increments(self):
        spec = iid_spec(3)
        assert certify(spec, spec).gamma == 0.0

    def test_iid_vs_zero_law_is_two(self):
        # Off-diagonal increments: 2 for independent unit-variance
        # coordinates, 0 for the constant law.
        for n in (2, 5, 16):
            assert certify(iid_spec(n), zero_spec(n)).gamma == 2.0

    def test_single_entry_difference(self):
        # 4 I has every off-diagonal increment 8; a covariance of -0.25 between
        # coordinates 1 and 3 raises that one increment to 8.5.
        cov = 4.0 * np.eye(4)
        cov[1, 3] = cov[3, 1] = -0.25
        x = validate_spec(np.zeros(4), 4.0 * np.eye(4))
        y = validate_spec(np.zeros(4), cov)
        assert np.count_nonzero(increment_matrix(y) - increment_matrix(x)) == 2
        assert certify(x, y).gamma == 0.5

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            x, y = random_law(rng, n), random_law(rng, n)
            assert certify(x, y).gamma == certify(y, x).gamma

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            certify(zero_spec(2), iid_spec(3))


class TestSfBound:
    def test_degenerate_cases(self):
        assert sf_bound(0.0, 100) == 0.0
        assert sf_bound(3.7, 1) == 0.0

    def test_direct_arithmetic(self):
        assert sf_bound(2.0, 16) == pytest.approx(math.sqrt(2.0 * math.log(16.0)), abs=0)

    def test_input_validation(self):
        with pytest.raises(DegenerateN):
            sf_bound(1.0, 0)
        with pytest.raises(DegenerateGamma):
            sf_bound(-0.1, 4)


class TestBetaTradeoff:
    def test_minimizer_attains_the_bound(self):
        b = optimal_beta(2.0, 16)
        assert beta_tradeoff_bound(b, 2.0, 16) == pytest.approx(sf_bound(2.0, 16), abs=1e-12)

    def test_n_one_vanishes(self):
        assert beta_tradeoff_bound(1.0, 0.0, 1) == 0.0

    def test_doubled_beta_scales_five_fourths(self):
        # T(2 b*) = (2 + 1/2)/2 * bound = 1.25 * bound.
        b = optimal_beta(2.0, 16)
        assert beta_tradeoff_bound(2.0 * b, 2.0, 16) == pytest.approx(
            1.25 * sf_bound(2.0, 16), abs=1e-12
        )

    def test_always_at_least_the_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            gamma = float(rng.uniform(0.01, 10.0))
            n = int(rng.integers(2, 10_000))
            beta = float(rng.uniform(0.01, 50.0))
            assert beta_tradeoff_bound(beta, gamma, n) >= sf_bound(gamma, n) - 1e-12

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(DomainError):
            beta_tradeoff_bound(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            beta_tradeoff_bound(-2.0, 1.0, 4)


class TestOptimalBeta:
    def test_arithmetic(self):
        assert optimal_beta(2.0, 16) == pytest.approx(2.0 * math.sqrt(math.log(16.0) / 2.0), abs=0)

    def test_gamma_equal_log_n_cancels(self):
        for n in (2, 3, 50, 4096):
            assert optimal_beta(math.log(n), n) == pytest.approx(2.0, abs=1e-12)

    def test_first_order_optimality_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            gamma = float(rng.uniform(0.001, 20.0))
            n = int(rng.integers(2, 100_000))
            b = optimal_beta(gamma, n)
            at_opt = beta_tradeoff_bound(b, gamma, n)
            assert beta_tradeoff_bound(0.9 * b, gamma, n) > at_opt
            assert beta_tradeoff_bound(1.1 * b, gamma, n) > at_opt

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateGamma):
            optimal_beta(0.0, 4)
        with pytest.raises(DegenerateN):
            optimal_beta(1.0, 1)


class TestCheckDomination:
    def test_equal_matrices(self):
        spec = iid_spec(3)
        cert = certify(spec, spec)
        assert (cert.dominates_xy, cert.dominates_yx) == (True, True)

    def test_zero_law_dominated_by_iid(self):
        forward = certify(zero_spec(4), iid_spec(4))
        backward = certify(iid_spec(4), zero_spec(4))
        assert (forward.dominates_xy, forward.dominates_yx) == (True, False)
        assert (backward.dominates_xy, backward.dominates_yx) == (False, True)

    def test_incomparable_pair(self):
        # Increments 1 on (0,1) and (1,2) against 1 on (0,2) and (1,2).
        cert = certify(mean_law([0.0, 1.0, 0.0]), mean_law([0.0, 0.0, 1.0]))
        assert (cert.dominates_xy, cert.dominates_yx) == (False, False)
        assert cert.gamma == 1.0

    def test_mutual_domination_means_equality(self):
        # A common mean shift keeps the increments equal up to rounding, and an
        # unrelated law changes them: the flags hold together exactly when the
        # two increment matrices are bitwise equal.
        rng = np.random.default_rng(19)
        for k in range(30):
            n = int(rng.integers(2, 6))
            x = validate_spec(rng.standard_normal(n), random_law(rng, n).covariance)
            if k % 2:
                y = random_law(rng, n)
            else:
                y = validate_spec(x.mean + float(rng.uniform(0.5, 3.0)), x.covariance)
            cert = certify(x, y)
            assert (cert.dominates_xy and cert.dominates_yx) == bool(
                np.array_equal(increment_matrix(x), increment_matrix(y))
            )


class TestCertify:
    def test_identical_specs(self):
        spec = iid_spec(5)
        cert = certify(spec, spec)
        assert cert.gamma == 0.0
        assert cert.bound == 0.0
        assert cert.dominates_xy and cert.dominates_yx
        assert cert.means_equal
        assert math.isinf(cert.optimal_beta)

    def test_iid_sixteen_vs_zero_law(self):
        cert = certify(iid_spec(16), zero_spec(16))
        assert cert.gamma == 2.0
        assert cert.bound == pytest.approx(math.sqrt(2.0 * math.log(16.0)), abs=0)
        assert cert.optimal_beta == pytest.approx(math.sqrt(2.0 * math.log(16.0)), abs=1e-12)
        assert not cert.dominates_xy
        assert cert.dominates_yx
        assert cert.means_equal

    def test_common_shift_component_cancels_in_gamma(self):
        # Adding c*11^T to the covariance shifts every coordinate by one
        # common variable, which increments cannot see.
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T / 4.0
        cov = (cov + cov.T) / 2.0
        x = validate_spec(np.zeros(4), cov)
        y = validate_spec(np.zeros(4), cov + 0.8 * np.ones((4, 4)))
        cert = certify(x, y)
        assert cert.gamma <= 1e-12
        assert cert.bound <= 1e-6

    def test_mean_gap_enters_gamma(self):
        x = validate_spec([0.0, 0.0], np.eye(2))
        y = validate_spec([0.0, 1.0], np.eye(2))
        cert = certify(x, y)
        assert not cert.means_equal
        # Increments: 2 for x, 2 + 1 for y off the diagonal.
        assert cert.gamma == 1.0
        assert cert.bound == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-15)

    def test_bound_symmetric_in_arguments(self):
        x = iid_spec(6)
        y = zero_spec(6)
        assert certify(x, y).bound == certify(y, x).bound

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            certify(iid_spec(2), iid_spec(3))

    def test_overflowing_increments_are_invalid_input(self):
        # A valid law whose variances near 1e308 make d_i + d_j overflow.
        huge = validate_spec(np.zeros(2), np.diag([1e308, 1e308]))
        with pytest.raises(InvalidInput):
            certify(huge, zero_spec(2))

    def test_matches_increment_matrix_sweep(self):
        # gamma and both flags, against numpy on the two increment matrices,
        # over random generators, unequal means, zero laws and x = y.
        rng = np.random.default_rng(31)
        generators = ("wishart", "equicorrelated", "diagonal")
        flags = set()
        for k in range(400):
            n = int(rng.integers(1, 9))
            x, y = (random_spec(n, int(rng.integers(2**32)), generators[(k + j) % 3]) for j in (0, 1))
            if k % 4 == 1:
                y = validate_spec(rng.standard_normal(n), y.covariance)
            elif k % 4 == 2:
                y = zero_spec(n)
            elif k % 4 == 3:
                y = x
            gx, gy = increment_matrix(x), increment_matrix(y)
            cert = certify(x, y)
            assert cert.gamma == float(np.max(np.abs(gx - gy)))
            assert cert.dominates_xy == bool(np.all(gx <= gy))
            assert cert.dominates_yx == bool(np.all(gy <= gx))
            flags.add((cert.dominates_xy, cert.dominates_yx))
        assert flags == {(True, True), (True, False), (False, True), (False, False)}

    def test_row_panels_match_the_whole_difference(self):
        # n = 1500 spans several row panels with a partial last one; gamma and
        # both flags must be the exact reductions of the one full difference.
        pairs = []
        for n in (1, 7, 1500):
            x, y = dominated_pair(n, 40 + n, "wishart")
            shifted = validate_spec(np.arange(n, dtype=float), y.covariance)
            pairs += [(x, y), (y, x), (x, random_spec(n, 41 + n, "wishart")), (x, shifted), (x, zero_spec(n))]
        certs = [certify(x, y) for x, y in pairs]
        for (x, y), cert in zip(pairs, certs):
            diff = increment_matrix(y) - increment_matrix(x)
            assert cert.gamma == float(np.max(np.abs(diff)))
            assert cert.dominates_xy == bool(np.all(diff >= 0.0))
            assert cert.dominates_yx == bool(np.all(diff <= 0.0))
        big = certs[-5:]
        assert [(c.dominates_xy, c.dominates_yx) for c in big[:3]] == [(True, False), (False, True), (False, False)]
        assert not big[3].means_equal
        # The one nonzero entry of gY - gX lies in the last, partial panel.
        cov = 4.0 * np.eye(1500)
        cov[-2, -1] = cov[-1, -2] = -0.25
        cert = certify(validate_spec(np.zeros(1500), 4.0 * np.eye(1500)), validate_spec(np.zeros(1500), cov))
        assert (cert.gamma, cert.dominates_xy, cert.dominates_yx) == (0.5, True, False)

    def test_peaks_below_one_square_array(self):
        n = 2048
        x, y = iid_spec(n), zero_spec(n)
        tracemalloc.start()
        try:
            cert = certify(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.gamma == 2.0 and cert.dominates_yx
        assert peak < n * n * 8
