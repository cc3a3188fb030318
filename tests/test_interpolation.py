"""Blend-path interpolant, its two derivative estimators, residual checks."""

import math

import numpy as np
import pytest

from oracles import gaussian_expectation_2d_quad

from sudfer import (
    DomainError,
    ExperimentConfig,
    InvalidInput,
    SmoothMaxParams,
    derive_seed,
    dominated_pair,
    increment_matrix,
    phi,
    phi_derivative,
    run_experiment,
    sample,
    softmax,
    stein_residuals,
    validate_spec,
)
from sudfer import experiments
from sudfer.estimator import estimate_from_values
from sudfer.gaussian import SHARD_ROWS, _covariance_matrix, blended_spec
from sudfer.interpolation import FD_STEP_CAP, stein_residual_values
from sudfer.smoothmax import smooth_max


def iid_spec(n):
    return validate_spec(np.zeros(n), np.eye(n))


def zero_spec(n):
    return validate_spec(np.zeros(n), np.zeros((n, n)))


def path_report(x, y, beta, grid, samples, seed):
    """The path-diagnostics experiment on the explicit pair (x, y): one trial, fixed beta."""
    # A document gives the covariance as rows, also for a law that stores its variances.
    docs = [{"mean": s.mean.tolist(), "covariance": _covariance_matrix(s).tolist()} for s in (x, y)]
    config = ExperimentConfig(
        experiment="path-diagnostics",
        trials=1,
        samples=samples,
        seed=seed,
        generator="explicit",
        beta=beta,
        grid=grid,
        spec_x=docs[0],
        spec_y=docs[1],
    )
    return run_experiment(config)


def random_centered_spec(rng, n):
    a = rng.standard_normal((n, n))
    cov = a @ a.T / n
    return validate_spec(np.zeros(n), (cov + cov.T) / 2.0)


class TestPhi:
    def test_constant_path_for_equal_specs(self):
        rng = np.random.default_rng(3)
        spec = random_centered_spec(rng, 4)
        params = SmoothMaxParams(2.0)
        ests = [phi(spec, spec, params, t, 20_000, seed=7) for t in (0.0, 0.5, 1.0)]
        for a in ests:
            for b in ests:
                assert abs(a.value - b.value) <= 3.0 * math.hypot(a.stderr, b.stderr) + 1e-9

    def test_degenerate_laws_give_exact_logn_over_beta(self):
        params = SmoothMaxParams(1.5)
        est = phi(zero_spec(5), zero_spec(5), params, 0.3, 100, seed=9)
        assert est.value == pytest.approx(math.log(5.0) / 1.5, abs=1e-14)
        assert est.stderr == 0.0

    def test_scalar_case_recovers_the_mean(self):
        x = validate_spec([1.25], [[0.6]])
        y = validate_spec([1.25], [[2.0]])
        est = phi(x, y, SmoothMaxParams(3.0), 0.4, 50_000, seed=11)
        assert abs(est.value - 1.25) <= 3.0 * est.stderr

    def test_endpoints_match_direct_estimates_bitwise(self):
        # t = 0 reproduces the X law exactly, so the same seed must give the
        # same draws and therefore identical estimates, bit for bit.
        rng = np.random.default_rng(13)
        x = random_centered_spec(rng, 3)
        y = validate_spec(x.mean, random_centered_spec(rng, 3).covariance)
        params = SmoothMaxParams(1.0)
        for t, spec in ((0.0, x), (1.0, y)):
            est = phi(x, y, params, t, 10_000, seed=17)
            direct = estimate_from_values(smooth_max(sample(spec, 10_000, 17), params))
            assert est.value == direct.value
            assert est.stderr == direct.stderr

    def test_path_point_carries_the_blend(self):
        x = iid_spec(2)
        y = validate_spec(np.zeros(2), 3.0 * np.eye(2))
        blended = blended_spec(x, y, 0.25)
        assert np.array_equal(blended.mean, np.zeros(2))
        assert np.array_equal(blended.covariance, np.full(2, 1.5))  # two diagonal laws blend their variances

    def test_monotone_endpoints_for_dominated_pairs(self):
        params = SmoothMaxParams(1.0)
        for k in range(5):
            x, y = dominated_pair(4, seed=920 + k, generator="wishart")
            lo = phi(x, y, params, 0.0, 30_000, seed=930 + k)
            hi = phi(x, y, params, 1.0, 30_000, seed=930 + k)
            assert hi.value >= lo.value - 3.0 * math.hypot(lo.stderr, hi.stderr)


class TestExplicitDerivative:
    def test_zero_when_increments_agree(self):
        # Adding a common-shift component c*11^T changes the covariance but
        # not the increments, so the integrand vanishes identically.
        rng = np.random.default_rng(19)
        x = random_centered_spec(rng, 3)
        y = validate_spec(x.mean, x.covariance + 0.9 * np.ones((3, 3)))
        est = phi_derivative(x, y, SmoothMaxParams(2.0), 0.5, 5000, seed=23).explicit
        assert est.value == pytest.approx(0.0, abs=1e-13)
        assert est.stderr <= 1e-13

    def test_iid_pair_vs_zero_matches_quadrature_oracle(self):
        # For X = N(0, I2), Y the zero law, the derivative at t is
        # -beta * E p1(Z) p2(Z) with Z ~ N(0, (1-t) I2); the expectation is
        # computed independently by tensor quadrature.
        beta, t = 1.0, 0.5

        def softmax_product(points):
            v1, v2 = points[..., 0], points[..., 1]
            m = np.maximum(v1, v2)
            e1 = np.exp(beta * (v1 - m))
            e2 = np.exp(beta * (v2 - m))
            return (e1 / (e1 + e2)) * (e2 / (e1 + e2))

        oracle = -beta * gaussian_expectation_2d_quad(
            softmax_product, [0.0, 0.0], (1.0 - t) * np.eye(2), nodes=300
        )
        est = phi_derivative(
            iid_spec(2), zero_spec(2), SmoothMaxParams(beta), t, 10**6, seed=29
        ).explicit
        assert est.value <= -est.stderr
        assert abs(est.value - oracle) <= 3.0 * est.stderr

    def test_dominated_pairs_never_significantly_negative(self):
        rng = np.random.default_rng(31)
        for k in range(10):
            n = int(rng.integers(2, 7))
            x, y = dominated_pair(n, seed=400 + k, generator="wishart")
            beta = 1.5
            for t in (0.2, 0.5, 0.8):
                est = phi_derivative(x, y, SmoothMaxParams(beta), t, 20_000, seed=500 + k).explicit
                assert est.value >= -3.0 * est.stderr

    def test_magnitude_bounded_by_quarter_beta_gamma(self):
        from sudfer import certify

        rng = np.random.default_rng(37)
        for k in range(10):
            x = random_centered_spec(rng, 4)
            y = random_centered_spec(rng, 4)
            gamma = certify(x, y).gamma
            beta = 2.0
            est = phi_derivative(x, y, SmoothMaxParams(beta), 0.5, 10_000, seed=600 + k).explicit
            assert abs(est.value) <= beta * gamma / 4.0 + 3.0 * est.stderr

    def test_interior_domain_enforced(self):
        x = iid_spec(2)
        for t in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                phi_derivative(x, x, SmoothMaxParams(1.0), t, 100, seed=1)


class TestDerivativeMemory:
    def test_a_diagonal_pair_holds_one_difference_matrix(self, traced_peak):
        # gY - gX is written panel by panel into one n x n array (32 MiB at n = 2048), and the
        # blended laws store their variances, so the peak stays under two such arrays.
        n = 2048
        x, y = experiments.zero_spec(n), experiments.iid_standard_spec(n)
        point, peak = traced_peak(lambda: phi_derivative(x, y, SmoothMaxParams(2.0), 0.5, 64, 1))
        assert point.explicit.value > 0.0  # Y = N(0, I) dominates the zero law
        assert peak <= 2 * n * n * 8


class TestFiniteDifferenceDerivative:
    def test_exactly_zero_for_identical_iid_specs(self):
        # Identity covariances blend to exactly themselves at every t, so the
        # paired difference is exactly zero draw by draw.
        x = iid_spec(3)
        est = phi_derivative(x, x, SmoothMaxParams(2.0), 0.5, 5000, seed=41).finite_difference
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_near_zero_for_identical_random_specs(self):
        rng = np.random.default_rng(43)
        x = random_centered_spec(rng, 4)
        est = phi_derivative(x, x, SmoothMaxParams(1.0), 0.3, 5000, seed=47).finite_difference
        assert abs(est.value) <= 3.0 * est.stderr + 1e-9

    def test_scalar_case_is_statistically_zero(self):
        x = validate_spec([0.0], [[0.5]])
        y = validate_spec([0.0], [[2.5]])
        est = phi_derivative(x, y, SmoothMaxParams(1.0), 0.5, 20_000, seed=53).finite_difference
        assert abs(est.value) <= 3.0 * est.stderr

    def test_agrees_with_explicit_formula(self):
        rng = np.random.default_rng(59)
        for k in range(5):
            n = int(rng.integers(2, 6))
            x, y = dominated_pair(n, seed=700 + k, generator="wishart")
            beta = 2.0
            params = SmoothMaxParams(beta)
            for t in (0.1, 0.5, 0.9):
                seed = derive_seed(800 + k, int(t * 10))
                d = phi_derivative(x, y, params, t, 40_000, seed)
                explicit, fd = d.explicit, d.finite_difference
                tol = 3.0 * math.hypot(explicit.stderr, fd.stderr) + 1e-4 * beta
                assert abs(explicit.value - fd.value) <= tol

    def test_interior_domain_enforced(self):
        x = iid_spec(2)
        with pytest.raises(DomainError):
            phi_derivative(x, x, SmoothMaxParams(1.0), 1.0, 100, seed=1)


class TestPhiDerivative:
    # Both estimates must equal the textbook formulas evaluated on whole
    # ``sample`` batches bit for bit; SHARD_ROWS + 257 draws end in a partial shard.
    SAMPLES = SHARD_ROWS + 257

    def pair(self):
        return dominated_pair(4, seed=950, generator="wishart")

    def test_explicit_is_the_integrand_mean_on_sample(self):
        x, y = self.pair()
        params, t, seed = SmoothMaxParams(1.5), 0.3, 951
        p = softmax(sample(blended_spec(x, y, t), self.SAMPLES, seed), params)
        diff = increment_matrix(y) - increment_matrix(x)
        expected = estimate_from_values(params.beta / 4.0 * ((p @ diff) * p).sum(axis=1))
        assert phi_derivative(x, y, params, t, self.SAMPLES, seed).explicit == expected

    def test_finite_difference_is_the_paired_smooth_max_difference_on_sample(self):
        x, y = self.pair()
        params, t, seed = SmoothMaxParams(1.5), 0.9997, 952
        h = min(t, 1.0 - t, FD_STEP_CAP) / 2.0
        upper, lower = (
            smooth_max(sample(blended_spec(x, y, s), self.SAMPLES, seed), params) for s in (t + h, t - h)
        )
        expected = estimate_from_values((upper - lower) / (2.0 * h))
        assert phi_derivative(x, y, params, t, self.SAMPLES, seed).finite_difference == expected

    def test_report_points_are_phi_derivative_on_derived_seeds(self):
        x, y = self.pair()
        params = SmoothMaxParams(1.0)
        report = path_report(x, y, 1.0, (0.2, 0.6), 3000, seed=954)
        grid_seed = derive_seed(derive_seed(954, 0), 2)
        for k, t in enumerate((0.2, 0.6)):
            point = phi_derivative(x, y, params, t, 3000, derive_seed(grid_seed, k))
            record = report.records[k]
            assert (record["t"], record["beta"]) == (t, 1.0)
            assert (record["explicit"], record["explicit_stderr"]) == (
                point.explicit.value, point.explicit.stderr
            )
            assert (record["finite_difference"], record["finite_difference_stderr"]) == (
                point.finite_difference.value, point.finite_difference.stderr
            )


class TestPathMemory:
    # Every law draws in row blocks of 1 MiB, 512 rows at n = 256, and the
    # reductions overwrite the block they are handed: a dense law holds the
    # z block and the row block, and phi_derivative's integrand one more
    # block for p @ diff, next to the n x n increment matrices and the
    # blended laws' covariances.  Measured: phi 3.2 MiB, phi_derivative
    # 6.9 MiB, stein_residual_values 38.1 MiB.
    N = 256
    BLOCK = 2**20

    def test_phi_peaks_at_two_blocks(self, traced_peak):
        x, y = dominated_pair(self.N, seed=960, generator="wishart")
        _, peak = traced_peak(lambda: phi(x, y, SmoothMaxParams(2.0), 0.5, 2 * SHARD_ROWS, 961))
        assert peak <= 2 * self.BLOCK + 2**21  # 4 MiB

    def test_phi_derivative_peaks_at_three_blocks(self, traced_peak):
        x, y = dominated_pair(self.N, seed=960, generator="wishart")
        _, peak = traced_peak(lambda: phi_derivative(x, y, SmoothMaxParams(2.0), 0.5, 2 * SHARD_ROWS, 962))
        assert peak <= 3 * self.BLOCK + 5 * 2**20  # 8 MiB

    def test_stein_residual_values_peak_at_their_result_plus_eight_blocks(self, traced_peak):
        # The (count x n) result, the z and row blocks, and the block-sized
        # temporaries of the residual: the public functions' private copies,
        # rows - mean and g @ cov.
        _, y = dominated_pair(self.N, seed=960, generator="wishart")
        count = 2 * SHARD_ROWS
        values, peak = traced_peak(lambda: stein_residual_values(y, SmoothMaxParams(2.0), count, 963))
        assert values.shape == (count, self.N)
        assert peak <= count * self.N * 8 + 8 * self.BLOCK  # 40 MiB


class TestSteinResiduals:
    def test_linear_functional_hook(self):
        # F(x) = x_j with constant gradient e_j: the identity reduces to
        # E(V_i V_j) = cov[i, j], so every coordinate must pass at 3 sigma.
        rng = np.random.default_rng(61)
        spec = random_centered_spec(rng, 4)
        j = 1
        e = np.zeros(4)
        e[j] = 1.0
        ests = stein_residuals(
            spec,
            SmoothMaxParams(1.0),
            200_000,
            seed=67,
            functional=lambda rows: rows[:, j],
            gradient=lambda rows: np.broadcast_to(e, rows.shape),
        )
        for est in ests:
            assert abs(est.value) <= 3.0 * est.stderr

    def test_zero_covariance_is_exact(self):
        ests = stein_residuals(zero_spec(3), SmoothMaxParams(1.0), 100, seed=71)
        for est in ests:
            assert est.value == 0.0
            assert est.stderr == 0.0

    def test_identity_covariance_default_functional(self):
        spec = iid_spec(4)
        ests = stein_residuals(spec, SmoothMaxParams(2.0), 10**6, seed=73)
        for est in ests:
            assert abs(est.value) <= 3.0 * est.stderr
            assert est.stderr <= 5e-3

    def test_single_coordinate_accessor(self):
        spec = iid_spec(3)
        full = stein_residuals(spec, SmoothMaxParams(1.0), 5000, seed=79)
        values = stein_residual_values(spec, SmoothMaxParams(1.0), 5000, seed=79)
        assert len(full) == values.shape[1] == spec.n
        for i, est in enumerate(full):
            assert est == estimate_from_values(values[:, i])

    def test_non_centered_laws_pass_every_coordinate(self):
        # The identity holds for any mean once V_i is centered at mu_i.
        rng = np.random.default_rng(83)
        for k in range(10):
            cov = random_centered_spec(rng, 6).covariance
            spec = validate_spec(rng.normal(0.0, 2.0, size=6), cov)
            for est in stein_residuals(spec, SmoothMaxParams(1.0), 200_000, seed=840 + k):
                assert abs(est.value) <= 3.0 * est.stderr

    def test_a_centered_law_keeps_its_residual_bytes(self):
        # rows - 0.0 is bitwise rows: centered residuals are exactly V_i F(V) - (S grad F)_i.
        spec = random_centered_spec(np.random.default_rng(85), 3)
        params = SmoothMaxParams(1.5)
        rows = sample(spec, 3000, 87)
        expected = rows * smooth_max(rows, params)[:, None] - softmax(rows, params) @ spec.covariance
        assert np.array_equal(stein_residual_values(spec, params, 3000, 87), expected)

    def test_a_diagonal_law_keeps_its_residual_bytes(self):
        # Stored variances d multiply the gradient entrywise: bitwise the dense product with diag(d).
        spec = validate_spec(np.zeros(5), np.random.default_rng(86).uniform(0.1, 3.0, 5))
        params = SmoothMaxParams(1.5)
        rows = sample(spec, 3000, 88)
        expected = rows * smooth_max(rows, params)[:, None] - softmax(rows, params) @ np.diag(spec.covariance)
        assert np.array_equal(stein_residual_values(spec, params, 3000, 88), expected)

    def test_functional_and_gradient_must_travel_together(self):
        spec = iid_spec(2)
        with pytest.raises(InvalidInput):
            stein_residuals(
                spec, SmoothMaxParams(1.0), 100, seed=89, functional=lambda rows: rows[:, 0]
            )


class TestPathMonotonicityReport:
    # The per-point path report is the record list of the path-diagnostics experiment.
    def test_dominated_pair_raises_no_flags(self):
        x, y = dominated_pair(5, seed=901, generator="wishart")
        report = path_report(x, y, 1.0, (0.25, 0.5, 0.75), 20_000, seed=903)
        assert len(report.records) == 3
        for record in report.records:
            assert record["dominated_xy"] is True
            assert record["sign_pass"] is True
            tol = 3.0 * math.hypot(record["explicit_stderr"], record["finite_difference_stderr"]) + 1e-4
            assert abs(record["explicit"] - record["finite_difference"]) <= tol
        assert report.summary["pass"] is True

    def test_equal_specs_zero_everything(self):
        spec = iid_spec(4)
        report = path_report(spec, spec, 2.0, (0.3, 0.7), 5000, seed=907)
        for record in report.records:
            assert record["sign_pass"] is True
            assert abs(record["explicit"]) <= 3.0 * record["explicit_stderr"] + 1e-12
