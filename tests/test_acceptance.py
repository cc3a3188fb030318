"""End-to-end acceptance gate.

Each test here exercises one headline guarantee of the toolkit at full
scale and prints a single pass/fail line (run with ``pytest -s`` to see
them).  Monte Carlo verdicts use fixed seeds, so outcomes are reproducible
rather than flaky; every expected value traces to an independent oracle
(order-statistic quadrature, tensor-grid integration, closed-form algebra).
"""

import math

import numpy as np
import pytest

from oracles import bivariate_expected_max_quad, iid_expected_max_quad

from sudfer import (
    ExperimentConfig,
    SmoothMaxParams,
    beta_tradeoff_bound,
    derive_seed,
    empirical_gap,
    expected_max_bivariate_exact,
    expected_max_mc,
    dominated_pair,
    optimal_beta,
    phi_derivative,
    random_spec,
    run_experiment,
    sandwich_gap,
    sf_bound,
    smooth_max,
    smooth_max_hessian,
    softmax,
    stein_residuals,
    validate_spec,
)
from sudfer.bounds import certify
from sudfer.reports import ExperimentReport, render_json


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _body_text(report: ExperimentReport) -> str:
    clone = ExperimentReport(
        config=report.config,
        records=report.records,
        summary=report.summary,
        version=report.version,
        duration_seconds=0.0,
    )
    return render_json(clone)


def test_absolute_gap_within_bound_on_random_pairs():
    """100 random equal-means wishart pairs, n in {2,...,64}, 1e5 samples:
    the measured |E max X - E max Y| never exceeds sqrt(gamma ln n) + 3 se."""
    config = ExperimentConfig(
        experiment="bound-check",
        n=[2, 4, 8, 16, 32, 64],
        trials=100,
        samples=10**5,
        seed=101,
        generator="wishart",
    )
    report = run_experiment(config)
    s = report.summary
    ok = s["pass"] and s["passes"] == 100 and s["fails"] == 0 and s["skipped_unequal_means"] == 0
    _verdict(
        "gap within sqrt(gamma ln n) bound",
        ok,
        f"{s['passes']}/100 pairs inside the bound, max violation z = {s['max_violation_z']:.3f}",
    )


def test_bound_sharpness_ratio_approaches_one():
    """Independent standard normals vs the zero law at n = 16, 256, 4096:
    gap-to-bound ratios match the order-statistic quadrature oracle within
    3 se and climb toward 1."""
    config = ExperimentConfig(
        experiment="sharpness", n=[16, 256, 4096], samples=10**6, seed=202
    )
    report = run_experiment(config)
    checks = []
    for record in report.records:
        n = record["n"]
        oracle = iid_expected_max_quad(n) / math.sqrt(2.0 * math.log(n))
        z = (record["ratio"] - oracle) / record["ratio_stderr"]
        checks.append((n, record["ratio"], oracle, z))
    within = all(abs(z) <= 3.0 for *_, z in checks)
    ok = within and report.summary["nondecreasing_within_noise"] and report.summary["pass"]
    detail = ", ".join(f"n={n}: {r:.4f} vs {o:.4f} (z={z:+.2f})" for n, r, o, z in checks)
    _verdict("sharpness ratios match quadrature oracle", ok, detail)


def test_dominated_pairs_preserve_expected_max_order():
    """50 noise-added dominated pairs with n <= 16: the dominated law's
    estimated expected max never significantly exceeds the dominating one."""
    ns = (2, 4, 8, 16)
    worst = -math.inf
    violations = 0
    for trial in range(50):
        n = ns[trial % len(ns)]
        x, y = dominated_pair(n, seed=3000 + trial, generator="wishart")
        _, _, gap = empirical_gap(x, y, 10**5, seed=4000 + trial)
        worst = max(worst, gap.value / gap.stderr)
        if gap.value > 3.0 * gap.stderr:
            violations += 1
    _verdict(
        "domination implies ordered expected maxima",
        violations == 0,
        f"0 violations target, saw {violations}; worst z = {worst:+.2f}",
    )


def test_derivative_estimators_agree_along_path():
    """50 random pairs, grid {0.1, 0.3, 0.5, 0.7, 0.9}: explicit and
    finite-difference derivative estimates agree within
    3 combined se + 1e-4 beta at >= 99% of the 250 points."""
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    agreements = 0
    total = 0
    for trial in range(50):
        x = random_spec(8, seed=5000 + 2 * trial, generator="wishart")
        y = random_spec(8, seed=5001 + 2 * trial, generator="wishart")
        beta = optimal_beta(certify(x, y).gamma, 8)
        for k, t in enumerate(grid):
            point = phi_derivative(x, y, SmoothMaxParams(beta), t, 40_000, derive_seed(6000 + trial, k))
            explicit, fd = point.explicit, point.finite_difference
            total += 1
            tol = 3.0 * math.hypot(explicit.stderr, fd.stderr) + 1e-4 * beta
            agreements += abs(explicit.value - fd.value) <= tol
    rate = agreements / total
    _verdict(
        "explicit and finite-difference derivatives agree",
        rate >= 0.99,
        f"{agreements}/{total} grid points consistent ({100.0 * rate:.1f}%)",
    )


def test_integration_by_parts_residuals_vanish():
    """20 random centered laws with n <= 8 at 1e6 samples: >= 99% of
    per-coordinate residual verdicts pass at 3 sigma, and the linear
    functional reduces the identity to E(V_i V_j) = cov[i, j] with every
    coordinate passing."""
    config = ExperimentConfig(
        experiment="stein-check",
        n=[2, 3, 4, 5, 6, 7, 8],
        trials=20,
        samples=10**6,
        seed=304,
        beta=2.0,
        generator="wishart",
    )
    report = run_experiment(config)
    s = report.summary
    spec = random_spec(6, seed=404, generator="wishart")
    e = np.zeros(6)
    e[2] = 1.0
    hook = stein_residuals(
        spec,
        SmoothMaxParams(1.0),
        200_000,
        seed=505,
        functional=lambda rows: rows[:, 2],
        gradient=lambda rows: np.broadcast_to(e, rows.shape),
    )
    hook_pass = sum(abs(est.value) <= 3.0 * est.stderr for est in hook)
    ok = s["pass"] and hook_pass == 6
    _verdict(
        "integration-by-parts residuals vanish",
        ok,
        f"{s['passes']}/{s['verdicts']} smooth-max verdicts pass "
        f"({100.0 * s['pass_rate']:.1f}%), linear hook {hook_pass}/6",
    )


def test_smoothmax_calculus_matches_finite_differences():
    """Sandwich slacks nonnegative on 1e4 random vectors; gradient and
    Hessian match central finite differences to 1e-5 / 1e-4 relative on 100
    random inputs; Hessian rows sum to zero within 1e-12 beta."""
    rng = np.random.default_rng(606)
    min_slack = math.inf
    for _ in range(10_000):
        n = int(rng.integers(1, 33))
        x = rng.uniform(-30.0, 30.0, size=n)
        params = SmoothMaxParams(float(rng.uniform(0.05, 30.0)))
        lower, upper = sandwich_gap(x, params)
        min_slack = min(min_slack, lower, upper)
    sandwich_ok = min_slack >= -1e-12

    grad_worst = hess_worst = rowsum_worst = 0.0
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 9))
        x = rng.uniform(-1.0, 1.0, size=n)
        params = SmoothMaxParams(float(rng.uniform(0.5, 2.0)))
        g = softmax(x, params)
        hess = smooth_max_hessian(x, params)
        fd_g = np.empty(n)
        fd_h = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd_g[j] = (smooth_max(x + e, params) - smooth_max(x - e, params)) / (2.0 * h)
            fd_h[:, j] = (softmax(x + e, params) - softmax(x - e, params)) / (2.0 * h)
        grad_worst = max(grad_worst, np.max(np.abs(fd_g - g)) / np.max(np.abs(g)))
        hess_worst = max(hess_worst, np.max(np.abs(fd_h - hess)) / np.max(np.abs(hess)))
        rowsum_worst = max(rowsum_worst, np.max(np.abs(hess.sum(axis=1))) / params.beta)
    ok = sandwich_ok and grad_worst <= 1e-5 and hess_worst <= 1e-4 and rowsum_worst <= 1e-12
    _verdict(
        "smooth max calculus matches finite differences",
        ok,
        f"min sandwich slack {min_slack:.2e}, gradient rel err {grad_worst:.2e}, "
        f"hessian rel err {hess_worst:.2e}, row-sum residual {rowsum_worst:.2e} beta",
    )


def test_tradeoff_minimized_at_stated_beta():
    """100 random (gamma, n): the tradeoff at 0.9 and 1.1 times the stated
    optimum strictly exceeds the optimum, whose value equals
    sqrt(gamma ln n) within 1e-12."""
    rng = np.random.default_rng(707)
    worst_eq = 0.0
    strict = True
    for _ in range(100):
        gamma = float(rng.uniform(0.001, 25.0))
        n = int(rng.integers(2, 200_000))
        b = optimal_beta(gamma, n)
        at_opt = beta_tradeoff_bound(b, gamma, n)
        strict &= beta_tradeoff_bound(0.9 * b, gamma, n) > at_opt
        strict &= beta_tradeoff_bound(1.1 * b, gamma, n) > at_opt
        worst_eq = max(worst_eq, abs(at_opt - sf_bound(gamma, n)))
    ok = strict and worst_eq <= 1e-12
    _verdict(
        "tradeoff minimized at the stated beta",
        ok,
        f"strict minima at +/-10%: {strict}, worst |T(b*) - bound| = {worst_eq:.2e}",
    )


def test_bivariate_oracle_consistency():
    """The n=2 closed form agrees with brute-force tensor quadrature to
    1e-6, and Monte Carlo estimates agree with it within 3 se on 50 random
    bivariate laws at 1e6 samples."""
    quad_cases = [
        ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]]),
        ([0.0, 0.0], [[1.0, -0.7], [-0.7, 1.0]]),
        ([1.0, -1.0], [[2.0, 0.3], [0.3, 0.5]]),
        ([0.0, 3.0], [[1.0, 0.5], [0.5, 4.0]]),
        ([-2.0, -2.0], [[0.2, 0.1], [0.1, 0.3]]),
    ]
    quad_worst = 0.0
    for mean, cov in quad_cases:
        closed = expected_max_bivariate_exact(validate_spec(mean, cov))
        quad_worst = max(quad_worst, abs(closed - bivariate_expected_max_quad(mean, cov, 400)))

    rng = np.random.default_rng(808)
    mc_worst = 0.0
    for trial in range(50):
        a = rng.standard_normal((2, 2))
        cov = a @ a.T / 2.0
        spec = validate_spec(rng.standard_normal(2), (cov + cov.T) / 2.0)
        exact = expected_max_bivariate_exact(spec)
        est = expected_max_mc(spec, 10**6, seed=7000 + trial)
        mc_worst = max(mc_worst, abs(est.value - exact) / est.stderr)
    ok = quad_worst <= 1e-6 and mc_worst <= 3.0
    _verdict(
        "bivariate closed form validated",
        ok,
        f"worst |closed - quadrature| = {quad_worst:.2e}, worst MC z = {mc_worst:.2f}",
    )


def test_reports_are_deterministic():
    """Rerunning every experiment with an identical config yields a
    byte-identical report body (duration excluded)."""
    configs = [
        ExperimentConfig(experiment="sharpness", n=[4, 8], samples=20_000, seed=11),
        ExperimentConfig(
            experiment="bound-check", n=[2, 4], trials=4, samples=10_000, seed=12
        ),
        ExperimentConfig(
            experiment="path-diagnostics", n=3, trials=2, samples=10_000, seed=13
        ),
        ExperimentConfig(experiment="stein-check", n=4, trials=3, samples=10_000, seed=14),
    ]
    identical = 0
    for config in configs:
        first = _body_text(run_experiment(config))
        second = _body_text(run_experiment(config))
        identical += first == second
    _verdict(
        "reports are deterministic",
        identical == len(configs),
        f"{identical}/{len(configs)} experiments byte-identical on rerun",
    )
