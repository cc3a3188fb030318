"""Spec generators, experiment configs, and the four canonical runners."""

import math

import numpy as np
import pytest

from sudfer import (
    ConfigError,
    ExperimentConfig,
    SmoothMaxParams,
    UnknownGenerator,
    certify,
    derive_seed,
    dominated_pair,
    increment_matrix,
    optimal_beta,
    phi,
    random_spec,
    run_bound_check,
    run_experiment,
    run_path_diagnostics,
    run_sharpness,
    run_stein_check,
    spec_from_document,
    validate_spec,
)
from sudfer.bounds import check_domination, gamma_discrepancy
from sudfer.gaussian import SHARD_ROWS
from sudfer.reports import render_json


def body_text(report):
    clone = type(report)(
        config=report.config,
        records=report.records,
        summary=report.summary,
        version=report.version,
        duration_seconds=0.0,
    )
    return render_json(clone)


class TestRandomSpec:
    def test_diagonal_has_exactly_zero_off_diagonal(self):
        spec = random_spec(5, seed=3, generator="diagonal")
        off = spec.covariance[~np.eye(5, dtype=bool)]
        assert np.all(off == 0.0)
        assert np.all(np.diagonal(spec.covariance) >= 0.1)
        assert np.all(np.diagonal(spec.covariance) <= 2.0)

    def test_wishart_is_validated_psd(self):
        for seed in range(10):
            spec = random_spec(6, seed=seed, generator="wishart")
            assert np.array_equal(spec.covariance, spec.covariance.T)
            assert np.linalg.eigvalsh(spec.covariance)[0] >= -1e-10 * (
                1.0 + np.trace(spec.covariance)
            )

    def test_equicorrelated_spectrum(self):
        # The family (1-rho) I + rho 11^T has eigenvalues 1+(n-1)rho and
        # 1-rho (n-1 of them); hand case rho = 0.5, n = 3 gives {2, .5, .5}.
        hand = validate_spec(np.zeros(3), 0.5 * np.eye(3) + 0.5 * np.ones((3, 3)))
        np.testing.assert_allclose(np.linalg.eigvalsh(hand.covariance), [0.5, 0.5, 2.0], atol=1e-12)
        spec = random_spec(4, seed=11, generator="equicorrelated")
        rho = float(spec.covariance[0, 1])
        assert 0.0 <= rho < 1.0
        expect = np.r_[np.full(3, 1.0 - rho), 1.0 + 3.0 * rho]
        np.testing.assert_allclose(np.linalg.eigvalsh(spec.covariance), np.sort(expect), atol=1e-12)

    def test_zero_mean_and_determinism(self):
        for gen in ("wishart", "equicorrelated", "diagonal"):
            a = random_spec(3, seed=21, generator=gen)
            b = random_spec(3, seed=21, generator=gen)
            assert np.all(a.mean == 0.0)
            assert np.array_equal(a.covariance, b.covariance)

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            random_spec(3, seed=1, generator="toeplitz")


class TestDominatedPair:
    def test_increments_dominated_entrywise(self):
        for seed in range(10):
            x, y = dominated_pair(5, seed=seed, generator="wishart")
            xy, _ = check_domination(increment_matrix(x), increment_matrix(y))
            assert xy
            assert certify(x, y).means_equal


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig(experiment="bound-check")
        assert config.samples == 100_000
        assert config.beta == "auto"
        assert config.format == "json"

    def test_n_normalization(self):
        assert ExperimentConfig(experiment="sharpness", n=[2, 4]).n == (2, 4)
        assert ExperimentConfig(experiment="sharpness", n=8).n == 8
        assert ExperimentConfig(experiment="sharpness", n=8).n_list(default=(1,)) == (8,)

    def test_rejections(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nonsense")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sharpness", generator="magic")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sharpness", format="xml")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sharpness", samples=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sharpness", trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sharpness", seed=-3)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sharpness", n=[4, 0])
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="path-diagnostics", grid=[0.5, 1.0])
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="path-diagnostics", grid=[])
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="bound-check", beta=-1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="bound-check", beta="warm")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="bound-check", generator="explicit")

    def test_explicit_spec_parsing(self):
        doc = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}
        spec = spec_from_document(doc)
        assert spec.n == 2
        with pytest.raises(ConfigError):
            spec_from_document({"mean": [0.0]})

    @pytest.mark.parametrize(
        "experiment, with_y, expected",
        [
            ("bound-check", True, 2),
            ("bound-check", False, 1),
            ("path-diagnostics", True, 2),
            ("stein-check", False, 1),
        ],
    )
    def test_inline_documents_are_parsed_once_per_run(self, monkeypatch, experiment, with_y, expected):
        from sudfer import experiments

        calls = []

        def counting(*args):
            calls.append(args)
            return validate_spec(*args)

        monkeypatch.setattr(experiments, "validate_spec", counting)
        doc_x = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.2], [0.2, 1.0]]}
        doc_y = {"mean": [0.0, 0.0], "covariance": [[2.0, 0.2], [0.2, 2.0]]}
        extra = {"spec_y": doc_y} if with_y else {}
        config = ExperimentConfig(
            experiment=experiment, generator="explicit", trials=5, samples=200, grid=(0.5,), spec_x=doc_x, **extra
        )
        run_experiment(config)
        assert len(calls) == expected


class TestRunBoundCheck:
    def test_identical_explicit_specs(self):
        doc = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.2], [0.2, 1.0]]}
        config = ExperimentConfig(
            experiment="bound-check",
            trials=1,
            samples=20_000,
            seed=5,
            generator="explicit",
            spec_x=doc,
            spec_y=doc,
        )
        report = run_bound_check(config)
        (record,) = report.records
        assert record["gamma"] == 0.0
        assert record["bound"] == 0.0
        assert record["optimal_beta"] is None
        # Bound 0: the verdict leans entirely on the stderr allowance.
        assert abs(record["gap"]) <= 3.0 * record["gap_stderr"]
        assert record["pass"] is True
        assert report.summary["pass"] is True

    def test_scalar_dimension_always_passes(self):
        config = ExperimentConfig(
            experiment="bound-check", n=1, trials=5, samples=5000, seed=6, generator="wishart"
        )
        report = run_bound_check(config)
        for record in report.records:
            assert record["bound"] == 0.0
            assert abs(record["gap"]) <= 3.0 * record["gap_stderr"]
        assert report.summary["fails"] == 0

    def test_random_pairs_satisfy_bound(self):
        config = ExperimentConfig(
            experiment="bound-check",
            n=[2, 4, 8],
            trials=9,
            samples=20_000,
            seed=7,
            generator="wishart",
        )
        report = run_bound_check(config)
        assert report.summary["passes"] == 9
        assert report.summary["fails"] == 0
        assert report.summary["max_violation_z"] <= 3.0
        ns = [record["n"] for record in report.records]
        assert ns == [2, 4, 8, 2, 4, 8, 2, 4, 8]


class TestRunSharpness:
    def test_small_dimensions(self):
        config = ExperimentConfig(
            experiment="sharpness", n=[4, 16], samples=50_000, seed=8
        )
        report = run_sharpness(config)
        assert [r["n"] for r in report.records] == [4, 16]
        for record in report.records:
            assert record["gamma"] == 2.0
            assert record["bound"] == pytest.approx(math.sqrt(2.0 * math.log(record["n"])), abs=0)
            assert record["emax_y"] == 0.0
            assert record["emax_y_stderr"] == 0.0
            assert 0.0 < record["ratio"] < 1.0
        assert report.summary["pass"] is True
        assert report.summary["ratios"][1] > report.summary["ratios"][0]

    def test_rejects_degenerate_dimension(self):
        with pytest.raises(ConfigError):
            run_sharpness(ExperimentConfig(experiment="sharpness", n=1, samples=1000, seed=1))


class TestRunPathDiagnostics:
    def test_record_grid_and_auto_beta(self):
        config = ExperimentConfig(
            experiment="path-diagnostics",
            n=4,
            trials=2,
            samples=10_000,
            seed=9,
            grid=(0.3, 0.7),
        )
        report = run_path_diagnostics(config)
        assert len(report.records) == 4
        # The resolved beta must be the tradeoff optimum of the pair that the
        # trial seed reconstructs.
        for trial in (0, 1):
            x, y = dominated_pair(4, derive_seed(9, trial), "wishart")
            gamma = gamma_discrepancy(increment_matrix(x), increment_matrix(y))
            expect = optimal_beta(gamma, 4)
            for record in report.records:
                if record["trial"] == trial:
                    assert record["beta"] == expect
                    assert record["dominated_xy"] is True
        assert report.summary["pass"] is True

    def test_identical_explicit_specs_have_zero_derivative(self):
        doc = {"mean": [0.0, 0.0], "covariance": [[1.5, 0.4], [0.4, 1.0]]}
        config = ExperimentConfig(
            experiment="path-diagnostics",
            trials=1,
            samples=5000,
            seed=10,
            generator="explicit",
            beta=2.0,
            spec_x=doc,
            spec_y=doc,
        )
        report = run_path_diagnostics(config)
        for record in report.records:
            assert abs(record["explicit"]) <= 3.0 * record["explicit_stderr"] + 1e-12
            assert record["sign_pass"] is True
        assert report.summary["pass"] is True

    def test_endpoint_monotonicity_reported(self):
        config = ExperimentConfig(
            experiment="path-diagnostics", n=3, trials=1, samples=20_000, seed=11
        )
        report = run_path_diagnostics(config)
        (endpoint,) = report.summary["endpoints"]
        assert endpoint["monotone_within_noise"] is True
        assert endpoint["phi1"] >= endpoint["phi0"] - 3.0 * math.hypot(
            endpoint["phi0_stderr"], endpoint["phi1_stderr"]
        )

    def test_endpoints_draw_their_normals_once(self, monkeypatch):
        draws = []
        default_rng = np.random.default_rng

        def counting(seed=None):
            draws.append(getattr(seed, "entropy", seed))
            return default_rng(seed)

        config = ExperimentConfig(
            experiment="path-diagnostics", n=3, trials=1, samples=SHARD_ROWS + 257, seed=14, beta=2.0, grid=(0.5,)
        )
        monkeypatch.setattr(np.random, "default_rng", counting)
        report = run_path_diagnostics(config)
        monkeypatch.undo()
        trial_seed = derive_seed(14, 0)
        endpoint_seed = derive_seed(trial_seed, 3)
        assert draws.count(endpoint_seed) == 2  # one draw per shard for both endpoints
        x, y = dominated_pair(3, trial_seed, "wishart")
        (endpoint,) = report.summary["endpoints"]
        for key, t in (("phi0", 0.0), ("phi1", 1.0)):
            alone = phi(x, y, SmoothMaxParams(2.0), t, config.samples, endpoint_seed)
            assert (endpoint[key], endpoint[f"{key}_stderr"]) == (alone.value, alone.stderr)


class TestRunSteinCheck:
    def test_summary_pass_rate(self):
        config = ExperimentConfig(
            experiment="stein-check", n=[2, 3, 4], trials=6, samples=50_000, seed=12
        )
        report = run_stein_check(config)
        assert report.summary["verdicts"] == 2 + 3 + 4 + 2 + 3 + 4
        assert report.summary["pass_rate"] >= 0.99
        assert report.summary["pass"] is True

    def test_zero_variance_coordinates_are_exact(self):
        doc = {
            "mean": [0.0, 0.0, 0.0],
            "covariance": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
        }
        config = ExperimentConfig(
            experiment="stein-check",
            trials=1,
            samples=5000,
            seed=13,
            generator="explicit",
            beta=1.5,
            spec_x=doc,
        )
        report = run_stein_check(config)
        middle = [r for r in report.records if r["coordinate"] == 1]
        assert middle[0]["residual"] == 0.0
        assert middle[0]["residual_stderr"] == 0.0
        assert middle[0]["pass"] is True


class TestDeterminismAndDispatch:
    def test_reruns_are_byte_identical(self):
        config = ExperimentConfig(
            experiment="bound-check", n=3, trials=2, samples=5000, seed=14
        )
        a = run_bound_check(config)
        b = run_bound_check(config)
        assert body_text(a) == body_text(b)
        other = ExperimentConfig(experiment="bound-check", n=3, trials=2, samples=5000, seed=15)
        assert body_text(run_bound_check(other)) != body_text(a)

    def test_dispatch_matches_direct_calls(self):
        config = ExperimentConfig(experiment="stein-check", n=2, trials=1, samples=2000, seed=16)
        via_dispatch = run_experiment(config)
        direct = run_stein_check(config)
        assert body_text(via_dispatch) == body_text(direct)

    def test_output_settings_do_not_change_the_body(self):
        base = ExperimentConfig(experiment="stein-check", n=2, trials=1, samples=2000, seed=17)
        redirected = ExperimentConfig(
            experiment="stein-check",
            n=2,
            trials=1,
            samples=2000,
            seed=17,
            output_path="/tmp/anywhere.json",
            format="csv",
        )
        assert body_text(run_experiment(base)) == body_text(run_experiment(redirected))
