"""Spec generators, experiment configs, and the four experiments behind run_experiment."""

import dataclasses
import math

import numpy as np
import pytest

from sudfer import (
    ConfigError,
    DimensionMismatch,
    ExperimentConfig,
    SmoothMaxParams,
    UnknownGenerator,
    certify,
    derive_seed,
    dominated_pair,
    optimal_beta,
    phi,
    phi_derivative,
    random_spec,
    run_experiment,
    spec_from_document,
    validate_spec,
)
from sudfer import experiments, gaussian
from sudfer.gaussian import SHARD_ROWS
from sudfer.reports import render_json


def body_text(report):
    return render_json(dataclasses.replace(report, duration_seconds=0.0))


DOC_X = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.2], [0.2, 1.0]]}
DOC_Y = {"mean": [0.0, 0.0], "covariance": [[2.0, 0.2], [0.2, 2.0]]}
# A value off its default for every field a runner may read.
OFF_DEFAULT = {
    "n": 3,
    "samples": 300,
    "seed": 1,
    "beta": 3.0,
    "grid": (0.3,),
    "trials": 2,
    "generator": "diagonal",
    "spec_x": DOC_Y,
    "spec_y": DOC_Y,
}


def table_fields(read):
    """``(experiment, field)`` for each field the experiment's runner reads (or, with ``read=False``, never reads)."""
    for experiment, (_, unread) in experiments._EXPERIMENTS.items():
        for name in OFF_DEFAULT:
            if (name not in unread) == read:
                yield experiment, name


def tiny_config(experiment, field):
    """A config of the experiment that runs in milliseconds; explicit when it reads ``field``, an inline spec."""
    _, unread = experiments._EXPERIMENTS[experiment]
    fields = {"n": 2}
    if field.startswith("spec") and "spec_x" not in unread:
        fields = {"generator": "explicit", "spec_x": DOC_X}
    if "trials" not in unread:
        fields["trials"] = 1
    return ExperimentConfig(experiment=experiment, samples=200, **fields)


def results(config):
    report = run_experiment(config)
    return report.records, report.summary


class TestRandomSpec:
    def test_diagonal_has_exactly_zero_off_diagonal(self):
        # A diagonal law stores its variances, so no off-diagonal entry is kept at all.
        spec = random_spec(5, seed=3, generator="diagonal")
        assert spec.covariance.shape == spec.factor.shape == (5,)
        assert np.all(spec.covariance >= 0.1)
        assert np.all(spec.covariance <= 2.0)

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
            cert = certify(x, y)
            assert cert.dominates_xy
            assert cert.means_equal

    def test_factors_only_the_two_laws(self, monkeypatch):
        # The noise is a covariance, not a law: it is never factored.
        calls = []
        factor = gaussian._factor
        monkeypatch.setattr(gaussian, "_factor", lambda *args: calls.append(1) or factor(*args))
        for generator in ("wishart", "equicorrelated", "diagonal"):
            calls.clear()
            dominated_pair(6, seed=3, generator=generator)
            assert len(calls) == 2


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

    def test_names_must_be_strings(self):
        # An array is refused before any membership test (whose truth value would be ambiguous), and a one-element
        # array is not echoed in the report as an array.
        for field in ("experiment", "generator", "format"):
            for value in (np.array(["sharpness", "x"]), np.array(["json"]), np.array("csv"), ["wishart"], 1, None):
                fields = {"experiment": "sharpness", field: value}
                with pytest.raises(ConfigError, match=f"{field} must be one of"):
                    ExperimentConfig(**fields)

    def test_inline_specs_need_the_explicit_generator(self):
        # Another generator would ignore them, yet the report would echo them next to its own laws.
        doc = {"mean": [5.0, 5.0], "covariance": [[9.0, 0.0], [0.0, 9.0]]}
        for field in ("spec_x", "spec_y"):
            with pytest.raises(ConfigError, match="explicit"):
                ExperimentConfig(experiment="bound-check", n=2, trials=1, samples=100, **{field: doc})
        config = ExperimentConfig(experiment="bound-check", generator="explicit", trials=1, samples=100, spec_x=doc)
        assert config.echo()["spec_x"] == doc

    def test_sharpness_needs_every_n_at_least_two_at_construction(self):
        for n in (1, [4, 1]):
            with pytest.raises(ConfigError, match="sharpness needs every n >= 2"):
                ExperimentConfig(experiment="sharpness", n=n)
        assert ExperimentConfig(experiment="bound-check", n=[4, 1]).n == (4, 1)

    def test_sharpness_refuses_inline_specs(self):
        # Its laws are N(0, I_n) and the zero law: an inline spec_x would be echoed in the report yet never read.
        doc = {"mean": [5.0, 5.0], "covariance": [[9.0, 0.0], [0.0, 9.0]]}
        with pytest.raises(ConfigError, match="sharpness"):
            ExperimentConfig(experiment="sharpness", generator="explicit", spec_x=doc)

    def test_stein_check_refuses_a_second_law(self):
        # Stein-check reads spec_x alone, so a spec_y, even of the wrong dimension, would be echoed but ignored.
        doc_x = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}
        doc_y = {"mean": [0.0], "covariance": [[1.0]]}
        with pytest.raises(ConfigError, match="spec_y"):
            ExperimentConfig(experiment="stein-check", generator="explicit", spec_x=doc_x, spec_y=doc_y)
        assert ExperimentConfig(experiment="bound-check", generator="explicit", spec_x=doc_x, spec_y=doc_x).spec_y

    @pytest.mark.parametrize("experiment, field", list(table_fields(read=False)))
    def test_a_field_the_experiment_never_reads_keeps_its_default(self, experiment, field):
        # Set off its default, the field would be echoed in the report yet change nothing the run computes.
        explicit = {"generator": "explicit", "spec_x": DOC_X} if field.startswith("spec") else {}
        with pytest.raises(ConfigError, match=f"{experiment} never reads .*{field}"):
            ExperimentConfig(experiment=experiment, **{**explicit, field: OFF_DEFAULT[field]})
        default = ExperimentConfig.__dataclass_fields__[field].default
        assert getattr(ExperimentConfig(experiment=experiment, **{field: default}), field) == default
        # And the runner does ignore it: forced past the check, it leaves the results as they were.
        config = tiny_config(experiment, field)
        before = results(config)
        object.__setattr__(config, field, OFF_DEFAULT[field])
        assert results(config) == before

    @pytest.mark.parametrize("experiment, field", list(table_fields(read=True)))
    def test_a_field_the_experiment_reads_changes_its_results(self, experiment, field):
        # The other direction: a field the table lets through moves the records or the summary, not just the echo.
        config = tiny_config(experiment, field)
        assert results(dataclasses.replace(config, **{field: OFF_DEFAULT[field]})) != results(config)

    @pytest.mark.parametrize("field", ["spec_x", "spec_y"])
    def test_an_inline_spec_is_an_object(self, field):
        # An array is refused when the config is built, not compared with None or indexed by key at run time.
        with pytest.raises(ConfigError, match=f"{field} must be an object or null"):
            ExperimentConfig(experiment="stein-check", generator="explicit", **{"spec_x": DOC_X, field: np.zeros(2)})

    @pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
    def test_empty_dimension_list_is_rejected(self, experiment):
        with pytest.raises(ConfigError, match="n must hold at least one dimension"):
            ExperimentConfig(experiment=experiment, n=[])

    def test_explicit_spec_parsing(self):
        doc = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}
        spec = spec_from_document(doc)
        assert spec.n == 2
        with pytest.raises(ConfigError):
            spec_from_document({"mean": [0.0]})

    def test_explicit_spec_needs_covariance_rows(self):
        # A law may store its variances 1-d, but a document gives its covariance as rows.
        for cov in ([1.0, 1.0], [], 1.0):
            with pytest.raises(DimensionMismatch):
                spec_from_document({"mean": [0.0, 0.0], "covariance": cov})

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
        if experiment == "path-diagnostics":
            extra["grid"] = (0.5,)
        config = ExperimentConfig(
            experiment=experiment, generator="explicit", trials=5, samples=200, spec_x=doc_x, **extra
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
        report = run_experiment(config)
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
        report = run_experiment(config)
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
        report = run_experiment(config)
        assert report.summary["passes"] == 9
        assert report.summary["fails"] == 0
        assert report.summary["max_violation_z"] <= 3.0
        ns = [record["n"] for record in report.records]
        assert ns == [2, 4, 8, 2, 4, 8, 2, 4, 8]

    def test_unequal_means_skip_every_trial(self):
        config = ExperimentConfig(
            experiment="bound-check",
            trials=3,
            samples=2000,
            seed=18,
            generator="explicit",
            spec_x={"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
            spec_y={"mean": [1.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        )
        report = run_experiment(config)
        assert [record["pass"] for record in report.records] == [None, None, None]
        assert report.summary == {
            "trials": 3,
            "passes": 0,
            "fails": 0,
            "skipped_unequal_means": 3,
            "max_violation_z": 0.0,
            "pass": True,
        }

    def test_a_gap_past_the_bound_fails_the_run(self, monkeypatch):
        # Trial 1's gap is pushed far past its bound: one fail, and the
        # largest violation z is that record's.
        calls = []
        real = experiments.empirical_gap

        def inflated(*args):
            est_x, est_y, gap = real(*args)
            calls.append(1)
            return est_x, est_y, dataclasses.replace(gap, value=gap.value + 50.0 * (len(calls) == 2))

        monkeypatch.setattr(experiments, "empirical_gap", inflated)
        config = ExperimentConfig(experiment="bound-check", n=3, trials=3, samples=2000, seed=19)
        report = run_experiment(config)
        assert [record["pass"] for record in report.records] == [True, False, True]
        assert report.summary["passes"] == 2
        assert report.summary["fails"] == 1
        assert report.summary["max_violation_z"] == report.records[1]["z_score"] > 3.0
        assert report.summary["pass"] is False


class TestRunSharpness:
    def test_small_dimensions(self):
        config = ExperimentConfig(
            experiment="sharpness", n=[4, 16], samples=50_000, seed=8
        )
        report = run_experiment(config)
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
            run_experiment(ExperimentConfig(experiment="sharpness", n=1, samples=1000, seed=1))

    def test_reaches_a_million_coordinates_in_linear_memory(self, traced_peak):
        # The two laws store their variances (24 MiB each at 2^20) and the certificate is one scalar.
        config = ExperimentConfig(experiment="sharpness", n=[16, 256, 4096, 2**20], samples=10**5, seed=3)
        report, peak = traced_peak(lambda: run_experiment(config))
        assert [r["gamma"] for r in report.records] == [2.0] * 4
        assert report.summary["pass"] is True
        assert peak < 100e6

    def test_a_gap_past_the_bound_fails_the_run(self, monkeypatch):
        real = experiments.empirical_gap

        def inflated(*args):
            est_x, est_y, gap = real(*args)
            return est_x, est_y, dataclasses.replace(gap, value=gap.value + 50.0)

        monkeypatch.setattr(experiments, "empirical_gap", inflated)
        report = run_experiment(ExperimentConfig(experiment="sharpness", n=[4, 16], samples=2000, seed=8))
        assert [record["pass"] for record in report.records] == [False, False]
        assert report.summary["ratios"] == [record["ratio"] for record in report.records]
        assert report.summary["pass"] is False


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
        report = run_experiment(config)
        assert len(report.records) == 4
        # The resolved beta must be the tradeoff optimum of the pair that the
        # trial seed reconstructs.
        for trial in (0, 1):
            x, y = dominated_pair(4, derive_seed(9, trial), "wishart")
            expect = optimal_beta(certify(x, y).gamma, 4)
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
        report = run_experiment(config)
        for record in report.records:
            assert abs(record["explicit"]) <= 3.0 * record["explicit_stderr"] + 1e-12
            assert record["sign_pass"] is True
        assert report.summary["pass"] is True

    def test_records_are_phi_derivative_and_certify_on_the_trial_pair(self):
        # A dominated n=5 pair: every record is phi_derivative on substream k of
        # the trial's grid seed, its gamma/domination/beta are the certificate's,
        # and no grid point fails the sign or consistency check.
        config = ExperimentConfig(
            experiment="path-diagnostics", n=5, trials=2, samples=20_000, seed=15, grid=(0.25, 0.5, 0.75)
        )
        report = run_experiment(config)
        assert len(report.records) == 6
        for record in report.records:
            trial_seed = derive_seed(15, record["trial"])
            x, y = dominated_pair(5, trial_seed, "wishart")
            cert = certify(x, y)
            point_seed = derive_seed(derive_seed(trial_seed, 2), config.grid.index(record["t"]))
            point = phi_derivative(x, y, SmoothMaxParams(cert.optimal_beta), record["t"], 20_000, point_seed)
            assert (record["gamma"], record["dominated_xy"], record["beta"]) == (
                cert.gamma, cert.dominates_xy, cert.optimal_beta
            )
            explicit, fd = point.explicit, point.finite_difference
            assert (record["explicit"], record["explicit_stderr"]) == (explicit.value, explicit.stderr)
            assert (record["finite_difference"], record["finite_difference_stderr"]) == (fd.value, fd.stderr)
            assert record["dominated_xy"] and record["sign_pass"] and record["consistency_pass"]
        assert report.summary["pass"] is True

    def test_reversed_dominated_pair_fails_the_sign_check(self):
        # Swapping a strictly dominated pair makes the derivative strictly
        # negative along the path; without domination the run still passes.
        x, y = dominated_pair(5, seed=911, generator="wishart")
        docs = [{"mean": s.mean.tolist(), "covariance": s.covariance.tolist()} for s in (y, x)]
        config = ExperimentConfig(
            experiment="path-diagnostics",
            trials=1,
            samples=50_000,
            seed=913,
            generator="explicit",
            beta=2.0,
            grid=(0.25, 0.5, 0.75),
            spec_x=docs[0],
            spec_y=docs[1],
        )
        report = run_experiment(config)
        assert not any(record["dominated_xy"] for record in report.records)
        assert not all(record["sign_pass"] for record in report.records)
        for record in report.records:
            assert record["explicit"] <= 3.0 * record["explicit_stderr"]
        assert report.summary["pass"] is True

    def test_endpoint_monotonicity_reported(self):
        config = ExperimentConfig(
            experiment="path-diagnostics", n=3, trials=1, samples=20_000, seed=11
        )
        report = run_experiment(config)
        (endpoint,) = report.summary["endpoints"]
        assert endpoint["monotone_within_noise"] is True
        assert endpoint["phi1"] >= endpoint["phi0"] - 3.0 * math.hypot(
            endpoint["phi0_stderr"], endpoint["phi1_stderr"]
        )

    def test_an_inconsistent_derivative_fails_the_run(self, monkeypatch):
        real = experiments.phi_derivative

        def shifted(*args):
            point = real(*args)
            explicit = dataclasses.replace(point.explicit, value=point.explicit.value + 100.0)
            return dataclasses.replace(point, explicit=explicit)

        monkeypatch.setattr(experiments, "phi_derivative", shifted)
        config = ExperimentConfig(experiment="path-diagnostics", n=3, trials=1, samples=2000, seed=20, grid=(0.5,))
        report = run_experiment(config)
        (record,) = report.records
        assert record["consistency_pass"] is False
        assert record["sign_pass"] is True
        assert report.summary["pass"] is False

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
        report = run_experiment(config)
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
        report = run_experiment(config)
        assert report.summary["verdicts"] == 2 + 3 + 4 + 2 + 3 + 4
        assert report.summary["pass_rate"] >= 0.99
        assert report.summary["pass"] is True

    def test_a_failing_residual_fails_the_run(self, monkeypatch):
        real = experiments.stein_residuals

        def shifted(*args):
            first, *rest = real(*args)
            return [dataclasses.replace(first, value=first.value + 50.0), *rest]

        monkeypatch.setattr(experiments, "stein_residuals", shifted)
        report = run_experiment(ExperimentConfig(experiment="stein-check", n=2, trials=3, samples=2000, seed=21))
        assert [record["pass"] for record in report.records] == [False, True] * 3
        assert report.summary["verdicts"] == 6
        assert report.summary["passes"] == 3
        assert report.summary["pass_rate"] == 0.5
        assert report.summary["pass"] is False

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
        report = run_experiment(config)
        middle = [r for r in report.records if r["coordinate"] == 1]
        assert middle[0]["residual"] == 0.0
        assert middle[0]["residual_stderr"] == 0.0
        assert middle[0]["pass"] is True


class TestDeterminismAndDispatch:
    def test_reruns_are_byte_identical(self):
        config = ExperimentConfig(
            experiment="bound-check", n=3, trials=2, samples=5000, seed=14
        )
        a = run_experiment(config)
        b = run_experiment(config)
        assert body_text(a) == body_text(b)
        other = ExperimentConfig(experiment="bound-check", n=3, trials=2, samples=5000, seed=15)
        assert body_text(run_experiment(other)) != body_text(a)

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
