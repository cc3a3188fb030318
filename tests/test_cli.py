"""Command-line behavior: flag parsing, config overrides, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sudfer import ExperimentReport
from sudfer.cli import build_parser, config_from_args, main


def parse(argv):
    return build_parser().parse_args(argv)


class TestParsing:
    def test_comma_separated_dimensions(self):
        args = parse(["bound-check", "--n", "2,4,8"])
        assert args.n == [2, 4, 8]
        assert parse(["bound-check", "--n", "16"]).n == 16

    def test_grid_and_beta(self):
        args = parse(["path-diagnostics", "--grid", "0.2,0.8", "--beta", "auto"])
        assert args.grid == [0.2, 0.8]
        assert args.beta == "auto"
        assert parse(["path-diagnostics", "--beta", "2.5"]).beta == 2.5

    @pytest.mark.parametrize("flag, text", [("--n", "16,,256"), ("--n", "16,"), ("--n", ","), ("--grid", "0.5,")])
    def test_an_empty_list_item_exits_one(self, capsys, flag, text):
        # An empty item is an error, not a separator to skip.
        with pytest.raises(SystemExit) as exc:
            parse(["path-diagnostics", flag, text])
        assert exc.value.code == 1
        assert "expected comma-separated" in capsys.readouterr().err

    def test_usage_errors_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(["bogus"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            parse(["bound-check", "--generator", "magic"])
        assert exc.value.code == 1
        capsys.readouterr()


class TestConfigAssembly:
    def test_flags_override_document(self, tmp_path):
        doc = {"n": 4, "samples": 5000, "seed": 1, "trials": 3, "output_path": "a.json", "format": "csv"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        args = parse(["bound-check", "--config", str(path), "--seed", "9", "--output", "b.csv"])
        config, output_path, format = config_from_args(args)
        assert config.experiment == "bound-check"
        assert config.n == 4
        assert config.seed == 9
        assert config.trials == 3
        assert (output_path, format) == ("b.csv", "csv")

    def test_unknown_config_fields_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"samples": 5000, "bogus": 1}))
        assert main(["bound-check", "--config", str(path)]) == 1

    def test_malformed_config_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["bound-check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config.json" in err

    def test_deeply_nested_config_is_a_clean_error(self, tmp_path, capsys):
        # Nesting past the recursion limit makes json.load raise RecursionError.
        path = tmp_path / "deep.json"
        path.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["bound-check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "deep.json" in err
        assert "Traceback" not in err

    def test_non_utf8_config_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"n": 4, "samples": 2000\xff}')
        assert main(["bound-check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.json" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.7),
            ("n", [2, 3.5]),
            ("samples", 1000.0),
            ("trials", 1.9),
            ("seed", True),
            ("beta", True),
            ("beta", "2.5"),
            ("beta", 10**400),
            ("grid", ["0.5", True]),
            ("grid", "0.5"),
            ("grid", 0.5),
            ("grid", [0.5, None]),
            ("grid", [0.5, 10**400]),
            ("n", []),
        ],
    )
    def test_malformed_numbers_are_config_errors(self, tmp_path, capsys, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"samples": 2000, "trials": 1, field: value}))
        assert main(["bound-check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"mean": "abc", "covariance": [[1.0]]},
            {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0]]},
            {"mean": [True], "covariance": [[1.0]]},
            {"mean": ["1"], "covariance": [[1.0]]},
            {"mean": [0.0], "covariance": [["1"]]},
            {"mean": [None], "covariance": [[1.0]]},
            {"mean": [0.0], "covariance": [[False]]},
        ],
    )
    def test_malformed_inline_specs_are_clean_errors(self, tmp_path, capsys, spec):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"generator": "explicit", "samples": 2000, "trials": 1, "spec_x": spec}))
        assert main(["bound-check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_explicit_specs_come_from_the_document(self, tmp_path):
        doc = {
            "generator": "explicit",
            "samples": 2000,
            "trials": 1,
            "spec_x": {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config, _, _ = config_from_args(parse(["stein-check", "--config", str(path)]))
        assert config.generator == "explicit"
        assert config.spec_x["mean"] == [0.0, 0.0]


class TestExitCodes:
    def test_pass_run_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "stein-check",
                "--n",
                "2",
                "--trials",
                "1",
                "--samples",
                "2000",
                "--seed",
                "5",
                "--beta",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc.keys()) == {"config", "records", "summary", "version", "duration_seconds"}
        assert doc["summary"]["pass"] is True

    def test_sharpness_at_a_million_coordinates_exits_zero(self, tmp_path):
        out = tmp_path / "sharpness.json"
        assert main(["sharpness", "--n", "1048576", "--samples", "100000", "--output", str(out)]) == 0
        (record,) = json.loads(out.read_text())["records"]
        assert (record["n"], record["gamma"]) == (2**20, 2.0)

    def test_non_centered_stein_check_exits_zero(self, tmp_path):
        doc = {
            "generator": "explicit",
            "samples": 20_000,
            "trials": 1,
            "seed": 6,
            "spec_x": {
                "mean": [1.5, -2.0, 0.25],
                "covariance": [[1.0, 0.3, 0.0], [0.3, 2.0, 0.5], [0.0, 0.5, 1.5]],
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["stein-check", "--config", str(path), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [r["pass"] for r in report["records"]] == [True, True, True]

    def test_failing_summary_exits_two(self, monkeypatch, capsys):
        def fake_run(config):
            return ExperimentReport(
                config=config.echo(),
                records=[],
                summary={"pass": False},
                version="0.1.0",
                duration_seconds=0.0,
            )

        monkeypatch.setattr("sudfer.cli.run_experiment", fake_run)
        assert main(["bound-check", "--samples", "100"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["sharpness", "--n", "4,1"], {}, "sharpness needs every n >= 2"),
            (
                ["sharpness", "--generator", "explicit"],
                {"spec_x": {"mean": [0.0], "covariance": [[1.0]]}},
                "sharpness never reads generator",
            ),
            (
                ["stein-check", "--generator", "explicit"],
                {"spec_x": {"mean": [0.0], "covariance": [[1.0]]}, "spec_y": {"mean": [0.0], "covariance": [[2.0]]}},
                "spec_y",
            ),
            (["bound-check", "--beta", "2"], {}, "bound-check never reads beta"),
            (["stein-check", "--grid", "0.5"], {}, "stein-check never reads grid"),
            (["sharpness", "--trials", "3"], {}, "sharpness never reads trials"),
            (
                ["bound-check", "--generator", "explicit", "--n", "2"],
                {"spec_x": {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}},
                "no n",
            ),
        ],
    )
    def test_a_config_the_experiment_refuses_exits_one(self, tmp_path, capsys, argv, doc, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"samples": 2000, **doc}))
        assert main([*argv, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_errors_exit_one(self, capsys):
        assert main(["bound-check", "--seed", "-4"]) == 1
        assert main(["bound-check", "--config", "/does/not/exist.json"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_infeasible_sample_count_is_a_clean_error(self, capsys):
        # numpy refuses the 711 PiB result at once, so nothing is allocated.
        assert main(["sharpness", "--n", "4", "--samples", "100000000000000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "allocate" in err

    @pytest.mark.parametrize(
        "experiment, specs, message",
        [
            (
                "bound-check",
                {"spec_x": {"mean": [0.0, 0.0], "covariance": [[1e308, 0.0], [0.0, 1e308]]}},
                "increment entries must be finite: the law's scale overflows float64",
            ),
            (
                "bound-check",
                {
                    "spec_x": {"mean": [1e308], "covariance": [[1.0]]},
                    "spec_y": {"mean": [-1e308], "covariance": [[1.0]]},
                },
                "the gap 1e+308 - -1e+308 of the expected maxima overflows float64",
            ),
            (
                # A smooth max near 1e200 times a centered coordinate: its squared residuals pass the float range.
                "stein-check",
                {"spec_x": {"mean": [1e200, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}},
                "stein residuals must be finite: the functional, its gradient or the law overflows float64",
            ),
        ],
        ids=["huge-covariance", "huge-means", "stein-huge-mean"],
    )
    def test_overflowing_law_prints_only_its_error_line(self, tmp_path, experiment, specs, message):
        # Run as a process with warnings shown: no numpy RuntimeWarning may
        # precede the error line.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"samples": 2000, "trials": 1, **specs}))
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default")
        argv = [sys.executable, "-m", "sudfer.cli", experiment, "--generator", "explicit", "--config", str(path)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("value", [True, 1, 2])
    def test_output_path_must_be_a_string_or_null(self, tmp_path, value):
        # Any other value would reach open() as a file descriptor: true and 1 are stdout, 2 is stderr.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 4, "samples": 2000, "output_path": value}))
        src = Path(__file__).resolve().parents[1] / "src"
        argv = [sys.executable, "-m", "sudfer.cli", "sharpness", "--config", str(path)]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: output_path must be a string or null, got {value!r}\n"

    @pytest.mark.parametrize("value", ["xml", "JSON", None, ["json"], 1])
    def test_a_bad_format_in_the_config_file_exits_one_before_the_run(self, tmp_path, monkeypatch, capsys, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 4, "samples": 2000, "format": value}))
        monkeypatch.setattr("sudfer.cli.run_experiment", lambda config: pytest.fail("the run started"))
        assert main(["sharpness", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: format must be one of ('json', 'csv'), got {value!r}\n"

    def test_the_config_file_sets_the_output_path_and_format(self, tmp_path):
        out = tmp_path / "report.csv"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 2, "samples": 2000, "output_path": str(out), "format": "csv"}))
        assert main(["sharpness", "--config", str(path)]) == 0
        assert out.read_text().startswith("n,gamma,bound,")

    def test_csv_output(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "bound-check",
                "--n",
                "2",
                "--trials",
                "2",
                "--samples",
                "2000",
                "--seed",
                "6",
                "--format",
                "csv",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert all(line.count(",") == lines[0].count(",") for line in lines)

    def test_reruns_write_identical_bodies(self, tmp_path):
        argv = ["stein-check", "--n", "3", "--trials", "2", "--samples", "3000", "--seed", "8"]
        paths = []
        for k in range(2):
            out = tmp_path / f"run{k}.json"
            assert main(argv + ["--output", str(out)]) == 0
            paths.append(out)
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            doc.pop("duration_seconds")
        assert docs[0] == docs[1]
