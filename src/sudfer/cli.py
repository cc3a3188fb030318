"""Command-line entry point: ``sudfer <experiment> [flags]``.

Runs one experiment, writes the report as JSON or CSV (stdout by default),
and exits 0 when the summary verdict passes, 2 when it fails, 1 on any
configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from .errors import SudferError
from .experiments import EXPERIMENTS, FORMATS, GENERATORS, ExperimentConfig, run_experiment
from .reports import write_report


def _comma_list(cast: type, unwrap_one: bool = False) -> Callable[[str], Any]:
    """An argparse type: a comma list of ``cast`` values (one value alone with ``unwrap_one``); no item is empty."""

    def parse(text: str) -> Any:
        try:
            values = [cast(item) for item in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {cast.__name__}s, got {text!r}") from exc
        return values[0] if unwrap_one and len(values) == 1 else values

    return parse


def _parse_beta(text: str) -> float | str:
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f'beta must be "auto" or a float, got {text!r}') from exc


class _Parser(argparse.ArgumentParser):
    """Exit 1 on usage errors; code 2 is reserved for failed verdicts."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sudfer",
        description="Seeded comparison experiments for Gaussian maxima.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="which experiment to run")
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="JSON config document; command-line flags override its fields",
    )
    parser.add_argument(
        "--n",
        type=_comma_list(int, unwrap_one=True),
        metavar="N[,N...]",
        help="dimension, or a comma-separated list cycled across trials",
    )
    parser.add_argument("--samples", type=int, metavar="COUNT", help="Monte Carlo samples per estimate")
    parser.add_argument("--seed", type=int, metavar="SEED", help="root seed (64-bit unsigned)")
    parser.add_argument(
        "--beta",
        type=_parse_beta,
        metavar="BETA",
        help='inverse temperature, or "auto" for the tradeoff-optimal value',
    )
    parser.add_argument(
        "--grid",
        type=_comma_list(float),
        metavar="T[,T...]",
        help="interior interpolation points for path-diagnostics",
    )
    parser.add_argument("--trials", type=int, metavar="COUNT", help="number of independent trials")
    parser.add_argument(
        "--generator",
        choices=GENERATORS,
        help="random covariance family (explicit reads spec_x/spec_y from --config)",
    )
    parser.add_argument("--output", dest="output_path", metavar="PATH", help="report destination ('-' for stdout)")
    parser.add_argument("--format", choices=FORMATS, help="report format")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                loaded = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise SudferError(f"config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise SudferError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        doc.update(loaded)
    # Every flag's destination is the config field it sets.
    doc.update((key, value) for key, value in vars(args).items() if key != "config" and value is not None)
    unknown = set(doc) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise SudferError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**doc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run_experiment(config)
        write_report(report, config.output_path, config.format)
    except (SudferError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if report.passed() else 2


if __name__ == "__main__":
    sys.exit(main())
