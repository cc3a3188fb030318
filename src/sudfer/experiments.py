"""Seeded experiment runners: spec generators, the four canonical runs,
and their report builders.

Every run is a pure function of its config: per-trial seeds are derived
from (config.seed, trial index), so reruns reproduce the report body byte
for byte.  Verdicts are 3-sigma Monte Carlo checks recomputable from the
stored numbers alone; multi-test summaries pass at a 99% bar to absorb the
expected false-positive rate.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import __version__
from .bounds import certify, gamma_discrepancy, optimal_beta
from .errors import ConfigError, SudferError, UnknownGenerator
from .estimator import empirical_gap, estimate_from_values
from .gaussian import (
    GaussianSpec, blended_spec, check_seed, common_draw_values, derive_seed, increment_matrix, validate_spec
)
from .interpolation import DEFAULT_GRID, path_monotonicity_report, stein_residuals
from .reports import ExperimentReport
from .smoothmax import SmoothMaxParams, smooth_max

EXPERIMENTS = ("sharpness", "bound-check", "path-diagnostics", "stein-check")
GENERATORS = ("wishart", "equicorrelated", "diagonal", "explicit")
FORMATS = ("json", "csv")

# Inverse temperature used when beta="auto" has no discrepancy to optimize
# against (single-law experiments, identical pairs).
FALLBACK_BETA = 2.0


def random_spec(n: int, seed: int, generator: str) -> GaussianSpec:
    """A zero-mean n-dimensional law from one of the named random families.

    wishart:        A A^T / n for A an n x n matrix of iid standard normals
    equicorrelated: (1-rho) I + rho 11^T with rho ~ U[0, 1)
    diagonal:       diag of iid U[0.1, 2]
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=check_seed(seed)))
    if generator == "wishart":
        a = rng.standard_normal((n, n))
        cov = a @ a.T / n
        cov = (cov + cov.T) / 2.0  # gemm output is not exactly symmetric
    elif generator == "equicorrelated":
        rho = float(rng.uniform(0.0, 1.0))
        cov = (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))
    elif generator == "diagonal":
        cov = np.diag(rng.uniform(0.1, 2.0, size=n))
    else:
        raise UnknownGenerator(
            f"unknown generator {generator!r} (explicit specs are resolved from the config)"
        )
    return validate_spec(np.zeros(n), cov)


def iid_standard_spec(n: int) -> GaussianSpec:
    """N(0, I_n): independent standard normal coordinates."""
    return validate_spec(np.zeros(n), np.eye(n))


def zero_spec(n: int) -> GaussianSpec:
    """The law of the all-zero vector (degenerate, covariance 0)."""
    return validate_spec(np.zeros(n), np.zeros((n, n)))


def spec_from_document(doc: dict) -> GaussianSpec:
    """Parse {"mean": [...], "covariance": [[...], ...]} into a validated spec."""
    try:
        mean = doc["mean"]
        cov = doc["covariance"]
    except (TypeError, KeyError) as exc:
        raise ConfigError('explicit specs need "mean" and "covariance" keys') from exc
    return validate_spec(mean, cov)


def dominated_pair(n: int, seed: int, generator: str) -> tuple[GaussianSpec, GaussianSpec]:
    """A pair (X, Y) with Y = X plus independent centered noise.

    Adding an independent perturbation adds its increments, so the
    increment matrix of Y dominates that of X entrywise by construction.
    """
    spec_x = random_spec(n, derive_seed(seed, 0), generator)
    noise = random_spec(n, derive_seed(seed, 1), generator)
    spec_y = validate_spec(spec_x.mean, spec_x.covariance + noise.covariance)
    return spec_x, spec_y


def _integer(name: str, value: Any) -> int:
    """``value`` as a plain int; floats and bools are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_finite_real(value: Any) -> bool:
    """True for ints and floats within the float range; bools, strings and None
    are not coerced, and nan, inf and larger ints cannot become finite floats."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    ``n`` may be a single dimension or a list; multi-trial experiments cycle
    through the list trial by trial.  ``beta`` is either a positive float or
    "auto" (resolved per trial via the optimal tradeoff beta when the pair
    has a positive discrepancy).  ``spec_x``/``spec_y`` hold inline
    mean/covariance documents for the "explicit" generator.
    """

    experiment: str
    n: int | tuple[int, ...] | None = None
    samples: int = 100_000
    seed: int = 0
    beta: float | str = "auto"
    grid: tuple[float, ...] = DEFAULT_GRID
    trials: int = 10
    generator: str = "wishart"
    output_path: str | None = None
    format: str = "json"
    spec_x: dict | None = None
    spec_y: dict | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.generator not in GENERATORS:
            raise ConfigError(f"generator must be one of {GENERATORS}, got {self.generator!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        for name in ("samples", "trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.samples < 2:
            raise ConfigError(f"samples must be >= 2, got {self.samples}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        try:
            check_seed(self.seed)
        except SudferError as exc:
            raise ConfigError(str(exc)) from exc
        if isinstance(self.n, (list, tuple)):
            object.__setattr__(self, "n", tuple(_integer("n", v) for v in self.n))
        elif self.n is not None:
            object.__setattr__(self, "n", _integer("n", self.n))
        for v in self.n_list(default=(1,)):
            if v < 1:
                raise ConfigError(f"n values must be >= 1, got {v}")
        if not isinstance(self.grid, (list, tuple, np.ndarray)) or not all(map(_is_finite_real, self.grid)):
            raise ConfigError(f"grid must be a list of finite real numbers, got {self.grid!r}")
        grid = tuple(float(t) for t in self.grid)
        if self.experiment == "path-diagnostics":
            if not grid:
                raise ConfigError("path-diagnostics needs a nonempty grid")
            if not all(0.0 < t < 1.0 for t in grid):
                raise ConfigError(f"grid points must lie strictly inside (0, 1), got {grid}")
        object.__setattr__(self, "grid", grid)
        if self.beta != "auto":
            if not (_is_finite_real(self.beta) and self.beta > 0.0):
                raise ConfigError(f'beta must be "auto" or a positive float, got {self.beta!r}')
            object.__setattr__(self, "beta", float(self.beta))
        if self.generator == "explicit" and self.spec_x is None:
            raise ConfigError('generator "explicit" needs an inline "spec_x" document')

    def n_list(self, default: tuple[int, ...]) -> tuple[int, ...]:
        if self.n is None:
            return default
        if isinstance(self.n, tuple):
            return self.n
        return (self.n,)

    def echo(self) -> dict[str, Any]:
        """Config as echoed in reports: the semantic fields only (where the
        report is written, and in which format, cannot change its body)."""
        doc: dict[str, Any] = {
            "experiment": self.experiment,
            "n": list(self.n) if isinstance(self.n, tuple) else self.n,
            "samples": self.samples,
            "seed": self.seed,
            "beta": self.beta,
            "grid": list(self.grid),
            "trials": self.trials,
            "generator": self.generator,
        }
        if self.spec_x is not None:
            doc["spec_x"] = self.spec_x
        if self.spec_y is not None:
            doc["spec_y"] = self.spec_y
        return doc


def _resolve_beta(config: ExperimentConfig, gamma: float, n: int) -> float:
    if config.beta != "auto":
        return float(config.beta)
    if gamma > 0.0 and n >= 2:
        return optimal_beta(gamma, n)
    return FALLBACK_BETA


def _finite_or_none(x: float) -> float | None:
    return None if math.isinf(x) else float(x)


def _z_score(excess: float, stderr: float) -> float:
    # Degenerate stderr can only occur with a.s. constant maxima, where the
    # bound holds exactly; keep the field finite for the report schema.
    if stderr > 0.0:
        return excess / stderr
    return 0.0 if excess <= 0.0 else 1e300


def _law_picker(config: ExperimentConfig) -> Callable[[int, int, int], GaussianSpec]:
    """``pick(n, trial_seed, which)``: law ``which`` (0: X, 1: Y) of a trial.  Inline
    documents are parsed once per run, on first use; an explicit Y falls back to X."""
    if config.generator != "explicit":
        return lambda n, trial_seed, which: random_spec(n, derive_seed(trial_seed, which), config.generator)

    @functools.cache
    def parse(use_y: bool) -> GaussianSpec:
        return spec_from_document(config.spec_y if use_y else config.spec_x)

    return lambda n, trial_seed, which: parse(which == 1 and config.spec_y is not None)


def _report(
    config: ExperimentConfig, records: list[dict[str, Any]], summary: dict[str, Any], started: float
) -> ExperimentReport:
    return ExperimentReport(
        config=config.echo(),
        records=records,
        summary=summary,
        version=__version__,
        duration_seconds=time.perf_counter() - started,
    )


def run_bound_check(config: ExperimentConfig) -> ExperimentReport:
    """Certificate + empirical gap for random pairs; the gap must stay
    below the certified bound plus 3 standard errors on every trial."""
    started = time.perf_counter()
    ns = config.n_list(default=(8,))
    pick = _law_picker(config)
    records = []
    max_z = 0.0
    passes = fails = skipped = 0
    for trial in range(config.trials):
        n = ns[trial % len(ns)]
        trial_seed = derive_seed(config.seed, trial)
        spec_x, spec_y = (pick(n, trial_seed, which) for which in (0, 1))
        cert = certify(spec_x, spec_y)
        est_x, est_y, gap = empirical_gap(spec_x, spec_y, config.samples, derive_seed(trial_seed, 2))
        abs_gap = abs(gap.value)
        z = _z_score(abs_gap - cert.bound, gap.stderr)
        if cert.means_equal:
            ok = abs_gap <= cert.bound + 3.0 * gap.stderr
            passes += ok
            fails += not ok
            max_z = max(max_z, z)
            verdict: bool | None = bool(ok)
        else:
            # The two-sided bound is only claimed for equal means.
            skipped += 1
            verdict = None
        records.append(
            {
                "trial": trial,
                "n": cert.n,
                "gamma": cert.gamma,
                "bound": cert.bound,
                "optimal_beta": _finite_or_none(cert.optimal_beta),
                "dominates_xy": cert.dominates_xy,
                "dominates_yx": cert.dominates_yx,
                "means_equal": cert.means_equal,
                "emax_x": est_x.value,
                "emax_x_stderr": est_x.stderr,
                "emax_y": est_y.value,
                "emax_y_stderr": est_y.stderr,
                "gap": gap.value,
                "abs_gap": abs_gap,
                "gap_stderr": gap.stderr,
                "z_score": z,
                "pass": verdict,
            }
        )
    summary = {
        "trials": config.trials,
        "passes": passes,
        "fails": fails,
        "skipped_unequal_means": skipped,
        "max_violation_z": max_z,
        "pass": fails == 0,
    }
    return _report(config, records, summary, started)


def run_sharpness(config: ExperimentConfig) -> ExperimentReport:
    """Gap-to-bound ratio for N(0, I_n) against the zero law.

    The increment discrepancy of that pair is exactly 2, so the certified
    bound is sqrt(2 ln n); the measured ratio climbs toward 1 as n grows,
    which is what makes the bound asymptotically tight.
    """
    started = time.perf_counter()
    ns = config.n_list(default=(16, 256, 4096))
    if any(n < 2 for n in ns):
        raise ConfigError(f"sharpness needs every n >= 2, got {ns}")
    records = []
    ratios: list[tuple[float, float]] = []
    all_pass = True
    for idx, n in enumerate(ns):
        spec_x = iid_standard_spec(n)
        spec_y = zero_spec(n)
        cert = certify(spec_x, spec_y)
        est_x, est_y, gap = empirical_gap(spec_x, spec_y, config.samples, derive_seed(config.seed, idx))
        abs_gap = abs(gap.value)
        stderr = gap.stderr
        ratio = abs_gap / cert.bound
        ratio_stderr = stderr / cert.bound
        ok = abs_gap <= cert.bound + 3.0 * stderr
        all_pass &= ok
        ratios.append((ratio, ratio_stderr))
        records.append(
            {
                "n": n,
                "gamma": cert.gamma,
                "bound": cert.bound,
                "emax_x": est_x.value,
                "emax_x_stderr": est_x.stderr,
                "emax_y": est_y.value,
                "emax_y_stderr": est_y.stderr,
                "abs_gap": abs_gap,
                "abs_gap_stderr": stderr,
                "ratio": ratio,
                "ratio_stderr": ratio_stderr,
                "pass": ok,
            }
        )
    nondecreasing = all(
        ratios[k + 1][0] >= ratios[k][0] - 3.0 * math.hypot(ratios[k][1], ratios[k + 1][1])
        for k in range(len(ratios) - 1)
    )
    summary = {
        "ratios": [r for r, _ in ratios],
        "nondecreasing_within_noise": nondecreasing,
        "pass": all_pass and nondecreasing,
    }
    return _report(config, records, summary, started)


def run_path_diagnostics(config: ExperimentConfig) -> ExperimentReport:
    """Derivative diagnostics along the blend path of dominated pairs.

    Per grid point: the explicit and finite-difference derivative estimates
    must agree within 3 combined standard errors plus a small discretization
    allowance, and under domination the explicit estimate must not be
    significantly negative.  Per trial: phi(1) >= phi(0) within noise.
    """
    started = time.perf_counter()
    ns = config.n_list(default=(8,))
    pick = _law_picker(config)
    records = []
    endpoints = []
    all_pass = True
    for trial in range(config.trials):
        n = ns[trial % len(ns)]
        trial_seed = derive_seed(config.seed, trial)
        if config.generator == "explicit":
            spec_x, spec_y = (pick(n, trial_seed, which) for which in (0, 1))
        else:
            spec_x, spec_y = dominated_pair(n, trial_seed, config.generator)
        gamma = gamma_discrepancy(increment_matrix(spec_x), increment_matrix(spec_y))
        beta = _resolve_beta(config, gamma, spec_x.n)
        params = SmoothMaxParams(beta)
        report = path_monotonicity_report(
            spec_x, spec_y, params, config.grid, config.samples, derive_seed(trial_seed, 2)
        )
        for k, point in enumerate(report.points):
            tolerance = 3.0 * point.combined_stderr() + 1e-4 * beta
            consistent = point.consistency_gap() <= tolerance
            sign_ok = k not in report.flagged
            all_pass &= consistent and (sign_ok or not report.dominated_xy)
            records.append(
                {
                    "trial": trial,
                    "n": spec_x.n,
                    "t": point.t,
                    "beta": beta,
                    "gamma": gamma,
                    "dominated_xy": report.dominated_xy,
                    "explicit": point.explicit.value,
                    "explicit_stderr": point.explicit.stderr,
                    "finite_difference": point.finite_difference.value,
                    "finite_difference_stderr": point.finite_difference.stderr,
                    "consistency_tolerance": tolerance,
                    "consistency_pass": consistent,
                    "sign_pass": sign_ok,
                }
            )
        endpoint_seed = derive_seed(trial_seed, 3)
        smooth = functools.partial(smooth_max, params=params)
        laws = [(blended_spec(spec_x, spec_y, t), smooth) for t in (0.0, 1.0)]
        values = common_draw_values(laws, config.samples, endpoint_seed)
        phi0, phi1 = (estimate_from_values(v, endpoint_seed) for v in values)
        combined = math.hypot(phi0.stderr, phi1.stderr)
        monotone = phi1.value >= phi0.value - 3.0 * combined
        all_pass &= monotone or not report.dominated_xy
        endpoints.append(
            {
                "trial": trial,
                "phi0": phi0.value,
                "phi0_stderr": phi0.stderr,
                "phi1": phi1.value,
                "phi1_stderr": phi1.stderr,
                "monotone_within_noise": monotone,
            }
        )
    summary = {
        "trials": config.trials,
        "grid_points": len(config.grid),
        "endpoints": endpoints,
        "pass": all_pass,
    }
    return _report(config, records, summary, started)


def run_stein_check(config: ExperimentConfig) -> ExperimentReport:
    """Integration-by-parts residuals for every coordinate of random
    centered laws; at least 99% of the 3-sigma verdicts must pass."""
    started = time.perf_counter()
    ns = config.n_list(default=(8,))
    pick = _law_picker(config)
    records = []
    passes = total = 0
    for trial in range(config.trials):
        n = ns[trial % len(ns)]
        trial_seed = derive_seed(config.seed, trial)
        spec = pick(n, trial_seed, 0)
        beta = float(config.beta) if config.beta != "auto" else FALLBACK_BETA
        params = SmoothMaxParams(beta)
        residuals = stein_residuals(spec, params, config.samples, derive_seed(trial_seed, 1))
        for i, res in enumerate(residuals):
            ok = abs(res.value) <= 3.0 * res.stderr
            passes += ok
            total += 1
            records.append(
                {
                    "trial": trial,
                    "coordinate": i,
                    "n": spec.n,
                    "beta": beta,
                    "residual": res.value,
                    "residual_stderr": res.stderr,
                    "pass": bool(ok),
                }
            )
    rate = passes / total
    summary = {
        "verdicts": total,
        "passes": passes,
        "pass_rate": rate,
        "pass": rate >= 0.99,
    }
    return _report(config, records, summary, started)


_RUNNERS = {
    "sharpness": run_sharpness,
    "bound-check": run_bound_check,
    "path-diagnostics": run_path_diagnostics,
    "stein-check": run_stein_check,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch to the runner named by config.experiment."""
    return _RUNNERS[config.experiment](config)
