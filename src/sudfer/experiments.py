"""Seeded experiments: spec generators, the config, and the one runner.

``run_experiment`` is the one entry point: it runs the experiment's row of
the table of experiments, times it, and builds the report.  Each row also
lists the config fields its runner never reads, and ``ExperimentConfig``
raises ConfigError at construction on one of them off its default, a bad
name or number, an empty n list, sharpness with an n < 2, path-diagnostics
with no grid or a point outside (0, 1), inline specs that are not objects
or lack the "explicit" generator, or it without ``spec_x`` or with an ``n``.

Every run is a pure function of its config: per-trial seeds are derived
from (config.seed, trial index), so reruns reproduce the report body byte
for byte.  Verdicts are 3-sigma Monte Carlo checks recomputable from the
stored numbers alone, and each summary is computed from the records.
Each experiment has its own pass rule:

- sharpness: every n passes and the ratios do not fall beyond noise;
- bound-check: every trial with equal means passes (others are skipped);
- path-diagnostics: every grid point is consistent, and a dominated pair
  also passes every sign check and its endpoint monotonicity;
- stein-check: at least 99% of the coordinate verdicts pass, which absorbs
  the expected rate of 3-sigma false alarms over many coordinates.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Iterator

import numpy as np

from . import __version__
from .bounds import certify
from .errors import ConfigError, DimensionMismatch, InvalidInput, UnknownGenerator, check_integer, check_real
from .estimator import MCEstimate, empirical_gap, estimate_from_values
from .gaussian import GaussianSpec, blended_spec, check_seed, common_draw_values, derive_seed, validate_spec
from .interpolation import DEFAULT_GRID, phi_derivative, stein_residuals
from .reports import ExperimentReport
from .smoothmax import SmoothMaxParams, _smooth_max_rows

GENERATORS = ("wishart", "equicorrelated", "diagonal", "explicit")
FORMATS = ("json", "csv")

# Inverse temperature used when beta="auto" has no discrepancy to optimize
# against (single-law experiments, identical pairs).
FALLBACK_BETA = 2.0


def random_spec(n: int, seed: int, generator: str) -> GaussianSpec:
    """A zero-mean n-dimensional law from one of the named random families.

    wishart:        A A^T / n for A an n x n matrix of iid standard normals
    equicorrelated: (1-rho) I + rho 11^T with rho ~ U[0, 1)
    diagonal:       iid U[0.1, 2] variances, stored 1-d
    """
    n = check_integer("n", n, 1, error=ConfigError)
    return validate_spec(np.zeros(n), _random_covariance(n, seed, generator))


def _random_covariance(n: int, seed: int, generator: str) -> np.ndarray:
    """The covariance of ``random_spec(n, seed, generator)``, with no law built: 1-d variances for "diagonal"."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=check_seed(seed)))
    if generator == "wishart":
        a = rng.standard_normal((n, n))
        cov = a @ a.T / n
        cov = (cov + cov.T) / 2.0  # gemm output is not exactly symmetric
    elif generator == "equicorrelated":
        rho = float(rng.uniform(0.0, 1.0))
        cov = (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))
    elif generator == "diagonal":
        cov = rng.uniform(0.1, 2.0, size=n)  # the variances: a diagonal law stores no n x n array
    else:
        raise UnknownGenerator(
            f"unknown generator {generator!r} (explicit specs are resolved from the config)"
        )
    return cov


def iid_standard_spec(n: int) -> GaussianSpec:
    """N(0, I_n): independent standard normal coordinates, built from their variances in O(n)."""
    return _constant_spec(n, 1.0)


def zero_spec(n: int) -> GaussianSpec:
    """The law of the all-zero vector (degenerate, variances 0), built in O(n)."""
    return _constant_spec(n, 0.0)


def _constant_spec(n: int, variance: float) -> GaussianSpec:
    # Stride-0 inputs: the law's own read-only copies are the only n-long arrays it allocates.
    n = check_integer("n", n, 1, error=DimensionMismatch)
    return validate_spec(np.broadcast_to(0.0, n), np.broadcast_to(variance, n))


def spec_from_document(doc: dict) -> GaussianSpec:
    """Parse {"mean": [...], "covariance": [[...], ...]} into a validated spec.
    Every entry must be a finite real number: bools, strings and nulls are not coerced (GaussianSpec's rule)."""
    try:
        mean = doc["mean"]
        cov = doc["covariance"]
    except (TypeError, KeyError) as exc:
        raise ConfigError('explicit specs need "mean" and "covariance" keys') from exc
    if isinstance(cov, (list, tuple)) and not any(isinstance(row, (list, tuple)) for row in cov):
        # GaussianSpec also takes 1-d variances; a document gives its covariance as rows.
        raise DimensionMismatch(f"explicit spec covariance must be a list of rows, got {cov!r}")
    return validate_spec(mean, cov)


def dominated_pair(n: int, seed: int, generator: str) -> tuple[GaussianSpec, GaussianSpec]:
    """A pair (X, Y) with Y = X plus independent centered noise.

    Adding an independent perturbation adds its increments, so the
    increment matrix of Y dominates that of X entrywise by construction.
    """
    spec_x = random_spec(n, derive_seed(seed, 0), generator)
    noise = _random_covariance(n, derive_seed(seed, 1), generator)
    return spec_x, validate_spec(spec_x.mean, spec_x.covariance + noise)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    ``n`` may be a single dimension or a list; multi-trial experiments cycle
    through the list trial by trial.  ``beta`` is either a positive float or
    "auto" (resolved per trial via the optimal tradeoff beta when the pair
    has a positive discrepancy).  ``spec_x``/``spec_y`` hold inline
    mean/covariance documents for the "explicit" generator.  ``output_path``
    is a string or None (stdout).  A field the experiment never reads keeps
    its default, so the echo holds only what the run used: this and every
    rule of the module docstring is checked here, at construction, and a
    broken one raises ConfigError.
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
        for name, choices in (("experiment", EXPERIMENTS), ("generator", GENERATORS), ("format", FORMATS)):
            value = getattr(self, name)
            if not (isinstance(value, str) and value in choices):  # `in` on an array would not be a bool
                raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
        for name, kind, noun in (
            ("output_path", str, "a string"), ("spec_x", dict, "an object"), ("spec_y", dict, "an object")
        ):
            value = getattr(self, name)
            if not (value is None or isinstance(value, kind)):
                raise ConfigError(f"{name} must be {noun} or null, got {value!r}")
        if isinstance(self.n, (list, tuple)) and not self.n:
            raise ConfigError("n must hold at least one dimension, got an empty list")
        if not isinstance(self.grid, (list, tuple, np.ndarray)):
            raise ConfigError(f"grid must be a list of finite real numbers, got {self.grid!r}")
        try:  # every number, checked once; a bad one is a ConfigError
            object.__setattr__(self, "samples", check_integer("samples", self.samples, 2))
            object.__setattr__(self, "trials", check_integer("trials", self.trials, 1))
            object.__setattr__(self, "seed", check_seed(self.seed))
            if isinstance(self.n, (list, tuple)):
                object.__setattr__(self, "n", tuple(check_integer("n", v, 1) for v in self.n))
            elif self.n is not None:
                object.__setattr__(self, "n", check_integer("n", self.n, 1))
            object.__setattr__(self, "grid", tuple(check_real("a grid point", t) for t in self.grid))
            if not (isinstance(self.beta, str) and self.beta == "auto"):  # != on an array would not be a bool
                object.__setattr__(self, "beta", check_real("beta", self.beta))
        except InvalidInput as exc:
            raise ConfigError(str(exc)) from exc
        _, unread = _EXPERIMENTS[self.experiment]
        moved = [f.name for f in fields(self) if f.name in unread and getattr(self, f.name) != f.default]
        if moved:
            raise ConfigError(f"{self.experiment} never reads {', '.join(moved)}: leave each at its default")
        if self.generator == "explicit" and (self.spec_x is None or self.n is not None):
            raise ConfigError('generator "explicit" needs an inline "spec_x" document and no n: it sets the dimension')
        if self.generator != "explicit" and (self.spec_x is not None or self.spec_y is not None):
            raise ConfigError(f'spec_x and spec_y need generator "explicit", got generator {self.generator!r}')
        if self.experiment == "sharpness" and any(n < 2 for n in self.n_list(default=())):
            raise ConfigError(f"sharpness needs every n >= 2, got {self.n}")
        if self.experiment == "path-diagnostics":
            if not self.grid:
                raise ConfigError("path-diagnostics needs a nonempty grid")
            if not all(0.0 < t < 1.0 for t in self.grid):
                raise ConfigError(f"grid points must lie strictly inside (0, 1), got {self.grid}")
        if self.beta != "auto" and not self.beta > 0.0:
            raise ConfigError(f'beta must be "auto" or a positive float, got {self.beta!r}')

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


def _resolve_beta(config: ExperimentConfig, optimal: float = math.inf) -> float:
    """``config.beta``; for "auto", ``optimal`` when it is finite, else FALLBACK_BETA."""
    if config.beta != "auto":
        return config.beta
    return optimal if math.isfinite(optimal) else FALLBACK_BETA


def _finite_or_none(x: float) -> float | None:
    return None if math.isinf(x) else float(x)


def _estimate(name: str, est: MCEstimate) -> dict[str, float]:
    return {name: est.value, f"{name}_stderr": est.stderr}


def _z_score(excess: float, stderr: float) -> float:
    # Degenerate stderr can only occur with a.s. constant maxima, where the
    # bound holds exactly; keep the field finite for the report schema.
    if stderr > 0.0:
        return excess / stderr
    return 0.0 if excess <= 0.0 else 1e300


def _trials(config: ExperimentConfig) -> Iterator[tuple[int, int, int]]:
    """``(trial, n, trial_seed)`` per trial, with n cycling through the configured dimensions."""
    ns = config.n_list(default=(8,))
    for trial in range(config.trials):
        yield trial, ns[trial % len(ns)], derive_seed(config.seed, trial)


def _law_picker(config: ExperimentConfig) -> Callable[[int, int, int], GaussianSpec]:
    """``pick(n, trial_seed, which)``: law ``which`` (0: X, 1: Y) of a trial.  Inline
    documents are parsed once per run, on first use; an explicit Y falls back to X."""
    if config.generator != "explicit":
        return lambda n, trial_seed, which: random_spec(n, derive_seed(trial_seed, which), config.generator)

    @functools.cache
    def parse(use_y: bool) -> GaussianSpec:
        return spec_from_document(config.spec_y if use_y else config.spec_x)

    return lambda n, trial_seed, which: parse(which == 1 and config.spec_y is not None)


def _bound_check(config: ExperimentConfig) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Certificate + empirical gap for random pairs; the gap must stay
    below the certified bound plus 3 standard errors on every trial."""
    pick = _law_picker(config)
    records = []
    for trial, n, trial_seed in _trials(config):
        spec_x, spec_y = (pick(n, trial_seed, which) for which in (0, 1))
        cert = certify(spec_x, spec_y)
        est_x, est_y, gap = empirical_gap(spec_x, spec_y, config.samples, derive_seed(trial_seed, 2))
        abs_gap = abs(gap.value)
        # The two-sided bound is only claimed for equal means.
        verdict = abs_gap <= cert.bound + 3.0 * gap.stderr if cert.means_equal else None
        records.append(
            {
                "trial": trial,
                **asdict(cert),
                "optimal_beta": _finite_or_none(cert.optimal_beta),
                **_estimate("emax_x", est_x),
                **_estimate("emax_y", est_y),
                "gap": gap.value,
                "abs_gap": abs_gap,
                "gap_stderr": gap.stderr,
                "z_score": _z_score(abs_gap - cert.bound, gap.stderr),
                "pass": verdict,
            }
        )
    verdicts = [r["pass"] for r in records]
    summary = {
        "trials": config.trials,
        "passes": verdicts.count(True),
        "fails": verdicts.count(False),
        "skipped_unequal_means": verdicts.count(None),
        "max_violation_z": max([0.0] + [r["z_score"] for r in records if r["means_equal"]]),
        "pass": False not in verdicts,
    }
    return records, summary


def _sharpness(config: ExperimentConfig) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Gap-to-bound ratio for N(0, I_n) against the zero law.

    The increment discrepancy of that pair is exactly 2, so the certified
    bound is sqrt(2 ln n); the measured ratio climbs toward 1 as n grows,
    which is what makes the bound asymptotically tight.
    """
    records = []
    for idx, n in enumerate(config.n_list(default=(16, 256, 4096))):
        spec_x = iid_standard_spec(n)
        spec_y = zero_spec(n)
        cert = certify(spec_x, spec_y)
        est_x, est_y, gap = empirical_gap(spec_x, spec_y, config.samples, derive_seed(config.seed, idx))
        abs_gap = abs(gap.value)
        records.append(
            {
                "n": n,
                "gamma": cert.gamma,
                "bound": cert.bound,
                **_estimate("emax_x", est_x),
                **_estimate("emax_y", est_y),
                "abs_gap": abs_gap,
                "abs_gap_stderr": gap.stderr,
                "ratio": abs_gap / cert.bound,
                "ratio_stderr": gap.stderr / cert.bound,
                "pass": abs_gap <= cert.bound + 3.0 * gap.stderr,
            }
        )
    nondecreasing = all(
        b["ratio"] >= a["ratio"] - 3.0 * math.hypot(a["ratio_stderr"], b["ratio_stderr"])
        for a, b in zip(records, records[1:])
    )
    summary = {
        "ratios": [r["ratio"] for r in records],
        "nondecreasing_within_noise": nondecreasing,
        "pass": all(r["pass"] for r in records) and nondecreasing,
    }
    return records, summary


def _path_diagnostics(config: ExperimentConfig) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Derivative diagnostics along the blend path of dominated pairs.

    One certificate per trial gives gamma, the domination flag and the auto
    beta.  Per grid point (derived substream k of the trial's grid seed): the
    explicit and finite-difference derivative estimates must agree within 3
    combined standard errors plus a small discretization allowance, and under
    domination, where phi' is provably nonnegative, the explicit estimate must
    not be below -3 standard errors.
    Per trial: phi(1) >= phi(0) within noise.
    """
    pick = _law_picker(config)
    records = []
    endpoints = []
    for trial, n, trial_seed in _trials(config):
        if config.generator == "explicit":
            spec_x, spec_y = (pick(n, trial_seed, which) for which in (0, 1))
        else:
            spec_x, spec_y = dominated_pair(n, trial_seed, config.generator)
        cert = certify(spec_x, spec_y)
        beta = _resolve_beta(config, cert.optimal_beta)
        params = SmoothMaxParams(beta)
        grid_seed = derive_seed(trial_seed, 2)
        for k, t in enumerate(config.grid):
            point = phi_derivative(spec_x, spec_y, params, t, config.samples, derive_seed(grid_seed, k))
            explicit, fd = point.explicit, point.finite_difference
            tolerance = 3.0 * math.hypot(explicit.stderr, fd.stderr) + 1e-4 * beta
            records.append(
                {
                    "trial": trial,
                    "n": spec_x.n,
                    "t": t,
                    "beta": beta,
                    "gamma": cert.gamma,
                    "dominated_xy": cert.dominates_xy,
                    **_estimate("explicit", explicit),
                    **_estimate("finite_difference", fd),
                    "consistency_tolerance": tolerance,
                    "consistency_pass": abs(explicit.value - fd.value) <= tolerance,
                    "sign_pass": explicit.value >= -3.0 * explicit.stderr,
                }
            )
        endpoint_seed = derive_seed(trial_seed, 3)
        smooth = functools.partial(_smooth_max_rows, params=params)
        laws = [(blended_spec(spec_x, spec_y, t), smooth) for t in (0.0, 1.0)]
        values = common_draw_values(laws, config.samples, endpoint_seed)
        phi0, phi1 = (estimate_from_values(v) for v in values)
        endpoints.append(
            {
                "trial": trial,
                **_estimate("phi0", phi0),
                **_estimate("phi1", phi1),
                "monotone_within_noise": phi1.value >= phi0.value - 3.0 * math.hypot(phi0.stderr, phi1.stderr),
            }
        )
    # Sign and endpoint monotonicity are only claimed for a dominated pair.
    dominated = {r["trial"]: r["dominated_xy"] for r in records}
    summary = {
        "trials": config.trials,
        "grid_points": len(config.grid),
        "endpoints": endpoints,
        "pass": all(r["consistency_pass"] and (r["sign_pass"] or not r["dominated_xy"]) for r in records)
        and all(e["monotone_within_noise"] or not dominated[e["trial"]] for e in endpoints),
    }
    return records, summary


def _stein_check(config: ExperimentConfig) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Integration-by-parts residuals for every coordinate of random laws
    (any mean); at least 99% of the 3-sigma verdicts must pass."""
    pick = _law_picker(config)
    beta = _resolve_beta(config)
    params = SmoothMaxParams(beta)
    records = []
    for trial, n, trial_seed in _trials(config):
        spec = pick(n, trial_seed, 0)
        residuals = stein_residuals(spec, params, config.samples, derive_seed(trial_seed, 1))
        for i, res in enumerate(residuals):
            records.append(
                {
                    "trial": trial,
                    "coordinate": i,
                    "n": spec.n,
                    "beta": beta,
                    **_estimate("residual", res),
                    "pass": abs(res.value) <= 3.0 * res.stderr,
                }
            )
    passes = sum(r["pass"] for r in records)
    rate = passes / len(records)
    summary = {
        "verdicts": len(records),
        "passes": passes,
        "pass_rate": rate,
        "pass": rate >= 0.99,
    }
    return records, summary


# Each experiment's runner, and the config fields that runner never reads.
_EXPERIMENTS = {
    "sharpness": (_sharpness, ("beta", "grid", "trials", "generator", "spec_x", "spec_y")),
    "bound-check": (_bound_check, ("beta", "grid")),
    "path-diagnostics": (_path_diagnostics, ()),
    "stein-check": (_stein_check, ("grid", "spec_y")),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the experiment named by ``config.experiment`` and report it, timed."""
    started = time.perf_counter()
    records, summary = _EXPERIMENTS[config.experiment][0](config)
    return ExperimentReport(config.echo(), records, summary, __version__, time.perf_counter() - started)
