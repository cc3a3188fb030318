"""Checks of experiment reports that share no code with the package.

Numpy and ``math.erfc`` only.  The sharpness records are compared with
E max of N(0, I_n) computed by 1-D quadrature; every report has its verdicts
recomputed from its stored numbers with the rules the runners document.
"""

from __future__ import annotations

import math

import numpy as np

_erfc = np.vectorize(math.erfc, otypes=[float])


def expected_max_iid(n: int, half_width: float = 12.0, step: float = 1e-3) -> float:
    """E max of n iid standard normals: the integral of x * n Phi(x)^(n-1) phi(x).

    The integrand is smooth and negligible at +-12, where the trapezoid rule on
    a uniform grid is accurate far below Monte Carlo noise.
    """
    x = np.arange(-half_width, half_width + step / 2, step)
    cdf = 0.5 * _erfc(-x / math.sqrt(2.0))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    density = n * np.exp((n - 1) * np.log(cdf)) * pdf
    return float(np.sum(x * density) * step)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _sharpness(report: dict) -> list[str]:
    problems = []
    for r in report["records"]:
        n = r["n"]
        exact = expected_max_iid(n)
        if not abs(r["emax_x"] - exact) <= 4.0 * r["emax_x_stderr"]:
            problems.append(f"n={n}: emax_x {r['emax_x']} is not within 4 stderr of {exact}")
        if r["emax_y"] != 0.0:
            problems.append(f"n={n}: the zero law has emax_y {r['emax_y']}, not 0")
        if not _close(r["bound"], math.sqrt(r["gamma"] * math.log(n))):
            problems.append(f"n={n}: bound is not sqrt(gamma ln n)")
    return problems


def _bound_check(report: dict) -> list[str]:
    problems = []
    for r in report["records"]:
        trial = r["trial"]
        if not _close(r["bound"], math.sqrt(r["gamma"] * math.log(r["n"]))):
            problems.append(f"trial {trial}: bound is not sqrt(gamma ln n)")
        if r["gap"] != r["emax_x"] - r["emax_y"] or r["abs_gap"] != abs(r["gap"]):
            problems.append(f"trial {trial}: gap does not match the two estimates")
        if r["means_equal"] and r["pass"] != (r["abs_gap"] <= r["bound"] + 3.0 * r["gap_stderr"]):
            problems.append(f"trial {trial}: verdict does not follow from the stored numbers")
    fails = sum(r["pass"] is False for r in report["records"])
    if fails != report["summary"]["fails"]:
        problems.append("summary fail count does not match the records")
    return problems


def _path_diagnostics(report: dict) -> list[str]:
    problems = []
    for r in report["records"]:
        where = f"trial {r['trial']} t={r['t']}"
        tolerance = 3.0 * math.hypot(r["explicit_stderr"], r["finite_difference_stderr"]) + 1e-4 * r["beta"]
        if not _close(r["consistency_tolerance"], tolerance):
            problems.append(f"{where}: consistency tolerance is not 3 combined stderr + 1e-4 beta")
        if r["consistency_pass"] != (abs(r["explicit"] - r["finite_difference"]) <= r["consistency_tolerance"]):
            problems.append(f"{where}: consistency verdict does not follow from the stored numbers")
        # The integrand (beta/4) p^T (gY - gX) p is bounded by beta * gamma / 4.
        if abs(r["explicit"]) > r["beta"] * r["gamma"] / 4.0 + 4.0 * r["explicit_stderr"]:
            problems.append(f"{where}: |explicit| exceeds beta * gamma / 4")
        if r["sign_pass"] != (r["explicit"] >= -3.0 * r["explicit_stderr"]):
            problems.append(f"{where}: sign verdict does not follow from the stored numbers")
    for e in report["summary"]["endpoints"]:
        monotone = e["phi1"] >= e["phi0"] - 3.0 * math.hypot(e["phi0_stderr"], e["phi1_stderr"])
        if e["monotone_within_noise"] != monotone:
            problems.append(f"trial {e['trial']}: monotonicity verdict does not follow from the stored numbers")
    return problems


_CHECKS = {
    "sharpness": _sharpness,
    "bound-check": _bound_check,
    "path-diagnostics": _path_diagnostics,
}


# Verdict fields of records and endpoints; other booleans (dominated_xy, means_equal) are facts.
_VERDICTS = ("pass", "consistency_pass", "sign_pass", "monotone_within_noise")


def _failed_verdicts(report: dict) -> list[str]:
    """The record and endpoint verdicts that read false, each with where it is."""
    failed = []
    for r in report["records"] + report["summary"].get("endpoints", []):
        where = " ".join(f"{key}={r[key]}" for key in ("trial", "n", "t") if key in r)
        failed += [f"{where} {key}" for key, value in r.items() if value is False and key in _VERDICTS]
    return failed


def check(report: dict) -> list[str]:
    """Problems found in one parsed JSON report; empty when it is correct."""
    problems = []
    if report["summary"]["pass"] is not True:
        failed = _failed_verdicts(report)
        problems.append("summary verdict does not pass" + (f" (false: {'; '.join(failed)})" if failed else ""))
    return problems + _CHECKS[report["config"]["experiment"]](report)
