"""The benchmark workloads: fixed experiment configs whose only varying input is the seed.

Imported by the runner and by every worker process, so it imports nothing
beyond the standard library (worker set-up time is a metric).
"""

# Each entry holds the ExperimentConfig fields of one workload, minus the seed.
WORKLOADS = {
    # N(0, I) against the zero law at large n: O(n^3) decompositions of
    # trivial matrices, wide RNG fills and the diagonal transform.
    "sharpness-iid-2048": {
        "experiment": "sharpness",
        "n": [256, 2048],
        "samples": 100_000,
    },
    # One dense dominated pair along the smart path: 17 sample streams per
    # trial over 6 distinct seeds, plus the smooth max / softmax reductions.
    "path-wishart-256": {
        "experiment": "path-diagnostics",
        "generator": "wishart",
        "n": 256,
        "trials": 1,
        "samples": 50_000,
    },
    # Many tiny laws: per-call fixed costs, and the largest report (200 records).
    "bound-check-small": {
        "experiment": "bound-check",
        "generator": "wishart",
        "n": [2, 4, 8, 16, 32, 64],
        "trials": 200,
        "samples": 20_000,
    },
}


def config_fields(workload: str, seed: int) -> dict:
    """Keyword arguments of the workload's ExperimentConfig for one seed."""
    return dict(WORKLOADS[workload], seed=seed)


def coordinates(report: dict) -> int:
    """Gaussian coordinates the report's Monte Carlo estimates stand for.

    samples x n summed over the estimates: emax_x and emax_y per record for
    sharpness and bound-check; explicit and finite difference per grid point
    plus phi0 and phi1 per trial for path-diagnostics.  Fixed by the config,
    so generation that is fused or skipped shows as throughput, not less work.
    """
    samples = report["config"]["samples"]
    records = report["records"]
    total = sum(2 * samples * r["n"] for r in records)
    if report["config"]["experiment"] == "path-diagnostics":
        n_of_trial = {r["trial"]: r["n"] for r in records}
        total += sum(2 * samples * n_of_trial[e["trial"]] for e in report["summary"]["endpoints"])
    return total
