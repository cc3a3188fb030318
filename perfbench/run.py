"""Benchmark of the sudfer experiments, run through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each experiment run is a fresh
process (perfbench/worker.py) that builds the workload's ExperimentConfig
for the seed, calls ``sudfer.experiments.run_experiment`` and renders the
report with ``sudfer.reports.render_json``.  Runs repeat one after another
(closed loop, one client) until the next one would end after ``--seconds``;
metrics are medians over the runs.

Every report is checked: its summary verdict must pass, it must agree with
the independent reference checks in reference.py, and all runs of one seed
must render the same report body (sha256 with duration_seconds zeroed).  A
run that raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced runs with runs traced by tracer.py and prints the per-layer ones.
Metric names and units come from BENCHMARK.json.  The last line of standard
output is the result object; the lines before it are a readable table and
a JSON detail line (environment stamp, per-run figures, digests).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy

import reference
from workloads import WORKLOADS, coordinates

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

MIN_RUNS = 2  # experiment runs per invocation, even when they overrun --seconds
SETUP_PROBES = 9  # extra set-up-only processes, so setup_s is a median of several
TIME_LIMIT_S = 170.0  # the whole invocation must end well inside 180 s


class WorkerFailed(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(cap: int) -> dict[str, str]:
    """The runner's environment with BLAS threads capped at ``cap``."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cap)
    return env


def run_worker(args, env: dict[str, str], hard_deadline: float, *flags: str, run_id: str = "run") -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
        "--seed", str(args.seed), "--t0", repr(t0), "--run-id", run_id, *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(hard_deadline - t0, 0.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"timed out after {exc.timeout:.1f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        raise WorkerFailed(tail[0])
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def environment(cap: int, blas_threads) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads, "thread_cap": cap},
        "nproc": nproc(),
        "cpu": cpu,
    }


def stored_digest(workload: str, seed: int):
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if not os.path.isfile(os.path.join(ROOT, "src", "sudfer", "__init__.py")):
        print(f"no sudfer source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + TIME_LIMIT_S
    cap = nproc()
    env = worker_env(cap)

    try:
        # The first process byte-compiles the package, a cost users pay once: untimed.
        run_worker(args, env, hard_deadline, "--setup-only")
        setups = [] if args.trace else [
            run_worker(args, env, hard_deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)
        ]
    except WorkerFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    runs: list[dict] = []
    durations: list[float] = []
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        run = {"traced": traced}
        t0 = time.monotonic()
        try:
            result = run_worker(
                args, env, hard_deadline, *(["--trace"] if traced else []),
                run_id=f"{args.workload}-seed{args.seed}-run{len(runs)}",
            )
        except WorkerFailed as exc:
            run["problems"] = [f"raised: {exc}"]
        else:
            try:
                report = json.loads(result.pop("report"))
                run.update(result, coords=coordinates(report), problems=reference.check(report))
            except (KeyError, TypeError, ValueError) as exc:
                run["problems"] = [f"report could not be checked: {exc!r}"]
        runs.append(run)
        durations.append(time.monotonic() - t0)
        now = time.monotonic()
        if len(runs) >= MIN_RUNS and now + statistics.median(durations) > deadline:
            break
        if now + max(durations) > hard_deadline:
            break

    done = [r for r in runs if "wall_s" in r]
    if not done:
        for r in runs:
            print("; ".join(r["problems"]), file=sys.stderr)
        print("no experiment run completed", file=sys.stderr)
        return 1
    digest, _ = Counter(r["digest"] for r in done).most_common(1)[0]
    for r in done:
        if r["digest"] != digest:
            r["problems"].append(f"report body digest {r['digest']} differs from {digest}")
    failed = sum(bool(r["problems"]) for r in runs)

    untraced = [r for r in done if not r["traced"]]
    values: dict[str, float] = {}
    if args.trace:
        traced_runs = [r for r in done if r["traced"]]
        for key in traced_runs[0]["layers"] if traced_runs else ():
            values[key] = statistics.median(r["layers"][key] for r in traced_runs)
        if traced_runs and untraced:
            values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced_runs) - statistics.median(
                r["wall_s"] for r in untraced
            )
    else:
        values["wall_s"] = statistics.median(r["wall_s"] for r in done)
        values["coords_per_s"] = statistics.median(r["coords"] / r["wall_s"] for r in done)
        values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in done])
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in done)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"no value for {', '.join(missing)}: every traced run failed", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    fail_ratio = failed / len(runs)
    known = stored_digest(args.workload, args.seed)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(cap, done[0]["blas_threads"]),
        "fail_ratio": fail_ratio,
        "digest": digest,
        "bodies": "not recorded" if known is None else ("unchanged" if known == digest else "changed"),
        "setup_probes_s": setups,
        "absent_layers": sorted({layer for r in done for layer in r.get("absent", [])}),
        "runs": runs,
    }

    for name, metric in metrics.items():
        print(f"{args.workload:<20} {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:<20} {'fail_ratio':<32} {fail_ratio:>14.6g} ratio ({failed}/{len(runs)} runs)")
    for r in runs:
        for problem in r["problems"]:
            print(f"{args.workload:<20} FAILED: {problem}")
            print(f"{args.workload} seed {args.seed} FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
