"""One benchmark process: set up, run one experiment, print one JSON line.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --t0 T [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start,
``import sudfer`` and building the ExperimentConfig.  The experiment is
timed from ``run_experiment`` until the rendered JSON report is in hand.
"""

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unavailable."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import sudfer
    from sudfer import experiments, reports
    from workloads import config_fields

    config = experiments.ExperimentConfig(**config_fields(args.workload, args.seed))
    setup_s = time.monotonic() - args.t0
    if not os.path.abspath(sudfer.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"sudfer was imported from {sudfer.__file__}, not from {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    report = experiments.run_experiment(config)
    text = reports.render_json(report)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()

    body = reports.render_json(dataclasses.replace(report, duration_seconds=0.0))
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "blas_threads": blas_threads(),
        "report": text,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        out["absent"] = tracer.absent
        spans_dir = os.path.join(args.root, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        out["spans_file"] = os.path.join(spans_dir, f"spans-{args.run_id}.json")
        tracer.write(out["spans_file"], args.run_id)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
