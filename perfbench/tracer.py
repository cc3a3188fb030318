"""Outside-in tracing of the sudfer layers, installed from the benchmark.

The package is not edited: module-level functions are swapped for timing
wrappers in every ``sudfer`` module that holds them, so calls through
re-exports and calls inside the defining module are both seen.  Spans
(name, start, end, parent) stay in memory and are written out after the
pass.  A layer whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Layer name -> (module, function).  "experiments" is the root span, so its
# self time is the runner's own work outside every other layer.
LAYERS = {
    "experiments": ("sudfer.experiments", "run_experiment"),
    "reports.render": ("sudfer.reports", "render_json"),
    "gaussian.validate_spec": ("sudfer.gaussian", "validate_spec"),
    "gaussian.factor": ("sudfer.gaussian", "_factor"),
    "gaussian.transform": ("sudfer.gaussian", "_transform"),
    "gaussian.rng": ("sudfer.gaussian", "iter_sample_shards"),
    "bounds.certify": ("sudfer.bounds", "certify"),
    "estimator.reduce": ("sudfer.estimator", "expected_max_mc"),
    "smoothmax.smooth_max": ("sudfer.smoothmax", "smooth_max"),
    "smoothmax.softmax": ("sudfer.smoothmax", "softmax"),
    "interpolation.phi": ("sudfer.interpolation", "phi"),
    "interpolation.explicit": ("sudfer.interpolation", "phi_derivative_explicit"),
    "interpolation.fd": ("sudfer.interpolation", "phi_derivative_fd"),
}

# Layers whose call counts are reported next to their self time.
COUNTED = ("gaussian.validate_spec", "gaussian.factor")


class Tracer:
    """Spans and counters of one traced experiment run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.absent: list[str] = []
        self.shards = 0
        self.normals_drawn = 0
        self.blocks = 0
        self.distinct_blocks: set[tuple] = set()
        self.shard_bytes_max = 0

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _timed_transform(self, name: str, fn):
        timed = self._timed(name, fn)

        @functools.wraps(fn)
        def wrapper(z, *args, **kwargs):
            self.normals_drawn += z.size
            return timed(z, *args, **kwargs)

        return wrapper

    def _timed_shards(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            spec = arguments.get("spec")
            return self._shard_stream(name, fn(*args, **kwargs), arguments.get("seed"), getattr(spec, "n", None))

        return wrapper

    def _shard_stream(self, name: str, shards, seed, n):
        # Each next() is one span: seeding, the normal fill and the transform
        # (a child span), plus the factorization on the first shard.
        k = 0
        while True:
            self._open(name)
            try:
                shard = next(shards, None)
            finally:
                self._close()
            if shard is None:
                return
            self.shards += 1
            if shard.strides[0] != 0:  # a zero row stride is a broadcast mean: no normals drawn
                self.blocks += 1
                self.distinct_blocks.add((seed, k, n))
                self.shard_bytes_max = max(self.shard_bytes_max, shard.shape[0] * shard.shape[1] * 8)
            k += 1
            yield shard

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "sudfer" or key.startswith("sudfer.")]
        for layer, (module_name, attr) in LAYERS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(layer)
                continue
            if layer == "gaussian.rng":
                wrapper = self._timed_shards(layer, original)
            elif layer == "gaussian.transform":
                wrapper = self._timed_transform(layer, original)
            else:
                wrapper = self._timed(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer self times and counts for a traced run of ``wall`` seconds."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            self_s[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({f"{layer}.calls": calls[layer] for layer in COUNTED})
        out["gaussian.shards"] = self.shards
        out["gaussian.normals_drawn"] = self.normals_drawn
        out["gaussian.normals_unique_ratio"] = len(self.distinct_blocks) / self.blocks if self.blocks else 1.0
        out["gaussian.shard_bytes_max"] = self.shard_bytes_max
        out["trace.coverage"] = sum(self_s.values()) / wall
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str, run_id: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "run": run_id}
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": run_id, "absent": self.absent, "spans": rows}, handle)
