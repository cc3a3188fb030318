"""Shared test helpers."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` under tracemalloc and returns ``(result, peak bytes)``."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return run
