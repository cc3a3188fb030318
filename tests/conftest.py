"""Shared test helpers."""

import tracemalloc

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


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
