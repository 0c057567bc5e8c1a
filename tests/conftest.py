"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the most memory, in MB, it held at once on
    top of what was allocated before the call (tracemalloc)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak / 2**20


@pytest.fixture
def traced_peak():
    """The (result, peak MB) of a call, for memory budgets."""
    return _traced_peak
