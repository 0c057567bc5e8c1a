"""Deterministic low-discrepancy sampling over chart parameter boxes, and the
sample-set geometry the pointwise checks share."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields

import numpy as np
from scipy.stats import qmc

from .geometry import geometry

DEFAULT_SEED = 0x5EED
DEFAULT_SAMPLES = 512

# (id(immersion), count, seed) -> (immersion, PointGeometry) while a memo is open
_SHARED: ContextVar[dict | None] = ContextVar("solab_shared_samples", default=None)


def sample_box(chart, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Halton points mapped into the chart's parameter box.

    The sequence is scrambled with a fixed seed, so identical configuration
    yields bit-identical samples.
    """
    lo, hi = chart.box
    lo, hi = np.asarray(lo), np.asarray(hi)
    engine = qmc.Halton(d=chart.dim, scramble=True, seed=seed)
    unit = engine.random(count)
    return lo + unit * (hi - lo)


@contextmanager
def shared_sample_geometry():
    """Within the block, ``sample_geometry`` computes the geometry of each
    default sample set (immersion, count, seed) once and hands out that one
    read-only ``PointGeometry``; the memo is dropped when the block ends."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def sample_geometry(imm, samples=None, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED):
    """Order-2 geometry at explicit sample points, or at the default
    deterministic Halton set of the given count and seed."""
    if samples is not None:
        return geometry(imm, samples)
    memo = _SHARED.get()
    if memo is None:
        return geometry(imm, sample_box(imm.chart, count, seed))
    key = (id(imm), count, seed)  # the memo holds imm, so its id stays unique
    if key not in memo:
        g = geometry(imm, sample_box(imm.chart, count, seed))
        for f in fields(g):
            value = getattr(g, f.name)
            if value is not None:
                value.flags.writeable = False
        memo[key] = (imm, g)
    return memo[key][1]
