"""Deterministic low-discrepancy sampling over chart parameter boxes, the
sample-set geometry (and chart jets) the pointwise checks share, and the run
memo that shares it."""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .geometry import evaluate_chart, geometry_of_jets

DEFAULT_SEED = 0x5EED
DEFAULT_SAMPLES = 512

# (id(immersion), *key) -> (immersion, value) while a run memo is open
_RUN_MEMO: ContextVar[dict | None] = ContextVar("solab_run_memo", default=None)


def _primes(count: int) -> list[int]:
    """The first count primes, by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _scrambled_halton(dim: int, count: int, seed: int) -> np.ndarray:
    """The first count points of the randomized Halton sequence (Owen,
    arXiv:1706.02808) in [0, 1)^dim.

    Coordinate k is a van der Corput sequence in the k-th prime base b whose
    j-th digit goes through its own random permutation of range(b).  The
    permutations are drawn, and the digits summed, in the order of
    ``scipy.stats.qmc.Halton(dim, scramble=True, seed=seed).random(count)``,
    so the points are that call's bit for bit.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, dim))
    for k, base in enumerate(_primes(dim)):
        # one permutation per digit j with base^-(j+1) > 2^-54 in doubles
        digits = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], digits, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        perms = perms.astype(float)
        q, top = np.arange(count), count - 1  # top: the largest quotient
        v = np.zeros(count)
        scale = 1.0 / base
        for j in range(digits):
            if top > 0:
                q, digit = np.divmod(q, base)
                v += perms[j].take(digit) * scale
            else:  # every remaining digit is 0
                v += perms[j, 0] * scale
            top //= base
            scale /= base
        out[:, k] = v
    return out


def sample_box(chart, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Halton points mapped into the chart's parameter box.

    The sequence is scrambled with a fixed seed, so identical configuration
    yields bit-identical samples.
    """
    lo, hi = chart.box
    lo, hi = np.asarray(lo), np.asarray(hi)
    return lo + _scrambled_halton(chart.dim, count, seed) * (hi - lo)


@contextmanager
def run_memo():
    """Within the block, ``memoized`` computes each value of an immersion
    once and hands it out again: the read-only geometry and chart jets of
    each default sample set (immersion, count, seed), and each immersion's
    growth majorant.  The memo is dropped when the block ends."""
    token = _RUN_MEMO.set({})
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


def memoized(imm, key, compute):
    """compute(shared) for imm and key: once per open run memo, which hands
    the value out again, so compute(True) makes read-only what it shares;
    compute(False) on every call outside one."""
    memo = _RUN_MEMO.get()
    if memo is None:
        return compute(False)
    key = (id(imm), *key)  # the memo holds imm, so its id stays unique
    if key not in memo:
        memo[key] = (imm, compute(True))
    return memo[key][1]


def _evaluate(imm, points, read_only=False):
    """Order-2 geometry at the points, and the chart jets (X, J, S) it came
    from; read_only freezes both."""
    points, X, J, S = evaluate_chart(imm.chart, points)
    g = geometry_of_jets(points, X, J, S)
    if read_only:
        g.freeze()
        for value in (X, J, S):
            value.flags.writeable = False
    return g, (X, J, S)


def _sample_set(imm, samples, count, seed):
    if samples is not None:
        return _evaluate(imm, samples)
    return memoized(
        imm, ("samples", count, seed),
        lambda shared: _evaluate(imm, sample_box(imm.chart, count, seed), shared),
    )


def sample_geometry(imm, samples=None, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED):
    """Order-2 geometry at explicit sample points, or at the default
    deterministic Halton set of the given count and seed."""
    return _sample_set(imm, samples, count, seed)[0]


def homothetic_geometries(
    imm, scales, samples=None, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
):
    """Yield the order-2 geometry of the image c*X at the sample set (as in
    ``sample_geometry``) for each c in scales, one at a time.

    The chart language evaluates a rescaled chart (c)*(X) as c times every
    jet, so the jets of c*X are exactly c*X, c*J and c*S of the set's own:
    only the kernel's factors and the fields read are computed again, and H,
    |A|^2 and the frame are recomputed, not rescaled by their laws.  c == 1.0
    yields the set's geometry itself.
    """
    base, (X, J, S) = _sample_set(imm, samples, count, seed)
    for c in scales:
        yield base if c == 1.0 else geometry_of_jets(base.points, c * X, c * J, c * S)
