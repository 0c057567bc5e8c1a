"""Batched crossings of a level set {r = level} along parameter-space segments.

Marching, meshing and pencil quadrature all need, for many segments [a, b]
whose endpoints straddle a level of the extrinsic radius, the point where r
equals the level.  The segments are solved in t in [0, 1] by Chandrupatla's
bracketed method (Adv. Eng. Software 28 (1997) 145), run as a plain numpy
loop over batches of CROSSING_BLOCK segments: every iteration evaluates r at
all unconverged segments of a batch in one radius_values call, and converged
segments drop out of it.  The block size, not the number of segments of a
call, bounds a batch's memory.

The loop repeats the arithmetic of scipy.optimize.elementwise.find_root step
for step, so it returns the same roots bit for bit, without that function's
fixed per-iteration overhead, which dominates the small batches of a pencil.
Callers already hold the radii at the segment ends (grid nodes, mesh
vertices, scan points) and pass them in, so the chart is never evaluated at
t = 0 or t = 1.  Each segment's iterates depend on that segment alone, so the
results do not depend on how segments are batched.  A scan evaluates r
SCAN_BLOCK pencils per call for the same reason.

The brackets come from scans (pencil_scan): r on a row of nodes along each
pencil plus one parabolic step to every discrete extremum, so a level met
twice between two nodes is still bracketed.  Curves (polyline_crossings)
and pencil quadrature share it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonRegularLevel
from .geometry import Immersion, radius_values

TOLERANCES = {"xatol": 1e-15, "xrtol": 8.9e-16}  # on t in [0, 1]
# Block sizes: each bounds the memory of one batch, and no value depends on
# its batch, so the blocks change no bit.
CROSSING_BLOCK = 1 << 11  # segments per _chandrupatla batch of level_crossings
SCAN_BLOCK = 256  # pencils per radius_values call of a scan
_TINY = np.finfo(float).smallest_normal
_MAXITER = math.log2(np.finfo(float).max) - math.log2(_TINY)


def _chandrupatla(func, f1, f2, xatol, xrtol):
    """Roots in t of func(t, idx) - one per element - on the brackets [0, 1],
    given f1 = func(0) and f2 = func(1); idx holds the positions of the
    elements still iterating.  Returns (t, success); t is NaN where the
    bracket is invalid, success False there and where maxiter ran out.

    The steps follow scipy's _chandrupatla in the same order and arithmetic.
    """
    count = len(f1)
    x1, x2 = np.zeros(count), np.ones(count)
    x3, f3 = x2, f2  # overwritten by the first step before they are read
    t = 0.5
    active = np.arange(count)
    root = np.full(count, np.nan)
    success = np.zeros(count, dtype=bool)
    nit = 0
    while True:
        # termination tests, in find_root's order
        i = np.abs(f1) < np.abs(f2)
        xmin = np.where(i, x1, x2)
        fmin = np.where(i, f1, f2)
        converged = np.abs(fmin) <= _TINY
        failed = ~converged & (
            (np.sign(f1) == np.sign(f2))
            | ~(np.isfinite(x1) & np.isfinite(x2))
            | (np.isnan(f1) & np.isnan(f2))
        )
        xmin[failed] = np.nan
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * xrtol + xatol
        converged |= dx < tol
        stop = converged | failed
        root[active[stop]] = xmin[stop]
        success[active[stop]] = converged[stop]
        if stop.any():
            go = ~stop
            active = active[go]
            x1, f1, x2, f2, x3, f3, dx, tol = (
                v[go] for v in (x1, f1, x2, f2, x3, f3, dx, tol)
            )
        if not len(active) or nit >= _MAXITER:
            return root, success
        if nit:
            # inverse quadratic interpolation where it is safe, else bisection
            xi1 = (x1 - x2) / (x3 - x2)
            with np.errstate(divide="ignore", invalid="ignore"):
                phi1 = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            j = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
            f1j, f2j, f3j, alphaj = f1[j], f2[j], f3[j], alpha[j]
            t = np.full_like(alpha, 0.5)
            t[j] = (f1j / (f1j - f2j) * f3j / (f3j - f2j)
                    - alphaj * f1j / (f3j - f1j) * f2j / (f2j - f3j))
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        x = x1 + t * (x2 - x1)
        f = func(x, active)
        nit += 1
        keep = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(keep, x1, x2), np.where(keep, f1, f2)
        x2, f2 = np.where(keep, x2, x1), np.where(keep, f2, f1)
        x1, f1 = x, f


def level_crossings(imm: Immersion, a, b, ra, rb, level):
    """Points p = a + t (b - a) with r(p) = level, one per segment.

    a, b are (N, n) endpoint arrays and ra, rb their (N,) radii, which must
    bracket the level (an endpoint on the level is returned as is); level is
    a scalar or one value per segment.  Returns the (N, n) points and their
    (N,) parameters t.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    count = len(a)
    if count == 0:
        return np.empty_like(a), np.empty(0)
    level = np.broadcast_to(np.asarray(level, dtype=float), (count,))

    def point(t, i):
        # t = 1 is b itself, so an endpoint root at b is exact
        return np.where((t == 1.0)[:, None], b[i], a[i] + t[:, None] * (b[i] - a[i]))

    def phi(t, i):
        return radius_values(imm, point(t, i)) - level[i]

    x, t, ok = np.empty_like(a), np.empty(count), np.empty(count, dtype=bool)
    for s in range(0, count, CROSSING_BLOCK):
        block = slice(s, s + CROSSING_BLOCK)
        t[block], ok[block] = _chandrupatla(
            lambda u, i: phi(u, i + s), ra[block] - level[block], rb[block] - level[block],
            **TOLERANCES,
        )
        x[block] = point(t[block], block)
    bad = np.nonzero(~ok)[0]
    if len(bad):
        raise NonRegularLevel(
            float(level[bad[0]]),
            f"{len(bad)} of {count} segments do not bracket the level, "
            f"the first from {a[bad[0]].tolist()} to {b[bad[0]].tolist()}",
        )
    return x, t


def pencil_scan(imm: Immersion, prefix, scan):
    """Abscissas and radii (both (m, 2K)) of a polyline along the pencils
    (prefix, x), x on the K scan nodes, shared or one row of nodes per
    pencil: each node followed by a slot.  At each discrete extremum of r on
    the scan one parabolic step goes to the fitted vertex and takes the slot
    on its side, so a chord shorter than the scan step still shows a sign
    change; an empty slot repeats its node.
    """
    m = len(prefix)
    scan = np.broadcast_to(scan, (m, np.shape(scan)[-1]))
    count = scan.shape[1]
    r = np.empty((m, count))
    for s in range(0, m, SCAN_BLOCK):  # r is pointwise, so blocks change no bit
        block = slice(s, s + SCAN_BLOCK)
        pts = np.column_stack([np.repeat(prefix[block], count, axis=0), scan[block].ravel()])
        r[block] = radius_values(imm, pts).reshape(-1, count)
    d = np.diff(r, axis=1)
    p, i = np.nonzero(d[:, :-1] * d[:, 1:] < 0.0)
    i += 1
    step = 0.5 * (scan[p, 1] - scan[p, 0]) * (r[p, i - 1] - r[p, i + 1])
    step = scan[p, i] + step / (r[p, i - 1] - 2.0 * r[p, i] + r[p, i + 1])
    x, rx = np.repeat(scan, 2, axis=1), np.repeat(r, 2, axis=1)
    slot = 2 * i - 1 + 2 * (step > scan[p, i])
    x[p, slot], rx[p, slot] = step, radius_values(imm, np.column_stack([prefix[p], step]))
    return x, rx


def polyline_crossings(imm: Immersion, nodes, levels, periodic=False):
    """Where a curve meets each level along the scan of its parameter nodes
    (with the tangency steps of pencil_scan): per level, the nodes lying on
    it, then one root per segment whose ends straddle it, the segments of
    all levels solved in one batch.  On a periodic parameter the last node
    repeats the first and is not counted again.  Returns one (k, 1) array of
    points per level and the scan's radii."""
    x, r = (v[0] for v in pencil_scan(imm, np.empty((1, 0)), nodes))
    fresh = np.append(True, x[1:] != x[:-1])  # drop the empty slots
    x, r = x[fresh, None], r[fresh]
    levels = np.asarray(levels, dtype=float)
    phi = r - levels[:, None]
    k, i = np.nonzero(phi[:, :-1] * phi[:, 1:] < 0.0)
    roots, _ = level_crossings(imm, x[i], x[i + 1], r[i], r[i + 1], levels[k])
    ends = x[:-1] if periodic else x
    on_level = phi[:, : len(ends)] == 0.0
    # np.nonzero puts the segments in level order
    per_level = np.split(roots, np.cumsum(np.bincount(k, minlength=len(levels)))[:-1])
    return [np.concatenate([ends[on], part]) for on, part in zip(on_level, per_level)], r
