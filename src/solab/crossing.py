"""Batched crossings of a level set {r = level} along parameter-space segments.

Marching, meshing and pencil quadrature all need, for many segments [a, b]
whose endpoints straddle a level of the extrinsic radius, the point where r
equals the level.  All segments are solved together by Chandrupatla's
bracketed method (scipy.optimize.elementwise.find_root): every iteration
evaluates r at all unconverged segments in one radius_values call, and each
segment's iterates depend on that segment alone, so results do not depend on
how segments are batched.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize.elementwise import find_root

from .errors import NonRegularLevel
from .geometry import Immersion, radius_values

TOLERANCES = {"xatol": 1e-15, "xrtol": 8.9e-16}  # on t in [0, 1]


def level_crossings(imm: Immersion, a, b, level):
    """Points p = a + t (b - a) with r(p) = level, one per segment.

    a, b are (N, n) endpoint arrays whose radii bracket the level (an endpoint
    on the level is returned as is); level is a scalar or one value per
    segment.  Returns the (N, n) points and their (N,) parameters t.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    count = len(a)
    if count == 0:
        return np.empty_like(a), np.empty(0)
    d = b - a
    level = np.broadcast_to(np.asarray(level, dtype=float), (count,))

    def point(t, i):
        # t = 1 is b itself, so an endpoint root at b is exact
        return np.where((t == 1.0)[:, None], b[i], a[i] + t[:, None] * d[i])

    def phi(t, i):
        return radius_values(imm, point(t, i)) - level[i]

    idx = np.arange(count)
    res = find_root(phi, (np.zeros(count), np.ones(count)), args=(idx,), tolerances=TOLERANCES)
    bad = np.nonzero(~res.success)[0]
    if len(bad):
        raise NonRegularLevel(
            float(level[bad[0]]),
            f"{len(bad)} of {count} segments do not bracket the level, "
            f"the first from {a[bad[0]].tolist()} to {b[bad[0]].tolist()}",
        )
    return point(res.x, idx), res.x


def polyline_crossings(imm: Immersion, pts, r, levels):
    """Where the polyline through pts (radii r) meets each level: the nodes
    lying on a level (the last node excepted), then one root per segment
    whose ends straddle a level, all solved in one batch."""
    levels = np.asarray(levels, dtype=float)
    phi = r - levels[:, None]
    k, i = np.nonzero(phi[:, :-1] * phi[:, 1:] < 0.0)
    roots, _ = level_crossings(imm, pts[i], pts[i + 1], levels[k])
    return np.concatenate([pts[:-1][(phi[:, :-1] == 0.0).any(axis=0)], roots])
