"""Extraction of extrinsic-distance level sets {r = R} in parameter space.

n = 1 gives isolated points by root finding along the curve.  On 2- and
3-parameter charts one marcher (`level_segments`) cuts the Kuhn simplices of
a structured grid, triangles or tetrahedra, by the sign of r - R into a
polyline contour or a triangulated isosurface; it evaluates r on the grid
once and solves the cut edges of all radii of a call in one crossing batch.
fem meshes its regions by clipping the same grid triangles
(`grid_triangles`, `clip`).  Product immersions (cylinders, planes)
additionally admit a closed reduction of all boundary integrals, used for
n >= 3 catalog runs.

Boundary integrals use the induced metric: a point counts 1, a segment with
edge e at its midpoint m contributes sqrt(e^T g(m) e), and a triangle half
the square root of the Gram determinant of its edges at its centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .crossing import level_crossings, polyline_crossings
from .errors import DimensionUnsupported, NonRegularLevel
from .geometry import Immersion, geometry, radius_values, unit_sphere_volume

GRAD_R_FLOOR = 1e-8  # below this |grad r| the level is treated as critical


@dataclass
class BoundaryData:
    radius: float
    area: float  # Vol(boundary of D_R)
    flux: float  # integral of |grad^Sigma r|
    coarea: float  # integral of 1/|grad^Sigma r| (= d/dR of the ball volume)
    element_count: int
    min_grad_r: float
    empty: bool = False
    method: str = ""
    notes: tuple = field(default=())


def level_boundaries(
    imm: Immersion, radii, resolution: int = 256, method: str = "auto"
) -> list:
    """Area of the level set r = R plus the flux and co-area integrals, for
    each R in radii.  A marched chart evaluates its grid once and solves the
    crossings of all radii in one batch."""
    for R in radii:
        imm.require_window(R)
    if method == "auto":
        if imm.constant_radius is not None:
            method = "constant"
        elif imm.dim <= 2:
            method = "marching"
        elif imm.radial is not None:
            method = "product"
        elif imm.dim == 3:
            method = "marching"
        else:
            raise DimensionUnsupported(
                f"no level-set extraction for generic dim {imm.dim}"
            )
    if method == "constant":
        R0 = imm.constant_radius
        for R in radii:
            if abs(R - R0) <= 1e-9 * max(1.0, R0):
                raise NonRegularLevel(R, "the whole image sits at this radius")
        return [BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True, method=method)
                for R in radii]
    if method == "product":
        return [_product_boundary(imm, R) for R in radii]
    if imm.dim == 1:
        return [_points_boundary(imm, R, resolution) for R in radii]
    if imm.dim in (2, 3):
        method, where = _LABELS[imm.dim]
        cells = resolution if imm.dim == 2 else max(resolution // 6, 24)
        return [
            _from_elements(imm, R, elements, method, where) if len(elements)
            else BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True, method="marching")
            for R, elements in zip(radii, level_segments(imm, radii, cells))
        ]
    raise DimensionUnsupported(f"dim {imm.dim}")


def boundary_area_and_flux(
    imm: Immersion, R: float, resolution: int = 256, method: str = "auto"
) -> BoundaryData:
    """level_boundaries at one radius."""
    return level_boundaries(imm, [R], resolution, method)[0]


def _product_boundary(imm: Immersion, R: float) -> BoundaryData:
    rad = imm.radial
    c, q = rad.offset, rad.euclid_dim
    if R <= c:
        return BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True, method="product")
    t = math.sqrt(R**2 - c**2)
    if t <= GRAD_R_FLOOR * R:
        raise NonRegularLevel(R, "level tangent to the compact fiber")
    area = rad.fiber_volume * unit_sphere_volume(q - 1) * t ** (q - 1)
    grad = t / R  # |X^T|/r on the product
    return BoundaryData(
        R, area, area * grad, area / grad, 1, grad, method="product"
    )


def _points_boundary(imm: Immersion, R: float, resolution: int) -> BoundaryData:
    (lo,), (hi,) = imm.chart.box
    nodes = np.linspace(lo, hi, resolution + 1)
    roots, r = polyline_crossings(imm, nodes, [R], periodic=imm.chart.params[0].periodic)
    if np.ptp(r) <= 1e-12 * max(1.0, abs(R)):
        raise NonRegularLevel(R, "radius is constant along the curve")
    if not len(roots):
        return BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True, method="points")
    return _from_elements(imm, R, roots[:, None], "points", "at a boundary point")


def _from_elements(imm, R, elements, method, where):
    """BoundaryData of a level set from its (E, k+1, n) element vertices.
    An element carries |grad r| at its centroid and measures the square root
    of the Gram determinant of its edges in the metric there, 1 for a point."""
    g = geometry(imm, elements.mean(axis=1), order=1)
    e = elements[:, 1:] - elements[:, :1]

    def gram(a, b):
        return np.einsum("ni,nij,nj->n", e[:, a], g.metric, e[:, b])

    if e.shape[1] == 0:
        sizes = np.ones(len(e))
    elif e.shape[1] == 1:
        sizes = np.sqrt(gram(0, 0))
    else:
        sizes = 0.5 * np.sqrt(np.maximum(gram(0, 0) * gram(1, 1) - gram(0, 1) ** 2, 0.0))
    grads = g.grad_r_norm
    if grads.min() < GRAD_R_FLOOR:
        raise NonRegularLevel(R, f"vanishing tangential gradient {where}")
    return BoundaryData(
        R,
        math.fsum(sizes.tolist()),
        math.fsum((sizes * grads).tolist()),
        math.fsum((sizes / grads).tolist()),
        len(sizes),
        float(grads.min()),
        method=method,
    )


# The Kuhn-Freudenthal split of a grid cell (Kuhn 1960): corner c of a cell
# sits at offset (c >> a) & 1 along axis a, and each simplex follows one
# monotone path of corners from 0 to 2^d - 1.  Neighbouring cells split
# their shared faces alike.
_KUHN = {
    2: ((0, 1, 3), (0, 3, 2)),
    3: ((0, 1, 3, 7), (0, 1, 7, 5), (0, 5, 7, 4), (0, 3, 2, 7), (0, 2, 6, 7), (0, 6, 4, 7)),
}
# a marched level's BoundaryData.method, and where a critical level sits
_LABELS = {2: ("marching", "on the contour"), 3: ("marching-tets", "on the level set")}


def _cell_corners(shape) -> np.ndarray:
    """The (cells, 2^d) corner vertices of a grid whose vertices are numbered
    in C order, cells in C order too."""
    vid = np.arange(math.prod(shape)).reshape(shape)
    return np.column_stack([
        vid[tuple(np.s_[c >> a & 1 : n - 1 + (c >> a & 1)] for a, n in enumerate(shape))].ravel()
        for c in range(2 ** len(shape))
    ])


def grid_triangles(shape) -> np.ndarray:
    """The (T, 3) Kuhn split of a grid whose vertex (i, j) is numbered
    i * shape[1] + j: cell by cell, (i,j),(i+1,j),(i+1,j+1) then
    (i,j),(i+1,j+1),(i,j+1)."""
    return _cell_corners(shape)[:, _KUHN[2]].reshape(-1, 3)


def grid_edges(shape) -> np.ndarray:
    """The (E, 2) axis-aligned edges of the grid numbered as in
    `grid_triangles`: those along the first axis, then those along the second."""
    vid = np.arange(shape[0] * shape[1]).reshape(shape)
    return np.concatenate([
        np.column_stack([vid[:-1, :].ravel(), vid[1:, :].ravel()]),
        np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()]),
    ])


def clip(polys: np.ndarray, phi: np.ndarray, eps: float):
    """The phi <= 0 parts of polygons, by one array Sutherland-Hodgman pass.

    polys is a (P, C) array of vertex-index loops padded at the end with -1.
    A row with every phi <= eps is kept whole and one with every phi >= -eps
    is dropped.  Any other row keeps its vertices with phi <= eps and gets a
    crossing vertex after a vertex whose edge to the next one has ends beyond
    -eps and eps; a vertex with phi < -eps keeps itself and one entry on each
    side, so no clipped row has fewer than 3.  The crossing on edge k in order
    of first meeting (rows in order, edges along each loop) is vertex
    len(phi) + k, and an edge shared by two rows gets one number.  Returns the
    clipped rows, padded with -1, and the (k, 2) cut edges, lower index first.
    """
    cols = polys.shape[1]
    # a pad takes its row's first vertex: the extremes stay, and the last
    # vertex's successor is the first one
    vals = phi[polys]
    for c in range(3, cols):
        pad = polys[:, c] < 0
        vals[pad, c] = vals[pad, 0]
    hi, lo = np.maximum(vals[:, 0], vals[:, 1]), np.minimum(vals[:, 0], vals[:, 1])
    for c in range(2, cols):  # column by column: axis=1 reductions are slow
        np.maximum(hi, vals[:, c], out=hi)
        np.minimum(lo, vals[:, c], out=lo)
    mixed = np.nonzero((hi > eps) & (lo < -eps))[0]
    valid = polys[mixed] >= 0
    a, va = np.where(valid, polys[mixed], polys[mixed, :1]), vals[mixed]
    b, vb = np.roll(a, -1, axis=1), np.roll(va, -1, axis=1)
    cut = (va < -eps) & (vb > eps) | (va > eps) & (vb < -eps)
    ends = np.sort(np.stack([a[cut], b[cut]], axis=1), axis=1)
    keys, first, inverse = np.unique(
        ends[:, 0] * len(phi) + ends[:, 1], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    number = np.empty(len(keys), dtype=int)
    number[order] = len(phi) + np.arange(len(keys))
    # each vertex slot is followed by a crossing slot
    slots = np.full((len(mixed), 2 * cols), -1)
    slots[:, 0::2] = np.where((va <= eps) & valid, a, -1)
    slots[:, 1::2][cut] = number[inverse]
    slots = np.take_along_axis(slots, np.argsort(slots < 0, axis=1, kind="stable"), axis=1)
    width = max(cols, int((slots >= 0).any(axis=0).sum()))
    rows = np.flatnonzero((hi <= eps) | (lo < -eps))
    out = np.full((len(rows), width), -1)
    out[:, :cols] = polys[rows]
    out[np.searchsorted(rows, mixed)] = slots[:, :width]
    return out, ends[first[order]]


def level_segments(imm: Immersion, levels, resolution: int = 256) -> list:
    """The (E, d, d) element vertices of {r = R} for each R in levels on a
    d = 2- or 3-parameter chart, marched over the Kuhn simplices of a grid
    of `resolution` cells per axis: the segments of a contour or the
    triangles of an isosurface.

    r is evaluated on the grid once.  A level cuts the cells whose corners
    have r < R and r >= R, and an edge of their simplices when its ends do.
    A simplex is cut on d edges (one element) or, in 3-D, on 4 (a quad, two
    triangles); the cut edges in local edge order put the crossings that
    share an uncut edge next to each other, so the two triangles of a quad
    do not cross.  The cut edges of all levels are solved in one batch.
    """
    d = imm.dim
    lo, hi = imm.chart.box
    axes = [np.linspace(a, b, resolution + 1) for a, b in zip(lo, hi)]
    pts = np.column_stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")])
    r = radius_values(imm, pts)
    corners = _cell_corners((resolution + 1,) * d)
    rmin, rmax = r[corners].min(axis=1), r[corners].max(axis=1)
    pairs = list(combinations(range(d + 1), 2))
    cuts, keys, inverses = [], [], []
    for R in levels:
        if np.ptp(r) <= 1e-12 * max(1.0, abs(R)):
            raise NonRegularLevel(R, "radius is constant on the chart")
        simplices = corners[(rmin < R) & (rmax >= R)][:, _KUHN[d]].reshape(-1, d + 1)
        ends = np.sort(simplices[:, pairs], axis=2)  # lower index first
        below = r[ends] - R < 0.0
        cut = below[..., 0] != below[..., 1]
        key, inverse = np.unique(ends[cut] @ [r.size, 1], return_inverse=True)
        inverses.append(inverse + sum(map(len, keys)))
        cuts.append(cut)
        keys.append(key)
    key = np.concatenate(keys)
    i, j = key // r.size, key % r.size
    level = np.repeat(levels, list(map(len, keys)))
    roots, _ = level_crossings(imm, pts[i], pts[j], r[i], r[j], level)
    out = []
    for cut, inverse in zip(cuts, inverses):
        x = roots[inverse]  # the crossings, simplex by simplex in local edge order
        count = cut.sum(axis=1)
        elements = []
        for k in range(d, 2 * d - 1):  # d cut edges, or 4 in a tetrahedron
            p = x[np.repeat(count == k, count)].reshape(-1, k, d)
            elements += [p[:, s : s + d] for s in range(k - d + 1)]
        out.append(np.concatenate(elements))
    return out
