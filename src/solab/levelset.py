"""Extraction of extrinsic-distance level sets {r = R} in parameter space.

n = 1 gives isolated points by root finding, n = 2 a polyline contour by
clipping the grid triangles to the sign of r - R, n = 3 a triangulated
isosurface by marching tetrahedra.  The 2-D pass (`grid_triangles`, `clip`)
is the one fem also meshes its regions with.  Product immersions (cylinders,
planes) additionally admit a closed reduction of all boundary integrals, used
for n >= 3 catalog runs.

Boundary integrals use the induced metric: a parameter-space segment d at
midpoint m contributes sqrt(d^T g(m) d), a triangle half the square root of
the Gram determinant of its edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _radius_on_grid(imm, axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    return pts, radius_values(imm, pts).reshape(mesh[0].shape)


def boundary_area_and_flux(
    imm: Immersion, R: float, resolution: int = 256, method: str = "auto"
) -> BoundaryData:
    """Area of the level set r = R plus the flux and co-area integrals."""
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
        if abs(R - R0) <= 1e-9 * max(1.0, R0):
            raise NonRegularLevel(R, "the whole image sits at this radius")
        return BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True, method=method)
    if method == "product":
        return _product_boundary(imm, R)
    if imm.dim == 1:
        return _points_boundary(imm, R, resolution)
    if imm.dim == 2:
        return _marching_triangles(imm, [R], resolution)[0]
    if imm.dim == 3:
        return _marching_tetrahedra(imm, R, max(resolution // 6, 24))
    raise DimensionUnsupported(f"dim {imm.dim}")


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
    grads = geometry(imm, roots, order=1).grad_r_norm
    return _from_elements(R, np.ones(len(roots)), grads, "points", "at a boundary point")


def _from_elements(R, sizes, grads, method, where):
    """BoundaryData of a level set from its elements' sizes and |grad r|."""
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


def grid_triangles(shape) -> np.ndarray:
    """The (T, 3) diagonal split of a grid whose vertex (i, j) is numbered
    i * shape[1] + j: cell by cell, (i,j),(i+1,j),(i+1,j+1) then
    (i,j),(i+1,j+1),(i,j+1)."""
    vid = np.arange(shape[0] * shape[1]).reshape(shape)
    q0, q1, q2, q3 = (q.ravel() for q in (vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]))
    return np.column_stack([q0, q1, q2, q0, q2, q3]).reshape(-1, 3)


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
    """Segments of {r = R} for each R in levels, on a 2-parameter chart
    (marching triangles).

    r is evaluated on the grid once.  For each level the grid triangles are
    clipped to the sign of r - R (-1 where r < R, +1 elsewhere), so an edge
    is cut when one end has r < R and the other r >= R, and a cut triangle
    holds two crossings, its segment.  The cut edges of all levels are
    solved in one batch; returns one (S, 2, 2) array of segment endpoints
    per level.
    """
    (lo0, lo1), (hi0, hi1) = imm.chart.box
    ax0 = np.linspace(lo0, hi0, resolution + 1)
    ax1 = np.linspace(lo1, hi1, resolution + 1)
    pts, r = _radius_on_grid(imm, (ax0, ax1))
    r = r.ravel()
    tris = grid_triangles((resolution + 1,) * 2)
    crossings, cuts = [], []
    for R in levels:
        if np.ptp(r) <= 1e-12 * max(1.0, abs(R)):
            raise NonRegularLevel(R, "radius is constant on the chart")
        rows, cut = clip(tris, np.where(r - R < 0.0, -1.0, 1.0), 0.0)
        crossings.append(rows[rows >= len(r)] - len(r) + sum(map(len, cuts)))
        cuts.append(cut)
    i, j = np.concatenate(cuts).T
    level = np.repeat(levels, list(map(len, cuts)))
    roots, _ = level_crossings(imm, pts[i], pts[j], r[i], r[j], level)
    return [roots[k].reshape(-1, 2, 2) for k in crossings]


def _marching_triangles(imm: Immersion, levels, resolution: int) -> list:
    out = []
    for R, segments in zip(levels, level_segments(imm, levels, resolution)):
        if not len(segments):
            out.append(BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True, method="marching"))
            continue
        a, b = segments[:, 0], segments[:, 1]
        mid = 0.5 * (a + b)
        g = geometry(imm, mid, order=1)
        d = b - a
        lengths = np.sqrt(np.einsum("ni,nij,nj->n", d, g.metric, d))
        out.append(_from_elements(R, lengths, g.grad_r_norm, "marching", "on the contour"))
    return out


def level_boundaries(imm: Immersion, radii, resolution: int = 256) -> list:
    """boundary_area_and_flux at each radius; on a surface that is marched,
    all radii share one grid evaluation and one crossing batch."""
    if imm.dim != 2 or imm.constant_radius is not None:
        return [boundary_area_and_flux(imm, R, resolution) for R in radii]
    for R in radii:
        imm.require_window(R)
    return _marching_triangles(imm, radii, resolution)


_CUBE_TETS = (  # six tetrahedra per cube, consistent across neighbors
    (0, 1, 3, 7),
    (0, 1, 7, 5),
    (0, 5, 7, 4),
    (0, 3, 2, 7),
    (0, 2, 6, 7),
    (0, 6, 4, 7),
)
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _marching_tetrahedra(imm: Immersion, R: float, resolution: int) -> BoundaryData:
    (lo0, lo1, lo2), (hi0, hi1, hi2) = imm.chart.box
    axes = [
        np.linspace(lo0, hi0, resolution + 1),
        np.linspace(lo1, hi1, resolution + 1),
        np.linspace(lo2, hi2, resolution + 1),
    ]
    pts, r = _radius_on_grid(imm, axes)
    if np.ptp(r) <= 1e-12 * max(1.0, abs(R)):
        raise NonRegularLevel(R, "radius is constant on the chart")
    below = r - R < 0.0
    # corner c of a cube sits at offset (c & 1, c >> 1 & 1, c >> 2 & 1); only
    # cubes with corners on both sides are marched
    m = resolution
    offsets = [(c & 1, c >> 1 & 1, c >> 2 & 1) for c in range(8)]
    cube = [np.s_[i : i + m, j : j + m, k : k + m] for i, j, k in offsets]
    mixed = np.logical_or.reduce([below[c] for c in cube])
    mixed &= ~np.logical_and.reduce([below[c] for c in cube])
    # vertex indices of the corners; C-order indices sort like (i, j, k)
    index = np.arange(r.size).reshape(r.shape)
    corners = np.stack([index[c][mixed] for c in cube], axis=1)
    below = below.ravel()
    tets = corners[:, _CUBE_TETS].reshape(-1, 4)
    ends = np.sort(tets[:, _TET_EDGES], axis=2)  # (T, 6, 2), lower index first
    cut = below[ends[..., 0]] != below[ends[..., 1]]
    keys, inverse = np.unique(ends[cut] @ [r.size, 1], return_inverse=True)
    lo, hi = keys // r.size, keys % r.size
    roots, _ = level_crossings(imm, pts[lo], pts[hi], r.ravel()[lo], r.ravel()[hi], R)
    x = np.zeros(cut.shape + (3,))
    x[cut] = roots[inverse]
    count = cut.sum(axis=1)
    quads = x[count == 4][cut[count == 4]].reshape(-1, 4, 3)
    # a tet has 0, 3 or 4 cut edges; cut edges in _TET_EDGES order put the
    # vertices sharing an uncut edge next to each other, so the two triangles
    # of a quad do not cross
    tri = np.concatenate(
        [x[count == 3][cut[count == 3]].reshape(-1, 3, 3), quads[:, :3], quads[:, 1:]]
    )
    if not len(tri):
        return BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True, method="marching")
    cent = tri.mean(axis=1)
    g = geometry(imm, cent, order=1)
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    g11 = np.einsum("ni,nij,nj->n", e1, g.metric, e1)
    g22 = np.einsum("ni,nij,nj->n", e2, g.metric, e2)
    g12 = np.einsum("ni,nij,nj->n", e1, g.metric, e2)
    areas = 0.5 * np.sqrt(np.maximum(g11 * g22 - g12**2, 0.0))
    return _from_elements(R, areas, g.grad_r_norm, "marching-tets", "on the level set")
