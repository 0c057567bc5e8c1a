"""Extraction of extrinsic-distance level sets {r = R} in parameter space.

n = 1 gives isolated points: one scan of the curve serves all radii of a
call, and their crossings are solved in one level_crossings call.  On 2- and
3-parameter charts one marcher (`level_segments`) cuts the Kuhn simplices of
a structured grid, triangles or tetrahedra, by the sign of r - R into a
polyline contour or a triangulated isosurface; it evaluates r on the grid
once and solves the cut edges of all radii of a call in one level_crossings
call.  Its working set follows the grid and the cut cells: a cell's least
and greatest r come from shifted views of the r grid, corners are formed
for the cut cells only, the crossings are solved in batches of
crossing.CROSSING_BLOCK segments, the grid is evaluated
geometry.RADIUS_BLOCK points per chart evaluation and the element
centroids' geometry is formed geometry.GEOMETRY_BLOCK elements per call.
The same grid helpers (`_cell_corners`, `grid_edges`, and `_KUHN` for one
to three axes) lay fem's meshes, which cut the same Kuhn simplices.  The
immersion's route picks the extraction: declared products (cylinders,
planes) take the closed reduction of all boundary integrals in every
dimension, spherical images have no regular level, and charts are marched.

Boundary integrals use the induced metric: a point counts 1, a segment with
edge e at its midpoint m contributes sqrt(e^T g(m) e), and a triangle half
the square root of the Gram determinant of its edges at its centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .crossing import level_crossings, polyline_crossings
from .errors import DimensionUnsupported, NonRegularLevel
from .geometry import GEOMETRY_BLOCK, Immersion, geometry, radius_values, unit_sphere_volume

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


def level_boundaries(imm: Immersion, radii, resolution: int = 256) -> list:
    """Area of the level set r = R plus the flux and co-area integrals, for
    each R in radii, on the immersion's route.  A marched chart evaluates
    its grid once and solves the crossings of all radii in one batch."""
    for R in radii:
        imm.require_window(R)
    if imm.route == "constant":
        R0 = imm.constant_radius
        for R in radii:
            if abs(R - R0) <= 1e-9 * max(1.0, R0):
                raise NonRegularLevel(R, "the whole image sits at this radius")
        return [BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True) for R in radii]
    if imm.route == "product":
        return [_product_boundary(imm, R) for R in radii]
    if imm.dim == 1:
        levels = _curve_points(imm, radii, resolution)
    elif imm.dim in (2, 3):
        cells = resolution if imm.dim == 2 else max(resolution // 6, 24)
        levels = level_segments(imm, radii, cells)
    else:
        raise DimensionUnsupported(f"no level-set extraction for generic dim {imm.dim}")
    return [
        _from_elements(imm, R, elements, _WHERE[imm.dim]) if len(elements)
        else BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True)
        for R, elements in zip(radii, levels)
    ]


def boundary_area_and_flux(imm: Immersion, R: float, resolution: int = 256) -> BoundaryData:
    """level_boundaries at one radius."""
    return level_boundaries(imm, [R], resolution)[0]


def _product_boundary(imm: Immersion, R: float) -> BoundaryData:
    rad = imm.radial
    c, q = rad.offset, rad.euclid_dim
    if R <= c:
        return BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True)
    t = math.sqrt(R**2 - c**2)
    if t <= GRAD_R_FLOOR * R:
        raise NonRegularLevel(R, "level tangent to the compact fiber")
    area = rad.fiber_volume * unit_sphere_volume(q - 1) * t ** (q - 1)
    grad = t / R  # |X^T|/r on the product
    return BoundaryData(R, area, area * grad, area / grad, 1, grad)


def _curve_points(imm: Immersion, radii, resolution: int) -> list:
    """The (k, 1, 1) boundary points of a curve at each radius, from one
    scan of `resolution` + 1 parameter nodes."""
    (lo,), (hi,) = imm.chart.box
    nodes = np.linspace(lo, hi, resolution + 1)
    points, r = polyline_crossings(imm, nodes, radii, periodic=imm.chart.params[0].periodic)
    for R in radii:
        if np.ptp(r) <= 1e-12 * max(1.0, abs(R)):
            raise NonRegularLevel(R, "radius is constant along the curve")
    return [p[:, None] for p in points]


def _from_elements(imm, R, elements, where):
    """BoundaryData of a level set from its (E, k+1, n) element vertices.
    An element carries |grad r| at its centroid and measures the square root
    of the Gram determinant of its edges in the metric there, 1 for a point.
    The centroids' geometry is formed GEOMETRY_BLOCK elements per call."""
    sizes, grads = np.ones(len(elements)), np.empty(len(elements))
    for start in range(0, len(elements), GEOMETRY_BLOCK):
        block = slice(start, start + GEOMETRY_BLOCK)
        g = geometry(imm, elements[block].mean(axis=1), order=1)
        e = elements[block, 1:] - elements[block, :1]
        gram = {(a, b): np.einsum("ni,nij,nj->n", e[:, a], g.metric, e[:, b])
                for a, b in combinations_with_replacement(range(e.shape[1]), 2)}
        if e.shape[1] == 1:
            sizes[block] = np.sqrt(gram[0, 0])
        elif e.shape[1] == 2:
            sizes[block] = 0.5 * np.sqrt(np.maximum(gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2, 0.0))
        grads[block] = g.grad_r_norm
    if grads.min() < GRAD_R_FLOOR:
        raise NonRegularLevel(R, f"vanishing tangential gradient {where}")
    return BoundaryData(
        R,
        math.fsum(sizes.tolist()),
        math.fsum((sizes * grads).tolist()),
        math.fsum((sizes / grads).tolist()),
        len(sizes),
        float(grads.min()),
    )


# The Kuhn-Freudenthal split of a grid cell (Kuhn 1960): corner c of a cell
# sits at offset (c >> a) & 1 along axis a, and each simplex follows one
# monotone path of corners from 0 to 2^d - 1.  Neighbouring cells split
# their shared faces alike.
_KUHN = {
    1: ((0, 1),),
    2: ((0, 1, 3), (0, 3, 2)),
    3: ((0, 1, 3, 7), (0, 1, 7, 5), (0, 5, 7, 4), (0, 3, 2, 7), (0, 2, 6, 7), (0, 6, 4, 7)),
}
# where a critical level of a chart sits, by chart dimension
_WHERE = {1: "at a boundary point", 2: "on the contour", 3: "on the level set"}


def _cell_corners(shape, cells=None) -> np.ndarray:
    """The (len(cells), 2^d) corner vertices of the given cells, all by
    default, of a grid whose vertices are numbered in C order, cells in C
    order too."""
    d, cell_shape = len(shape), [n - 1 for n in shape]
    if cells is None:
        cells = np.arange(math.prod(cell_shape))
    base = np.ravel_multi_index(np.unravel_index(cells, cell_shape), shape)
    step = np.cumprod([1, *shape[:0:-1]])[::-1]  # vertex id steps along each axis
    offsets = [sum(step[a] for a in range(d) if c >> a & 1) for c in range(2**d)]
    return base[:, None] + np.array(offsets)


def grid_edges(shape) -> np.ndarray:
    """The (E, 2) axis-aligned edges of a grid whose vertices are numbered in
    C order: those along the first axis, then those along the second, and so
    on, each axis's edges in C order of their lower ends."""
    vid = np.arange(math.prod(shape)).reshape(shape)
    return np.concatenate([
        np.column_stack([np.delete(vid, -1, axis=a).ravel(), np.delete(vid, 0, axis=a).ravel()])
        for a in range(len(shape))
    ])


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
    do not cross.  The cut edges of all levels go to one level_crossings
    call, which solves them in blocks.
    """
    d = imm.dim
    lo, hi = imm.chart.box
    axes = [np.linspace(a, b, resolution + 1) for a, b in zip(lo, hi)]
    pts = np.column_stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")])
    r = radius_values(imm, pts)
    shape = (resolution + 1,) * d
    # r at each corner of every cell, as shifted views of the grid: their
    # least and greatest value per cell, cells in C order
    grid = r.reshape(shape)
    views = [grid[tuple(np.s_[c >> a & 1 : resolution + (c >> a & 1)] for a in range(d))]
             for c in range(2**d)]
    rmin, rmax = views[0].copy(), views[0].copy()
    for view in views[1:]:
        np.minimum(rmin, view, out=rmin)
        np.maximum(rmax, view, out=rmax)
    rmin, rmax = rmin.ravel(), rmax.ravel()
    pairs = list(combinations(range(d + 1), 2))
    cuts, keys, inverses = [], [], []
    for R in levels:
        if np.ptp(r) <= 1e-12 * max(1.0, abs(R)):
            raise NonRegularLevel(R, "radius is constant on the chart")
        cells = np.flatnonzero((rmin < R) & (rmax >= R))
        simplices = _cell_corners(shape, cells)[:, _KUHN[d]].reshape(-1, d + 1)
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
