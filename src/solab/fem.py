"""Dirichlet solves on extrinsic regions with the induced metric.

Capacity and mean exit time are one Dirichlet problem on an extrinsic
region {rho < r < R}: -Delta u = f with u = 1 on r = rho, u = 0 on r = R and
on window cuts, where f = 0 gives the equilibrium potential of the annulus
and f = 1, on the ball (rho = 0), the mean exit time.  solve_region meshes
the region, checks that the levels it needs carry vertices and solves; the
boundary data reach solve_dirichlet as a mask of fixed dofs and their values.

Meshing, one path for curves, surfaces and 3-parameter charts: the Kuhn
simplices of a structured parameter-space grid (the split that the level-set
marcher also cuts) are cut against the level sets r = R and r = rho, one
level at a time, by cut-and-snap (Labelle & Shewchuk, "Isosurface
stuffing", 2007).  Grid vertices close to a level set are first snapped onto
it by root finding along grid edges.  A simplex then keeps its part on the
region's side of the level, a product of two simplices spanned by its inside
vertices and the crossings on its cut edges, split by the staircase
triangulation; sorting vertices by global id makes neighbours split shared
faces alike, so the mesh conforms.  Each level's edge roots are solved in
one batch (crossing.level_crossings).  Periodic chart axes take their full
range, and the copies of a seam vertex share one degree of freedom by grid
index.  Boundary vertices carry tags: "inner" (r = rho) and "outer" (r = R),
the level that the snap pass or the cut put them on, and "cut" where a
non-proper window truncates the region.  Charts of four or more parameters
are not meshed.

Assembly: piecewise-linear Galerkin on segments, triangles or tetrahedra
with the per-simplex induced metric (centroid value), so the discrete
Dirichlet energy is
  sum_T vol_T sqrt(det g) grad^T g^{-1} grad.
The capacity solve minimizes exactly this energy; the solver is conjugate
gradients with diagonal preconditioning, run on a row-padded sparse matrix
(PaddedRows) in the order of operations of scipy.sparse.linalg.cg.

Working set: the layer's memory follows the size of its outputs, not of its
per-entry temporaries.  Assembly forms one (row, col) key per stiffness entry
straight from the simplex dofs, sorts the keys once, finds each entry's slot
by bisection and sums the entries with np.bincount in their given order; the
gradients and local matrices are dropped as soon as they are used.  The
centroid metric is formed CENTROID_BLOCK simplices per geometry call, and
component labels pass one slot of the padded rows at a time.  The snap pass
evaluates r on the grid once and then only at the vertices it moved.  A
report writes a check's mesh artifacts when the check ends, EXPORT_BLOCK
table rows at a time, so no mesh outlives its check, and marches the
capacity bound's level sets before it meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .crossing import level_crossings
from .errors import (
    DimensionUnsupported,
    DisconnectedRegion,
    MeshFailure,
    NonProportional,
    SolverDivergence,
)
from .geometry import Immersion, evaluate_chart, geometry, radius_values
from .levelset import _KUHN, _cell_corners, grid_edges, level_boundaries
from .quadrature import ExtrinsicRegion, Margin, _region_bounds, compare
from .solitons import SolitonSpec, soliton_residual

CENTROID_BLOCK = 1 << 12  # simplices per geometry call of mesh_region: bounds its memory
EXPORT_BLOCK = 1 << 12  # table rows formatted at once by an export: bounds its memory
SNAP_FRACTION = 0.3  # grid vertices closer than this (in edge units) snap onto the level
BOUND_RADII = 21  # levels of the capacity bound's foliation integral
BOUND_RESOLUTION = 160  # grid cells per axis of its marched levels
BOUND_SLACK = 0.05  # relative slack of the capacity against its foliation bound
EXIT_TIME_TOL = 1e-3  # slack of the direct-flow exit-time comparison
PROPORTIONAL_TOL = 0.02  # relative spread of an exit-time ratio that counts as constant


@dataclass
class Mesh:
    imm: Immersion
    vertices: np.ndarray  # (V, n) parameter coordinates
    simplices: np.ndarray  # (S, n+1)
    tags: dict  # "inner", "outer" and "cut", always all three -> disjoint sorted vertex ids
    metric: np.ndarray  # (S, n, n) induced metric at simplex centroids
    metric_inv: np.ndarray  # (S, n, n) its inverse, from the geometry kernel
    sqrt_det: np.ndarray  # (S,)
    r: np.ndarray  # (V,) extrinsic radius at the vertices
    dof_map: np.ndarray  # vertex -> degree of freedom (ties periodic seams)
    notes: tuple = field(default=())

    @property
    def dof_count(self):
        return int(self.dof_map.max()) + 1 if len(self.dof_map) else 0

    @property
    def vertex_count(self):
        return len(self.vertices)

    def boundary_vertices(self):
        # the tags are disjoint: a sort is their union (np.unique would load numpy.ma)
        return np.sort(np.concatenate([self.tags[key] for key in ("inner", "outer", "cut")]))

    def euler_characteristic(self):
        """The alternating sum of face counts, V - E + F - ..., over the
        degrees of freedom."""
        dofs = self.dof_map[self.simplices]
        chi = 0
        for k in range(1, dofs.shape[1] + 1):  # faces of k vertices
            faces = np.sort(dofs[:, list(combinations(range(dofs.shape[1]), k))], axis=2)
            chi -= (-1) ** k * len(np.unique(faces.reshape(-1, k), axis=0))
        return chi


def mesh_region(imm: Immersion, region: ExtrinsicRegion, h: float = 0.1) -> Mesh:
    """Conforming simplicial mesh of {rho < r < R} in parameter space."""
    imm.require_window(region.R)
    d = imm.dim
    if d not in _KUHN:
        raise DimensionUnsupported(
            f"PDE solves run on charts of 1 to 3 parameters; {imm.name} has dim {d}"
        )
    bounds = _region_bounds(imm, [region], 4096, 37, 0.05)[0]
    if bounds is None:
        raise MeshFailure(
            f"{imm.name}: the region {region.rho} < r < {region.R} is empty"
        )
    params = imm.chart.params
    coords = []
    for p, lo, hi in zip(params, *bounds):
        if p.periodic:  # the full range, whose two ends are tied
            lo, hi = p.min, p.max
        # a window of the chart box's own lattice, at least 6 cells across,
        # so that a node such as the centre of a symmetric box stays a node
        m = max(math.ceil(p.span / h), math.ceil(6 * p.span / (hi - lo)))
        nodes = np.linspace(p.min, p.max, m + 1)
        start, stop = np.searchsorted(nodes, lo, "right") - 1, np.searchsorted(nodes, hi)
        coords.append(nodes[start : stop + 1])
    shape = [len(c) for c in coords]
    verts = np.column_stack([g.ravel() for g in np.meshgrid(*coords, indexing="ij")])
    # a vertex's dof is the grid index of its lowest seam copy
    index = np.indices(shape).reshape(d, -1)
    for a, p in enumerate(params):
        if p.periodic:
            index[a] %= shape[a] - 1
    dof = np.ravel_multi_index(index, shape)

    # keep phi <= 0: phi = r - R against the outer level, rho - r against the inner;
    # on[v] is the level (0 outer, 1 inner) that the snap pass or a cut put v on
    levels = [(region.R, 1.0), (region.rho, -1.0)][: 2 if region.rho > 0 else 1]
    on, r = _snap_to_levels(imm, verts, grid_edges(shape), levels, dof)
    simplices = _cell_corners(shape)[:, _KUHN[d]].reshape(-1, d + 1)
    for k, (level, sign) in enumerate(levels):
        phi = sign * (r - level)
        phi[(np.abs(phi) <= 1e-13 * max(1.0, level)) | (on == k)] = 0.0
        on[(phi == 0.0) & (on < 0)] = k
        simplices, (i, o) = _cut(simplices, phi)
        # the seam copies of a cut edge share one solve, its r and its dof
        pairs = dof[i] * len(dof) + dof[o]
        _, first, tied = np.unique(pairs, return_index=True, return_inverse=True)
        i0, o0 = i[first], o[first]
        _, t = level_crossings(imm, verts[i0], verts[o0], r[i0], r[o0], level)
        points = verts[i] + t[tied, None] * (verts[o] - verts[i])
        r = np.concatenate([r, radius_values(imm, points[first])[tied]])
        dof = np.concatenate([dof, len(verts) + first[tied]])
        on = np.concatenate([on, np.full(len(points), k)])
        verts = np.vstack([verts, points])
    if not len(simplices):
        raise MeshFailure(
            f"{imm.name}: no mesh cells inside {region.rho} < r < {region.R}"
        )

    used, simplices = np.unique(simplices, return_inverse=True)
    simplices = simplices.reshape(-1, d + 1)
    verts, r, dof, on = verts[used], r[used], dof[used], on[used]
    # positive orientation in parameter space
    edges = verts[simplices[:, 1:]] - verts[simplices[:, :1]]
    flip = np.linalg.det(edges) < 0
    simplices[flip, -2:] = simplices[flip, :-3:-1]

    cut = np.zeros(len(verts), dtype=bool)
    for axis, p in enumerate(params):
        if not p.periodic:
            for end in (p.min, p.max):
                cut |= np.abs(verts[:, axis] - end) < 1e-10 * max(1.0, abs(end))
    tags = {"inner": np.flatnonzero(on == 1), "outer": np.flatnonzero(on == 0),
            "cut": np.flatnonzero(cut & (on < 0))}
    truncated = "region truncated by the chart window; cut edges carry artificial boundary data"
    notes = (truncated,) if len(tags["cut"]) else ()

    # the centroid metric, CENTROID_BLOCK simplices per geometry call; a
    # point's geometry does not depend on its batch, so blocks change no bit
    metric = np.empty((len(simplices), d, d))
    metric_inv, sqrt_det = np.empty_like(metric), np.empty(len(simplices))
    for start in range(0, len(simplices), CENTROID_BLOCK):
        block = slice(start, start + CENTROID_BLOCK)
        g = geometry(imm, verts[simplices[block]].mean(axis=1), order=1)
        metric[block], metric_inv[block], sqrt_det[block] = g.metric, g.metric_inv, g.sqrt_det
    return Mesh(
        imm,
        verts,
        simplices,
        tags,
        metric,
        metric_inv,
        sqrt_det,
        r,
        np.unique(dof, return_inverse=True)[1],
        notes,
    )


def _staircase(p, q):
    """The monotone lattice paths from (0, 0) to (p - 1, q), as flat indices
    a (q + 1) + b of their points (a, b): the staircase triangulation of the
    product of simplices Delta_(p-1) x Delta_q (De Loera, Rambau & Santos,
    Triangulations, 6.2)."""
    steps = range(p - 1 + q)
    # a step in a moves q + 1 places along the flat indices, one in b one place
    return np.array([
        np.cumsum([0] + [q + 1 if step in rises else 1 for step in steps])
        for rises in combinations(steps, p - 1)
    ])


def _cut(simplices, phi):
    """The phi <= 0 parts of (S, d+1) simplices, cut at the crossings of their
    edges (Labelle & Shewchuk, "Isosurface stuffing", 2007).

    A simplex with inside vertices I (phi <= 0) and outside vertices O, each
    sorted by vertex id, keeps the product of simplices spanned by the
    lattice points (a, 0) = I[a] and (a, b >= 1) = the crossing on edge
    (I[a], O[b - 1]); it is split along the monotone lattice paths.  Sorting
    by global id makes neighbouring simplices split their shared faces alike.
    A crossing next to a vertex with phi = 0 is that vertex, and a simplex
    that repeats a vertex is dropped.  The crossing on the k-th cut edge, in
    order of (inside, outside) ids, is vertex len(phi) + k.  Returns the
    simplices and the cut edges, inside ends first.
    """
    V, width = len(phi), simplices.shape[1]
    out = phi[simplices] > 0.0
    outside = out.sum(axis=1)
    mixed = (outside > 0) & (outside < width)
    # inside vertices first, each part in order of vertex id
    ranked = np.sort(simplices[mixed] + V * out[mixed], axis=1) % V
    parts = [(k, ranked[outside[mixed] == width - k]) for k in range(1, width)]
    ends = [np.broadcast_arrays(rows[:, :k, None], rows[:, None, k:]) for k, rows in parts]
    i = np.concatenate([a.ravel() for a, _ in ends])
    o = np.concatenate([b.ravel() for _, b in ends])
    moved = phi[i] != 0.0
    keys, number = np.unique(i[moved] * V + o[moved], return_inverse=True)
    crossing = i.copy()
    crossing[moved] = V + number
    pieces = []
    start = 0
    for k, rows in parts:
        q = width - k
        lattice = np.concatenate(
            [rows[:, :k, None], crossing[start : start + len(rows) * k * q].reshape(-1, k, q)],
            axis=2,
        )
        start += len(rows) * k * q
        paths = lattice.reshape(len(rows), k * (q + 1))[:, _staircase(k, q)]
        pieces.append(paths.reshape(-1, width))
    pieces = np.concatenate(pieces)
    ordered = np.sort(pieces, axis=1)
    pieces = pieces[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
    return np.concatenate([simplices[outside == 0], pieces]), (keys // V, keys % V)


def _snap_to_levels(imm, verts, edges, levels, dof=None):
    """Move grid vertices within SNAP_FRACTION (in edge units) of a level set
    onto it, in place, visiting the cut edges in order; returns the index
    in levels, a list of (level, sign) pairs, of the level each vertex was
    snapped onto (-1 for none) and r at the vertices.

    Each level's cut edges are solved in one batch.  A snapped vertex gets
    phi = 0, which skips its later edges, so every edge still used has
    unmoved endpoints and the root a one-edge-at-a-time pass would find.
    Vertices with one dof (the copies of a periodic seam, dof being the
    index of the lowest copy) share one r and move together.
    """
    tie = np.arange(len(verts)) if dof is None else dof
    groups = {}
    for v in np.flatnonzero(tie != np.arange(len(tie))).tolist():
        groups.setdefault(int(tie[v]), [int(tie[v])]).append(v)
    # each seam copy -> all its copies, itself too, with their offsets from it
    copies = {
        v: [(c, verts[c] - verts[v]) for c in group] for group in groups.values() for v in group
    }
    rv = radius_values(imm, verts)[tie]
    on = [-1] * len(verts)
    for k, (level, sign) in enumerate(levels):
        phi = sign * (rv - level)
        pa, pb = phi[edges[:, 0]], phi[edges[:, 1]]
        cut = edges[(pa != 0.0) & (pb != 0.0) & ((pa < 0.0) != (pb < 0.0))]
        i, j = cut.T
        points, ts = level_crossings(imm, verts[i], verts[j], rv[i], rv[j], level)
        moved = []
        for (a, b), point, t in zip(cut.tolist(), points, ts.tolist()):
            if phi[a] == 0.0 or phi[b] == 0.0:
                continue
            for vtx, dist in ((a, t), (b, 1.0 - t)):
                if dist < SNAP_FRACTION and on[vtx] < 0:
                    for c, offset in copies.get(vtx, ((vtx, 0.0),)):
                        verts[c] = point + offset
                        on[c] = k
                        phi[c] = 0.0
                        moved.append(c)
                    break
        # the other level's phi sees the moved vertices: r anew at the lowest
        # copy of each, given to all its copies (which all moved with it)
        lowest, copy_of = np.unique(tie[moved], return_inverse=True)
        rv[moved] = radius_values(imm, verts[lowest])[copy_of]
    return np.array(on), rv


# --- assembly and solves -----------------------------------------------------------

def _simplex_gradients(verts, simplices):
    """Volumes |det M| / d! of (S, d+1) simplices, M's columns their edges,
    and the (S, d, d+1) parameter-space gradients of their barycentric
    coordinates, M^-T [-1 ... -1; I]^T.

    The gradient of the v-th barycentric coordinate, v >= 1, is row v - 1 of
    M^-1 = adj(M) / det M, in closed form for d = 1, 2, 3: the rows of adj(M)
    are e2 x e3, e3 x e1 and e1 x e2 for edges e1, e2, e3, and for d = 2 they
    are (e2[1], -e2[0]) and (-e1[1], e1[0]).  The gradients sum to zero."""
    e = verts[simplices[:, 1:]] - verts[simplices[:, :1]]  # (S, d, d): edge k is e[:, k]
    d = e.shape[1]
    if d == 1:
        adj = np.ones_like(e)
        det = e[:, 0, 0]
    elif d == 2:
        (a, c), (b, f) = e[:, 0].T, e[:, 1].T
        adj = np.stack([np.stack([f, -b], axis=1), np.stack([-c, a], axis=1)], axis=1)
        det = a * f - b * c
    else:
        adj = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])
        det = np.einsum("si,si->s", e[:, 0], adj[:, 0])
    rows = adj / det[:, None, None]  # (S, d, d): rows of M^-1
    G = np.empty((len(e), d, d + 1))
    G[:, :, 1:] = rows.transpose(0, 2, 1)
    G[:, :, 0] = -rows.sum(axis=1)
    return np.abs(det) / math.factorial(d), G


@dataclass(frozen=True)
class PaddedRows:
    """A square sparse matrix held by rows: column j of ``index`` and
    ``value``, both (w, V), lists row j's entries in increasing column order,
    padded with zeros on column 0 to the widest row's w entries.  ``A @ v``
    sums each row in that order, as a CSR matrix-vector product does."""

    index: np.ndarray  # (w, V) column indices
    value: np.ndarray  # (w, V) entries, 0 past the end of a row

    @classmethod
    def assembled(cls, rows, cols, values, size):
        """The size x size matrix of the (row, col, value) entries, with the
        duplicates of an entry summed in the order they are given.  rows,
        cols and values broadcast against each other, so an (S, k, 1) array
        of rows and an (S, 1, k) one of columns give every entry of S local
        k x k blocks without forming their (row, col) pairs."""
        entries = np.ravel(rows * size + cols)
        keys = np.sort(entries)  # sorted once; each entry finds its slot by bisection
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        slot = np.searchsorted(keys, entries)
        del entries
        summed = np.bincount(slot, weights=np.ravel(values), minlength=len(keys))
        del slot
        row = keys // size
        place = np.arange(len(keys)) - np.searchsorted(row, row)  # position within its row
        width = int(place.max()) + 1 if len(keys) else 0
        index = np.zeros((width, size), dtype=np.intp)
        value = np.zeros((width, size))
        index[place, row] = keys % size
        value[place, row] = summed
        return cls(index, value)

    @property
    def size(self):
        return self.index.shape[1]

    def __matmul__(self, v):
        return (self.value * v[self.index]).sum(axis=0)

    def diagonal(self):
        return np.where(self.index == np.arange(self.size), self.value, 0.0).sum(axis=0)

    def restrict(self, keep):
        """The submatrix of the rows and columns where keep holds, numbered in
        order; zero entries are dropped."""
        index, value = self.index[:, keep], self.value[:, keep]
        live = keep[index] & (value != 0.0)
        width = int(live.sum(axis=0).max(initial=0))
        order = np.argsort(~live, axis=0, kind="stable")[:width]  # live entries first, in order
        live = np.take_along_axis(live, order, axis=0)
        number = np.cumsum(keep) - 1
        return PaddedRows(
            np.where(live, number[np.take_along_axis(index, order, axis=0)], 0),
            np.where(live, np.take_along_axis(value, order, axis=0), 0.0),
        )


def assemble(mesh: Mesh):
    """Stiffness matrix, Poisson load (f = 1) and lumped mass, induced metric."""
    simplices = mesh.simplices
    k = simplices.shape[1]
    vol, G = _simplex_gradients(mesh.vertices, simplices)
    weight = vol * mesh.sqrt_det
    Kloc = G.transpose(0, 2, 1) @ (mesh.metric_inv @ G)
    del G
    Kloc *= weight[:, None, None]
    dofs = mesh.dof_map[simplices]
    # entry (a, b) of simplex s sits at row dofs[s, a], column dofs[s, b]
    K = PaddedRows.assembled(dofs[:, :, None], dofs[:, None, :], Kloc, mesh.dof_count)
    del Kloc
    load = np.zeros(mesh.dof_count)
    np.add.at(load, dofs.ravel(), np.repeat(weight / k, k))
    return K, load


@dataclass
class DirichletSolution:
    values: np.ndarray
    energy: float
    residual: float
    iterations: int  # CG iterations used
    mesh: Mesh


def _check_components(K: PaddedRows, dirichlet_idx):
    """Raise DisconnectedRegion for the components of K's graph (its nonzero
    entries) without a Dirichlet dof, each numbered by the rank of its
    smallest dof.  Labels pass along the entries one slot of the padded
    rows at a time, both ways, so a link counts in either direction."""
    label = np.arange(K.size)  # converges to the smallest dof of each component
    while True:
        low = label.copy()
        for cols, values in zip(K.index, K.value):
            linked = values != 0.0
            np.minimum(low, label[cols], out=low, where=linked)  # a row takes its columns' labels
            np.minimum.at(low, cols[linked], label[linked])  # and gives them its own
        low = low[low]
        if (low == label).all():
            break
        label = low
    labels = np.unique(label, return_inverse=True)[1]
    with_bc = set(labels[dirichlet_idx].tolist())
    missing = [c for c in range(int(labels.max(initial=-1)) + 1) if c not in with_bc]
    if missing:
        raise DisconnectedRegion(missing)


def cg(A, b, inv_diag, maxiter, callback=None):
    """Jacobi-preconditioned conjugate gradients for A x = b from x = 0, in
    the order of operations of scipy.sparse.linalg.cg with M = diag(inv_diag):
    it stops once |r| < 1e-10 |b| and calls callback(x) after each
    iteration.  Returns x and 0, or maxiter when the tolerance is missed."""
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return b, 0
    atol = 1e-10 * bnorm
    r = b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = inv_diag * r
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def solve_dirichlet(mesh: Mesh, K: PaddedRows, rhs, fixed, values) -> DirichletSolution:
    """Solve K u = rhs for u = values on the fixed dofs (a boolean mask; the
    other entries of values are not read), reduced to the free dofs, by
    Jacobi-preconditioned CG.  The returned field is expanded back to the
    vertices (periodic seam copies share their dof value)."""
    V = mesh.dof_count
    u = np.where(fixed, values, 0.0)
    if not fixed.any():
        raise MeshFailure("Dirichlet problem without any boundary vertices")
    _check_components(K, np.nonzero(fixed)[0])
    free = ~fixed
    Kff = K.restrict(free)
    b = rhs[free] - (K @ u)[free]  # u vanishes on the free dofs
    diag = Kff.diagonal()
    diag[diag <= 0] = 1.0
    cap = int(50 * math.sqrt(V)) + 10
    iterations = 0

    def count(_xk):
        nonlocal iterations
        iterations += 1

    x, info = cg(Kff, b, 1.0 / diag, cap, callback=count)
    if info > 0:
        raise SolverDivergence(
            f"conjugate gradients missed 1e-10 within {cap} iterations"
        )
    u[free] = x
    res = float(np.linalg.norm(Kff @ x - b) / max(np.linalg.norm(b), 1e-300))
    energy = float(u @ (K @ u))
    return DirichletSolution(u[mesh.dof_map], energy, res, iterations, mesh)


def solve_region(imm: Immersion, rho: float, R: float, h: float, f: float) -> DirichletSolution:
    """-Delta u = f on {rho < r < R} with u = 1 on r = rho and u = 0 on r = R
    and on window cuts.  Both levels must carry vertices, except r = rho = 0
    under a source (the exit time's ball), whose centre needs no boundary."""
    mesh = mesh_region(imm, ExtrinsicRegion(imm, rho, R), h)
    needed = {"outer": R, "inner": rho} if rho > 0 or f == 0 else {"outer": R}
    for tag, level in needed.items():
        if not len(mesh.tags[tag]):
            raise MeshFailure(f"{imm.name}: no mesh vertices on r = {level} of {rho} < r < {R}")
    K, load = assemble(mesh)
    fixed = np.zeros(mesh.dof_count, bool)
    fixed[mesh.dof_map[mesh.boundary_vertices()]] = True
    values = np.zeros(mesh.dof_count)
    values[mesh.dof_map[mesh.tags["inner"]]] = 1.0
    return solve_dirichlet(mesh, K, f * load, fixed, values)


# --- capacity ---------------------------------------------------------------------


@dataclass
class CapacityResult:
    cap: float  # Dirichlet energy of the equilibrium potential
    boundary_flux_form: float  # independent evaluation along the inner boundary
    solution: DirichletSolution


def capacity(imm: Immersion, rho: float, R: float, h: float = 0.05) -> CapacityResult:
    sol = solve_region(imm, rho, R, h, 0.0)
    return CapacityResult(sol.energy, _boundary_gradient_integral(sol.mesh, sol.values, "inner"), sol)


def _boundary_gradient_integral(mesh: Mesh, u, tag):
    """Integral of |grad u| over the tagged boundary (per-simplex gradients):
    each facet, a d-vertex face whose vertices are all tagged, counts once for
    every simplex that owns it, measured in that simplex's metric.  So a
    level the region meets from both sides, like a tangent inner level, gets
    the flux of both."""
    simplices, verts = mesh.simplices, mesh.vertices
    d = verts.shape[1]
    facets = simplices[:, list(combinations(range(d + 1), d))].reshape(-1, d)
    on = np.isin(facets, mesh.tags[tag]).all(axis=1)
    s = np.nonzero(on)[0] // (d + 1)  # the simplex owning each tagged facet
    _, G = _simplex_gradients(verts, simplices[s])
    grad = np.einsum("kiv,kv->ki", G, u[simplices[s]])
    norm2 = np.einsum("ki,kij,kj->k", grad, mesh.metric_inv[s], grad)
    # a facet measures the square root of the Gram determinant of its d - 1
    # edges over (d - 1)!; a point's empty Gram matrix has determinant 1
    e = verts[facets[on, 1:]] - verts[facets[on, :1]]
    gram = np.einsum("kai,kij,kbj->kab", e, mesh.metric[s], e)
    measure = np.sqrt(np.linalg.det(gram)) / math.factorial(d - 1)
    return float(math.fsum((np.sqrt(np.maximum(norm2, 0.0)) * measure).tolist()))


@dataclass
class CapacityBound:
    bound: float
    radii: np.ndarray
    flux: np.ndarray


def capacity_upper_bound(imm: Immersion, rho: float, R: float):
    """Dirichlet-energy bound from the radial foliation:
    cap <= ( integral of dt / flux(t) )^(-1) with flux(t) the level flux of r."""
    radii = np.linspace(rho, R, BOUND_RADII)
    flux = np.array([b.flux for b in level_boundaries(imm, radii, BOUND_RESOLUTION)])
    if np.any(flux <= 0):
        raise MeshFailure("vanishing level flux inside the window")
    integral = np.trapezoid(1.0 / flux, radii)
    return CapacityBound(1.0 / integral, radii, flux)


@dataclass
class CapacityLadder:
    rungs: list  # (R, cap) pairs on the growing radius ladder
    extrapolated: float | None  # Aitken-accelerated tail value, a trend only
    note: str = "extrapolation is a trend indicator, not a limit"

    def __iter__(self):
        return iter(self.rungs)


def capacity_ladder(imm: Immersion, rho: float, radii, h: float = 0.1):
    """cap(D_rho, D_R) along a growing radius ladder; a vanishing trend is
    the zero-capacity (parabolicity) diagnostic."""
    values = [capacity(imm, rho, R, h).cap for R in radii]
    extrapolated = None
    if len(values) >= 3:
        d1, d2 = values[-2] - values[-3], values[-1] - values[-2]
        if abs(d2 - d1) > 1e-15:
            extrapolated = values[-1] - d2 * d2 / (d2 - d1)
    return CapacityLadder(list(zip([float(R) for R in radii], values)), extrapolated)


# --- mean exit time -----------------------------------------------------------------


def solve_exit_time(imm: Immersion, R: float, h: float = 0.05) -> DirichletSolution:
    """The mean exit time E of the ball {r < R}: Delta E + 1 = 0, E = 0 on r = R."""
    return solve_region(imm, 0.0, R, h, 1.0)


def exit_time_comparison(spec: SolitonSpec, field_: DirichletSolution, R: float, h: float) -> Margin:
    """For the exit time E of the ball {r < R}, the direct flow's
    min(E - Ebar) >= 0 (reversed for lam < 0) over the mesh, or the inverse
    flow's E/Ebar against Cn/(Cn-1) at its worst vertex off the boundary
    layer."""
    mesh, n = field_.mesh, field_.mesh.imm.dim
    if spec.kind == "mcf":
        gap = field_.values - _flat_exit_time(mesh, R)
        return compare(
            "exit-time-comparison", float((gap if spec.constant >= 0 else -gap).min()), 0.0,
            notes=(*mesh.notes, f"{mesh.vertex_count} vertices compared"),
            slack=(EXIT_TIME_TOL, "the exit time carries no error estimate"),
        )
    target = spec.constant * n / (spec.constant * n - 1.0)
    ratio = _interior_ratio(field_, R, h)
    worst = float(ratio[np.argmax(np.abs(ratio / target - 1.0))])
    return compare(
        "exit-time-ratio", worst, target, identity=True, scale=abs(target),
        notes=(*mesh.notes, f"{len(ratio)} interior vertices compared"),
        slack=(PROPORTIONAL_TOL, "the exit-time ratio carries no error estimate"),
    )


def _flat_exit_time(mesh: Mesh, R: float) -> np.ndarray:
    """Ebar = (R^2 - r^2)/(2n) at the vertices: the exit time of the flat ball."""
    return (R**2 - mesh.r**2) / (2.0 * mesh.imm.dim)


def _interior_ratio(field_: DirichletSolution, R: float, h: float) -> np.ndarray:
    """E / Ebar at the vertices off the boundary and at least 2h inside r = R."""
    mesh = field_.mesh
    interior = mesh.r <= R - 2.0 * h
    interior[mesh.boundary_vertices()] = False
    if not interior.any():
        raise MeshFailure(f"R={R}: no interior vertices outside the boundary layer")
    return field_.values[interior] / _flat_exit_time(mesh, R)[interior]


@dataclass
class ExitTimeCharacterization:
    alpha: float
    alpha_spread: float
    implied_c_forward: float  # + alpha / ((alpha - 1) n), matches the worked flows
    implied_c_as_printed: float  # the opposite sign, kept for the record
    verdict: str
    notes: tuple


def soliton_from_exit_time(imm: Immersion, radii, h: float = 0.05) -> ExitTimeCharacterization:
    """Estimate alpha with E_R = alpha * Ebar_R across extrinsic balls and
    invert it to an inverse-flow constant.

    Both signs of the inversion are reported: the proportionality law
    E = (Cn/(Cn-1)) Ebar inverts to C = + alpha/((alpha-1) n), while the
    characterization statement prints the negative of that; the worked
    cylinder (alpha = 2, n = 2, C = 1) matches the positive sign, so the
    verdict tests that one.  alpha near 1 means a minimal immersion, which
    admits no inverse-flow constant.
    """
    alphas = []
    for R in radii:
        ratio = _interior_ratio(solve_exit_time(imm, R, h), R, h)
        med = float(np.median(ratio))
        spread = float(np.abs(ratio / med - 1.0).max())
        if spread > PROPORTIONAL_TOL:
            raise NonProportional(
                f"R={R}: exit-time ratio varies by {spread:.3f} over the ball; "
                "the proportionality hypothesis fails"
            )
        alphas.append(med)
    alpha = float(np.mean(alphas))
    spread = float(np.ptp(alphas) / abs(alpha)) if len(alphas) > 1 else 0.0
    if spread > PROPORTIONAL_TOL:
        raise NonProportional(
            f"exit-time ratio drifts across radii: alphas = {alphas}"
        )
    n = imm.dim
    if abs(alpha - 1.0) < 0.05:
        return ExitTimeCharacterization(
            alpha, spread, math.nan, math.nan, "REJECTED-MINIMAL",
            ("alpha = 1 means a minimal immersion: no inverse-flow constant exists",),
        )
    c_forward = alpha / ((alpha - 1.0) * n)
    check = soliton_residual(imm, SolitonSpec("imcf", c_forward))
    verdict = "CONSISTENT" if check.sup < 1e-6 else "INCONSISTENT"
    return ExitTimeCharacterization(
        alpha, spread, c_forward, -c_forward, verdict,
        (f"inverse-flow residual at the forward constant: {check.sup:.3e}",),
    )


# --- export ------------------------------------------------------------------------


def _rows(table, formats, sep=" ") -> str:
    """The lines np.savetxt writes for a 2-D table with these column formats
    and delimiter, formatted in one pass over the table's cells.  A "%d"
    column enters as ints; any other column is formatted once per distinct
    bit pattern (lattice meshes repeat most coordinates), so 0.0 and -0.0
    stay apart.  An all-"%d" table, like the OFF faces, goes in as ints
    without a cell table."""
    if all(fmt == "%d" for fmt in formats):
        cells = table.astype(np.int64).ravel().tolist()
        return ((sep.join(formats) + "\n") * len(table)) % tuple(cells)
    cells = np.empty(table.shape, dtype=object)
    row = list(formats)
    for j, fmt in enumerate(formats):
        if fmt == "%d":
            cells[:, j] = table[:, j].astype(np.int64)
        else:
            bits, inverse = np.unique(table[:, j].view(np.uint64), return_inverse=True)
            text = np.array([fmt % v for v in bits.view(np.float64).tolist()], dtype=object)
            cells[:, j] = text[inverse]
            row[j] = "%s"
    return ((sep.join(row) + "\n") * len(table)) % tuple(cells.ravel().tolist())


def _write_rows(fh, table, formats, sep=" ") -> None:
    """Write the _rows of a table, EXPORT_BLOCK rows at a time: a row's
    text does not depend on its block, so the file is the same."""
    for start in range(0, len(table), EXPORT_BLOCK):
        fh.write(_rows(table[start : start + EXPORT_BLOCK], formats, sep))


def export_off(mesh: Mesh, path) -> None:
    """OFF file with vertices at their ambient positions (first 3 coordinates)."""
    X = evaluate_chart(mesh.imm.chart, mesh.vertices, order=0)[1][:, :3]
    if X.shape[1] < 3:
        X = np.column_stack([X, np.zeros((len(X), 3 - X.shape[1]))])
    faces = np.insert(mesh.simplices, 0, mesh.simplices.shape[1], axis=1)  # size, then indices
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{mesh.vertex_count} {len(mesh.simplices)} 0\n")
        _write_rows(fh, X, ["%.17g"] * 3)
        _write_rows(fh, faces, ["%d"] * faces.shape[1])


def export_solution_csv(field_: DirichletSolution, path) -> None:
    mesh = field_.mesh
    n = mesh.vertices.shape[1]
    table = np.column_stack([np.arange(mesh.vertex_count), mesh.vertices, mesh.r, field_.values])
    header = ",".join(["vertex"] + [f"u{i + 1}" for i in range(n)] + ["r", "value"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        _write_rows(fh, table, ["%d"] + ["%.17g"] * (n + 2), sep=",")
