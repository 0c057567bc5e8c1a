"""Meshing, induced-metric Galerkin solves, capacity and mean exit time."""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import brentq
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import cg as scipy_cg

from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.errors import (
    DimensionUnsupported,
    DisconnectedRegion,
    MeshFailure,
    NonProportional,
)
import solab.fem as fem
from solab.fem import (
    BOUND_RADII,
    SNAP_FRACTION,
    PaddedRows,
    _rows,
    _simplex_gradients,
    _snap_to_levels,
    assemble,
    capacity,
    capacity_ladder,
    capacity_upper_bound,
    cg,
    exit_time_comparison,
    export_off,
    export_solution_csv,
    mesh_region,
    solve_dirichlet,
    solve_exit_time,
    soliton_from_exit_time,
)
from solab.geometry import (
    Immersion,
    RadialFunction,
    evaluate_chart,
    geometry,
    radial_laplacian,
    radius_values,
)
from solab.levelset import boundary_area_and_flux, grid_edges
from solab.quadrature import ExtrinsicRegion
from solab.solitons import SolitonSpec


def steep_bowl():
    chart = chart_from_sources(
        2,
        3,
        ["u1", "u2", "(u1^2 + u2^2)/2"],
        [ParamSpec("u1", -3, 3), ParamSpec("u2", -3, 3)],
    )
    return Immersion(chart, properness_radius=3.0, name="steep_bowl")


# --- meshing -------------------------------------------------------------------


def test_annulus_mesh_topology():
    imm, _ = catalog("plane", n=2)
    mesh = mesh_region(imm, ExtrinsicRegion(imm, 1.0, math.e), h=0.1)
    assert mesh.euler_characteristic() == 0  # ring
    assert len(mesh.tags["inner"]) > 0 and len(mesh.tags["outer"]) > 0
    assert len(mesh.tags["cut"]) == 0
    # mesh area reproduces the annulus area
    v, tr = mesh.vertices, mesh.simplices
    e1, e2 = v[tr[:, 1]] - v[tr[:, 0]], v[tr[:, 2]] - v[tr[:, 0]]
    area = float(
        (0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) * mesh.sqrt_det).sum()
    )
    assert area == pytest.approx(math.pi * (math.e**2 - 1), rel=2e-4)
    # boundary vertices sit exactly on the level sets
    assert np.abs(mesh.r[mesh.tags["outer"]] - math.e).max() < 1e-9
    assert np.abs(mesh.r[mesh.tags["inner"]] - 1.0).max() < 1e-9


def test_cylinder_strip_mesh_is_periodic():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    mesh = mesh_region(imm, ExtrinsicRegion(imm, 0.0, 2.0), h=0.1)
    assert mesh.euler_characteristic() == 0  # closed strip around the cylinder
    # strip |z| < sqrt(3): both boundary circles present
    assert np.abs(np.abs(mesh.vertices[mesh.tags["outer"], 1]) - math.sqrt(3)).max() < 1e-9


def test_empty_region_is_a_mesh_failure():
    imm, _ = catalog("sphere", n=2, R=1.0)
    with pytest.raises(MeshFailure):
        mesh_region(imm, ExtrinsicRegion(imm, 0.0, 0.5), h=0.1)


def test_pde_dimension_guard():
    # the Kuhn split is tabled for one to three parameters
    imm, _ = catalog("generalized_cylinder", n=4, k=1, rho=1.0)
    with pytest.raises(DimensionUnsupported):
        mesh_region(imm, ExtrinsicRegion(imm, 0.0, 2.0), h=0.2)


def flat_three_space():
    chart = chart_from_sources(
        3, 4, ["u1", "u2", "u3", "0"], [ParamSpec(f"u{i}", -1.5, 1.5) for i in (1, 2, 3)]
    )
    return Immersion(chart, properness_radius=1.5 * math.sqrt(3.0), name="flat3")


def ellipse():
    chart = chart_from_sources(
        1, 2, ["cos(u1)", "2*sin(u1)"], [ParamSpec("u1", 0.0, 2 * math.pi, periodic=True)]
    )
    return Immersion(chart, properness_radius=math.inf, name="ellipse")


def test_three_parameter_shell():
    # 1/2 < r < 1 in flat 3-space: a shell, whose capacity is 4 pi / (1/rho - 1/R)
    imm, rho, R = flat_three_space(), 0.5, 1.0
    mesh = mesh_region(imm, ExtrinsicRegion(imm, rho, R), h=0.1)
    assert mesh.euler_characteristic() == 2  # S^2 x [rho, R]
    volume, _ = _simplex_gradients(mesh.vertices, mesh.simplices)
    assert volume.sum() == pytest.approx(4 * math.pi * (R**3 - rho**3) / 3, rel=5e-3)
    assert np.abs(mesh.r[mesh.tags["inner"]] - rho).max() < 1e-9
    assert np.abs(mesh.r[mesh.tags["outer"]] - R).max() < 1e-9
    cap = capacity(imm, rho, R, h=0.1).cap
    assert cap == pytest.approx(4 * math.pi / (1 / rho - 1 / R), rel=0.02)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplex_gradients_match_the_inverse_edge_matrix(d):
    # the closed forms against M^-T [-1 ... -1; I]^T by LU
    rng = np.random.default_rng(d)
    verts = rng.normal(size=(40 * (d + 1), d))
    simplices = np.arange(len(verts)).reshape(-1, d + 1)
    M = (verts[simplices[:, 1:]] - verts[simplices[:, :1]]).transpose(0, 2, 1)
    ref = np.vstack([-np.ones(d), np.eye(d)])
    vol, G = _simplex_gradients(verts, simplices)
    np.testing.assert_allclose(vol, np.abs(np.linalg.det(M)) / math.factorial(d), rtol=1e-12)
    expected = np.einsum("ski,vk->siv", np.linalg.inv(M), ref)
    scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
    assert (np.abs(G - expected) / scale).max() < 1e-12


conforming_meshes = pytest.mark.parametrize(
    "make,rho,R,h",
    [
        (lambda: catalog("plane", n=1)[0], 1.0, 3.0, 0.05),
        (lambda: Immersion(
            chart_from_sources(1, 2, ["u1", "1"], [ParamSpec("u1", -6, 6)]),
            properness_radius=math.sqrt(37.0),
        ), 1.0, 3.0, 0.05),
        (ellipse, 0.0, 1.5, 0.01),
        (lambda: catalog("plane", n=2)[0], 1.0, math.e, 0.1),
        (lambda: catalog("castro_lerma", delta=1.0, lam=-0.5)[0], 0.0, 3.0, 0.08),
        (lambda: catalog("generalized_cylinder", n=2, k=1, rho=1.0)[0], 0.0, 2.0, 0.1),
        # off the axis, r varies along the seam's own axis, so seam vertices snap across it
        (lambda: Immersion(
            chart_from_sources(
                2, 3, ["cos(u1) + 0.3", "sin(u1) + 0.4", "u2"],
                [ParamSpec("u1", 0.0, 2 * math.pi, periodic=True), ParamSpec("u2", -4, 4)],
            ),
            properness_radius=3.5,
        ), 1.2, 2.5, 0.1),
        (lambda: catalog("generalized_cylinder", n=3, k=1, rho=1.0)[0], math.sqrt(2.0), 3.0, 0.3),
        (flat_three_space, 0.5, 1.0, 0.2),
    ],
    ids=["segments", "tangent-line", "ellipse-seam", "annulus", "castro-lerma-window",
         "cylinder-seam", "offset-cylinder-seam", "s1xr2-seam", "shell"],
)


@conforming_meshes
def test_mesh_is_conforming(make, rho, R, h):
    # after the seams are tied, a facet is shared by two simplices or lies on
    # the boundary, where each of its vertices carries a tag; the copies of a
    # seam vertex are one point of the immersion
    imm = make()
    mesh = mesh_region(imm, ExtrinsicRegion(imm, rho, R), h=h)
    X = evaluate_chart(imm.chart, mesh.vertices, order=0)[1]
    first = np.unique(mesh.dof_map, return_index=True)[1][mesh.dof_map]
    assert np.abs(X - X[first]).max() < 1e-12
    assert np.array_equal(mesh.r, mesh.r[first])
    dofs = mesh.dof_map[mesh.simplices]
    d = imm.dim
    facets = np.sort(dofs[:, list(combinations(range(d + 1), d))], axis=2).reshape(-1, d)
    facets, owners = np.unique(facets, axis=0, return_counts=True)
    assert owners.max() == 2
    assert np.isin(facets[owners == 1], mesh.dof_map[mesh.boundary_vertices()]).all()


@conforming_meshes
def test_mesh_tags_match_the_level_tolerance_rule(make, rho, R, h):
    # the tags come from the snap pass and the cuts; on these meshes they
    # equal a rule applied to the finished mesh: the vertices within 1e-9 of
    # a level, outer first, and the window-end vertices on neither level
    imm = make()
    mesh = mesh_region(imm, ExtrinsicRegion(imm, rho, R), h=h)
    outer = np.abs(mesh.r - R) < 1e-9 * max(1.0, R)
    inner = ~outer & (rho > 0) & (np.abs(mesh.r - rho) < 1e-9 * max(1.0, rho))
    cut = np.zeros(mesh.vertex_count, dtype=bool)
    for axis, p in enumerate(imm.chart.params):
        if not p.periodic:
            for end in (p.min, p.max):
                cut |= np.abs(mesh.vertices[:, axis] - end) < 1e-10 * max(1.0, abs(end))
    cut &= ~outer & ~inner
    assert outer.any() and inner.any() == (rho > 0)
    for tag, rule in (("outer", outer), ("inner", inner), ("cut", cut)):
        assert np.array_equal(mesh.tags[tag], np.flatnonzero(rule)), tag


def test_batched_snap_pass_matches_sequential_snapping():
    # reference: one scalar root per cut edge, solved when the edge is reached
    imm, _ = catalog("plane", n=2)
    u = np.linspace(-3.0, 3.0, 41)
    v = np.linspace(-2.9, 3.1, 33)
    vid = np.arange(u.size * v.size).reshape(u.size, v.size)
    grid = np.column_stack([g.ravel() for g in np.meshgrid(u, v, indexing="ij")])
    edges = np.concatenate([
        np.column_stack([vid[:-1, :].ravel(), vid[1:, :].ravel()]),
        np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()]),
    ])
    levels = [(2.5, 1.0), (1.0, -1.0)]

    ref, on_ref = grid.copy(), {}
    for k, (level, sign) in enumerate(levels):
        phi = sign * (radius_values(imm, ref) - level)
        for a, b in edges.tolist():
            if phi[a] == 0.0 or phi[b] == 0.0 or phi[a] * phi[b] > 0:
                continue
            pa, pb = ref[a].copy(), ref[b].copy()
            t = brentq(
                lambda s: radius_values(imm, (pa + s * (pb - pa))[None])[0] - level,
                0.0, 1.0, xtol=1e-15, rtol=8.9e-16,
            )
            for vtx, dist in ((a, t), (b, 1.0 - t)):
                if dist < SNAP_FRACTION and vtx not in on_ref:
                    ref[vtx] = pa + t * (pb - pa)
                    on_ref[vtx] = k
                    phi[vtx] = 0.0
                    break

    batched = grid.copy()
    on, rv = _snap_to_levels(imm, batched, edges, levels)
    on_level = {v: k for v, k in enumerate(on.tolist()) if k >= 0}
    assert len(on_level) > 50 and set(on_level.values()) == {0, 1}
    assert on_level == on_ref
    assert np.abs(batched - ref).max() < 1e-13
    assert np.array_equal(rv, radius_values(imm, batched))


def test_snap_evaluates_the_grid_once(monkeypatch):
    # r is evaluated on the whole grid once; after each level only the moved
    # vertices are evaluated again, at the lowest copy of each seam group of
    # the periodic u1, and every copy gets that copy's r
    imm = Immersion(
        chart_from_sources(
            2, 3, ["cos(u1)", "sin(u1)", "u2"],
            [ParamSpec("u1", 0.0, 2 * math.pi, periodic=True), ParamSpec("u2", -8.0, 8.0)],
        ),
        properness_radius=math.sqrt(65.0),
    )
    shape = (25, 31)
    u, v = np.linspace(0.0, 2 * math.pi, shape[0]), np.linspace(-3.0, 3.0, shape[1])
    verts = np.column_stack([g.ravel() for g in np.meshgrid(u, v, indexing="ij")])
    index = np.indices(shape).reshape(2, -1)
    index[0] %= shape[0] - 1
    dof = np.ravel_multi_index(index, shape)
    sizes = []

    def counting(imm, points):
        sizes.append(len(points))
        return radius_values(imm, points)

    monkeypatch.setattr(fem, "radius_values", counting)
    levels = [(2.5, 1.0), (1.3, -1.0)]
    on, rv = _snap_to_levels(imm, verts, grid_edges(shape), levels, dof)
    on_level = np.flatnonzero(on >= 0)
    seam = [v for v in on_level if dof[v] != v]
    assert len(sizes) == 3 and sizes[0] == len(verts)
    assert 0 < sum(sizes[1:]) <= len(on_level) - len(seam) and seam
    assert np.array_equal(rv, radius_values(imm, verts)[dof])


def test_one_dimensional_mesh():
    imm, _ = catalog("plane", n=1)
    mesh = mesh_region(imm, ExtrinsicRegion(imm, 1.0, 3.0), h=0.05)
    assert set(np.round(mesh.r[mesh.boundary_vertices()], 9)) <= {1.0, 3.0}


def test_periodic_curve_seam_is_not_a_window_cut():
    # the ellipse (cos u, 2 sin u) meets r < 1.5 in two mirror arcs, around
    # u = 0 (across the parameter seam) and around u = pi
    field = solve_exit_time(ellipse(), 1.5, h=0.01)
    mesh = field.mesh
    assert len(mesh.tags["cut"]) == 0
    assert mesh.dof_count == mesh.vertex_count - 1
    seam = np.cos(mesh.vertices[:, 0]) > 0
    assert field.values[seam].max() == pytest.approx(field.values[~seam].max(), rel=1e-3)


# --- capacity -------------------------------------------------------------------


def test_annulus_capacity_two_percent():
    imm, _ = catalog("plane", n=2)
    res = capacity(imm, 1.0, math.e, h=0.05)
    assert res.cap == pytest.approx(2 * math.pi, rel=0.02)
    # variational energy stays above the continuum minimum
    assert res.cap >= 2 * math.pi * (1 - 1e-6)


def test_capacity_monotone_under_growing_domain():
    imm, _ = catalog("plane", n=2)
    cyl, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0, z_extent=12.0)
    triples = [
        (imm, 1.0, 2.0, 4.0),
        (imm, 1.0, math.e, math.e**2),
        (cyl, math.sqrt(2.0), 3.0, 6.0),
    ]
    for obj, rho, r1, r2 in triples:
        c1 = capacity(obj, rho, r1, h=0.08).cap
        c2 = capacity(obj, rho, r2, h=0.08).cap
        assert c1 >= c2 - 0.02 * c1
    # doubling the log-width halves the annulus capacity: cap(1, e^2) = pi
    plane_far = capacity(imm, 1.0, math.e**2, h=0.08).cap
    assert plane_far == pytest.approx(math.pi, rel=0.03)


def test_capacity_below_radial_foliation_bound():
    imm, _ = catalog("plane", n=2)
    res = capacity(imm, 1.0, math.e, h=0.05)
    bound = capacity_upper_bound(imm, 1.0, math.e)
    assert bound.bound == pytest.approx(2 * math.pi, rel=1e-3)  # tight for the annulus
    assert res.cap <= bound.bound * 1.05

    cyl, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    resc = capacity(cyl, math.sqrt(2.0), 4.0, h=0.06)
    boundc = capacity_upper_bound(cyl, math.sqrt(2.0), 4.0)
    assert resc.cap <= boundc.bound * 1.05
    # hand value: cap = 2 * 2 pi / (z_R - z_rho)
    hand = 4 * math.pi / (math.sqrt(16.0 - 1.0) - 1.0)
    assert resc.cap == pytest.approx(hand, rel=0.02)


@pytest.mark.parametrize(
    "name,params,rho,R",
    [("plane", {"n": 2}, 1.1117961033766959, 2.0), ("castro_lerma", {}, 1.830999193255616, 2.0)],
)
def test_capacity_upper_bound_matches_per_radius_fluxes(name, params, rho, R):
    # one grid evaluation and one crossing batch for all radii give the
    # per-radius level fluxes bit for bit; the plane is marched as a chart
    imm = replace(catalog(name, **params)[0], radial=None)
    bound = capacity_upper_bound(imm, rho, R)
    radii = np.linspace(rho, R, 21)
    flux = np.array([boundary_area_and_flux(imm, t, resolution=160).flux for t in radii])
    assert np.array_equal(bound.radii, radii)
    assert np.array_equal(bound.flux, flux)
    assert bound.bound == 1.0 / np.trapezoid(1.0 / flux, radii)


def test_cylinder_capacity_ladder_decays():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0, z_extent=12.0)
    rungs = capacity_ladder(imm, math.sqrt(2.0), [2 * math.sqrt(2), 4 * math.sqrt(2), 8 * math.sqrt(2)], h=0.1)
    caps = [c for _, c in rungs]
    for a, b in zip(caps, caps[1:]):
        assert b <= 0.7 * a  # parabolic trend: >= 30% decay per radius doubling


def test_line_capacity_flux_form_and_closed_form():
    # the line y = 1: {rho < r < R} is two segments of length
    # sqrt(R^2-1) - sqrt(rho^2-1), each carrying a linear potential
    chart = chart_from_sources(1, 2, ["u1", "1"], [ParamSpec("u1", -6, 6)])
    imm = Immersion(chart, properness_radius=math.sqrt(37.0), name="line")
    rho, R = 1.5, 3.0
    res = capacity(imm, rho, R, h=0.05)
    assert res.boundary_flux_form == pytest.approx(res.cap, rel=1e-9)
    closed = 2.0 / (math.sqrt(R * R - 1.0) - math.sqrt(rho * rho - 1.0))
    assert res.cap == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("curve", [True, False])
def test_boundary_flux_form_counts_both_sides_of_a_tangent_inner_level(curve):
    # rho = 1 is the minimum of r on the line y = 1 and on S^1(1) x R, so the
    # region 1 < r < R lies on both sides of the inner level
    if curve:
        chart = chart_from_sources(1, 2, ["u1", "1"], [ParamSpec("u1", -6, 6)])
        imm, R = Immersion(chart, properness_radius=math.sqrt(37.0), name="line"), 3.0
    else:
        imm, R = catalog("generalized_cylinder", n=2, k=1, rho=1.0)[0], 2.0
    res = capacity(imm, 1.0, R, h=0.05)
    assert res.boundary_flux_form == pytest.approx(res.cap, rel=1e-9)


def test_cg_reports_iterations_used():
    imm, _ = catalog("plane", n=2)
    sol = capacity(imm, 1.0, math.e, h=0.1).solution
    cap = int(50 * math.sqrt(sol.mesh.dof_count)) + 10
    assert 0 < sol.iterations < cap


def _csr(A: PaddedRows):
    """The same entries in scipy's CSR, each row padded as in A."""
    w, V = A.index.shape
    return sparse.csr_matrix((A.value.T.ravel(), A.index.T.ravel(), np.arange(V + 1) * w), (V, V))


def test_padded_rows_match_scipy_sparse():
    rng = np.random.default_rng(3)
    size = 30
    rows, cols = rng.integers(0, size, 400), rng.integers(0, size, 400)
    values = rng.normal(size=400)
    A = PaddedRows.assembled(rows, cols, values, size)
    ref = sparse.coo_matrix((values, (rows, cols)), shape=(size, size)).tocsr()
    np.testing.assert_allclose(_csr(A).toarray(), ref.toarray(), rtol=1e-14, atol=1e-14)
    assert (np.diff(A.index, axis=0)[A.value[1:] != 0] > 0).all()  # rows in column order
    v = rng.normal(size=size)
    assert (A @ v).tobytes() == (_csr(A) @ v).tobytes()
    np.testing.assert_array_equal(A.diagonal(), _csr(A).diagonal())
    keep = rng.random(size) < 0.6
    sub, ref_sub = A.restrict(keep), _csr(A)[keep][:, keep]
    np.testing.assert_array_equal(_csr(sub).toarray(), ref_sub.toarray())
    assert (sub @ v[keep]).tobytes() == (ref_sub @ v[keep]).tobytes()


def _triplet_assembly(mesh):
    """assemble as it was done from the k^2 S (row, col, value) triplets of
    S simplices of k vertices and np.unique(..., return_inverse=True): the
    reference for the triplet-free assembly."""
    simplices = mesh.simplices
    k = simplices.shape[1]
    vol, G = _simplex_gradients(mesh.vertices, simplices)
    weight = vol * mesh.sqrt_det
    Kloc = G.transpose(0, 2, 1) @ (mesh.metric_inv @ G) * weight[:, None, None]
    dofs = mesh.dof_map[simplices]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    size = mesh.dof_count
    keys, slot = np.unique(rows * size + cols, return_inverse=True)
    summed = np.bincount(slot, weights=Kloc.ravel(), minlength=len(keys))
    row = keys // size
    place = np.arange(len(keys)) - np.searchsorted(row, row)
    index = np.zeros((int(place.max()) + 1, size), dtype=np.intp)
    value = np.zeros(index.shape)
    index[place, row] = keys % size
    value[place, row] = summed
    load = np.zeros(size)
    np.add.at(load, dofs.ravel(), np.repeat(weight / k, k))
    return PaddedRows(index, value), load


@pytest.mark.parametrize(
    "make,rho,R,h",
    [
        (lambda: catalog("plane", n=2)[0], 1.0, math.e, 0.1),
        (lambda: catalog("castro_lerma")[0], 0.0, 2.0, 0.05),
        (lambda: catalog("generalized_cylinder", n=2, k=1, rho=1.0)[0], 0.0, 2.0, 0.1),
        (lambda: catalog("plane", n=1)[0], 1.0, 3.0, 0.05),
        (flat_three_space, 0.5, 1.0, 0.1),
    ],
    ids=["plane(2)", "castro_lerma", "cylinder-strip", "line", "flat-shell"],
)
def test_assembly_matches_the_triplet_assembly_bit_for_bit(make, rho, R, h):
    imm = make()
    mesh = mesh_region(imm, ExtrinsicRegion(imm, rho, R), h)
    K, load = assemble(mesh)
    K_ref, load_ref = _triplet_assembly(mesh)
    assert K.index.tobytes() == K_ref.index.tobytes()
    assert K.value.tobytes() == K_ref.value.tobytes()
    assert load.tobytes() == load_ref.tobytes()


def test_exit_time_assembly_memory_budget(traced_peak):
    # the castro_lerma exit-time ball of a default report: the assembly holds
    # a few arrays of one value per stiffness entry, not the (row, col)
    # triplets and np.unique's sort of them (15.6 MB)
    imm, _ = catalog("castro_lerma")
    mesh = mesh_region(imm, ExtrinsicRegion(imm, 0.0, 2.0), h=0.05)
    assert mesh.dof_count > 11000
    _, peak = traced_peak(assemble, mesh)
    assert peak <= 8.0


def test_capacity_bound_memory_budget(traced_peak):
    # castro_lerma's 21-radius foliation bound marches a 160-cell grid: the
    # corner extremes come from shifted views of r and the crossings are
    # solved in blocks (7.2 MB with a corner table and one crossing batch)
    imm, _ = catalog("castro_lerma")
    bound, peak = traced_peak(capacity_upper_bound, imm, 1.83, 2.0)
    assert bound.bound > 0.0 and len(bound.flux) == BOUND_RADII
    assert peak <= 5.0


def test_cg_takes_the_steps_of_scipy_cg():
    # the plane(2) capacity system, reduced to its free dofs
    imm, _ = catalog("plane", n=2)
    mesh = mesh_region(imm, ExtrinsicRegion(imm, 1.0, math.e), h=0.1)
    K, _ = assemble(mesh)
    fixed = np.zeros(mesh.dof_count, bool)
    fixed[mesh.dof_map[mesh.boundary_vertices()]] = True
    u = np.zeros(mesh.dof_count)
    u[mesh.dof_map[mesh.tags["inner"]]] = 1.0
    Kff = K.restrict(~fixed)
    b = -(K @ u)[~fixed]
    inv_diag = 1.0 / Kff.diagonal()
    for cap in (1000, 5):  # converged, and stopped at the cap
        ours, theirs = [], []
        x, info = cg(Kff, b, inv_diag, cap, callback=ours.append)
        y, scipy_info = scipy_cg(
            _csr(Kff), b, M=sparse.diags(inv_diag), rtol=1e-10, maxiter=cap,
            callback=theirs.append,
        )
        assert info == scipy_info == (0 if cap > 5 else 5)
        assert len(ours) == len(theirs) >= 5
        assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


def test_energy_identity_against_boundary_flux():
    imm, _ = catalog("plane", n=2)
    res = capacity(imm, 1.0, math.e, h=0.04)
    assert res.boundary_flux_form == pytest.approx(res.cap, rel=0.02)


def test_discrete_maximum_principle_on_aligned_mesh():
    # grid spacing chosen so the level circles land on grid lines: the mesh is
    # unclipped right triangles and the discrete maximum principle is exact
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    z1, z2 = math.sqrt(2.0**2 - 1), math.sqrt(3.0**2 - 1)
    h = (z2 - z1) / 24
    res = capacity(imm, 2.0, 3.0, h=h)
    u = res.solution.values
    assert u.min() >= -1e-9 and u.max() <= 1.0 + 1e-9


def test_galerkin_convergence_second_order():
    imm, _ = catalog("plane", n=2)
    errs = []
    for h in (0.1, 0.05):
        field = solve_exit_time(imm, 1.0, h=h)
        exact = (1.0 - field.mesh.r**2) / 4.0
        K, lump = assemble(field.mesh)
        diff = (field.values - exact)[np.argsort(field.mesh.dof_map)]  # per dof
        dof_diff = np.zeros(field.mesh.dof_count)
        dof_diff[field.mesh.dof_map] = field.values - exact
        errs.append(math.sqrt(float((dof_diff**2 * lump).sum())))
    assert 2.5 < errs[0] / errs[1] < 8.0


def test_disconnected_component_without_boundary_rejected():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    mesh = mesh_region(imm, ExtrinsicRegion(imm, math.sqrt(2.0), 3.0), h=0.1)
    K, load = assemble(mesh)
    upper = mesh.tags["outer"][mesh.vertices[mesh.tags["outer"], 1] > 0]
    fixed = np.zeros(mesh.dof_count, bool)
    fixed[mesh.dof_map[upper]] = True
    with pytest.raises(DisconnectedRegion) as err:
        solve_dirichlet(mesh, K, load, fixed, np.zeros(mesh.dof_count))
    # numbered as scipy numbers the components of the same graph
    count, labels = connected_components(_csr(K) != 0, directed=False)
    assert count == 2
    assert err.value.components == [1 - labels[mesh.dof_map[upper[0]]]]


def test_two_pieces_with_a_boundary_each_solve():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    mesh = mesh_region(imm, ExtrinsicRegion(imm, math.sqrt(2.0), 3.0), h=0.1)
    K, load = assemble(mesh)
    fixed = np.zeros(mesh.dof_count, bool)
    fixed[mesh.dof_map[mesh.tags["outer"]]] = True
    sol = solve_dirichlet(mesh, K, load, fixed, np.zeros(mesh.dof_count))
    assert sol.residual < 1e-9 and sol.values.max() > 0.0


def test_mesh_laplacian_matches_radial_laplacian():
    # lumped mesh Laplacian of r^2 against the closed radial expression; on a
    # chart with curved metric the agreement is first order or better
    imm, _ = catalog("castro_lerma", delta=1.0, lam=-0.5)
    errs = []
    for h in (0.1, 0.05):
        mesh = mesh_region(imm, ExtrinsicRegion(imm, 0.0, 2.5), h=h)
        K, lump = assemble(mesh)
        lap = -(K @ mesh.r**2) / lump
        bnd = set(mesh.boundary_vertices().tolist())
        ring = set()
        for s in mesh.simplices:
            if bnd & set(s.tolist()):
                ring |= set(s.tolist())
        interior = np.array(
            sorted(set(range(mesh.vertex_count)) - ring - set(mesh.dof_map[sorted(ring)].tolist()))
        )
        g = geometry(imm, mesh.vertices[interior])
        exact = radial_laplacian(g, RadialFunction.r_squared())
        errs.append(float(np.abs(lap[mesh.dof_map[interior]] - exact).max()))
    assert errs[1] < errs[0]
    assert 1.5 < errs[0] / errs[1] < 4.0


# --- exit time ------------------------------------------------------------------


def test_disk_exit_time_one_percent():
    imm, _ = catalog("plane", n=2)
    field = solve_exit_time(imm, 1.0, h=0.05)
    exact = (1.0 - field.mesh.r**2) / 4.0
    assert float(np.abs(field.values - exact).max()) < 0.01 * 0.25
    assert field.values.max() == pytest.approx(0.25, abs=2e-3)
    # minimum (zero) is attained exactly on the exit boundary
    interior = np.setdiff1d(np.arange(field.mesh.vertex_count), field.mesh.tags["outer"])
    assert field.values[interior].min() > 0.0


def test_sphere_ball_swallows_boundary():
    imm, _ = catalog("sphere", n=2, R=1.0)
    with pytest.raises(MeshFailure):
        solve_exit_time(imm, 1.5, h=0.1)


def test_cylinder_imcf_exit_ratio():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    rep = exit_time_comparison(SolitonSpec("imcf", 1.0), solve_exit_time(imm, 2.0, h=0.05), 2.0, 0.05)
    assert rep.rhs == pytest.approx(2.0)
    assert rep.margin < 0.02
    assert rep.verdict == "PASS"


def test_cylinder_mcf_exit_comparison():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    rep = exit_time_comparison(SolitonSpec("mcf", 1.0), solve_exit_time(imm, 2.0, h=0.05), 2.0, 0.05)
    assert rep.lhs >= -1e-3
    assert rep.verdict == "PASS"


def test_expander_exit_comparison_reverses():
    # lam <= 0: the transplanted radial solution dominates, also on the
    # window-truncated chart (extra grounded cuts only lower the solution)
    imm, _ = catalog("castro_lerma", delta=1.0, lam=-0.5)
    rep = exit_time_comparison(SolitonSpec("mcf", -0.5), solve_exit_time(imm, 3.0, h=0.08), 3.0, 0.08)
    assert rep.lhs >= -1e-9
    assert rep.verdict == "PASS"
    assert any("truncated" in n for n in rep.notes)


def test_plane_exit_time_is_euclidean():
    imm, _ = catalog("plane", n=2)
    rep = exit_time_comparison(SolitonSpec("mcf", 0.0), solve_exit_time(imm, 1.0, h=0.05), 1.0, 0.05)
    assert abs(rep.lhs) < 1e-3


def test_exit_time_characterization_cylinder():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    res = soliton_from_exit_time(imm, [1.6, 2.0, 2.4], h=0.05)
    assert res.alpha == pytest.approx(2.0, abs=5e-3)
    assert res.implied_c_forward == pytest.approx(1.0, abs=5e-3)
    assert res.implied_c_as_printed == pytest.approx(-res.implied_c_forward)
    assert res.verdict == "CONSISTENT"


def test_exit_time_characterization_plane_is_minimal():
    imm, _ = catalog("plane", n=2)
    res = soliton_from_exit_time(imm, [1.0, 1.5], h=0.05)
    assert res.verdict == "REJECTED-MINIMAL"
    assert res.alpha == pytest.approx(1.0, abs=1e-3)


def test_exit_time_characterization_rejects_drifting_ratio():
    with pytest.raises(NonProportional):
        soliton_from_exit_time(steep_bowl(), [1.5, 2.0], h=0.06)


# --- export ---------------------------------------------------------------------


def test_exports(tmp_path):
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    field = solve_exit_time(imm, 1.5, h=0.1)
    off = tmp_path / "strip.off"
    export_off(field.mesh, off)
    head = off.read_text().splitlines()
    assert head[0] == "OFF"
    counts = head[1].split()
    assert int(counts[0]) == field.mesh.vertex_count
    assert int(counts[1]) == len(field.mesh.simplices)
    csv = tmp_path / "field.csv"
    export_solution_csv(field, csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "vertex,u1,u2,r,value"
    assert len(lines) == field.mesh.vertex_count + 1


def _savetxt_exports(field, off, csv):
    """The two exports as np.savetxt writes them, row by row."""
    mesh = field.mesh
    X = evaluate_chart(mesh.imm.chart, mesh.vertices, order=0)[1][:, :3]
    if X.shape[1] < 3:
        X = np.column_stack([X, np.zeros((len(X), 3 - X.shape[1]))])
    faces = np.insert(mesh.simplices, 0, mesh.simplices.shape[1], axis=1)
    with open(off, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{mesh.vertex_count} {len(mesh.simplices)} 0\n")
        np.savetxt(fh, X, fmt="%.17g")
        np.savetxt(fh, faces, fmt="%d")
    n = mesh.vertices.shape[1]
    table = np.column_stack([np.arange(mesh.vertex_count), mesh.vertices, mesh.r, field.values])
    header = ",".join(["vertex"] + [f"u{i + 1}" for i in range(n)] + ["r", "value"])
    np.savetxt(csv, table, fmt=["%d"] + ["%.17g"] * (n + 2), delimiter=",", header=header,
               comments="", encoding="utf-8")


@pytest.mark.parametrize(
    "make,R,h",
    [
        (lambda: catalog("plane", n=2)[0], 1.5, 0.1),
        # a curve in the plane: its OFF vertices are padded with a zero z
        (
            lambda: Immersion(
                chart_from_sources(
                    1, 2, ["cos(u1)", "2*sin(u1)"],
                    [ParamSpec("u1", 0.0, 2 * math.pi, periodic=True)],
                ),
                properness_radius=math.inf,
            ),
            1.5,
            0.02,
        ),
        # a lattice cut by the chart window: most coordinates repeat
        (lambda: catalog("castro_lerma")[0], 2.0, 0.05),
    ],
    ids=["plane2", "curve", "castro_lerma"],
)
def test_exports_match_savetxt_bytes(tmp_path, make, R, h):
    field = solve_exit_time(make(), R, h=h)
    export_off(field.mesh, tmp_path / "mesh.off")
    export_solution_csv(field, tmp_path / "field.csv")
    _savetxt_exports(field, tmp_path / "ref.off", tmp_path / "ref.csv")
    assert (tmp_path / "mesh.off").read_bytes() == (tmp_path / "ref.off").read_bytes()
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # the field's table with a column of repeats, both signed zeros and a NaN
    mesh = field.mesh
    table = np.column_stack([np.arange(mesh.vertex_count), mesh.vertices, field.values])
    table[:, -1] = np.resize([0.0, -0.0, 1.5, -0.0, math.pi, 0.0, np.nan, 1e-300], len(table))
    formats = ["%d"] + ["%.17g"] * (table.shape[1] - 1)
    np.savetxt(tmp_path / "ref.txt", table, fmt=formats, delimiter=",")
    text = _rows(table, formats, sep=",")
    assert text.encode() == (tmp_path / "ref.txt").read_bytes()
    assert ",-0\n" in text and ",0\n" in text


def test_export_blocks_change_no_bytes(tmp_path, monkeypatch):
    # the writers format EXPORT_BLOCK rows at a time; blocks of 7 split the
    # vertex, face and field tables and change no byte of either file
    field = solve_exit_time(catalog("plane", n=2)[0], 1.5, h=0.1)
    export_off(field.mesh, tmp_path / "whole.off")
    export_solution_csv(field, tmp_path / "whole.csv")
    sizes = []

    def counting(table, formats, sep=" "):
        sizes.append(len(table))
        return _rows(table, formats, sep)

    monkeypatch.setattr(fem, "_rows", counting)
    monkeypatch.setattr(fem, "EXPORT_BLOCK", 7)
    export_off(field.mesh, tmp_path / "blocks.off")
    export_solution_csv(field, tmp_path / "blocks.csv")
    assert max(sizes) == 7 and len(sizes) > 3 * field.mesh.vertex_count // 7
    for name in ("off", "csv"):
        blocks, whole = (tmp_path / f"{part}.{name}" for part in ("blocks", "whole"))
        assert blocks.read_bytes() == whole.read_bytes()
