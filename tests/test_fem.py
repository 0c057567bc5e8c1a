"""Meshing, induced-metric Galerkin solves, capacity and mean exit time."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.errors import (
    DimensionUnsupported,
    DisconnectedRegion,
    MeshFailure,
    NonProportional,
)
from solab.fem import (
    SNAP_FRACTION,
    _snap_to_levels,
    assemble,
    capacity,
    capacity_ladder,
    capacity_upper_bound,
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
from solab.levelset import boundary_area_and_flux
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
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    with pytest.raises(DimensionUnsupported):
        mesh_region(imm, ExtrinsicRegion(imm, 0.0, 2.0), h=0.2)


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
    levels = [("outer", 2.5, 1.0), ("inner", 1.0, -1.0)]

    ref, on_ref = grid.copy(), {}
    for tag, level, sign in levels:
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
                    on_ref[vtx] = tag
                    phi[vtx] = 0.0
                    break

    batched = grid.copy()
    on_level, rv = _snap_to_levels(imm, batched, edges, levels)
    assert len(on_level) > 50 and set(on_level.values()) == {"outer", "inner"}
    assert on_level == on_ref
    assert np.abs(batched - ref).max() < 1e-13
    assert np.array_equal(rv, radius_values(imm, batched))


def test_one_dimensional_mesh():
    imm, _ = catalog("plane", n=1)
    mesh = mesh_region(imm, ExtrinsicRegion(imm, 1.0, 3.0), h=0.05)
    assert set(np.round(mesh.r[mesh.boundary_vertices()], 9)) <= {1.0, 3.0}


def test_periodic_curve_seam_is_not_a_window_cut():
    # the ellipse (cos u, 2 sin u) meets r < 1.5 in two mirror arcs, around
    # u = 0 (across the parameter seam) and around u = pi
    chart = chart_from_sources(
        1, 2, ["cos(u1)", "2*sin(u1)"], [ParamSpec("u1", 0.0, 2 * math.pi, periodic=True)]
    )
    field = solve_exit_time(Immersion(chart, properness_radius=math.inf), 1.5, h=0.01)
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
    # per-radius level fluxes bit for bit
    imm, _ = catalog(name, **params)
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
    with pytest.raises(DisconnectedRegion):
        solve_dirichlet(mesh, K, load, {int(i): 0.0 for i in upper})


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
    rep = exit_time_comparison(imm, SolitonSpec("imcf", 1.0), 2.0, h=0.05)
    assert rep.ratio_target == pytest.approx(2.0)
    assert rep.ratio_max_dev < 0.02
    assert rep.verdict == "PASS"


def test_cylinder_mcf_exit_comparison():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    rep = exit_time_comparison(imm, SolitonSpec("mcf", 1.0), 2.0, h=0.05)
    assert rep.min_margin >= -1e-3
    assert rep.verdict == "PASS"


def test_expander_exit_comparison_reverses():
    # lam <= 0: the transplanted radial solution dominates, also on the
    # window-truncated chart (extra grounded cuts only lower the solution)
    imm, _ = catalog("castro_lerma", delta=1.0, lam=-0.5)
    rep = exit_time_comparison(imm, SolitonSpec("mcf", -0.5), 3.0, h=0.08)
    assert rep.min_margin >= -1e-9
    assert rep.verdict == "PASS"
    assert any("truncated" in n for n in rep.notes)


def test_plane_exit_time_is_euclidean():
    imm, _ = catalog("plane", n=2)
    rep = exit_time_comparison(imm, SolitonSpec("mcf", 0.0), 1.0, h=0.05)
    assert abs(rep.min_margin) < 1e-3


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
    ],
    ids=["plane2", "curve"],
)
def test_exports_match_savetxt_bytes(tmp_path, make, R, h):
    field = solve_exit_time(make(), R, h=h)
    export_off(field.mesh, tmp_path / "mesh.off")
    export_solution_csv(field, tmp_path / "field.csv")
    _savetxt_exports(field, tmp_path / "ref.off", tmp_path / "ref.csv")
    assert (tmp_path / "mesh.off").read_bytes() == (tmp_path / "ref.off").read_bytes()
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
