"""Level-set extraction and boundary integrals of the extrinsic distance."""

import math
from dataclasses import replace

import numpy as np
import pytest

import solab.levelset as levelset
from solab import crossing
from solab.catalog import catalog
from solab.charts import chart_from_dict
from solab.crossing import level_crossings, pencil_scan
from solab.errors import NonRegularLevel
from solab.geometry import Immersion, geometry, radius_values
from solab.levelset import (
    _KUHN,
    BoundaryData,
    _cell_corners,
    boundary_area_and_flux,
    grid_edges,
    level_boundaries,
    level_segments,
)
from solab.quadrature import ExtrinsicRegion, region_volume


def test_plane_circle():
    imm, _ = catalog("plane", n=2)
    b = boundary_area_and_flux(imm, 1.0)
    assert b.area == pytest.approx(2 * math.pi, rel=2e-4)
    assert b.flux == pytest.approx(2 * math.pi, rel=2e-4)
    assert b.min_grad_r == pytest.approx(1.0, abs=1e-9)


def test_cylinder_two_circles():
    # boundary of D_2 on S^1(1) x R: two circles, |grad r| = sqrt(3)/2
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    b = boundary_area_and_flux(imm, 2.0)
    assert b.area == pytest.approx(4 * math.pi, rel=2e-4)
    assert b.flux == pytest.approx(2 * math.sqrt(3) * math.pi, rel=2e-4)


def test_sphere_critical_level():
    imm, _ = catalog("sphere", n=2, R=1.0)
    with pytest.raises(NonRegularLevel):
        boundary_area_and_flux(imm, 1.0)
    off = boundary_area_and_flux(imm, 1.5)
    assert off.empty and off.area == 0.0


def test_product_reduction_matches_marching():
    # the cylinder without its declared product structure is a chart, marched
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    closed = boundary_area_and_flux(imm, 2.0)
    marched = boundary_area_and_flux(replace(imm, radial=None), 2.0)
    assert marched.area == pytest.approx(closed.area, rel=2e-4)
    assert marched.flux == pytest.approx(closed.flux, rel=2e-4)


def test_marching_tetrahedra_on_three_dimensional_cylinder():
    # S^1(1) x R^2 in R^4 at R = 2: level set is a flat torus S^1(1) x S^1(sqrt 3)
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    closed = boundary_area_and_flux(imm, 2.0)
    assert closed.area == pytest.approx(4 * math.pi**2 * math.sqrt(3), rel=1e-12)
    marched = boundary_area_and_flux(replace(imm, radial=None), 2.0, resolution=240)
    assert marched.area == pytest.approx(closed.area, rel=5e-3)
    assert marched.flux == pytest.approx(closed.flux, rel=5e-3)


def test_declared_products_take_the_closed_form(monkeypatch):
    # plane(2) evaluates no radius; the same plane as a chart marches its
    # grid once, and both give the circle's length
    imm, _ = catalog("plane", n=2)
    calls = []

    def counting(imm, points):
        calls.append(len(points))
        return radius_values(imm, points)

    monkeypatch.setattr(levelset, "radius_values", counting)
    closed = level_boundaries(imm, [1.0, 2.0])
    assert calls == []
    assert [b.area for b in closed] == pytest.approx([2 * math.pi, 4 * math.pi], rel=1e-15)
    marched = level_boundaries(replace(imm, radial=None), [1.0, 2.0])
    assert calls == [257**2]
    assert [b.area for b in marched] == pytest.approx([b.area for b in closed], rel=2e-4)


def test_circle_points_boundary():
    # n = 1: the level set of the flat line r = |u| at R = 2 is two points
    imm, _ = catalog("plane", n=1)
    b = boundary_area_and_flux(imm, 2.0)
    assert b.area == 2.0
    assert b.flux == pytest.approx(2.0, abs=1e-10)


def _curve(coords, lo, hi, periodic):
    chart = chart_from_dict({
        "dim": 1,
        "codim_total": 2,
        "params": [{"name": "u1", "min": lo, "max": hi, "periodic": periodic}],
        "coords": coords,
    })
    return Immersion(chart, properness_radius=math.inf)


def test_boundary_points_on_both_ends_of_an_open_curve():
    # the line (u, 1), u in [-6, 6], meets r = sqrt(37) exactly at its two end nodes
    b = boundary_area_and_flux(_curve(["u1", "1"], -6.0, 6.0, False), math.sqrt(37))
    assert b.element_count == 2
    assert b.flux == pytest.approx(2 * 6 / math.sqrt(37), rel=1e-12)


@pytest.mark.parametrize("periodic,count", [(True, 1), (False, 2)])
def test_closed_curve_end_node_counted_once(periodic, count):
    # (u^2 + 1, u^3 - u) maps u = -1 and u = 1 to (2, 0), the only point with
    # r = 2; on a periodic parameter the last node repeats the first
    imm = _curve(["u1^2 + 1", "u1*(u1^2 - 1)"], -1.0, 1.0, periodic)
    assert boundary_area_and_flux(imm, 2.0).element_count == count


def test_level_met_twice_between_two_scan_nodes():
    # the line (u - 0.01, 1) dips below R = 1 + 1e-6 only for |u - 0.01| <
    # 1.41421e-3, well inside one scan step of 12/256: the parabolic step to
    # the discrete minimum at u = 0 brackets both crossings
    R = 1.0 + 1e-6
    b = boundary_area_and_flux(_curve(["u1 - 0.01", "1"], -6.0, 6.0, False), R)
    assert b.element_count == 2
    # |grad r| = |u - 0.01| / R at each crossing
    assert b.flux == pytest.approx(2 * math.sqrt(R**2 - 1) / R, rel=1e-6)


@pytest.mark.parametrize(
    "coords, lo, hi, periodic, radii",
    [
        (["u1", "1"], -6.0, 6.0, False, [*np.linspace(1.5, 5.5, 9), math.sqrt(37)]),
        (["u1^2 + 1", "u1*(u1^2 - 1)"], -1.0, 1.0, True, [1.2, 1.5, 2.0]),
        (["u1^2 + 1", "u1*(u1^2 - 1)"], -1.0, 1.0, False, [1.2, 1.5, 2.0]),
        (["u1 - 0.01", "1"], -6.0, 6.0, False, [1.0 + 1e-6, 2.0, 3.0]),
    ],
    ids=["end-nodes", "periodic-end", "open-ends", "met-twice"],
)
def test_curve_levels_share_one_scan(monkeypatch, coords, lo, hi, periodic, radii):
    # a curve is scanned once for all radii, each radius keeps its own
    # on-level nodes, and every result equals the one-radius call's
    imm = _curve(coords, lo, hi, periodic)
    alone = [boundary_area_and_flux(imm, R) for R in radii]
    scans = []

    def counting(imm, prefix, scan):
        scans.append(np.shape(scan))
        return pencil_scan(imm, prefix, scan)

    monkeypatch.setattr(crossing, "pencil_scan", counting)
    assert level_boundaries(imm, radii) == alone
    assert scans == [(257,)]


@pytest.mark.parametrize(
    "maker,R",
    [
        (lambda: catalog("plane", n=2)[0], 1.5),
        (lambda: catalog("generalized_cylinder", n=2, k=1, rho=1.0)[0], 2.0),
    ],
)
def test_coarea_consistency(maker, R):
    # d/dR Vol(D_R) by the product route equals the boundary integral of
    # 1/|grad r| on the marched level of the same surface as a chart within 5%
    imm = maker()
    h = 0.01
    dvol = (
        region_volume(ExtrinsicRegion(imm, 0.0, R + h)).value
        - region_volume(ExtrinsicRegion(imm, 0.0, R - h)).value
    ) / (2 * h)
    b = boundary_area_and_flux(replace(imm, radial=None), R)
    assert dvol == pytest.approx(b.coarea, rel=0.05)


def _clip_polygon(poly, phi, eps, crossing):
    """Reference: the phi <= 0 part of one polygon (vertex index loop), or None."""
    vals = [phi[v] for v in poly]
    if max(vals) <= eps:
        return poly
    if min(vals) >= -eps:
        return None
    out = []
    for idx in range(len(poly)):
        a, b = poly[idx], poly[(idx + 1) % len(poly)]
        va, vb = vals[idx], vals[(idx + 1) % len(poly)]
        if va <= eps:
            out.append(a)
        if (va < -eps and vb > eps) or (va > eps and vb < -eps):
            out.append(crossing(a, b))
    return out if len(out) >= 3 else None


def _clip_one_at_a_time(polys, phi, eps, base):
    split = {}  # cut edge -> number of its crossing vertex

    def crossing(a, b):
        return split.setdefault((min(a, b), max(a, b)), base + len(split))

    rows, phi = [[v for v in poly if v >= 0] for poly in polys.tolist()], phi.tolist()
    rows = [out for poly in rows if (out := _clip_polygon(poly, phi, eps, crossing))]
    return rows, [list(edge) for edge in split]


def test_grid_triangles_and_edges_follow_the_vertex_numbering():
    edges = grid_edges((3, 4))  # vertex (i, j) is 4 i + j: along the first axis, then the second
    assert edges.shape == (2 * 4 + 3 * 3, 2)
    assert edges[[0, 7, 8, -1]].tolist() == [[0, 4], [7, 11], [0, 1], [10, 11]]
    edges = grid_edges((2, 3, 2))  # vertex (i, j, k) is 6 i + 2 j + k
    assert edges.shape == (6 + 2 * 2 * 2 + 3 * 2, 2)
    assert edges[[0, 6, 13, 14, -1]].tolist() == [[0, 6], [0, 2], [9, 11], [0, 1], [10, 11]]
    assert grid_edges((5,)).tolist() == [[0, 1], [1, 2], [2, 3], [3, 4]]


def _clipped_boundaries(imm, levels, resolution):
    """Reference: marching triangles by clipping the Kuhn triangles of the
    grid one at a time to the sign of r - R, each level's segment measured
    at its midpoint."""
    (lo0, lo1), (hi0, hi1) = imm.chart.box
    axes = np.linspace(lo0, hi0, resolution + 1), np.linspace(lo1, hi1, resolution + 1)
    pts = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    r = radius_values(imm, pts)
    tris = _cell_corners((resolution + 1,) * 2)[:, _KUHN[2]].reshape(-1, 3)
    crossings, cuts = [], []
    for R in levels:
        sign = np.where(r - R < 0.0, -1.0, 1.0)
        mixed = tris[np.ptp(sign[tris], axis=1) > 0]  # the others hold no crossing
        rows, cut = _clip_one_at_a_time(mixed, sign, 0.0, len(r))
        crossings.append(
            np.array([v for row in rows for v in row if v >= len(r)], dtype=int)
            - len(r) + sum(map(len, cuts))
        )
        cuts.append(np.array(cut, dtype=int).reshape(-1, 2))
    i, j = np.concatenate(cuts).T
    level = np.repeat(levels, list(map(len, cuts)))
    roots, _ = level_crossings(imm, pts[i], pts[j], r[i], r[j], level)
    out = []
    for R, k in zip(levels, crossings):
        a, b = roots[k].reshape(-1, 2, 2).transpose(1, 0, 2)
        if not len(a):
            out.append(BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True))
            continue
        g = geometry(imm, 0.5 * (a + b), order=1)
        lengths = np.sqrt(np.einsum("ni,nij,nj->n", b - a, g.metric, b - a))
        grads = g.grad_r_norm
        sums = [math.fsum(v.tolist()) for v in (lengths, lengths * grads, lengths / grads)]
        out.append(BoundaryData(R, *sums, len(a), float(grads.min())))
    return out


@pytest.mark.parametrize("resolution", [64, 160, 256])
@pytest.mark.parametrize("name,params", [
    ("plane", {"n": 2}),
    ("castro_lerma", {}),
    ("generalized_cylinder", {"n": 2, "k": 1, "rho": 1.0}),
])
def test_kuhn_marcher_matches_clipped_triangles(name, params, resolution):
    imm = replace(catalog(name, **params)[0], radial=None)  # marched as a chart
    levels = [1.5, 2.0, 3.0]
    marched = level_boundaries(imm, levels, resolution)
    assert marched == _clipped_boundaries(imm, levels, resolution)


def _s1_times_r2():
    """S^1 x R^2 in R^4 as a user chart, with no declared product structure."""
    chart = chart_from_dict({
        "dim": 3,
        "codim_total": 4,
        "params": [
            {"name": "u1", "min": 0.0, "max": 2 * math.pi, "periodic": True},
            {"name": "u2", "min": -4.0, "max": 4.0, "periodic": False},
            {"name": "u3", "min": -4.0, "max": 4.0, "periodic": False},
        ],
        "coords": ["cos(u1)", "sin(u1)", "u2", "u3"],
    })
    return Immersion(chart, properness_radius=math.sqrt(17.0), name="s1xr2")


def test_three_parameter_levels_share_one_grid(monkeypatch):
    imm, radii = _s1_times_r2(), [1.5, 2.0, 3.0]
    alone = [boundary_area_and_flux(imm, R) for R in radii]
    calls = []

    def counting(imm, points):
        calls.append(len(points))
        return radius_values(imm, points)

    monkeypatch.setattr(levelset, "radius_values", counting)
    batched = level_boundaries(imm, radii)
    assert calls == [43**3]  # resolution 256 marches a 42-cell grid per axis
    assert batched == alone
    # the values of the marching-tetrahedra pass this marcher replaced
    assert [(repr(b.area), repr(b.flux), repr(b.coarea)) for b in batched] == [
        ("44.10675447550051", "32.84741931509395", "59.22554873648156"),
        ("68.3614383755048", "59.19281337088532", "78.95023158204921"),
        ("111.64926587596231", "105.26042697828461", "118.42587890302462"),
    ]


def test_level_boundaries_memory_budget(traced_peak):
    # the element centroids' geometry is formed GEOMETRY_BLOCK elements per
    # call (22.6 MB in one call, 15.8 MB in blocks)
    imm = _s1_times_r2()
    level_boundaries(imm, [3.0])  # compile the chart outside the trace
    (b,), peak = traced_peak(level_boundaries, imm, [3.0])
    assert b.element_count > 16384  # several blocks of 4096
    assert peak < 18.0


def test_element_geometry_blocks_change_no_bit(monkeypatch):
    # blocks of 64 elements change no boundary value of a contour, an
    # isosurface or a curve's points
    cases = [(catalog("castro_lerma")[0], list(np.linspace(1.83, 2.0, 21))),
             (_s1_times_r2(), [1.5, 2.0, 3.0, 3.9]),
             (_curve(["u1 - 0.01", "1"], -6.0, 6.0, False), [1.0 + 1e-6, 2.0, 3.0])]
    whole = [level_boundaries(imm, radii) for imm, radii in cases]
    sizes = []

    def counting(imm, points, order=2):
        sizes.append(len(points))
        return geometry(imm, points, order)

    monkeypatch.setattr(levelset, "geometry", counting)
    monkeypatch.setattr(levelset, "GEOMETRY_BLOCK", 64)
    assert [level_boundaries(imm, radii) for imm, radii in cases] == whole
    assert max(sizes) <= 64 and len(sizes) > 100


def test_crossing_blocks_change_no_bit(monkeypatch):
    # the marcher's cut edges are solved CROSSING_BLOCK segments per batch,
    # and a segment's iterates depend on it alone: blocks of 64 change no
    # element vertex of a contour or an isosurface
    cases = [(catalog("castro_lerma")[0], np.linspace(1.83, 2.0, 21), 48),
             (_s1_times_r2(), [1.5, 2.0, 3.0], 12)]
    whole = [level_segments(imm, levels, res) for imm, levels, res in cases]
    batches = []

    def counting(imm, points):
        batches.append(len(points))
        return radius_values(imm, points)

    monkeypatch.setattr(crossing, "radius_values", counting)
    monkeypatch.setattr(crossing, "CROSSING_BLOCK", 64)
    for (imm, levels, res), want in zip(cases, whole):
        got = level_segments(imm, levels, res)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
    assert max(batches) <= 64 and len(batches) > 100
