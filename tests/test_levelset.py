"""Level-set extraction and boundary integrals of the extrinsic distance."""

import math

import numpy as np
import pytest

import solab.levelset as levelset
from solab.catalog import catalog
from solab.charts import chart_from_dict
from solab.crossing import level_crossings
from solab.errors import NonRegularLevel
from solab.geometry import Immersion, geometry, radius_values
from solab.levelset import (
    BoundaryData,
    boundary_area_and_flux,
    clip,
    grid_edges,
    grid_triangles,
    level_boundaries,
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
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    closed = boundary_area_and_flux(imm, 2.0, method="product")
    marched = boundary_area_and_flux(imm, 2.0, method="marching")
    assert marched.area == pytest.approx(closed.area, rel=2e-4)
    assert marched.flux == pytest.approx(closed.flux, rel=2e-4)


def test_marching_tetrahedra_on_three_dimensional_cylinder():
    # S^1(1) x R^2 in R^4 at R = 2: level set is a flat torus S^1(1) x S^1(sqrt 3)
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    closed = boundary_area_and_flux(imm, 2.0, method="product")
    assert closed.area == pytest.approx(4 * math.pi**2 * math.sqrt(3), rel=1e-12)
    marched = boundary_area_and_flux(imm, 2.0, method="marching", resolution=240)
    assert marched.area == pytest.approx(closed.area, rel=5e-3)
    assert marched.flux == pytest.approx(closed.flux, rel=5e-3)


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
    "maker,R",
    [
        (lambda: catalog("plane", n=2)[0], 1.5),
        (lambda: catalog("generalized_cylinder", n=2, k=1, rho=1.0)[0], 2.0),
    ],
)
def test_coarea_consistency(maker, R):
    # d/dR Vol(D_R) equals the boundary integral of 1/|grad r| within 5%
    imm = maker()
    h = 0.01
    dvol = (
        region_volume(ExtrinsicRegion(imm, 0.0, R + h)).value
        - region_volume(ExtrinsicRegion(imm, 0.0, R - h)).value
    ) / (2 * h)
    b = boundary_area_and_flux(imm, R)
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

    rows = [[v for v in poly if v >= 0] for poly in polys.tolist()]
    rows = [out for poly in rows if (out := _clip_polygon(poly, phi.tolist(), eps, crossing))]
    return rows, [list(edge) for edge in split]


def test_grid_triangles_and_edges_follow_the_vertex_numbering():
    tris = grid_triangles((3, 4))  # vertex (i, j) is 4 i + j
    assert tris.shape == (2 * 2 * 3, 3)
    assert tris[:4].tolist() == [[0, 4, 5], [0, 5, 1], [1, 5, 6], [1, 6, 2]]
    assert tris[-1].tolist() == [6, 11, 7]
    edges = grid_edges((3, 4))  # along the first axis, then along the second
    assert edges.shape == (2 * 4 + 3 * 3, 2)
    assert edges[[0, 7, 8, -1]].tolist() == [[0, 4], [7, 11], [0, 1], [10, 11]]


@pytest.mark.parametrize("width", [3, 4, 5])
def test_clip_matches_one_polygon_at_a_time(width):
    # a small vertex pool shares edges between rows; phi takes values exactly
    # 0, inside and on +-eps, and well off the level
    rng = np.random.default_rng(width)
    eps, pool = 1e-3, 12
    choices = np.array([0.0, 0.5e-3, -0.5e-3, 1e-3, -1e-3, 0.3, -0.3, 1.0, -2.0])
    cut_rows = 0
    for trial in range(300):
        phi = rng.choice(choices, pool) * rng.uniform(0.5, 1.5, pool) ** (trial % 2)
        sizes = rng.integers(3, min(width, 4) + 1, size=rng.integers(0, 9))
        polys = np.full((len(sizes), width), -1)
        for row, size in zip(polys, sizes):
            row[:size] = rng.choice(pool, size, replace=False)
        rows, cuts = clip(polys, phi, eps)
        ref_rows, ref_cuts = _clip_one_at_a_time(polys, phi, eps, pool)
        assert cuts.shape == (len(ref_cuts), 2) and cuts.tolist() == ref_cuts
        assert [[v for v in row if v >= 0] for row in rows.tolist()] == ref_rows
        assert all(sorted(row >= 0, reverse=True) == list(row >= 0) for row in rows)
        assert rows.shape[1] >= width
        cut_rows += sum(any(v >= pool for v in row) for row in ref_rows)
    assert cut_rows > 300


def test_clip_two_levels_on_a_square():
    # the unit square as two triangles, clipped to x <= 1/2 and then y <= 1/2;
    # the second level passes exactly through crossing vertex 5 = (1/2, 1/2)
    x, y = np.array([0.0, 1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0])
    rows, cuts = clip(np.array([[0, 1, 2], [0, 2, 3]]), x - 0.5, 0.0)
    assert cuts.tolist() == [[0, 1], [0, 2], [2, 3]]
    assert rows.tolist() == [[0, 4, 5, -1], [0, 5, 6, 3]]
    y = np.append(y, [0.0, 0.5, 1.0])
    rows, cuts = clip(rows, y - 0.5, 0.0)
    assert cuts.tolist() == [[0, 3]]
    assert rows.tolist() == [[0, 4, 5, -1], [0, 5, 7, -1]]


def _clipped_boundaries(imm, levels, resolution):
    """Reference: marching triangles by clipping the grid triangles to the
    sign of r - R, each level's segment measured at its midpoint."""
    (lo0, lo1), (hi0, hi1) = imm.chart.box
    axes = np.linspace(lo0, hi0, resolution + 1), np.linspace(lo1, hi1, resolution + 1)
    pts = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    r = radius_values(imm, pts)
    tris = grid_triangles((resolution + 1,) * 2)
    crossings, cuts = [], []
    for R in levels:
        rows, cut = clip(tris, np.where(r - R < 0.0, -1.0, 1.0), 0.0)
        crossings.append(rows[rows >= len(r)] - len(r) + sum(map(len, cuts)))
        cuts.append(cut)
    i, j = np.concatenate(cuts).T
    level = np.repeat(levels, list(map(len, cuts)))
    roots, _ = level_crossings(imm, pts[i], pts[j], r[i], r[j], level)
    out = []
    for R, k in zip(levels, crossings):
        a, b = roots[k].reshape(-1, 2, 2).transpose(1, 0, 2)
        if not len(a):
            out.append(BoundaryData(R, 0.0, 0.0, 0.0, 0, math.inf, empty=True, method="marching"))
            continue
        g = geometry(imm, 0.5 * (a + b), order=1)
        lengths = np.sqrt(np.einsum("ni,nij,nj->n", b - a, g.metric, b - a))
        grads = g.grad_r_norm
        sums = [math.fsum(v.tolist()) for v in (lengths, lengths * grads, lengths / grads)]
        out.append(BoundaryData(R, *sums, len(a), float(grads.min()), method="marching"))
    return out


@pytest.mark.parametrize("resolution", [64, 160, 256])
@pytest.mark.parametrize("name,params", [
    ("plane", {"n": 2}),
    ("castro_lerma", {}),
    ("generalized_cylinder", {"n": 2, "k": 1, "rho": 1.0}),
])
def test_kuhn_marcher_matches_clipped_triangles(name, params, resolution):
    imm, _ = catalog(name, **params)
    levels = [1.5, 2.0, 3.0]
    marched = level_boundaries(imm, levels, resolution, method="marching")
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
