"""Region quadrature, Gaussian-weighted volumes, Psi and the flux identity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc, gammaincc

from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.errors import ImproperWindow, InvalidParams, PsiUnderflow, TruncationFailure
from solab.geometry import Immersion, geometry, radius_values
from solab.inequalities import isoperimetric
import solab.levelset as levelset
import solab.quadrature as quadrature
from solab.quadrature import (
    ExtrinsicRegion,
    RegionJob,
    _Regions,
    _gamma_tail,
    _pencil_spans,
    _topology_breaks,
    cylinder_psi_closed_form,
    flux_identity_check,
    gaussian_volume,
    parabolicity_integral,
    psi,
    region_integral,
    region_integrals,
    region_volume,
    second_moment,
    weighted_identity_check,
)
from solab.solitons import SolitonSpec


def polar_bowl():
    """Non-product control surface: z = t^2/4 over an annular polar chart."""
    chart = chart_from_sources(
        2,
        3,
        ["u1*cos(u2)", "u1*sin(u2)", "u1^2/4"],
        [ParamSpec("u1", 0.05, 3.0), ParamSpec("u2", 0.0, 2 * math.pi, periodic=True)],
    )
    return Immersion(chart, properness_radius=3.0, name="polar_bowl")


def polar_bowl_volume(rho, R):
    """Closed form: r^2 = t^2 + t^4/16 gives 1 + t^2/4 = 2 sqrt(1 + r^2/4) - 1,
    and dV = 2 pi t sqrt(1 + t^2/4) dt integrates to (8 pi / 3)(1 + t^2/4)^(3/2)."""
    s = lambda r: (2.0 * math.sqrt(1.0 + r * r / 4.0) - 1.0) ** 1.5
    return 8.0 * math.pi / 3.0 * (s(R) - s(rho))


def s1_times_r2():
    """S^1 x R^2 in R^4 as a user chart: no product structure is declared,
    so its regions take the 3-D pencil route."""
    chart = chart_from_sources(
        3,
        4,
        ["cos(u1)", "sin(u1)", "u2", "u3"],
        [
            ParamSpec("u1", 0.0, 2 * math.pi, periodic=True),
            ParamSpec("u2", -4.0, 4.0),
            ParamSpec("u3", -4.0, 4.0),
        ],
    )
    return Immersion(chart, properness_radius=math.sqrt(17.0), name="s1xr2")


# --- region volumes -------------------------------------------------------------


def test_sphere_volume_whole():
    imm, _ = catalog("sphere", n=2, R=1.0)
    res = region_volume(ExtrinsicRegion(imm, 0.0, 2.0))
    assert res.value == pytest.approx(4 * math.pi, rel=1e-12)


def test_cylinder_ball_volume():
    # D_2 on S^1(1) x R is the strip |z| < sqrt(3)
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    res = region_volume(ExtrinsicRegion(imm, 0.0, 2.0))
    assert res.value == pytest.approx(2 * math.pi * 2 * math.sqrt(3), rel=1e-9)
    # the pencil route, on the same cylinder as a chart, agrees with the
    # product reduction
    chart = replace(imm, radial=None)
    gen = region_volume(ExtrinsicRegion(chart, 0.0, 2.0))
    assert gen.method == "pencil"
    assert gen.value == pytest.approx(res.value, rel=1e-5)


def test_plane_disk_volume():
    imm, _ = catalog("plane", n=2)
    res = region_volume(ExtrinsicRegion(imm, 0.0, 1.0))
    assert res.value == pytest.approx(math.pi, rel=1e-10)
    chart = replace(imm, radial=None)
    gen = region_volume(ExtrinsicRegion(chart, 0.0, 1.0))
    assert gen.method == "pencil"
    assert gen.value == pytest.approx(math.pi, rel=1e-5)


def test_pencil_against_independent_radial_oracle():
    imm = polar_bowl()
    lo_r, hi_r = 0.5, 2.0

    def r_of_t(t):
        return math.sqrt(t**2 + t**4 / 16.0)

    t_lo = brentq(lambda t: r_of_t(t) - lo_r, 0.05, 3.0)
    t_hi = brentq(lambda t: r_of_t(t) - hi_r, 0.05, 3.0)
    oracle = 2 * math.pi * quad(
        lambda t: t * math.sqrt(1 + t**2 / 4.0), t_lo, t_hi
    )[0]
    res = region_volume(ExtrinsicRegion(imm, lo_r, hi_r))
    assert res.method == "pencil"
    assert res.value == pytest.approx(oracle, rel=2e-6)


def test_topology_breaks_match_per_candidate_bisection():
    # a rippled graph: the number of slices inside the annulus along u2
    # changes at several u1, each break is bisected 48 times
    chart = chart_from_sources(
        2, 3, ["u1", "u2", "0.6*sin(3*u1)*cos(u2)"],
        [ParamSpec("u1", -2.0, 2.0), ParamSpec("u2", -2.0, 2.0)],
    )
    imm = Immersion(chart, properness_radius=2.0, name="ripple")
    region = ExtrinsicRegion(imm, 0.5, 1.5)
    u = np.linspace(-2.0, 2.0, 257)
    v = np.linspace(-2.0, 2.0, 257)

    def run_count(x):
        r = radius_values(imm, np.column_stack([np.full(len(v), x), v]))
        inside = (r > region.rho) & (r < region.R)
        return int((np.diff(inside.astype(int)) == 1).sum() + inside[0])

    runs = [run_count(x) for x in u]
    expected = []
    for i in range(len(u) - 1):
        if runs[i] == runs[i + 1]:
            continue
        a, b = u[i], u[i + 1]
        for _ in range(48):
            m = 0.5 * (a + b)
            if run_count(m) == runs[i]:
                a = m
            else:
                b = m
        expected.append(0.5 * (a + b))
    assert len(expected) >= 4
    rows, breaks = _topology_breaks(imm, _Regions.build([region]), np.empty((1, 0)), np.zeros(1, int))
    assert not rows.any()
    assert breaks.tolist() == expected


def test_improper_window_rejected():
    imm, _ = catalog("plane", n=2, extent=8.0)
    with pytest.raises(ImproperWindow):
        region_volume(ExtrinsicRegion(imm, 0.0, 10.0))


def test_volume_monotone_in_radius():
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    vols = [region_volume(ExtrinsicRegion(imm, 0.0, R)).value for R in (1.2, 1.8, 2.5, 4.0)]
    assert all(b >= a for a, b in zip(vols, vols[1:]))


def test_refinement_changes_stay_within_error_budget():
    # the carried error bounds the distance to the closed form
    imm = polar_bowl()
    res = region_integral(imm, ExtrinsicRegion(imm, 0.5, 2.0))
    assert abs(res.value - polar_bowl_volume(0.5, 2.0)) <= res.error
    assert res.error <= 1e-8 * res.value


def saddle():
    chart = chart_from_sources(
        2, 3, ["u1", "u2", "u1*u2"], [ParamSpec("u1", -3.0, 3.0), ParamSpec("u2", -3.0, 3.0)]
    )
    return Immersion(chart, properness_radius=3.0, name="saddle")


def saddle_area(R):
    """In polar coordinates (s, t), r^2 = s^2 + s^4 sin^2(2t)/4 and
    dV = s sqrt(1 + s^2) ds dt: the disk D_R has area
    8 * integral over [0, pi/4] of ((1 + s_R(t)^2)^(3/2) - 1) / 3."""
    s2 = lambda t: 2 * R * R / (1.0 + math.sqrt(1.0 + R * R * math.sin(2 * t) ** 2))
    f = lambda t: ((1.0 + s2(t)) ** 1.5 - 1.0) / 3.0
    return 8.0 * quad(f, 0.0, math.pi / 4, epsabs=1e-14, epsrel=1e-13)[0]


def _line():
    chart = chart_from_sources(1, 2, ["u1", "1"], [ParamSpec("u1", -6.0, 6.0)])
    return Immersion(chart, properness_radius=math.sqrt(37.0), name="line")


@pytest.mark.parametrize(
    "make,rho,R,exact",
    [
        (_line, 0.0, 3.0, 2 * math.sqrt(8.0)),  # |u1| < sqrt(8)
        (lambda: replace(catalog("plane", n=2)[0], radial=None), 0.0, 1.0, math.pi),
        (polar_bowl, 0.5, 2.0, polar_bowl_volume(0.5, 2.0)),
        (saddle, 0.0, 2.0, saddle_area(2.0)),  # chords shorter than the scan step
        (s1_times_r2, 0.0, 3.0, 16 * math.pi**2),  # 2 pi times the disk of radius sqrt(8)
        # a panel of the middle axis with all nodes outside the disk of radius
        # sqrt(0.69) would hide part of it without the breaks on that axis
        (s1_times_r2, 0.0, 1.3, 2 * math.pi**2 * 0.69),
    ],
    ids=["line", "plane", "polar-bowl", "saddle", "s1xr2", "s1xr2-small"],
)
def test_pencil_route_closed_forms(make, rho, R, exact):
    # one route for dimensions 1-3; its carried error bounds the true one
    res = region_volume(ExtrinsicRegion(make(), rho, R))
    assert res.method == "pencil"
    assert abs(res.value - exact) <= res.error <= 1e-8 * abs(exact)


def test_polar_bowl_volume_needs_few_geometry_calls(monkeypatch):
    # each round of the innermost rule is one batched geometry call
    calls = []

    def counting(imm, points, order=2):
        calls.append(len(points))
        return geometry(imm, points, order)

    monkeypatch.setattr(quadrature, "geometry", counting)
    imm = polar_bowl()
    region_volume(ExtrinsicRegion(imm, 0.5, 2.0))
    assert 1 <= len(calls) <= 3


def test_gauss_kronrod_stops_halving_noise(monkeypatch):
    # values whose error halving cannot reduce: the two halves agree with
    # their parent, so they are accepted with the error they carry instead
    # of being split round after round
    monkeypatch.setattr(quadrature, "_ROUNDS", 10)
    f = lambda x, i: (np.exp(x) + 1e-6 * np.sin(1e6 * x), np.zeros_like(x))
    value, error, panels = quadrature._gauss_kronrod(
        f, np.array([0.0]), np.array([1.0]), np.array([0]), 1
    )
    exact = math.e - 1 + 1e-12 * (1 - math.cos(1e6))
    assert panels <= 4
    assert abs(value[0] - exact) <= error[0]


def test_gauss_kronrod_halves_an_under_resolved_peak():
    # r^2 e^(-r^2) over (1.2, W) on S^2 x R^2: at the first halving the two
    # halves sum to their parent's value within 2e-6 but their estimate
    # grows 4x; that is a peak the first panel did not resolve, not noise
    imm = catalog("generalized_cylinder", n=4, k=2, rho=1.0)[0]
    region = ExtrinsicRegion(imm, 1.2, imm.properness_radius)
    res = region_integral(imm, region, lambda r: r**2 * np.exp(-(r**2)))
    assert res.error <= 1e-9
    assert res.cells > 2
    assert res.value == pytest.approx(cylinder_psi_closed_form(imm, 2.0, 1.2), rel=1e-12)


def test_gauss_kronrod_caps_the_panels_of_one_integral(monkeypatch):
    # an integrand no panel count resolves: each integral keeps at most
    # 2 * _LIMIT panels and carries an error that still bounds the truth
    monkeypatch.setattr(quadrature, "_ROUNDS", 12)
    f = lambda x, i: (np.sin(1e6 * x), np.zeros_like(x))
    value, error, panels = quadrature._gauss_kronrod(
        f, np.array([0.0]), np.array([1.0]), np.array([0]), 1
    )
    assert panels <= 2 * quadrature._LIMIT
    assert abs(value[0] - (1 - math.cos(1e6)) / 1e6) <= error[0]


def plane_chart(lo, hi):
    """The plane z = 0 over the box [lo, hi] as a user chart: no product
    structure is declared, so its regions take the 2-D pencil route."""
    params = [ParamSpec(f"u{a + 1}", lo[a], hi[a]) for a in range(2)]
    chart = chart_from_sources(2, 3, ["u1", "u2", "0"], params)
    return Immersion(chart, properness_radius=min(map(abs, lo + hi)), name="plane-chart")


def test_innermost_spans_keep_the_centre_and_short_chords():
    # the chord through the origin (rho = 0 = r at its midpoint) and a chord
    # shorter than the scan step, which only the parabolic step can see: the
    # scan has a node at u2 = 0 on the symmetric interval only
    u1 = np.array([0.0, 0.5, 0.9999])
    for a, b in ((-8.0, 8.0), (-8.0, 7.0)):
        assert (b - a) / quadrature._SCAN > 2 * math.sqrt(1 - 0.9999**2)
        imm = plane_chart([-8.0, a], [8.0, b])
        regions = _Regions.build([ExtrinsicRegion(imm, 0.0, 1.0)])
        lo, hi, owner = _pencil_spans(imm, regions, u1[:, None], np.zeros(len(u1), int))
        chords = np.bincount(owner, hi - lo, len(u1))
        assert chords == pytest.approx(2 * np.sqrt(1 - u1**2), rel=0, abs=1e-12)


def cylinder_chart():
    """S^1 x R as a user chart: no product structure, so the 2-D pencil route."""
    chart = chart_from_sources(
        2,
        3,
        ["cos(u1)", "sin(u1)", "u2"],
        [ParamSpec("u1", 0.0, 2 * math.pi, periodic=True), ParamSpec("u2", -8.0, 8.0)],
    )
    return Immersion(chart, properness_radius=math.sqrt(65.0), name="cylinder-chart")


def _cylinder_jobs(imm):
    # five Psi shells, an empty region in mid-batch and the four integrands
    # of flux_identity_check(lam=1, R=2), |H|^2 among them
    weight = lambda r: r**2 * np.exp(-(r**2) / 2.0)
    shells = [
        RegionJob(ExtrinsicRegion(imm, rho, 6.5), weight) for rho in (1.5, 2.2, 3.0, 3.9, 4.8)
    ]
    ball = ExtrinsicRegion(imm, 0.0, 2.0)
    flux = [
        RegionJob(ball, lambda r: np.exp(-(r**2) / 2.0) * (2 - r**2)),
        RegionJob(ball),
        RegionJob(ball, point_fn=lambda g: g.normH**2),
        RegionJob(ball, lambda r: (1.0 - r**2 / 2) * np.exp((4.0 - r**2) / 2.0)),
    ]
    return shells[:3] + [RegionJob(ExtrinsicRegion(imm, 0.0, 0.5))] + shells[3:] + flux


def _s1xr2_jobs(imm):
    # breaks on axis 1 for every outer node, shared by two integrands
    ball = ExtrinsicRegion(imm, 0.0, 1.3)
    return [RegionJob(ball), RegionJob(ball, lambda r: np.exp(-(r**2) / 2.0))]


def _line_jobs(imm):
    return [
        RegionJob(ExtrinsicRegion(imm, 0.0, 3.0)),
        RegionJob(ExtrinsicRegion(imm, 0.0, 0.5)),  # r >= 1 on the line
        RegionJob(ExtrinsicRegion(imm, 1.2, 5.0), lambda r: r**2 * np.exp(-(r**2) / 2.0)),
        RegionJob(ExtrinsicRegion(imm, 0.0, 3.0), point_fn=lambda g: 1.0 + g.normH**2),
    ]


def catalog_cylinder():
    """S^1(1) x R^2 from the catalog: its regions take the product route."""
    return catalog("generalized_cylinder", n=3, k=1, rho=1.0)[0]


@pytest.mark.parametrize(
    "make,jobs,method",
    [
        (cylinder_chart, _cylinder_jobs, "pencil"),
        (s1_times_r2, _s1xr2_jobs, "pencil"),
        (_line, _line_jobs, "pencil"),
        (catalog_cylinder, _cylinder_jobs, "product"),
    ],
    ids=["cylinder-chart", "s1xr2", "line", "catalog-cylinder"],
)
def test_region_integrals_match_one_at_a_time(make, jobs, method):
    # one pass over all jobs gives every job's value, error, cells and notes
    # bit for bit as integrating it on its own; an empty region gets value 0,
    # error 0, no cells and no notes
    imm = make()
    jobs = jobs(imm)
    batched = region_integrals(imm, jobs)
    alone = [region_integral(imm, job.region, job.radial_fn, job.point_fn) for job in jobs]
    assert all(res.method == method for res in batched)
    empty = [res for res in batched if res.cells == 0]
    assert bool(empty) == (make is not s1_times_r2)
    assert all((res.value, res.error, res.notes) == (0.0, 0.0, ()) for res in empty)
    assert batched == alone


def test_geometry_blocks_change_no_bit(monkeypatch):
    # a round's geometry runs in blocks of GEOMETRY_BLOCK rows; blocks of 7
    # split rows of both derivative orders and of several jobs, and change
    # no value, error or cell count
    imm = cylinder_chart()
    jobs = _cylinder_jobs(imm)[-4:]
    whole = region_integrals(imm, jobs)
    sizes = []

    def counting(imm, points, order=2):
        sizes.append(len(points))
        return geometry(imm, points, order)

    monkeypatch.setattr(quadrature, "geometry", counting)
    monkeypatch.setattr(quadrature, "GEOMETRY_BLOCK", 7)
    assert region_integrals(imm, jobs) == whole
    assert max(sizes) <= 7 and sum(sizes) > 1000


def test_dot_is_a_left_fold_over_the_nodes():
    # each row's sum is the plain sum in node order, whatever batch holds it
    rng = np.random.default_rng(5)
    a = rng.standard_normal((64, 15)) * 10.0 ** rng.integers(-6, 7, (64, 15))
    w = quadrature._GK_W

    def fold(row):
        s = row[0] * float(w[0])
        for x, wj in zip(row[1:], w[1:].tolist()):
            s = s + x * wj
        return s

    expected = [fold(row) for row in a.tolist()]
    alone = [quadrature._dot(a[i : i + 1], w)[0] for i in range(len(a))]
    perm = rng.permutation(len(a))
    shuffled = quadrature._dot(a[perm], w)
    batch = quadrature._dot(np.vstack([a[::-1], a, rng.standard_normal((37, 15))]), w)
    assert alone == expected
    assert shuffled.tolist() == [expected[i] for i in perm]
    assert batch[64:128].tolist() == expected


def _counting(monkeypatch, name, record):
    """Replace quadrature.<name> by a wrapper that records its arguments."""
    original = getattr(quadrature, name)

    def wrapper(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, name, wrapper)


def test_psi_shells_draw_no_sample_and_share_one_scan(monkeypatch):
    imm = cylinder_chart()
    draws, scans, in_breaks = [], [], []
    _counting(monkeypatch, "sample_box", lambda chart, count, seed: draws.append(count))
    c = quadrature._euclidean_majorant(imm)
    assert draws == []  # the three balls of the majorant fit lie in the chart box
    # the shells of psi on 33 radii: no sample, one top-level scan
    monkeypatch.setattr(quadrature, "_euclidean_majorant", lambda imm: c)
    breaks = quadrature._topology_breaks

    def tracked(*args):
        in_breaks.append(True)
        try:
            return breaks(*args)
        finally:
            in_breaks.pop()

    monkeypatch.setattr(quadrature, "_topology_breaks", tracked)

    def scanned(imm, prefix, scan):
        if in_breaks:
            scans.append(len(prefix))

    _counting(monkeypatch, "pencil_scan", scanned)
    curve = psi(imm, 1.0, np.linspace(1.5, 0.7 * imm.properness_radius, 33))
    assert draws == []
    assert scans == [257]
    assert np.all(curve.values > 0.0)


def _top_level_rules(monkeypatch):
    """Record the integral count of each _gauss_kronrod call not nested in
    another one; returns the list it appends to."""
    rule, depth, top = quadrature._gauss_kronrod, [0], []

    def nested(f, lo, hi, owner, count):
        if not depth[0]:
            top.append(count)
        depth[0] += 1
        try:
            return rule(f, lo, hi, owner, count)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(quadrature, "_gauss_kronrod", nested)
    return top


def test_flux_identity_runs_one_top_level_rule(monkeypatch):
    top = _top_level_rules(monkeypatch)
    margins = flux_identity_check(cylinder_chart(), 1.0, 2.0)
    assert top == [4]  # the four integrands of the identity, one pass
    assert [m.verdict for m in margins] == ["PASS"] * 3


def test_product_route_runs_one_rule_on_batched_points(monkeypatch):
    # psi's shells and the isoperimetric balls each take one pass of the
    # rule; only the fiber check's reference point is a one-point geometry
    imm, entry = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    lam = entry.constants["lam"]
    c = quadrature._euclidean_majorant(imm)
    monkeypatch.setattr(quadrature, "_euclidean_majorant", lambda imm: c)
    top = _top_level_rules(monkeypatch)
    check, in_check, one_point = quadrature._check_fiber_homogeneity, [], []

    def checked(*args):
        in_check.append(True)
        try:
            return check(*args)
        finally:
            in_check.pop()

    monkeypatch.setattr(quadrature, "_check_fiber_homogeneity", checked)
    _counting(
        monkeypatch,
        "geometry",
        lambda imm, points, order=2: one_point.append(len(points) == 1 and not in_check),
    )
    curve = psi(imm, lam, [1.5, 2.0, 3.0])
    assert top == [3]
    top.clear()
    margins = isoperimetric(imm, SolitonSpec("mcf", lam), [1.5, 2.0, 3.0])
    assert top == [6]  # a volume and an |H|^2 integral per ball
    assert one_point and not any(one_point)
    assert np.all(curve.values > 0.0)
    assert all(m.verdict == "PASS" for m in margins)


def test_product_route_rejects_an_untruncated_region():
    # R = inf would carry no tail bound; whole-immersion integrals truncate
    imm = catalog_cylinder()
    weight = lambda r: np.exp(-(r**2) / 2.0)
    with pytest.raises(ImproperWindow, match="truncate first"):
        region_integral(imm, ExtrinsicRegion(imm, 2.0, math.inf), weight)


# --- Gaussian-weighted volumes ----------------------------------------------------


def test_gaussian_volume_sphere_closed_form():
    imm, _ = catalog("sphere", n=2, R=1.5)
    lam = 2.0 / 1.5**2
    res = gaussian_volume(imm, lam)
    expected = math.exp(-lam * 1.5**2 / 2.0) * 4 * math.pi * 1.5**2
    assert res.value == pytest.approx(expected, rel=1e-14)
    assert res.tail == 0.0


@pytest.mark.parametrize(
    "n,k",
    [(2, 1), (4, 2)],
)
def test_cylinder_moment_ratio(n, k):
    # gaussian_volume / second_moment = lam / n on a shrinking cylinder
    imm, entry = catalog("generalized_cylinder", n=n, k=k, rho=1.0)
    lam = entry.constants["lam"]
    m0 = gaussian_volume(imm, lam)
    m2 = second_moment(imm, lam)
    assert m0.value / m2.value == pytest.approx(lam / n, rel=1e-8)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2)])
def test_weighted_identity_on_shrinking_cylinders(n, k):
    imm, entry = catalog("generalized_cylinder", n=n, k=k, rho=1.0)
    check = weighted_identity_check(imm, entry.constants["lam"])
    assert check.margin < 1e-3
    assert check.verdict == "PASS"


def test_weighted_identity_on_the_plane_holds_for_any_lam():
    # X^perp = 0 and H = 0, so <X, H> = -lam |X^perp|^2 holds for every lam
    # and the identity is satisfied even though the plane is only a lam = 0
    # soliton; direct evaluation: lam * 4pi = n * 2pi at lam = 1, n = 2.
    imm, _ = catalog("plane", n=2)
    check = weighted_identity_check(imm, 1.0)
    assert check.margin < 1e-9


def test_plane_three_truncates_relative_to_its_integral():
    # the majorant's bound past W = 8 (8.5e-10 on the second moment, ten times
    # the true tail) is above 1e-10 but far below 1e-10 of the integral
    imm, _ = catalog("plane", n=3)
    exact = (2.0 * math.pi) ** 1.5
    m0, m2 = gaussian_volume(imm, 1.0), second_moment(imm, 1.0)
    assert 1e-10 < m2.tail < 1e-10 * m2.value
    assert abs(m0.value - exact) <= m0.error
    assert abs(m2.value - 3.0 * exact) <= m2.error
    assert weighted_identity_check(imm, 1.0).verdict == "PASS"


def test_truncation_fails_when_the_tail_bound_is_large_against_the_integral():
    imm, _ = catalog("plane", n=2, extent=3.0)
    with pytest.raises(TruncationFailure, match="of the integral"):
        gaussian_volume(imm, 1.0)


def test_hopeless_tail_fails_before_any_quadrature(monkeypatch):
    # past W = 3 the majorant's bound on plane(2) is about 0.7, more than
    # 1e-10 times any integral it allows inside W: no shell is integrated
    imm, _ = catalog("plane", n=2, extent=3.0)
    c = quadrature._euclidean_majorant(imm)  # the fit itself integrates balls
    monkeypatch.setattr(quadrature, "_euclidean_majorant", lambda imm: c)

    def refuse(imm, jobs):
        raise AssertionError("region_integrals ran")

    monkeypatch.setattr(quadrature, "region_integrals", refuse)
    with pytest.raises(TruncationFailure, match="of the integral at most"):
        gaussian_volume(imm, 1.0)
    with pytest.raises(TruncationFailure, match="of the integral at most"):
        psi(imm, 1.0, [0.5, 1.0, 2.0])


def test_weighted_identity_floor_passes_an_exact_route():
    # the constant route carries no quadrature error, so only the rounding
    # floor lets a margin of 1.3e-16 pass; 2 * error alone would be 0
    imm, entry = catalog("veronese")
    check = weighted_identity_check(imm, entry.constants["lam"])
    assert check.error == 0.0
    assert 0.0 < check.margin < 1e-15
    assert check.tol == quadrature.ROUNDING_FLOOR == 1e-9
    assert check.verdict == "PASS"


def test_compare_rule():
    # identities pass up to tol, inequalities down to -tol; the user's tol
    # and a slack each leave a note, a carried error none
    floor = quadrature.ROUNDING_FLOOR
    exact = quadrature.compare("a", 1.0, 1.0 + 4e-10, identity=True, error=1e-10)
    assert (exact.margin, exact.tol, exact.verdict, exact.notes) == (
        pytest.approx(4e-10), floor, "PASS", ()
    )
    assert quadrature.compare("b", 1.0, 1.5, error=0.2).verdict == "FAIL"
    assert quadrature.compare("b", 1.0, 1.3, error=0.2).tol == 0.4
    slack = quadrature.compare("c", 2.0, 1.0, identity=True, scale=2.0, slack=(0.6, "why"))
    assert (slack.margin, slack.error, slack.verdict) == (0.5, None, "PASS")
    assert slack.notes == ("slack 0.6: why",)
    user = quadrature.compare("d", 2.0, 1.0, identity=True, error=1.0, tol=0.1)
    assert (user.tol, user.verdict, user.notes) == (0.1, "FAIL", ("tol 0.1 set by the user",))
    skipped = quadrature.compare("e", math.nan, math.nan, skip="no ball")
    assert (skipped.tol, skipped.verdict, skipped.notes) == (0.0, "SKIPPED", ("no ball",))


def test_weighted_identity_negative_control():
    # cylinder tested against the wrong constant: closed forms give
    # margin = |lam - 1| / 2 exactly (lam* = 1 for C_1(1))
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    check = weighted_identity_check(imm, 2.0)
    assert check.margin == pytest.approx(0.5, abs=1e-6)
    assert check.verdict == "FAIL"


# --- Psi and the parabolicity integral --------------------------------------------


def test_psi_matches_printed_closed_form():
    # S^1(1) x R^2 in R^4: Psi(R) = 4 pi^2 e^(-R^2/2) (R^2 + 2); at R = 2
    # that is 24 pi^2 e^-2, about 32.06
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    curve = psi(imm, 1.0, [2.0])
    printed = 2.0 * math.exp(-2.0) * (2 * math.pi) ** 2 * (2.0 + 1.0)
    assert printed == pytest.approx(24 * math.pi**2 * math.exp(-2.0))
    assert curve.values[0] == pytest.approx(printed, rel=1e-8)
    assert curve.closed_form[0] == pytest.approx(printed, rel=1e-12)


def test_psi_closed_form_gamma_vs_printed_display():
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    for R in (1.5, 2.0, 3.0, 4.0):
        display = (
            2.0 * math.exp(-R**2 / 2.0) * (2 * math.pi) ** 2 * (R**2 / 2.0 + 1.0)
        )
        assert cylinder_psi_closed_form(imm, 1.0, R) == pytest.approx(display, rel=1e-12)


@pytest.mark.parametrize("p", range(11))
@pytest.mark.parametrize("a", [1.0, 0.5])
def test_gamma_tail_matches_scipy(p, a):
    # s = (p + 1)/2 runs over 1/2 ... 6 and y = a x^2 over [0, 50].  For
    # s = 1/2 the reference is sqrt(pi) erfc(sqrt(y)) (DLMF 8.4.6): scipy's
    # gammaincc(1/2, y) is itself 2.9e-14 off near y = 1, by a 40-digit check
    s = (p + 1) / 2
    for x in np.linspace(0.0, math.sqrt(50.0 / a), 101):
        y = a * x * x
        upper = math.gamma(s) * gammaincc(s, y) if p else math.sqrt(math.pi) * erfc(math.sqrt(y))
        assert _gamma_tail(p, a, x) == pytest.approx(0.5 * a**-s * upper, rel=1e-14, abs=0.0)


def test_psi_sphere_vanishes_beyond_radius():
    imm, _ = catalog("sphere", n=2, R=1.0)
    curve = psi(imm, 2.0, [0.5, 2.0])
    assert curve.values[0] > 0.0
    assert curve.values[1] == 0.0


def test_psi_at_zero_is_the_second_moment():
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    curve = psi(imm, 1.0, [0.0])
    m2 = second_moment(imm, 1.0)
    assert curve.values[0] == pytest.approx(m2.value, rel=1e-8)


def test_psi_nonincreasing():
    imm, _ = catalog("generalized_cylinder", n=4, k=2, rho=1.0)
    curve = psi(imm, 2.0, np.linspace(1.0, 4.0, 9))
    assert all(b <= a + 1e-12 for a, b in zip(curve.values, curve.values[1:]))


def test_parabolicity_trend_codim_two_flat_factor():
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    rep = parabolicity_integral(imm, 1.0, 1.5, 6.0)
    assert rep.trend == "DIVERGENT-LIKE"
    assert rep.log_slope > -1.5


def test_parabolicity_trend_codim_four_flat_factor():
    imm, _ = catalog("generalized_cylinder", n=5, k=1, rho=1.0)
    rep = parabolicity_integral(imm, 1.0, 1.5, 6.0)
    assert rep.trend == "CONVERGENT-LIKE"
    assert rep.log_slope < -1.5


def test_psi_keeps_relative_accuracy_up_to_the_report_grid_end():
    # S^2 x R^2 at lam = 2 (n = 4, parabolic): every shell runs to the
    # properness window W, where the tail bound is about 1e-30, so Psi stays
    # accurate across the whole report grid and the trend fit sees no zero
    imm = catalog("generalized_cylinder", n=4, k=2, rho=1.0)[0]
    grid = np.linspace(1.5, 0.7 * imm.properness_radius, 33)
    curve = psi(imm, 2.0, grid)
    np.testing.assert_allclose(curve.values, curve.closed_form, rtol=1e-9, atol=0.0)
    assert np.all(curve.tails < 1e-25)
    rep = parabolicity_integral(imm, 2.0, 1.5, 0.7 * imm.properness_radius)
    assert rep.trend == "DIVERGENT-LIKE"


def test_psi_at_or_past_the_window_is_its_tail_bound():
    imm = catalog_cylinder()
    W = imm.properness_radius
    curve = psi(imm, 1.0, [2.0, W, W + 1.0])
    assert curve.values[0] > 0.0
    assert list(curve.values[1:]) == [0.0, 0.0]
    assert list(curve.errors[1:]) == list(curve.tails[1:])
    assert np.all(curve.tails == curve.tails[0]) and 0.0 < curve.tails[0] <= 1e-10


def test_parabolicity_sphere_underflows():
    imm, _ = catalog("sphere", n=2, R=1.0)
    with pytest.raises(PsiUnderflow):
        parabolicity_integral(imm, 2.0, 1.5, 4.0)


@pytest.mark.parametrize("R0, R_max", [(5.0, 1.0), (2.0, 2.0)])
def test_parabolicity_integral_rejects_an_empty_interval(R0, R_max):
    imm = catalog_cylinder()
    with pytest.raises(InvalidParams):
        parabolicity_integral(imm, 1.0, R0, R_max)


# --- flux identity ------------------------------------------------------------------


def test_flux_identity_cylinder():
    # three margins: the identity rests on the boundary flux's slack, the
    # curvature factor takes its tolerance from the region integrals' errors
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    identity, factor, sign = flux_identity_check(imm, 1.0, 2.0)
    assert [m.name for m in (identity, factor, sign)] == [
        "flux-identity", "curvature-factor", "flux-nonnegative"
    ]
    assert identity.margin < 1e-3
    assert identity.error is None and identity.tol == 1e-3
    assert any(note.startswith("slack 0.001") for note in identity.notes)
    assert factor.margin < 1e-3
    assert factor.error is not None and factor.tol <= 1e-9
    assert sign.lhs > 0.0
    assert [m.verdict for m in (identity, factor, sign)] == ["PASS"] * 3


def test_flux_identity_takes_the_product_route_on_cylinders(monkeypatch):
    # cylinder(2,1) declares its product structure, so neither a pencil nor a
    # level-set march runs; the same cylinder as a chart takes both routes
    # to the same identity
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    chart = flux_identity_check(replace(imm, radial=None), 1.0, 2.0)
    product, counts = quadrature._product_integrals, []

    def counting(imm, jobs):
        counts.append(len(jobs))
        return product(imm, jobs)

    def refuse(*args):
        raise AssertionError("a chart route ran")

    monkeypatch.setattr(quadrature, "_product_integrals", counting)
    monkeypatch.setattr(quadrature, "_pencil_integrals", refuse)
    monkeypatch.setattr(levelset, "level_segments", refuse)
    rep = flux_identity_check(imm, 1.0, 2.0)
    assert counts == [4]
    assert [m.verdict for m in rep] == [m.verdict for m in chart] == ["PASS"] * 3
    assert rep[0].lhs == pytest.approx(chart[0].lhs, rel=1e-6)
    assert rep[0].rhs == pytest.approx(chart[0].rhs, rel=1e-3)


def test_flux_identity_plane_hand_value():
    # lhs = 2 pi * 9 e^(-4.5) by parts; rhs = 3 e^(-4.5) * 2 pi * 3
    imm, _ = catalog("plane", n=2)
    rep = flux_identity_check(imm, 1.0, 3.0)[0]
    hand = 18.0 * math.pi * math.exp(-4.5)
    assert rep.lhs == pytest.approx(hand, rel=1e-3)
    assert rep.rhs == pytest.approx(hand, rel=1e-3)
    assert rep.margin < 1e-3


def test_flux_identity_sphere_degenerate():
    # the saturated ball of a spherical image has no boundary: only the
    # curvature factor is compared
    imm, _ = catalog("sphere", n=2, R=1.0)
    margins = flux_identity_check(imm, 2.0, 1.7)
    assert [m.verdict for m in margins] == ["SKIPPED", "PASS", "SKIPPED"]
    assert margins[0].notes == ("spherical image: the ball has no boundary",)


def test_scan_blocks_change_no_bit(monkeypatch):
    # a scan pass scans SCAN_PENCILS distinct pencils per pencil_scan call and
    # gathers ROW_BLOCK rows of scanned radii at a time; blocks of 5 and 3
    # split the topology-break grid, its bisection (the disk of the plane
    # chart is tangent to its pencils at u1 = +-1) and the innermost spans of
    # jobs sharing a box, and change no value, error or cell count
    plane = plane_chart([-1.5, -1.5], [1.5, 1.5])
    cylinder = cylinder_chart()
    cases = [
        (plane, [RegionJob(ExtrinsicRegion(plane, 0.0, 1.0)),
                 RegionJob(ExtrinsicRegion(plane, 0.5, 1.5), lambda r: r**2)]),
        (cylinder, _cylinder_jobs(cylinder)[-4:]),
    ]
    whole = [region_integrals(imm, jobs) for imm, jobs in cases]
    regions = _Regions.build([job.region for job in cases[0][1]])
    breaks = _topology_breaks(plane, regions, np.empty((2, 0)), np.arange(2))
    assert len(breaks[0]) >= 4  # the bisection runs
    sizes = []
    _counting(monkeypatch, "pencil_scan", lambda imm, prefix, scan: sizes.append(len(prefix)))
    monkeypatch.setattr(quadrature, "SCAN_PENCILS", 5)
    monkeypatch.setattr(quadrature, "ROW_BLOCK", 3)
    assert [region_integrals(imm, jobs) for imm, jobs in cases] == whole
    assert max(sizes) <= 5 and len(sizes) > 200


def test_pencil_rounds_memory_budget(traced_peak):
    # the 33 Psi shells of the cylinder chart's parabolicity integral in one
    # pass: the rounds' geometry, scans and spans run in bounded blocks
    # (12.1 MB when a round's 31,500 rows took one geometry call)
    imm = cylinder_chart()
    W = imm.properness_radius
    weight = lambda r: r**2 * np.exp(-(r**2) / 2.0)
    jobs = [RegionJob(ExtrinsicRegion(imm, R, W), weight) for R in np.linspace(1.5, 0.7 * W, 33)]
    results, peak = traced_peak(region_integrals, imm, jobs)
    assert all(res.value > 0.0 for res in results)
    assert peak <= 6.5


def test_three_parameter_pencil_memory_budget(traced_peak):
    # a ball of S^1 x R^2 on the 3-D pencil route: its topology breaks scan
    # (outer nodes x 257) pencils, scanned in blocks (27.9 MB in one scan)
    imm = s1_times_r2()
    (volume, _), peak = traced_peak(region_integrals, imm, _s1xr2_jobs(imm))
    assert volume.value == pytest.approx(2 * math.pi**2 * 0.69, rel=1e-9)
    assert peak <= 10.0
