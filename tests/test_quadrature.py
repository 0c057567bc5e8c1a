"""Region quadrature, Gaussian-weighted volumes, Psi and the flux identity."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.errors import ImproperWindow, PsiUnderflow
from solab.geometry import Immersion, geometry, radius_values
from solab.inequalities import isoperimetric_mcf
import solab.quadrature as quadrature
from solab.quadrature import (
    ExtrinsicRegion,
    RegionJob,
    _Boxes,
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
    # the generic pencil route agrees with the product reduction
    gen = region_volume(ExtrinsicRegion(imm, 0.0, 2.0), method="pencil")
    assert gen.value == pytest.approx(res.value, rel=1e-5)


def test_plane_disk_volume():
    imm, _ = catalog("plane", n=2)
    res = region_volume(ExtrinsicRegion(imm, 0.0, 1.0))
    assert res.value == pytest.approx(math.pi, rel=1e-10)
    gen = region_volume(ExtrinsicRegion(imm, 0.0, 1.0), method="pencil")
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
    bounds = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
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
    boxes = _Boxes.build([region], [bounds])
    rows, breaks = _topology_breaks(imm, boxes, np.empty((1, 0)), np.zeros(1, int))
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
        (lambda: catalog("plane", n=2)[0], 0.0, 1.0, math.pi),
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
    res = region_volume(ExtrinsicRegion(make(), rho, R), method="pencil")
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


def test_innermost_spans_keep_the_centre_and_short_chords():
    # the chord through the origin (rho = 0 = r at its midpoint) and a chord
    # shorter than the scan step, which only the parabolic step can see: the
    # scan has a node at u2 = 0 on the symmetric interval only
    imm, _ = catalog("plane", n=2)
    region = ExtrinsicRegion(imm, 0.0, 1.0)
    u1 = np.array([0.0, 0.5, 0.9999])
    for a, b in ((-8.0, 8.0), (-8.0, 7.0)):
        assert (b - a) / quadrature._SCAN > 2 * math.sqrt(1 - 0.9999**2)
        boxes = _Boxes.build([region], [(np.array([-8.0, a]), np.array([8.0, b]))])
        lo, hi, owner = _pencil_spans(imm, boxes, u1[:, None], np.zeros(len(u1), int))
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
    # bit for bit as integrating it on its own
    imm = make()
    jobs = jobs(imm)
    batched = region_integrals(imm, jobs)
    alone = [region_integral(imm, job.region, job.radial_fn, job.point_fn) for job in jobs]
    assert all(res.method == method for res in batched)
    empty = [res.cells == 0 for res in batched]
    assert any(empty) == (make is not s1_times_r2)
    if method == "pencil":
        assert [res.notes == ("region empty by sampling",) for res in batched] == empty
    assert batched == alone


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


def test_psi_shells_share_one_bounds_sample_and_one_scan(monkeypatch):
    imm = cylinder_chart()
    draws, scans, in_breaks = [], [], []
    _counting(monkeypatch, "sample_box", lambda chart, count, seed: draws.append(count))
    c = quadrature._euclidean_majorant(imm)
    assert draws.count(2048) == 1  # the three balls of the majorant fit
    # the shells of psi on 33 radii: one bounds sample, one top-level scan
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
    draws.clear()
    curve = psi(imm, 1.0, np.linspace(1.5, 0.7 * imm.properness_radius, 33))
    assert draws.count(2048) == 1
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
    rep = flux_identity_check(cylinder_chart(), 1.0, 2.0)
    assert top == [4]  # the four integrands of the identity, one pass
    assert rep.verdict == "PASS"


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
    margins = isoperimetric_mcf(imm, lam, [1.5, 2.0, 3.0])
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


def test_parabolicity_sphere_underflows():
    imm, _ = catalog("sphere", n=2, R=1.0)
    with pytest.raises(PsiUnderflow):
        parabolicity_integral(imm, 2.0, 1.5, 4.0)


# --- flux identity ------------------------------------------------------------------


def test_flux_identity_cylinder():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    rep = flux_identity_check(imm, 1.0, 2.0)
    assert rep.margin < 1e-3
    assert rep.factor_margin < 1e-3
    assert rep.rhs_nonnegative
    assert rep.verdict == "PASS"


def test_flux_identity_plane_hand_value():
    # lhs = 2 pi * 9 e^(-4.5) by parts; rhs = 3 e^(-4.5) * 2 pi * 3
    imm, _ = catalog("plane", n=2)
    rep = flux_identity_check(imm, 1.0, 3.0)
    hand = 18.0 * math.pi * math.exp(-4.5)
    assert rep.lhs == pytest.approx(hand, rel=1e-3)
    assert rep.rhs == pytest.approx(hand, rel=1e-3)
    assert rep.margin < 1e-3


def test_flux_identity_sphere_degenerate():
    imm, _ = catalog("sphere", n=2, R=1.0)
    rep = flux_identity_check(imm, 2.0, 1.7)
    assert abs(rep.lhs) < 1e-10
    assert rep.rhs == 0.0
    assert rep.verdict == "PASS"
