"""The batched level-crossing engine against scalar root finding."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from solab import crossing
from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.crossing import level_crossings
from solab.errors import SolabError
from solab.fem import mesh_region
from solab.geometry import Immersion, radius_values
from solab.quadrature import ExtrinsicRegion


def _cut_grid_edges(imm, R, resolution=40):
    """Endpoints of the grid edges (both axes and the diagonal) cut by r = R."""
    (lo0, lo1), (hi0, hi1) = imm.chart.box
    u, v = np.meshgrid(
        np.linspace(lo0, hi0, resolution + 1), np.linspace(lo1, hi1, resolution + 1), indexing="ij"
    )
    grid = np.stack([u, v], axis=-1)
    below = radius_values(imm, grid.reshape(-1, 2)).reshape(u.shape) < R
    a, b = [], []
    for lo, hi in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:]),
                   (np.s_[:-1, :-1], np.s_[1:, 1:])):
        cut = below[lo] != below[hi]
        a.append(grid[lo][cut])
        b.append(grid[hi][cut])
    return np.concatenate(a), np.concatenate(b)


@pytest.mark.parametrize(
    "name,params,R", [("plane", {"n": 2}, 1.3), ("castro_lerma", {}, 3.0)]
)
def test_engine_matches_scalar_brentq(name, params, R):
    imm, _ = catalog(name, **params)
    a, b = _cut_grid_edges(imm, R)
    assert len(a) > 20
    points, t = level_crossings(imm, a, b, radius_values(imm, a), radius_values(imm, b), R)
    ref = np.array([
        brentq(
            lambda s: radius_values(imm, (p + s * (q - p))[None])[0] - R,
            0.0, 1.0, xtol=1e-15, rtol=8.9e-16,
        )
        for p, q in zip(a, b)
    ])
    assert np.abs(t - ref).max() <= 1e-14
    np.testing.assert_allclose(radius_values(imm, points), R, rtol=1e-13)


def test_root_on_an_endpoint_returns_that_endpoint():
    imm, _ = catalog("plane", n=2)
    a = np.array([[0.2, 0.0], [0.2, 0.0]])
    b = np.array([[0.9, 0.0], [0.9, 0.0]])
    assert a[0, 0] + (b[0, 0] - a[0, 0]) != b[0, 0]  # b is not a + 1 * (b - a)
    levels = [radius_values(imm, a[:1])[0], radius_values(imm, b[:1])[0]]
    points, t = level_crossings(imm, a, b, radius_values(imm, a), radius_values(imm, b), levels)
    assert t.tolist() == [0.0, 1.0]
    assert np.array_equal(points, np.array([a[0], b[1]]))


def test_both_bracket_orientations():
    imm, _ = catalog("castro_lerma")
    a, b = _cut_grid_edges(imm, 3.0)
    forward, t_fwd = level_crossings(imm, a, b, radius_values(imm, a), radius_values(imm, b), 3.0)
    backward, t_bwd = level_crossings(imm, b, a, radius_values(imm, b), radius_values(imm, a), 3.0)
    assert np.abs(forward - backward).max() < 1e-13
    np.testing.assert_allclose(t_fwd + t_bwd, 1.0, atol=1e-14)


def test_empty_batch_does_not_evaluate_the_chart(monkeypatch):
    imm, _ = catalog("plane", n=2)

    def forbidden(*args):
        raise AssertionError("the chart was evaluated")

    monkeypatch.setattr(crossing, "radius_values", forbidden)
    points, t = level_crossings(
        imm, np.empty((0, 2)), np.empty((0, 2)), np.empty(0), np.empty(0), 1.0
    )
    assert points.shape == (0, 2) and t.shape == (0,)


def test_non_bracketing_segment_raises():
    imm, _ = catalog("plane", n=2)
    a = np.array([[0.5, 0.0], [0.2, 0.1]])
    b = np.array([[1.5, 0.0], [0.3, 0.1]])  # the second segment stays inside r = 1
    with pytest.raises(SolabError, match="do not bracket"):
        level_crossings(imm, a, b, radius_values(imm, a), radius_values(imm, b), 1.0)


def test_castro_lerma_annulus_boundary_sits_on_its_levels():
    imm, _ = catalog("castro_lerma")
    mesh = mesh_region(imm, ExtrinsicRegion(imm, 2.0, 3.5), h=0.1)
    for tag, level in (("outer", 3.5), ("inner", 2.0)):
        idx = mesh.tags[tag]
        assert len(idx) > 0
        assert np.abs(mesh.r[idx] - level).max() <= 1e-12 * max(1.0, level)


def _random_batch(rng):
    """A batch of monotone test functions on [0, 1] with roots at c, either
    orientation; some roots sit on an endpoint, some brackets are invalid."""
    n = int(rng.integers(1, 40))
    c = rng.uniform(0.0, 1.0, n)
    special = rng.random(n) < 0.1
    c[special] = rng.choice([0.0, 1.0, 1.5], special.sum())
    p = rng.uniform(0.5, 5.0, n)
    s = rng.choice([-1.0, 1.0], n)
    kind = rng.integers(0, 3, n)

    def f(t, i):
        return s[i] * np.select(
            [kind[i] == 0, kind[i] == 1],
            [(t - c[i]) * (1 + t * t), t ** p[i] - c[i] ** p[i]],
            np.tanh(8 * (t - c[i])),
        )

    return n, f


def test_numpy_loop_matches_find_root_bit_for_bit():
    elementwise = pytest.importorskip("scipy.optimize.elementwise")
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        n, f = _random_batch(rng)
        idx = np.arange(n)
        zero, one = np.zeros(n), np.ones(n)
        ref = elementwise.find_root(f, (zero, one), args=(idx,), tolerances=crossing.TOLERANCES)
        t, ok = crossing._chandrupatla(f, f(zero, idx), f(one, idx), **crossing.TOLERANCES)
        assert np.array_equal(ok, ref.success)
        assert np.array_equal(t, ref.x, equal_nan=True)


@pytest.mark.parametrize(
    "name,params,R", [("plane", {"n": 2}, 1.3), ("castro_lerma", {}, 3.0)]
)
def test_engine_matches_find_root_on_chart_edges(name, params, R):
    elementwise = pytest.importorskip("scipy.optimize.elementwise")
    imm, _ = catalog(name, **params)
    a, b = _cut_grid_edges(imm, R)

    def phi(t, i):
        p = np.where((t == 1.0)[:, None], b[i], a[i] + t[:, None] * (b - a)[i])
        return radius_values(imm, p) - R

    idx = np.arange(len(a))
    ref = elementwise.find_root(
        phi, (np.zeros(len(a)), np.ones(len(a))), args=(idx,), tolerances=crossing.TOLERANCES
    )
    _, t = level_crossings(imm, a, b, radius_values(imm, a), radius_values(imm, b), R)
    assert ref.success.all()
    assert np.array_equal(t, ref.x)


def test_one_chart_call_per_iteration_and_none_at_the_endpoints(monkeypatch):
    imm, _ = catalog("castro_lerma")
    a, b = _cut_grid_edges(imm, 3.0, resolution=12)
    ra, rb = radius_values(imm, a), radius_values(imm, b)
    ends = {tuple(p) for p in np.concatenate([a, b])}
    batches = []

    def counted(imm, points):
        batches.append(len(points))
        assert not ends & {tuple(p) for p in points}
        return radius_values(imm, points)

    monkeypatch.setattr(crossing, "radius_values", counted)
    level_crossings(imm, a, b, ra, rb, 3.0)
    together = list(batches)
    alone = []  # iterations each segment takes when solved by itself
    for k in range(len(a)):
        batches.clear()
        level_crossings(imm, a[k : k + 1], b[k : k + 1], ra[k : k + 1], rb[k : k + 1], 3.0)
        alone.append(len(batches))
    # one call per iteration of the slowest segment, every segment evaluated
    # once in each of its own iterations and dropped when it converges
    assert len(together) == max(alone)
    assert together == [sum(n > it for n in alone) for it in range(max(alone))]
    batches.clear()
    level_crossings(imm, a, b, ra, rb, ra)  # every root on an endpoint
    assert batches == []


def test_blocked_pencil_scan_matches_one_shot(monkeypatch):
    # S^1 x R^2 pencils along u3, with a radius minimum at u3 = 0 on every one,
    # in more pencils than one block and a last block that is not full
    chart = chart_from_sources(
        3, 4, ["cos(u1)", "sin(u1)", "u2", "u3"],
        [ParamSpec("u1", 0.0, 2 * math.pi, periodic=True), ParamSpec("u2", -4.0, 4.0),
         ParamSpec("u3", -4.0, 4.0)],
    )
    imm = Immersion(chart, properness_radius=math.sqrt(17.0), name="s1xr2")
    count = 2 * crossing.SCAN_BLOCK + 37
    prefix = np.column_stack([np.linspace(0.0, 2 * math.pi, count), np.linspace(-4.0, 4.0, count)])
    shared = np.linspace(-4.0, 4.0, 129)
    rows = np.linspace(-4.0, 4.0, 129) * np.linspace(0.5, 1.0, count)[:, None]
    calls = []

    def counted(imm, points):
        calls.append(len(points))
        return radius_values(imm, points)

    monkeypatch.setattr(crossing, "radius_values", counted)
    for scan in (shared, rows):
        calls.clear()
        blocked = crossing.pencil_scan(imm, prefix, scan)
        assert calls[:3] == [crossing.SCAN_BLOCK * 129] * 2 + [37 * 129]
        assert np.any(blocked[0][:, 1::2] != blocked[0][:, ::2])  # tangency steps taken
        with monkeypatch.context() as patch:
            patch.setattr(crossing, "SCAN_BLOCK", count)
            one_shot = crossing.pencil_scan(imm, prefix, scan)
        for got, want in zip(blocked, one_shot):
            np.testing.assert_array_equal(got, want)
