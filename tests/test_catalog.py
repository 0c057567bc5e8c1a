"""Catalog entries carry the advertised constants and cross-identities."""

from dataclasses import replace

import numpy as np
import pytest

from solab.catalog import catalog, catalog_rows, castro_lerma_normH
from solab.charts import ParamSpec, chart_from_sources
from solab.errors import InvalidParams, UnknownCatalogEntry
from solab.geometry import Immersion, geometry
from solab.sampling import sample_box


def test_sphere_constants():
    _, entry = catalog("sphere", n=2, R=2.0)
    assert entry.constants["lam"] == 0.5
    assert entry.constants["imcf_c"] == 0.5


def test_cylinder_constants():
    _, entry = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    assert entry.constants["lam"] == 1.0
    assert entry.constants["imcf_c"] == 1.0


def test_veronese_shape_tensor_ratio():
    imm, entry = catalog("veronese_surface", lam=1.0)
    g = geometry(imm, sample_box(imm.chart, 64, 3))
    np.testing.assert_allclose(g.normA2, 5.0 / 3.0, rtol=1e-12)
    assert entry.constants["normA2"] == pytest.approx(5.0 / 3.0)


def test_spherical_cross_identities():
    # lam * R^2 = n and C * n = 1 hold exactly for spherical entries
    for name, params, n in [
        ("sphere", {"n": 3, "R": 0.7}, 3),
        ("clifford_torus", {"k": 1, "nk": 1, "lam": 2.0}, 2),
        ("veronese_surface", {"lam": 0.5}, 2),
    ]:
        _, entry = catalog(name, **params)
        lam = entry.constants["lam"]
        R = entry.constants["spherical_radius"]
        assert lam * R**2 == pytest.approx(n, rel=1e-15)
        assert entry.constants["imcf_c"] * n == pytest.approx(1.0, rel=1e-15)


def test_clifford_shape_tensor():
    imm, entry = catalog("clifford_torus", k=1, nk=1, lam=2.0)
    g = geometry(imm, sample_box(imm.chart, 32, 5))
    np.testing.assert_allclose(g.normA2, 2.0 * 2.0, rtol=1e-12)
    np.testing.assert_allclose(g.r, 1.0, rtol=1e-14)  # sqrt(n/lam) = 1


def test_kernel_matches_catalog_norms():
    for name, params in [
        ("sphere", {"n": 2, "R": 1.5}),
        ("generalized_cylinder", {"n": 3, "k": 2, "rho": 0.5}),
        ("clifford_torus", {"k": 2, "nk": 1, "lam": 1.0}),
        ("veronese_surface", {"lam": 3.0}),
    ]:
        imm, entry = catalog(name, **params)
        g = geometry(imm, sample_box(imm.chart, 32, 11))
        np.testing.assert_allclose(
            g.normA2, entry.constants["normA2"], rtol=1e-11, err_msg=name
        )
        np.testing.assert_allclose(
            g.normH, entry.constants["normH"], rtol=1e-11, err_msg=name
        )


def test_castro_lerma_normH_oracle():
    imm, entry = catalog("castro_lerma", delta=1.3, lam=-0.25)
    pts = sample_box(imm.chart, 64, 9)
    g = geometry(imm, pts)
    np.testing.assert_allclose(
        g.normH, castro_lerma_normH(1.3, -0.25, pts), rtol=1e-11
    )
    # the curvature decays to zero far out along the second parameter
    far = np.abs(pts[:, 1]) > 4.0
    assert g.normH[far].max() < 0.02


def test_unknown_entry():
    with pytest.raises(UnknownCatalogEntry):
        catalog("torus_of_revolution")


@pytest.mark.parametrize(
    "name,params",
    [
        ("generalized_cylinder", {"n": 2, "k": 3, "rho": 1.0}),  # k > n - 1
        ("generalized_cylinder", {"n": 2, "k": 1, "rho": -1.0}),
        ("sphere", {"n": 0, "R": 1.0}),
        ("castro_lerma", {"delta": 1.0, "lam": 0.5}),
        ("clifford_torus", {"k": 0, "nk": 1, "lam": 1.0}),
        ("veronese_surface", {"lam": -1.0}),
        ("sphere", {"n": 2, "R": 1.0, "bogus": 3}),
    ],
)
def test_invalid_params(name, params):
    with pytest.raises(InvalidParams):
        catalog(name, **params)


def test_catalog_rows_lists_six_entries():
    rows = catalog_rows()
    assert len(rows) == 6
    byname = {r["name"]: r for r in rows}
    assert byname["veronese_surface"]["normA2_over_lam"] == pytest.approx(5.0 / 3.0)
    assert byname["clifford_torus"]["normA2_over_lam"] == pytest.approx(2.0)
    assert byname["sphere"]["normA2_over_lam"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "name,params,route",
    [
        ("sphere", {}, "constant"),
        ("clifford", {}, "constant"),
        ("veronese", {}, "constant"),
        ("plane", {"n": 1}, "product"),
        ("plane", {"n": 2}, "product"),
        ("plane", {"n": 3}, "product"),
        ("cylinder", {"n": 2, "k": 1}, "product"),
        ("cylinder", {"n": 3, "k": 1}, "product"),
        ("cylinder", {"n": 4, "k": 2}, "product"),
        ("castro_lerma", {}, "chart"),
    ],
)
def test_route_follows_the_declared_structure(name, params, route):
    # spherical image, declared product in every dimension, or a chart
    imm, _ = catalog(name, **params)
    assert imm.route == route


def test_a_user_chart_takes_the_chart_route():
    chart = chart_from_sources(
        2, 3, ["u1", "u2", "u1*u2"], [ParamSpec("u1", -1.0, 1.0), ParamSpec("u2", -1.0, 1.0)]
    )
    assert Immersion(chart, properness_radius=1.0).route == "chart"
    plane, _ = catalog("plane", n=2)
    assert replace(plane, radial=None).route == "chart"
