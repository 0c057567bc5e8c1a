"""Geometry kernel checks: fundamental forms, position splits, radial calculus."""

import numpy as np
import pytest

from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.errors import OriginSingularity, RankDeficient
from solab.geometry import (
    Immersion,
    RadialFunction,
    geometry,
    laplacian_divergence_form,
    point_geometry,
    radial_laplacian,
    scale_immersion,
)
from solab.sampling import sample_box


def halton(imm, count=64, seed=7):
    return sample_box(imm.chart, count, seed)


def test_sphere_point_geometry():
    imm, _ = catalog("sphere", n=2, R=2.0)
    g = geometry(imm, halton(imm))
    np.testing.assert_allclose(g.r, 2.0, rtol=1e-14)
    assert np.abs(g.XT).max() < 1e-13
    np.testing.assert_allclose(g.H, -0.5 * g.X, atol=1e-13)


def test_plane_is_totally_geodesic():
    imm, _ = catalog("plane", n=2)
    g = geometry(imm, halton(imm))
    assert np.abs(g.H).max() < 1e-14
    assert g.normA2.max() < 1e-28
    assert np.abs(g.Xperp).max() < 1e-14


def test_cylinder_mean_curvature():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    g = geometry(imm, halton(imm))
    np.testing.assert_allclose(g.H, -g.Xperp, atol=1e-13)
    np.testing.assert_allclose(g.normH, 1.0, rtol=1e-13)


def _skew_graph():
    chart = chart_from_sources(
        2,
        3,
        ["u1 + 0.5*u2", "u2", "u1*u2 + 0.3*u1^2"],
        [ParamSpec("u1", -1, 1), ParamSpec("u2", -1, 1)],
    )
    return Immersion(chart, properness_radius=1.0, name="skew graph")


@pytest.mark.parametrize(
    "maker",
    [
        lambda: catalog("sphere", n=3, R=1.5),
        lambda: catalog("generalized_cylinder", n=3, k=1, rho=0.7),
        lambda: catalog("clifford_torus", k=1, nk=2, lam=1.3),
        lambda: catalog("castro_lerma", delta=0.8, lam=-1.0),
        lambda: catalog("veronese_surface", lam=2.0),
        # a skew graph: the catalog charts are orthogonal, so R is diagonal there
        lambda: (_skew_graph(), None),
    ],
)
def test_position_split_pythagoras(maker):
    imm, _ = maker()
    g = geometry(imm, halton(imm, count=128))
    lhs = g.r**2
    rhs = np.einsum("na,na->n", g.XT, g.XT) + np.einsum("na,na->n", g.Xperp, g.Xperp)
    np.testing.assert_allclose(rhs, lhs, rtol=1e-10)
    assert (g.grad_r_norm <= 1.0 + 1e-10).all()
    # the QR kernel against the textbook formulas in the coordinate frame:
    # sqrt(det g), inv(g), H = g^ij alpha_ij, |A|^2 = g^ik g^jl <alpha_ij, alpha_kl>
    g_inv = np.linalg.inv(g.metric)
    reference = {
        "sqrt_det": np.sqrt(np.linalg.det(g.metric)),
        "metric_inv": g_inv,
        "H": np.einsum("nij,naij->na", g_inv, g.alpha),
        "normA2": np.einsum("nik,njl,naij,nakl->n", g_inv, g_inv, g.alpha, g.alpha),
    }
    for name, ref in reference.items():
        # atol on the scale of the array: H and g^-1 have entries that vanish
        np.testing.assert_allclose(
            getattr(g, name), ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max(), err_msg=name
        )


def test_metric_is_spd():
    imm, _ = catalog("castro_lerma")
    g = geometry(imm, halton(imm))
    eig = np.linalg.eigvalsh(g.metric)
    assert eig.min() > 0.0


def test_mean_curvature_equals_laplacian_of_coordinates():
    """Independent oracle: Delta^Sigma X_a = H_a, with the Laplacian assembled
    in divergence form from first-order chart data on an FD stencil."""
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    p = np.array([0.9, 0.4])
    gp = point_geometry(imm, p)
    for h in (2e-3,):
        for a in range(imm.ambient_dim):
            def coord(q, a=a):
                from solab.geometry import evaluate_chart

                return evaluate_chart(imm.chart, q.reshape(1, -1), order=0)[1][0, a]

            lap = laplacian_divergence_form(imm, coord, p, h=h)
            assert abs(lap - gp.H[0, a]) < 5e-6


def test_trace_identity_second_order_convergence():
    imm, _ = catalog("castro_lerma", delta=1.0, lam=-0.5)
    p = np.array([1.3, 0.6])
    gp = point_geometry(imm, p)
    a = 1

    def coord(q):
        from solab.geometry import evaluate_chart

        return evaluate_chart(imm.chart, q.reshape(1, -1), order=0)[1][0, a]

    errs = []
    for h in (4e-3, 2e-3):
        lap = laplacian_divergence_form(imm, coord, p, h=h)
        errs.append(abs(lap - gp.H[0, a]))
    assert errs[0] > errs[1]
    assert 2.0 < errs[0] / errs[1] < 8.0  # about h^2


def test_radial_laplacian_of_r_squared():
    F = RadialFunction.r_squared()
    # minimal immersion: 2n anywhere
    imm, _ = catalog("plane", n=2)
    g = geometry(imm, np.array([[0.7, -0.3], [2.0, 1.0]]))
    np.testing.assert_allclose(radial_laplacian(g, F), 4.0, rtol=1e-12)
    # shrinker: 2n - 2|H|^2/lambda
    imm, entry = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    g = geometry(imm, halton(imm, 32))
    np.testing.assert_allclose(radial_laplacian(g, F), 4.0 - 2.0, rtol=1e-12)


def test_radial_laplacian_of_bounded_probe_on_sphere():
    imm, _ = catalog("sphere", n=2, R=3.0)
    g = geometry(imm, halton(imm, 32))
    F = RadialFunction.shifted_inverse_power(0.25)
    np.testing.assert_allclose(radial_laplacian(g, F), 0.0, atol=1e-13)


def test_origin_exclusion():
    imm, _ = catalog("plane", n=2)
    g = geometry(imm, np.array([[0.0, 0.0]]))
    with pytest.raises(OriginSingularity):
        radial_laplacian(g, RadialFunction.r_squared())


def test_rank_deficient_chart_rejected():
    chart = chart_from_sources(
        2, 3, ["u1", "u1", "0"], [ParamSpec("u1", -1, 1), ParamSpec("u2", -1, 1)]
    )
    imm = Immersion(chart, properness_radius=1.0, name="degenerate")
    with pytest.raises(RankDeficient):
        geometry(imm, np.array([[0.2, 0.1]]))


def _sheared(eps):
    # J = [[1, 0], [1, eps], [0, 0]] has singular values ~ sqrt(2) and ~ eps/sqrt(2),
    # so eps = 1e-9 sits above RANK_TOL = 1e-10 of the largest and 1e-11 below
    return ["u1", f"u1 + {eps!r}*u2", "0"]


def _flattened(eps):
    # J = diag(1, 1, eps) in R^4: kappa_2 = 1/eps but kappa_F ~ sqrt(2)/eps, so
    # the Frobenius bound cannot decide eps = 1.2e-10 (kappa_F RANK_TOL = 1.18,
    # accepted) nor 8e-11 (1.77, rejected) and the SVD does
    return ["u1", "u2", f"{eps!r}*u3", "0"]


@pytest.mark.parametrize(
    "coords,eps,accepted",
    [
        pytest.param(coords, eps, accepted, id=f"{eps!r}-{accepted}")
        for coords, eps, accepted in [
            (_sheared, 1e-9, True),
            (_sheared, 1e-11, False),
            (_flattened, 1.2e-10, True),
            (_flattened, 8e-11, False),
        ]
    ],
)
def test_rank_threshold_on_nearly_degenerate_chart(coords, eps, accepted):
    sources = coords(eps)
    dim = len(sources) - 1
    params = [ParamSpec(f"u{i + 1}", -1, 1) for i in range(dim)]
    chart = chart_from_sources(dim, dim + 1, sources, params)
    imm = Immersion(chart, properness_radius=1.0, name="nearly degenerate")
    p = np.array([[0.2, 0.1, 0.3][:dim]])
    if accepted:
        np.testing.assert_allclose(geometry(imm, p).sqrt_det, eps, rtol=1e-6)
    else:
        with pytest.raises(RankDeficient):
            geometry(imm, p)


def test_rank_deficiency_reports_the_first_rejected_point():
    # J = diag(1, 1, u1) at u3 = 0: full rank, accepted by the SVD, then rejected twice
    chart = chart_from_sources(
        3, 4, ["u1", "u2", "u1*u3", "0"], [ParamSpec(f"u{i}", -1, 1) for i in (1, 2, 3)]
    )
    imm = Immersion(chart, properness_radius=1.0, name="degenerate at u1 = 0")
    p = np.array([[0.5, 0.1, 0.0], [1.2e-10, 0.2, 0.0], [8e-11, 0.3, 0.0], [1e-12, 0.4, 0.0]])
    np.testing.assert_allclose(geometry(imm, p[:2]).sqrt_det, p[:2, 0], rtol=1e-6)
    with pytest.raises(RankDeficient) as err:
        geometry(imm, p)
    np.testing.assert_array_equal(err.value.point, p[2])


def test_scaled_immersion_geometry():
    imm, _ = catalog("sphere", n=2, R=1.0)
    scaled = scale_immersion(imm, 2.0)
    g = geometry(scaled, halton(imm, 16))
    np.testing.assert_allclose(g.r, 2.0, rtol=1e-14)
    # curvature scales inversely
    np.testing.assert_allclose(g.H, -0.5 * g.X, atol=1e-13)
