"""Geometry kernel checks: fundamental forms, position splits, radial calculus."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import solab
from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.errors import OriginSingularity, RankDeficient
from solab.geometry import (
    Immersion,
    PointGeometry,
    RadialFunction,
    evaluate_chart,
    geometry,
    laplacian_divergence_form,
    point_geometry,
    radial_laplacian,
    radius_values,
    scale_immersion,
)
from solab.sampling import sample_box

GEOMETRY = importlib.import_module("solab.geometry")  # the package re-exports geometry()


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


# --- the batched Householder kernel against LAPACK --------------------------------


def _reference_geometry(X, J, S):
    """The fields of PointGeometry from numpy.linalg.qr and per-point inverses."""
    npts, amb, dim = J.shape
    Q, R = np.linalg.qr(J)
    R_inv = np.linalg.inv(R)

    def tangential(V):
        return Q @ (np.swapaxes(Q, 1, 2) @ V)

    XT = tangential(X[..., None])[..., 0]
    alpha = S - tangential(S.reshape(npts, amb, dim * dim)).reshape(S.shape)
    B = np.swapaxes(R_inv, 1, 2)[:, None] @ alpha @ R_inv[:, None]
    return {
        "metric": np.swapaxes(J, 1, 2) @ J,
        "metric_inv": R_inv @ np.swapaxes(R_inv, 1, 2),
        "sqrt_det": np.abs(np.prod(np.diagonal(R, axis1=1, axis2=2), axis=1)),
        "frame": Q,
        "r": np.linalg.norm(X, axis=1),
        "XT": XT,
        "Xperp": X - XT,
        "alpha": alpha,
        "H": np.trace(B, axis1=2, axis2=3),
        "normA2": np.einsum("naij,naij->n", B, B),
    }


def _jets(dim, amb, kind, npts=64, seed=3):
    rng = np.random.default_rng([dim, amb, seed])
    J = rng.standard_normal((npts, amb, dim))
    if kind == "graded":  # column scales 1 down to 1e-8, so kappa(J) is about 1e8
        J *= np.logspace(0, -8, dim) if dim > 1 else 1e-8
    elif kind == "triangular":  # nothing below the diagonal: LAPACK reflects nothing
        J *= np.arange(amb)[:, None] <= np.arange(dim)
    J[::2, 0, :] = -np.abs(J[::2, 0, :])  # negative leading entries
    S = rng.standard_normal((npts, amb, dim, dim))
    return rng.standard_normal((npts, amb)), J, S + np.swapaxes(S, 2, 3)


KERNEL_CASES = [
    pytest.param(dim, amb, kind, id=f"n{dim}-A{amb}-{kind}")
    for dim in (1, 2, 3, 4)
    for amb in range(dim + 1, dim + 4)
    for kind in ("random", "graded", "triangular")
]


@pytest.mark.parametrize("dim,amb,kind", KERNEL_CASES)
def test_householder_factors_the_jacobians(dim, amb, kind):
    _, J, _ = _jets(dim, amb, kind)
    Q, R = GEOMETRY._householder(J.transpose(2, 1, 0))
    Q, R = Q.transpose(2, 1, 0), R.transpose(2, 0, 1)  # batch first, Q[:, :, k] column k
    eye = np.broadcast_to(np.eye(amb), (len(J), amb, amb))
    np.testing.assert_allclose(np.swapaxes(Q, 1, 2) @ Q, eye, rtol=0, atol=1e-13)
    scale = np.linalg.norm(J, axis=1, keepdims=True)  # each column against its own norm
    np.testing.assert_allclose((Q[:, :, :dim] @ R) / scale, J / scale, rtol=0, atol=1e-13)
    assert np.all(np.tril(R, -1) == 0.0)


@pytest.mark.parametrize("dim,amb,kind", KERNEL_CASES)
def test_kernel_matches_the_lapack_reference(dim, amb, kind):
    X, J, S = _jets(dim, amb, kind)
    points = np.zeros((len(J), dim))
    for array in (X, J, S):
        array.flags.writeable = False
    copies = [a.copy() for a in (X, J, S)]
    g = GEOMETRY.geometry_of_jets(points, X, J, S, order=2)
    for array, copy in zip((X, J, S), copies):
        np.testing.assert_array_equal(array, copy)
    for name, ref in _reference_geometry(X, J, S).items():
        got = getattr(g, name)
        assert got.shape == ref.shape, name
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max(), err_msg=name)


def test_a_point_gets_the_same_bits_in_any_batch():
    imm, _ = catalog("clifford_torus", k=2, nk=2)
    pts = halton(imm, 16)
    batch = geometry(imm, pts)
    for k in (0, 5):
        for part, rows in ((geometry(imm, pts[k : k + 1]), slice(k, k + 1)),
                           (geometry(imm, pts[k : k + 3]), slice(k, k + 3))):
            for name in ("metric", "metric_inv", "sqrt_det", "frame", "XT", "alpha", "H", "normA2"):
                np.testing.assert_array_equal(getattr(part, name), getattr(batch, name)[rows])


@pytest.mark.parametrize("name,params", [
    ("castro_lerma", {}),
    ("clifford_torus", {"k": 2, "nk": 2}),
    ("veronese", {}),
])
def test_first_order_fields_match_second_order_bit_for_bit(name, params):
    # at order 1 the QR forms only the tangent columns of Q
    imm, _ = catalog(name, **params)
    pts = halton(imm, 500)
    first, second = geometry(imm, pts, order=1), geometry(imm, pts, order=2)
    for f in ("points", "X", "metric", "metric_inv", "sqrt_det", "frame", "r", "XT", "Xperp"):
        np.testing.assert_array_equal(getattr(first, f), getattr(second, f), err_msg=f)
    assert first.alpha is None and second.alpha is not None


def _eager_fields(points, X, J, S, order):
    """Every field as the kernel formed them all at once when it was made."""
    if len(points) == 1:
        twice = lambda a: None if a is None else np.concatenate([a, a])
        fields = _eager_fields(*map(twice, (points, X, J, S)), order)
        return {name: None if a is None else a[:1] for name, a in fields.items()}
    dim = J.shape[2]
    cols = np.ascontiguousarray(J.transpose(2, 1, 0))
    Q, R = GEOMETRY._householder(cols, dim if order < 2 else None)
    R_inv = GEOMETRY._checked_inverse(R, points)
    tangent, normal = Q[:dim], Q[dim:]
    first = GEOMETRY._batch_first
    XT = first(GEOMETRY._project(tangent, np.ascontiguousarray(X.T)))
    fields = {
        "points": points,
        "X": X,
        "metric": first(np.einsum("ian,jan->ijn", cols, cols)),
        "metric_inv": first(np.einsum("ikn,jkn->ijn", R_inv, R_inv)),
        "sqrt_det": np.abs(np.prod(np.diagonal(R), axis=-1)),
        "frame": first(tangent.transpose(1, 0, 2)),
        "r": np.linalg.norm(X, axis=1),
        "XT": XT,
        "Xperp": X - XT,
        "alpha": None,
        "H": None,
        "normA2": None,
    }
    if order >= 2:
        nu = np.einsum("man,aijn->mijn", normal, np.ascontiguousarray(S.transpose(1, 2, 3, 0)))
        B = np.einsum("kin,mkjn->mijn", R_inv, np.einsum("mkln,ljn->mkjn", nu, R_inv))
        fields["H"] = first(np.einsum("man,miin->an", normal, B))
        fields["normA2"] = np.einsum("mijn,mijn->n", B, B)
        fields["alpha"] = np.einsum("man,mijn->aijn", normal, nu).transpose(3, 0, 1, 2)
    return fields


def _assert_same_bits(got, want, name):
    if want is None:
        assert got is None, name
        return
    assert got.shape == want.shape and got.dtype == want.dtype, name
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64),
        err_msg=name,
    )


def _catalog_jets(name, params):
    def make(order):
        imm, _ = catalog(name, **params)
        return evaluate_chart(imm.chart, halton(imm, 96), order=order)
    return make


def _synthetic_jets(dim, amb, kind):
    def make(order):
        X, J, S = _jets(dim, amb, kind)
        return np.zeros((len(J), dim)), X, J, S if order >= 2 else None
    return make


LAZY_CASES = [
    pytest.param(_synthetic_jets(*case.values), id=case.id) for case in KERNEL_CASES
] + [
    pytest.param(_catalog_jets(name, params), id=name)
    for name, params in [
        ("clifford_torus", {"k": 2, "nk": 2}),
        ("veronese", {}),
        ("castro_lerma", {}),
    ]
]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("make", LAZY_CASES)
def test_lazy_fields_keep_the_eager_bits(make, order):
    jets = make(order)
    eager = _eager_fields(*jets, order)
    names = PointGeometry.FIELDS
    pick = lambda a, rows: None if a is None else a[rows]
    for read in (names, names[::-1]):
        g = GEOMETRY.geometry_of_jets(*jets, order)
        for name in read:
            _assert_same_bits(getattr(g, name), eager[name], name)
    # a point alone takes the single-point path
    alone = GEOMETRY.geometry_of_jets(*(pick(a, slice(3, 4)) for a in jets), order)
    for name in names:
        _assert_same_bits(getattr(alone, name), pick(eager[name], slice(3, 4)), f"alone {name}")
    # select before any read and after half of the fields were formed
    mask = np.arange(len(jets[0])) % 3 != 1
    for formed in ((), names[::2]):
        g = GEOMETRY.geometry_of_jets(*jets, order)
        for name in formed:
            getattr(g, name)
        part = g.select(mask)
        one = part.select(slice(2, 3))  # the fourth point of the batch
        for name in names:
            _assert_same_bits(getattr(part, name), pick(eager[name], mask), name)
            _assert_same_bits(getattr(one, name), pick(eager[name], slice(3, 4)), name)


def test_no_module_calls_linalg_qr():
    # the kernel's batched Householder QR replaced the per-point LAPACK path
    for path in sorted(Path(solab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "qr":
                owner = node.value
                owner = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
                assert owner != "linalg", path.name
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                assert "qr" not in {alias.name for alias in node.names}, path.name


def test_radius_blocks_change_no_bit(monkeypatch):
    # radius_values evaluates the chart RADIUS_BLOCK points at a time; blocks
    # of 5 change no radius, with a last block that is not full
    imm, _ = catalog("castro_lerma")
    lo, hi = imm.chart.box
    pts = np.random.default_rng(3).uniform(lo, hi, (1003, 2))
    whole = radius_values(imm, pts)
    sizes = []
    original = GEOMETRY.evaluate_chart

    def counting(chart, points, order=2):
        sizes.append(len(points))
        return original(chart, points, order)

    monkeypatch.setattr(GEOMETRY, "evaluate_chart", counting)
    monkeypatch.setattr(GEOMETRY, "RADIUS_BLOCK", 5)
    assert np.array_equal(radius_values(imm, pts), whole)
    assert np.array_equal(whole, np.linalg.norm(original(imm.chart, pts, order=0)[1], axis=1))
    assert sizes == [5] * 200 + [3]
    assert radius_values(imm, np.empty((0, 2))).shape == (0,)
