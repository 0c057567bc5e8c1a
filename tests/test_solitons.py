"""Soliton residuals, constant inference, homothety and probe checks."""

import numpy as np
import pytest

from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.errors import TimeOutOfRange, VanishingMeanCurvature
from solab.geometry import Immersion, scale_immersion
from solab.sampling import sample_box
from solab.solitons import (
    SolitonSpec,
    homothety_flow_residual,
    infer_constant,
    residual_margin,
    soliton_residual,
    wmp_probe,
)


def test_sphere_mcf_residual_passes():
    imm, _ = catalog("sphere", n=2, R=2.0)
    rep = soliton_residual(imm, SolitonSpec("mcf", 0.5))
    assert rep.sup < 1e-10
    assert residual_margin("soliton-residual", rep.sup).verdict == "PASS"
    assert rep.sup >= rep.mean >= 0.0


def test_sphere_wrong_lambda_residual_is_linear():
    # on a sphere Xperp = X, so the residual is |lam - n/R^2| * R
    imm, _ = catalog("sphere", n=2, R=2.0)
    rep = soliton_residual(imm, SolitonSpec("mcf", 0.7))
    assert rep.sup == pytest.approx(0.2 * 2.0, rel=1e-12)
    assert residual_margin("soliton-residual", rep.sup).verdict == "FAIL"


def test_castro_lerma_is_an_expander():
    imm, _ = catalog("castro_lerma", delta=1.0, lam=-0.5)
    assert soliton_residual(imm, SolitonSpec("mcf", -0.5)).sup < 1e-8


def test_cylinder_imcf_residual():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    assert soliton_residual(imm, SolitonSpec("imcf", 1.0)).sup < 1e-8


def test_sphere_imcf_constant_radius_independent():
    for R in (0.5, 1.0, 4.0):
        imm, _ = catalog("sphere", n=2, R=R)
        assert soliton_residual(imm, SolitonSpec("imcf", 0.5)).sup < 1e-10


def test_plane_has_no_imcf_constant():
    imm, _ = catalog("plane", n=2)
    with pytest.raises(VanishingMeanCurvature):
        soliton_residual(imm, SolitonSpec("imcf", 0.5))


def test_infer_constants():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    fit = infer_constant(imm, "mcf")
    assert fit.constant == pytest.approx(1.0, abs=1e-9)
    assert fit.report.sup < 1e-9

    imm, _ = catalog("sphere", n=3, R=1.0)
    assert infer_constant(imm, "mcf").constant == pytest.approx(3.0, rel=1e-12)

    imm, _ = catalog("plane", n=2)
    fit = infer_constant(imm, "mcf")
    assert fit.constant == 0.0
    assert fit.report.sup == 0.0

    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    fit = infer_constant(imm, "imcf")
    assert fit.constant == pytest.approx(1.0, abs=1e-9)


def test_inferred_constant_is_least_squares_optimal():
    # a radial graph that is not a soliton: the fit still minimizes the
    # sum of squared residuals over the sample set
    chart = chart_from_sources(
        2,
        3,
        ["u1", "u2", "(u1^2 + u2^2)/4"],
        [ParamSpec("u1", -2, 2), ParamSpec("u2", -2, 2)],
    )
    imm = Immersion(chart, properness_radius=2.0, name="bowl")
    pts = sample_box(chart, 128, 17)
    fit = infer_constant(imm, "mcf", samples=pts)

    def sumsq(lam):
        rep = soliton_residual(imm, SolitonSpec("mcf", lam), samples=pts)
        return float((rep.residuals**2).sum())

    best = sumsq(fit.constant)
    for lam in (fit.constant - 0.05, fit.constant + 0.05, 0.0, 1.0):
        assert best <= sumsq(lam) + 1e-12


def test_scale_equivariance_of_inferred_constants():
    imm, _ = catalog("sphere", n=2, R=1.0)
    base = infer_constant(imm, "mcf").constant
    for c in (0.5, 2.0, 3.0):
        scaled = scale_immersion(imm, c)
        assert infer_constant(scaled, "mcf").constant == pytest.approx(
            base / c**2, rel=1e-12
        )
        assert infer_constant(scaled, "imcf").constant == pytest.approx(
            0.5, rel=1e-12
        )


def test_homothety_sphere_mcf():
    imm, _ = catalog("sphere", n=2, R=2.0)
    rep = homothety_flow_residual(imm, SolitonSpec("mcf", 0.5), [0.0, 0.25, 0.5])
    assert rep.sup < 1e-8
    assert rep.scaling_consistency < 1e-10


def test_homothety_cylinder_imcf():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    rep = homothety_flow_residual(imm, SolitonSpec("imcf", 1.0), [0.0, 0.5, 1.0])
    assert rep.sup < 1e-8


def test_homothety_minimal_is_stationary():
    imm, _ = catalog("plane", n=2)
    rep = homothety_flow_residual(imm, SolitonSpec("mcf", 0.0), [0.0, 1.0, 5.0])
    assert rep.sup < 1e-14


def test_homothety_time_out_of_range():
    imm, _ = catalog("sphere", n=2, R=2.0)
    with pytest.raises(TimeOutOfRange):
        homothety_flow_residual(imm, SolitonSpec("mcf", 0.5), [0.0, 1.0])


def test_flow_residual_at_time_zero_matches_soliton_residual():
    # also for a wrong constant: the t=0 flow residual is the soliton residual
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    pts = sample_box(imm.chart, 64, 23)
    flow = homothety_flow_residual(imm, SolitonSpec("mcf", 0.7), [0.0], samples=pts)
    static = soliton_residual(imm, SolitonSpec("mcf", 0.7), samples=pts)
    assert flow.sup_by_time[0] == pytest.approx(static.sup, abs=1e-10)


def test_wmp_probe_sphere_constant():
    imm, _ = catalog("sphere", n=2, R=2.0)
    probe = wmp_probe(imm, SolitonSpec("mcf", 0.5), eps=0.1)
    assert probe.u_constant
    assert abs(probe.lap_u_min) < 1e-12 and abs(probe.lap_u_max) < 1e-12


def test_wmp_probe_cylinder_imcf_v_laplacian():
    # v = -r^2 has constant Laplacian -2(n - 1/C) = -2 on the n=2, C=1 cylinder
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    probe = wmp_probe(imm, SolitonSpec("imcf", 1.0), eps=0.1)
    assert probe.lap_v_min == pytest.approx(-2.0, rel=1e-10)
    assert probe.lap_v_max == pytest.approx(-2.0, rel=1e-10)
    assert probe.margins == []  # the n <= 2 window is vacuous


def test_wmp_probe_high_dimensional_cylinder():
    imm, _ = catalog("generalized_cylinder", n=4, k=2, rho=1.0)
    probe = wmp_probe(imm, SolitonSpec("mcf", 2.0), eps=0.05)
    assert probe.bound_lhs == pytest.approx(2.0, rel=1e-10)
    assert probe.bound_rhs == pytest.approx(4 - 2 - 0.05)
    assert probe.margins == []  # the bound holds: no Laplacian sign to compare


def test_wmp_probe_compares_the_laplacian_sign_where_the_bound_does_not_hold():
    # S^1 x R^3: lam |Xperp|^2 = 1 <= n - 2 - eps, so the Laplacian of u near
    # its sup must be nonnegative, at no slack
    imm, _ = catalog("generalized_cylinder", n=4, k=1, rho=1.0)
    probe = wmp_probe(imm, SolitonSpec("mcf", 1.0), eps=0.1)
    (m,) = probe.margins
    assert (m.name, m.lhs, m.tol, m.verdict) == ("near-sup-laplacian", probe.lap_u_min, 0.0, "PASS")
