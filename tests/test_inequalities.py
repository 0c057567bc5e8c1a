"""Inequality margins, separation, landmarks and the curvature probe."""

import math
from dataclasses import replace

import numpy as np
import pytest

import solab.levelset as levelset
from solab.catalog import catalog
from solab.errors import InvalidParams
from solab.geometry import radius_values
from solab.inequalities import (
    _ball_pieces,
    isoperimetric,
    rimoldi_criterion,
    second_form_threshold,
    separation_check,
    volume_growth_monotonicity,
)
from solab.solitons import SolitonSpec, wmp_probe


def test_isoperimetric_mcf_cylinder_hand_values():
    # at R = 2 on S^1(1) x R: boundary/volume = 1/sqrt(3), factor = 1/2,
    # Euclidean reference 2/R, so the right side is 1/2
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    margins = isoperimetric(imm, SolitonSpec("mcf", 1.0), [2.0])
    ineq, factor = margins
    assert ineq.lhs == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-3)
    assert ineq.rhs == pytest.approx(0.5, rel=1e-3)
    assert ineq.verdict == "PASS"
    assert factor.lhs == pytest.approx(0.5, rel=1e-6)
    assert factor.verdict == "PASS"


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2)])
def test_isoperimetric_factor_in_unit_interval(n, k):
    imm, entry = catalog("generalized_cylinder", n=n, k=k, rho=1.0)
    margins = isoperimetric(imm, SolitonSpec("mcf", entry.constants["lam"]), [1.5, 2.0, 3.0])
    factors = [m for m in margins if m.name.startswith("factor")]
    for m in factors:
        assert -m.tol <= m.lhs <= 1.0 + m.tol
        # closed form on cylinders: factor = (n - k)/n
        assert m.lhs == pytest.approx((n - k) / n, rel=1e-6)


def test_ball_pieces_evaluate_the_marching_grid_once(monkeypatch):
    # the plane without its declared product structure is a marched chart
    imm = replace(catalog("plane", n=2)[0], radial=None)
    calls = []

    def counting(imm, points):
        calls.append(len(points))
        return radius_values(imm, points)

    monkeypatch.setattr(levelset, "radius_values", counting)
    pieces = _ball_pieces(imm, [0.5, 1.0, 1.5, 2.0], curvature=False)
    assert calls == [257**2]
    assert [b.area for _, _, b in pieces] == pytest.approx(
        [2 * math.pi * R for R in (0.5, 1.0, 1.5, 2.0)], rel=1e-3
    )


def test_isoperimetric_mcf_sphere_saturated_radius_skipped():
    imm, _ = catalog("sphere", n=2, R=2.0)
    margins = isoperimetric(imm, SolitonSpec("mcf", 0.5), [3.0])
    assert margins[0].verdict == "SKIPPED"


def test_isoperimetric_mcf_rejects_non_soliton_constant():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    with pytest.raises(InvalidParams):
        isoperimetric(imm, SolitonSpec("mcf", 0.5), [2.0])


def test_isoperimetric_imcf_cylinder_strict():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    (m,) = isoperimetric(imm, SolitonSpec("imcf", 1.0), [2.0])
    assert m.rhs == pytest.approx(0.5, rel=1e-9)
    assert m.lhs == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-3)
    assert m.verdict == "PASS"
    assert "strict" in m.notes


def test_isoperimetric_imcf_rejects_degenerate_window():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    with pytest.raises(InvalidParams):
        isoperimetric(imm, SolitonSpec("imcf", 0.5), [2.0])  # C = 1/n zeroes the reference


def test_volume_growth_monotone_on_cylinder():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    values, margins = volume_growth_monotonicity(imm, 1.0, np.linspace(1.5, 4.0, 10))
    assert [m.verdict for m in margins] == ["PASS"] * 9
    assert (np.diff(values) >= -1e-9).all()


def test_volume_growth_single_point_vacuous():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    _, margins = volume_growth_monotonicity(imm, 1.0, [2.0])
    assert margins == []


def test_volume_growth_sphere_degenerate_exponent():
    # C = 1/n: the exponent is zero and the saturated volume is constant
    imm, _ = catalog("sphere", n=2, R=1.0)
    values, margins = volume_growth_monotonicity(imm, 0.5, [1.5, 2.0, 3.0])
    assert [m.verdict for m in margins] == ["PASS"] * 2
    assert np.ptp(values) < 1e-9


def test_separation_cylinder():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    rep = separation_check(imm, 1.0)
    assert rep.verdict == "SEPARATED"
    assert rep.critical_radius == pytest.approx(math.sqrt(2.0))
    assert rep.min_r >= 1.0


def test_separation_sphere_on_critical_radius():
    imm, _ = catalog("sphere", n=2, R=2.0)
    rep = separation_check(imm, 0.5)
    assert rep.verdict == "ON-SPHERE"
    assert rep.minimal_in_sphere_defect < 1e-8
    assert rep.radius_defect < 1e-10


def test_separation_clifford_on_sphere():
    imm, _ = catalog("clifford_torus", k=1, nk=1, lam=2.0)
    rep = separation_check(imm, 2.0)
    assert rep.verdict == "ON-SPHERE"
    assert rep.minimal_in_sphere_defect < 1e-8


@pytest.mark.parametrize(
    "maker,lam,ratio,tilde",
    [
        (lambda: catalog("sphere", n=2, R=2.0)[0], 0.5, 1.0, 0.0),
        (lambda: catalog("clifford_torus", k=1, nk=1, lam=1.0)[0], 1.0, 2.0, 2.0),
        (lambda: catalog("veronese_surface", lam=1.5)[0], 1.5, 5.0 / 3.0, 4.0 / 3.0),
    ],
)
def test_shape_tensor_landmarks(maker, lam, ratio, tilde):
    imm = maker()
    rep = second_form_threshold(imm, lam)
    assert rep.max_ratio == pytest.approx(ratio, abs=1e-6)
    (rescale,) = rep.margins
    assert rescale.lhs < 1e-8
    assert rep.spherical
    assert rescale.verdict == "PASS"
    # the unit-sphere shape tensor value implied by the identity
    assert (2 / lam) * lam * ratio - 2 == pytest.approx(tilde, abs=1e-6)


def test_sphericity_is_the_route_not_the_sampled_radii():
    # the same sphere read as a plain chart keeps its sampled radii but is
    # no longer called spherical by second-form or the probe
    imm, _ = catalog("sphere", n=2, R=2.0)
    for each, spherical in ((imm, True), (replace(imm, constant_radius=None), False)):
        assert second_form_threshold(each, 0.5).spherical is spherical
        assert wmp_probe(each, SolitonSpec("mcf", 0.5)).u_constant is spherical


def test_rimoldi_cylinder_hypothesis_fails_for_k_below_n():
    imm, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    rep = rimoldi_criterion(imm, 1.0)
    assert rep.threshold == pytest.approx(math.sqrt(2.0))
    assert rep.min_normH_far == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict == "HYPOTHESIS-FAILS"
    assert rep.max_lap_r2_far > 0.0  # consistent: Delta r^2 = 2(n - |H|^2/lam) > 0


def test_rimoldi_sphere_vacuous():
    imm, _ = catalog("sphere", n=2, R=1.0)
    rep = rimoldi_criterion(imm, 2.0)
    assert rep.verdict == "VACUOUS"


def test_rimoldi_expander_curvature_decays():
    imm, _ = catalog("castro_lerma", delta=1.0, lam=-0.5)
    rep = rimoldi_criterion(imm, -0.5)
    assert rep.verdict == "EXPANDER"
    assert rep.min_normH_far < 0.05
