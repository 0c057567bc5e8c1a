"""Isoperimetric inequalities, volume-growth monotonicity, separation by the
critical sphere, shape-tensor landmarks and the curvature parabolicity probe.

Margins are oriented so that PASS means margin >= -tol, with tolerances
derived from the participating quadrature error estimates (twice their sum,
floored), so discretization noise cannot fail a true inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams
from .geometry import (
    ball_volume,
    geometry,
    radial_laplacian,
    RadialFunction,
    scale_immersion,
    sphere_volume,
)
from .levelset import level_boundaries
from .quadrature import ExtrinsicRegion, RegionJob, region_integrals
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, sample_geometry
from .solitons import imcf_residual, mcf_residual

BOUNDARY_REL_ERR = 1e-3  # validated marching accuracy at default resolution


@dataclass
class InequalityMargin:
    name: str
    lhs: float
    rhs: float
    margin: float  # lhs - rhs; PASS means margin >= -tol
    tol: float
    verdict: str
    notes: tuple = field(default=())


def _verify_soliton(imm, kind, constant, seed):
    rep = (
        mcf_residual(imm, constant, seed=seed, tol=1e-6)
        if kind == "mcf"
        else imcf_residual(imm, constant, seed=seed, tol=1e-6)
    )
    if not rep.passed:
        raise InvalidParams(
            f"{imm.name} is not a {kind} soliton with constant {constant} "
            f"(sup residual {rep.sup:.3e})"
        )


def _ball_pieces(imm, radii, curvature):
    """Per radius R: the volume of D_R, the integral of |H|^2 over it (None
    without `curvature`) and its boundary; all integrals in one pass."""
    jobs = []
    for R in radii:
        region = ExtrinsicRegion(imm, 0.0, R)
        jobs.append(RegionJob(region))
        if curvature:
            jobs.append(RegionJob(region, point_fn=lambda g: g.normH**2))
    res = iter(region_integrals(imm, jobs))
    return [(next(res), next(res) if curvature else None, boundary)
            for boundary in level_boundaries(imm, radii)]


def isoperimetric_mcf(imm, lam, radii, seed=DEFAULT_SEED) -> list[InequalityMargin]:
    """Boundary-to-volume ratio against the curvature-discounted Euclidean
    reference, plus nonnegativity of the discount factor, per radius."""
    _verify_soliton(imm, "mcf", lam, seed)
    n = imm.dim
    if imm.constant_radius is not None:
        return [
            InequalityMargin(
                f"isoperimetric(R={R:g})", math.nan, math.nan, math.nan, 0.0, "SKIPPED",
                (
                    "compact image saturated: the ball has no boundary"
                    if R > imm.constant_radius
                    else "extrinsic ball is empty below the image radius",
                ),
            )
            for R in radii
        ]
    out = []
    for R, (vol, h2, boundary) in zip(radii, _ball_pieces(imm, radii, curvature=True)):
        if vol.value <= 0.0:
            out.append(
                InequalityMargin(
                    f"isoperimetric(R={R:g})", math.nan, math.nan, math.nan, 0.0,
                    "SKIPPED", ("empty extrinsic ball",),
                )
            )
            continue
        factor = 1.0 - h2.value / (n * lam * vol.value)
        lhs = boundary.area / vol.value
        euclid = sphere_volume(n - 1, R) / ball_volume(n, R)
        rhs = factor * euclid
        dfac = (h2.error + (h2.value / vol.value) * vol.error) / (n * lam * vol.value)
        dlhs = (BOUNDARY_REL_ERR * boundary.area + lhs * vol.error) / vol.value
        tol = max(1e-9, 2.0 * (dlhs + dfac * euclid))
        out.append(
            InequalityMargin(
                f"isoperimetric(R={R:g})", lhs, rhs, lhs - rhs, tol,
                "PASS" if lhs - rhs >= -tol else "FAIL",
            )
        )
        ftol = max(1e-9, 2.0 * dfac)
        out.append(
            InequalityMargin(
                f"factor-nonnegative(R={R:g})", factor, 0.0, factor, ftol,
                "PASS" if factor >= -ftol else "FAIL",
            )
        )
    return out


def isoperimetric_imcf(imm, c, radii, seed=DEFAULT_SEED) -> list[InequalityMargin]:
    """Inverse-flow isoperimetric comparison; equality would force a totally
    geodesic piece, so the verdict also records strictness."""
    n = imm.dim
    if 0.0 <= c <= 1.0 / n:
        raise InvalidParams(
            f"inverse-flow constant {c} lies in the excluded window [0, 1/{n}]"
        )
    _verify_soliton(imm, "imcf", c, seed)
    factor = (c * n - 1.0) / (c * n)
    if imm.constant_radius is not None:
        return [
            InequalityMargin(
                f"isoperimetric-inverse(R={R:g})", math.nan, math.nan, math.nan,
                0.0, "SKIPPED", ("spherical image: the ball boundary degenerates",),
            )
            for R in radii
        ]
    out = []
    for R, (vol, _, boundary) in zip(radii, _ball_pieces(imm, radii, curvature=False)):
        if vol.value <= 0.0:
            out.append(
                InequalityMargin(
                    f"isoperimetric-inverse(R={R:g})", math.nan, math.nan, math.nan,
                    0.0, "SKIPPED", ("empty extrinsic ball",),
                )
            )
            continue
        lhs = boundary.area / vol.value
        rhs = factor * sphere_volume(n - 1, R) / ball_volume(n, R)
        dlhs = (BOUNDARY_REL_ERR * boundary.area + lhs * vol.error) / vol.value
        tol = max(1e-9, 2.0 * dlhs)
        strict = lhs - rhs > tol
        out.append(
            InequalityMargin(
                f"isoperimetric-inverse(R={R:g})", lhs, rhs, lhs - rhs, tol,
                "PASS" if lhs - rhs >= -tol else "FAIL",
                notes=("strict",) if strict else ("equality within tolerance",),
            )
        )
    return out


@dataclass
class TrendReport:
    name: str
    grid: np.ndarray
    values: np.ndarray
    verdict: str
    notes: tuple = field(default=())


def volume_growth_monotonicity(imm, c, radii, seed=DEFAULT_SEED) -> TrendReport:
    """The normalized volume Vol(D_t) / Vol(B^n(t))^((Cn-1)/(Cn)) must not
    decrease along the grid.  C = 1/n (closed spherical solitons) is allowed:
    the exponent degenerates to zero and the trend is the plain volume."""
    n = imm.dim
    if 0.0 <= c < 1.0 / n:
        raise InvalidParams(
            f"inverse-flow constant {c} lies in the excluded window [0, 1/{n})"
        )
    _verify_soliton(imm, "imcf", c, seed)
    exponent = (c * n - 1.0) / (c * n)
    radii = np.asarray(radii, dtype=float)
    vals, errs = [], []
    vols = region_integrals(imm, [RegionJob(ExtrinsicRegion(imm, 0.0, t)) for t in radii])
    for t, vol in zip(radii, vols):
        vals.append(vol.value / ball_volume(n, t) ** exponent)
        errs.append(vol.error / ball_volume(n, t) ** exponent)
    vals = np.asarray(vals)
    rels = [e / v for e, v in zip(errs, vals) if v > 0]
    tol_rel = max(1e-9, 2.0 * max(rels)) if rels else 1e-9
    ok = all(b >= a * (1.0 - tol_rel) for a, b in zip(vals, vals[1:]))
    return TrendReport(
        "volume-growth-monotonicity", radii, vals,
        "PASS" if ok else "FAIL",
    )


@dataclass
class SeparationReport:
    critical_radius: float
    count_inside: int
    count_outside: int
    min_r: float
    max_r: float
    verdict: str  # SEPARATED | INSIDE | OUTSIDE | ON-SPHERE
    minimal_in_sphere_defect: float | None  # max |<X,H> + n| when one-sided
    radius_defect: float | None  # max |r - critical| when one-sided
    notes: tuple = field(default=())


def separation_check(
    imm, lam, samples=None, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=1e-8
) -> SeparationReport:
    """Classify sampled radii against sqrt(n/lam).  A one-sided configuration
    forces a minimal spherical immersion, so the report then also measures
    |r - sqrt(n/lam)| and <X, H> + n.  Sampling refutes, never proves: a
    one-sided verdict only means no counterexample was found in the samples."""
    _verify_soliton(imm, "mcf", lam, seed)
    if lam <= 0:
        raise InvalidParams("separation concerns shrinkers (lam > 0)")
    g = sample_geometry(imm, samples, count, seed)
    crit = math.sqrt(imm.dim / lam)
    band = tol * max(1.0, crit)
    below = int((g.r < crit - band).sum())
    above = int((g.r > crit + band).sum())
    defect = None
    rdef = None
    notes = ()
    if below and above:
        verdict = "SEPARATED"
    elif float(np.abs(g.r - crit).max()) < band:
        verdict = "ON-SPHERE"
        defect = float(np.abs(g.x_dot_h + imm.dim).max())
        rdef = float(np.abs(g.r - crit).max())
    else:
        verdict = "INSIDE" if above == 0 else "OUTSIDE"
        defect = float(np.abs(g.x_dot_h + imm.dim).max())
        rdef = float(np.abs(g.r - crit).max())
        notes = (
            f"one-sided in {len(g.points)} samples (no counterexample found); a true "
            "one-sided shrinker must sit on the critical sphere, and the "
            "reported defects measure how far these samples are from that",
        )
    return SeparationReport(
        crit, below, above, float(g.r.min()), float(g.r.max()), verdict,
        defect, rdef, notes,
    )


@dataclass
class ShapeThresholdReport:
    max_ratio: float  # sup of |A|^2 / lam over the samples
    landmarks: dict  # threshold -> bool (max_ratio below threshold + tol)
    rescale_margin: float  # sup | |A~|^2 - ((n/lam)|A|^2 - n) |
    spherical: bool
    verdict: str
    notes: tuple = field(default=())


def second_form_threshold(
    imm, lam, samples=None, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED, tol=1e-8
) -> ShapeThresholdReport:
    """Shape-tensor magnitude against the classification landmarks 1, 5/3, 2,
    plus the rescaling identity |A~|^2 = (n/lam)|A|^2 - n checked directly on
    the chart scaled by sqrt(lam/n) (unit-sphere shape tensor via the ambient
    trace correction)."""
    _verify_soliton(imm, "mcf", lam, seed)
    n = imm.dim
    g = sample_geometry(imm, samples, count, seed)
    ratio = g.normA2 / lam
    scaled = geometry(scale_immersion(imm, math.sqrt(lam / n)), g.points)
    tilde = scaled.normA2 - n  # shape tensor within the unit sphere
    target = (n / lam) * g.normA2 - n
    rescale = float(np.abs(tilde - target).max())
    spherical = bool(np.ptp(g.r) < 1e-8 * max(1.0, float(g.r.max())))
    notes = ()
    if not spherical:
        notes = (
            "image is not spherical: the rescaled chart does not live in the "
            "unit sphere, so the trace-corrected value is formal",
        )
    landmarks = {
        "1": bool(ratio.max() <= 1.0 + 1e-6),
        "5/3": bool(ratio.max() <= 5.0 / 3.0 + 1e-6),
        "2": bool(ratio.max() <= 2.0 + 1e-6),
    }
    return ShapeThresholdReport(
        float(ratio.max()), landmarks, rescale,
        spherical, "PASS" if rescale < tol else "FAIL", notes,
    )


@dataclass
class CurvatureParabolicityReport:
    r_cut: float
    far_count: int
    min_normH_far: float
    threshold: float | None  # sqrt(n lam) for shrinkers
    max_lap_r2_far: float
    verdict: str
    notes: tuple = field(default=())


def rimoldi_criterion(
    imm, lam, samples=None, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED, r_cut=None
) -> CurvatureParabolicityReport:
    """Does |H| >= sqrt(n lam) hold outside a compact set?  Reported together
    with the sign of the radial Laplacian of r^2 there (nonpositive exactly
    when the bound holds); a diagnostic, not a proof of parabolicity."""
    _verify_soliton(imm, "mcf", lam, seed)
    n = imm.dim
    if imm.compact:
        return CurvatureParabolicityReport(
            0.0, 0, math.inf, math.sqrt(n * lam) if lam > 0 else None, -math.inf,
            "VACUOUS", ("compact image: the hypothesis holds outside itself",),
        )
    if r_cut is None:
        if lam > 0:
            r_cut = min(3.0 * math.sqrt(n / lam), 0.75 * imm.properness_radius)
        else:
            r_cut = 0.5 * imm.properness_radius
    g = sample_geometry(imm, samples, count, seed)
    far = g.r > r_cut
    if not far.any():
        raise InvalidParams(f"no samples beyond r_cut = {r_cut:.4g}")
    gf = g.select(far)
    lap = radial_laplacian(gf, RadialFunction.r_squared())
    min_h = float(gf.normH.min())
    threshold = math.sqrt(n * lam) if lam > 0 else None
    if threshold is not None:
        holds = min_h >= threshold - 1e-9
        verdict = "HYPOTHESIS-HOLDS" if holds else "HYPOTHESIS-FAILS"
    else:
        verdict = "EXPANDER"
    return CurvatureParabolicityReport(
        float(r_cut), int(far.sum()), min_h, threshold, float(lap.max()), verdict,
    )
