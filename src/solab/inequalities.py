"""Isoperimetric inequalities, volume-growth monotonicity, separation by the
critical sphere, shape-tensor landmarks and the curvature parabolicity probe.

The isoperimetric comparisons are `quadrature.Margin` records built by
`quadrature.compare`: an inequality passes when lhs - rhs >= -tol, with tol
twice the carried error of the compared quantities, floored at
ROUNDING_FLOOR, so discretization noise cannot fail a true inequality.  The
boundary's share of that error is BOUNDARY_REL_ERR of its area, a slack the
margins name in their notes until the boundary integrals carry an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams
from .geometry import (
    ball_volume,
    radial_laplacian,
    RadialFunction,
    sphere_volume,
)
from .levelset import level_boundaries
from .quadrature import ExtrinsicRegion, Margin, RegionJob, compare, monotone_margins, region_integrals
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, homothetic_geometries, sample_geometry
from .solitons import SolitonSpec, soliton_residual

BOUNDARY_REL_ERR = 1e-3  # validated marching accuracy at default resolution
BOUNDARY_SLACK = f"boundary error taken as BOUNDARY_REL_ERR = {BOUNDARY_REL_ERR:g} of its area"
# Relative tolerance within which an inverse-flow constant counts as 1/n.  An
# inferred constant carries the geometry kernel's rounding, a few ulps, and
# no residual check (tolerance 1e-8) tells constants 1e-12 apart, so the
# excluded windows below do not hang on the last bits of a fit.
INVERSE_CONSTANT_RTOL = 1e-12
SAMPLE_TOL = 1e-8  # the critical-sphere band and the rescaling identity's tolerance


def is_one_over_n(c: float, n: int) -> bool:
    """Whether the inverse-flow constant c is 1/n within INVERSE_CONSTANT_RTOL."""
    return math.isclose(c, 1.0 / n, rel_tol=INVERSE_CONSTANT_RTOL)


def isoperimetric_excluded(c: float, n: int) -> bool:
    """Whether c lies in the inverse-flow isoperimetric comparison's excluded
    window [0, 1/n], where its factor (Cn - 1)/(Cn) is not positive."""
    return 0.0 <= c <= 1.0 / n or is_one_over_n(c, n)


def _verify_soliton(imm, spec, count, seed):
    rep = soliton_residual(imm, spec, count=count, seed=seed)
    if not rep.sup < 1e-6:
        raise InvalidParams(
            f"{imm.name} is not a {spec.kind} soliton with constant {spec.constant} "
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


def isoperimetric_mcf(imm, lam, radii, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED) -> list[Margin]:
    """Boundary-to-volume ratio against the curvature-discounted Euclidean
    reference, plus nonnegativity of the discount factor, per radius."""
    _verify_soliton(imm, SolitonSpec("mcf", lam), count, seed)
    n = imm.dim
    if imm.route == "constant":
        return [
            compare(
                f"isoperimetric(R={R:g})", math.nan, math.nan,
                skip="compact image saturated: the ball has no boundary"
                if R > imm.constant_radius
                else "extrinsic ball is empty below the image radius",
            )
            for R in radii
        ]
    out = []
    for R, (vol, h2, boundary) in zip(radii, _ball_pieces(imm, radii, curvature=True)):
        name = f"isoperimetric(R={R:g})"
        if vol.value <= 0.0:
            out.append(compare(name, math.nan, math.nan, skip="empty extrinsic ball"))
            continue
        factor = 1.0 - h2.value / (n * lam * vol.value)
        lhs = boundary.area / vol.value
        euclid = sphere_volume(n - 1, R) / ball_volume(n, R)
        dfac = (h2.error + (h2.value / vol.value) * vol.error) / (n * lam * vol.value)
        dlhs = (BOUNDARY_REL_ERR * boundary.area + lhs * vol.error) / vol.value
        out.append(
            compare(name, lhs, factor * euclid, error=dlhs + dfac * euclid, notes=(BOUNDARY_SLACK,))
        )
        out.append(compare(f"factor-nonnegative(R={R:g})", factor, 0.0, error=dfac))
    return out


def isoperimetric_imcf(imm, c, radii, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED) -> list[Margin]:
    """Inverse-flow isoperimetric comparison; equality would force a totally
    geodesic piece, so the verdict also records strictness."""
    n = imm.dim
    if isoperimetric_excluded(c, n):
        raise InvalidParams(
            f"inverse-flow constant {c} lies in the excluded window [0, 1/{n}]"
        )
    _verify_soliton(imm, SolitonSpec("imcf", c), count, seed)
    factor = (c * n - 1.0) / (c * n)
    if imm.route == "constant":
        return [
            compare(
                f"isoperimetric-inverse(R={R:g})", math.nan, math.nan,
                skip="spherical image: the ball boundary degenerates",
            )
            for R in radii
        ]
    out = []
    for R, (vol, _, boundary) in zip(radii, _ball_pieces(imm, radii, curvature=False)):
        name = f"isoperimetric-inverse(R={R:g})"
        if vol.value <= 0.0:
            out.append(compare(name, math.nan, math.nan, skip="empty extrinsic ball"))
            continue
        lhs = boundary.area / vol.value
        rhs = factor * sphere_volume(n - 1, R) / ball_volume(n, R)
        dlhs = (BOUNDARY_REL_ERR * boundary.area + lhs * vol.error) / vol.value
        m = compare(name, lhs, rhs, error=dlhs, notes=(BOUNDARY_SLACK,))
        strict = "strict" if m.margin > m.tol else "equality within tolerance"
        m.notes = (strict, *m.notes)
        out.append(m)
    return out


def volume_growth_monotonicity(
    imm, c, radii, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED
) -> tuple[np.ndarray, list[Margin]]:
    """The normalized volume Vol(D_t) / Vol(B^n(t))^((Cn-1)/(Cn)) along the
    grid and its margins: it must not decrease from one radius to the next.
    C = 1/n (closed spherical solitons) is allowed: the exponent degenerates
    to zero and the trend is the plain volume."""
    n = imm.dim
    if 0.0 <= c < 1.0 / n and not is_one_over_n(c, n):
        raise InvalidParams(
            f"inverse-flow constant {c} lies in the excluded window [0, 1/{n})"
        )
    _verify_soliton(imm, SolitonSpec("imcf", c), count, seed)
    exponent = (c * n - 1.0) / (c * n)
    radii = np.asarray(radii, dtype=float)
    vols = region_integrals(imm, [RegionJob(ExtrinsicRegion(imm, 0.0, t)) for t in radii])
    norms = np.array([ball_volume(n, t) ** exponent for t in radii])
    vals = np.array([vol.value for vol in vols]) / norms
    # the normalization scales a volume and its error alike
    errors = np.array([vol.error for vol in vols]) / norms
    return vals, monotone_margins("volume-growth", radii, vals, errors, increasing=True)


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
    margins: list  # one-sided: the radius defect against the critical sphere
    notes: tuple = field(default=())


def separation_check(
    imm, lam, samples=None, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED
) -> SeparationReport:
    """Classify sampled radii against sqrt(n/lam).  A one-sided configuration
    forces a minimal spherical immersion, so the report then also measures
    |r - sqrt(n/lam)|, its one margin, and <X, H> + n.  Sampling refutes,
    never proves: a one-sided verdict only means no counterexample was found
    in the samples."""
    _verify_soliton(imm, SolitonSpec("mcf", lam), count, seed)
    if lam <= 0:
        raise InvalidParams("separation concerns shrinkers (lam > 0)")
    g = sample_geometry(imm, samples, count, seed)
    crit = math.sqrt(imm.dim / lam)
    band = SAMPLE_TOL * max(1.0, crit)
    below = int((g.r < crit - band).sum())
    above = int((g.r > crit + band).sum())
    if below and above:
        return SeparationReport(
            crit, below, above, float(g.r.min()), float(g.r.max()), "SEPARATED", None, None, []
        )
    defect = float(np.abs(g.x_dot_h + imm.dim).max())
    rdef = float(np.abs(g.r - crit).max())
    notes = ()
    if rdef < band:
        verdict = "ON-SPHERE"
    else:
        verdict = "INSIDE" if above == 0 else "OUTSIDE"
        notes = (
            f"one-sided in {len(g.points)} samples (no counterexample found); a true "
            "one-sided shrinker must sit on the critical sphere, and the "
            "reported defects measure how far these samples are from that",
        )
    sphere = compare(
        "critical-sphere", rdef, 0.0, identity=True, scale=max(1.0, crit),
        slack=(SAMPLE_TOL, "sampled radii carry no error estimate"),
    )
    return SeparationReport(
        crit, below, above, float(g.r.min()), float(g.r.max()), verdict,
        defect, rdef, [sphere], notes,
    )


@dataclass
class ShapeThresholdReport:
    max_ratio: float  # sup of |A|^2 / lam over the samples
    landmarks: dict  # threshold -> bool (max_ratio below threshold + tol)
    spherical: bool
    margins: list  # sup | |A~|^2 - ((n/lam)|A|^2 - n) | against zero
    notes: tuple = field(default=())


def second_form_threshold(
    imm, lam, samples=None, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED
) -> ShapeThresholdReport:
    """Shape-tensor magnitude against the classification landmarks 1, 5/3, 2,
    plus the rescaling identity |A~|^2 = (n/lam)|A|^2 - n checked directly on
    the chart scaled by sqrt(lam/n) (unit-sphere shape tensor via the ambient
    trace correction)."""
    _verify_soliton(imm, SolitonSpec("mcf", lam), count, seed)
    n = imm.dim
    g, scaled = homothetic_geometries(imm, [1.0, math.sqrt(lam / n)], samples, count, seed)
    ratio = g.normA2 / lam
    tilde = scaled.normA2 - n  # shape tensor within the unit sphere
    target = (n / lam) * g.normA2 - n
    rescale = compare(
        "rescale-identity", float(np.abs(tilde - target).max()), 0.0, identity=True,
        slack=(SAMPLE_TOL, "sampled shape tensors carry no error estimate"),
    )
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
    return ShapeThresholdReport(float(ratio.max()), landmarks, spherical, [rescale], notes)


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
    imm, lam, samples=None, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED
) -> CurvatureParabolicityReport:
    """Does |H| >= sqrt(n lam) hold outside a compact set?  Reported together
    with the sign of the radial Laplacian of r^2 there (nonpositive exactly
    when the bound holds); a diagnostic, not a proof of parabolicity."""
    _verify_soliton(imm, SolitonSpec("mcf", lam), count, seed)
    n = imm.dim
    if imm.compact:
        return CurvatureParabolicityReport(
            0.0, 0, math.inf, math.sqrt(n * lam) if lam > 0 else None, -math.inf,
            "VACUOUS", ("compact image: the hypothesis holds outside itself",),
        )
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
