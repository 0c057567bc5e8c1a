"""Soliton equation residuals, constant inference, homothety verification and
weak-maximum-principle probes.

Both defining equations have the one form

    K + c * Xperp = 0,

with K = H and c = lambda for the direct flow (a shrinker for lambda > 0)
and K = H/|H|^2 and c = C for the inverse flow (an expander for C > 0).  The
homothetic families are X_t = sqrt(1 - 2 lambda t) X and X_t = exp(C t) X,
moving with velocity K and -K.  A family solves the flow up to tangential
reparametrization, so the flow residual compares the *normal* part of the
velocity with the curvature term; at t = 0 it reduces exactly to the soliton
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateNormalPosition,
    InvalidParams,
    TimeOutOfRange,
    VanishingMeanCurvature,
)
from .geometry import (
    ORIGIN_EXCLUSION,
    Immersion,
    PointGeometry,
    RadialFunction,
    radial_laplacian,
)
from .quadrature import Margin, compare
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, homothetic_geometries, sample_geometry

TOL_H = 1e-10  # below this |H| the immersion counts as minimal at the sample
DEFAULT_RESIDUAL_TOL = 1e-8
NEAR_SUP = 0.01  # samples within this of a probe's sampled supremum are near it
KINDS = ("mcf", "imcf")  # the direct and the inverse flow


@dataclass(frozen=True)
class SolitonSpec:
    kind: str  # "mcf" | "imcf"
    constant: float  # lambda for the direct flow, C for the inverse flow

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParams(f"unknown flow kind {self.kind!r}")
        if self.kind == "imcf" and self.constant == 0.0:
            raise InvalidParams("an inverse-flow soliton constant cannot be zero")


@dataclass
class ResidualReport:
    kind: str
    constant: float
    residuals: np.ndarray
    sup: float
    mean: float
    sample_count: int


def residual_margin(name: str, sup: float, tol: float | None = None) -> Margin:
    """A sampled residual's sup against zero: the samples carry no error, so
    the verdict rests on DEFAULT_RESIDUAL_TOL unless the user sets tol."""
    slack = (DEFAULT_RESIDUAL_TOL, "a sampled residual carries no error estimate")
    return compare(name, sup, 0.0, identity=True, slack=slack, tol=tol)


def _report(kind, constant, residuals):
    residuals = np.asarray(residuals)
    sup = float(residuals.max()) if residuals.size else 0.0
    mean = float(math.fsum(residuals.tolist()) / max(residuals.size, 1))
    return ResidualReport(
        kind=kind,
        constant=float(constant),
        residuals=residuals,
        sup=sup,
        mean=mean,
        sample_count=int(residuals.size),
    )


def _curvature_term(g: PointGeometry, kind: str) -> np.ndarray:
    """K of the flow kind at the samples: H for the direct flow, H/|H|^2 for
    the inverse flow, where a minimal point (|H| at most TOL_H) is an error."""
    if kind == "mcf":
        return g.H
    normH = g.normH
    if np.any(normH <= TOL_H):
        raise VanishingMeanCurvature(g.points[int(np.argmin(normH))])
    return g.H / normH[:, None] ** 2


def soliton_residual(
    imm: Immersion,
    spec: SolitonSpec,
    samples=None,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> ResidualReport:
    """sup over samples of |K + c * Xperp|; for the inverse flow minimal
    points are an error."""
    g = sample_geometry(imm, samples, count, seed)
    res = np.linalg.norm(_curvature_term(g, spec.kind) + spec.constant * g.Xperp, axis=1)
    return _report(spec.kind, spec.constant, res)


@dataclass
class InferredConstant:
    kind: str
    constant: float
    report: ResidualReport


def infer_constant(
    imm: Immersion,
    kind: str,
    samples=None,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> InferredConstant:
    """Least-squares inversion of the soliton equation over the samples: the
    minimizer of sum |K + c Xperp|^2 is c* = -sum<K, Xperp> / sum |Xperp|^2.
    """
    if kind not in KINDS:
        raise InvalidParams(f"unknown flow kind {kind!r}")
    g = sample_geometry(imm, samples, count, seed)
    perp2 = float(np.einsum("na,na->n", g.Xperp, g.Xperp).sum())
    field_vec = _curvature_term(g, kind)
    if perp2 <= TOL_H * len(g.points):
        if kind == "mcf" and float(np.abs(field_vec).max(initial=0.0)) <= TOL_H:
            # totally geodesic through the origin: H = Xperp = 0 identically
            report = _report("mcf", 0.0, np.zeros(len(g.points)))
            return InferredConstant("mcf", 0.0, report)
        raise DegenerateNormalPosition(
            "normal position vanishes on the samples; the least-squares "
            "problem for the soliton constant is singular"
        )
    cross = float(np.einsum("na,na->", field_vec, g.Xperp))
    constant = -cross / perp2
    res = np.linalg.norm(field_vec + constant * g.Xperp, axis=1)
    report = _report(kind, constant, res)
    return InferredConstant(kind, constant, report)


# --- homothetic families --------------------------------------------------------


@dataclass
class FlowResidualReport:
    kind: str
    constant: float
    times: list
    sup_by_time: list
    sup: float
    scaling_consistency: float  # sup |H_scaled_chart - H/c| over all samples/times


def _scale_factor(spec: SolitonSpec, t: float) -> float:
    if spec.kind == "mcf":
        arg = 1.0 - 2.0 * spec.constant * t
        if arg <= 0.0:
            raise TimeOutOfRange(
                f"t = {t} is at or beyond the extinction time 1/(2 lambda) "
                f"= {1.0 / (2.0 * spec.constant):.6g}"
            )
        return math.sqrt(arg)
    return math.exp(spec.constant * t)


def _scale_rate(spec: SolitonSpec, t: float, c: float) -> float:
    if spec.kind == "mcf":
        return -spec.constant / c
    return spec.constant * c


def homothety_flow_residual(
    imm: Immersion,
    spec: SolitonSpec,
    times,
    samples=None,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> FlowResidualReport:
    """Check that the scaled family moves with the (normal) flow velocity.

    At each (p, t) the velocity dc/dt * X is projected onto the normal space
    and compared against the mean curvature of the scaled chart, which is
    recomputed numerically and checked against the exact scaling law H/c.
    """
    scales = [_scale_factor(spec, float(t)) for t in times]
    geometries = homothetic_geometries(imm, [1.0, *scales], samples, count, seed)
    base = next(geometries)
    sup_by_time = []
    consistency = 0.0
    for t, c in zip(times, scales):
        rate = _scale_rate(spec, float(t), c)
        scaled = next(geometries)
        consistency = max(
            consistency, float(np.abs(scaled.H - base.H / c).max())
        )
        vel = rate * base.X
        vel_normal = vel - scaled.tangential(vel)
        K = _curvature_term(scaled, spec.kind)
        res = np.linalg.norm(vel_normal - (K if spec.kind == "mcf" else -K), axis=1)
        sup_by_time.append(float(res.max()))
        del scaled  # freed before the next scale's geometry is built
    sup = max(sup_by_time) if sup_by_time else 0.0
    return FlowResidualReport(
        kind=spec.kind,
        constant=spec.constant,
        times=[float(t) for t in times],
        sup_by_time=sup_by_time,
        sup=sup,
        scaling_consistency=consistency,
    )


# --- weak-maximum-principle probe ------------------------------------------------


@dataclass
class ProbeReport:
    """What the bounded radial test functions see near their sampled suprema."""

    eps: float
    sup_u: float
    u_constant: bool
    near_count: int
    lap_u_min: float
    lap_u_max: float
    lap_v_min: float  # v = -r^2
    lap_v_max: float
    bound_lhs: float | None  # min of lam*|Xperp|^2 (mcf) or 1/C (imcf) near the sup
    bound_rhs: float | None  # n - 2 - eps
    margins: list  # the near-sup Laplacian's sign where the bound does not settle it
    notes: tuple = field(default=())


def wmp_probe(
    imm: Immersion,
    spec: SolitonSpec | None = None,
    eps: float = 0.1,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> ProbeReport:
    """Evaluate the bounded probes u = (1 - r^-eps)/eps and v = -r^2 on samples
    within NEAR_SUP of their supremum and report the sign of the radial Laplacian
    there, together with the inequality the near-sup points must satisfy: for
    n > 2, where bound_lhs does not exceed bound_rhs, the least Laplacian of
    u near its sup must be nonnegative, the probe's one margin."""
    if eps <= 0:
        raise InvalidParams("eps must be positive")
    g = sample_geometry(imm, count=count, seed=seed)
    g = g.select(g.r > ORIGIN_EXCLUSION)
    n = imm.dim

    F = RadialFunction.shifted_inverse_power(eps)
    u = F.f(g.r)
    sup_u = float(u.max())
    u_constant = imm.route == "constant"
    near = np.ones_like(u, bool) if u_constant else (u > sup_u - NEAR_SUP)
    lap_u = radial_laplacian(g.select(near), F)

    V = RadialFunction.neg_r_squared()
    v = -g.r**2
    near_v = np.ones_like(u, bool) if u_constant else (v > v.max() - NEAR_SUP)
    lap_v = radial_laplacian(g.select(near_v), V)

    bound_lhs = bound_rhs = None
    margins = []
    notes = []
    if spec is not None:
        bound_rhs = float(n - 2 - eps)
        if spec.kind == "mcf":
            perp2 = np.einsum("na,na->n", g.Xperp, g.Xperp)[near]
            bound_lhs = float((spec.constant * perp2).min())
        else:
            bound_lhs = 1.0 / spec.constant
        if n <= 2:
            notes.append(
                "dimension <= 2: the near-sup inequality is vacuous, raw values only"
            )
        elif bound_lhs <= bound_rhs:
            margins.append(compare(
                "near-sup-laplacian", float(lap_u.min()), 0.0,
                slack=(0.0, "the sign of a sampled Laplacian admits none"),
            ))
    if u_constant:
        notes.append("probe function is constant on the samples (spherical image)")
    return ProbeReport(
        eps=eps,
        sup_u=sup_u,
        u_constant=u_constant,
        near_count=int(near.sum()),
        lap_u_min=float(lap_u.min()),
        lap_u_max=float(lap_u.max()),
        lap_v_min=float(lap_v.min()),
        lap_v_max=float(lap_v.max()),
        bound_lhs=bound_lhs,
        bound_rhs=bound_rhs,
        margins=margins,
        notes=tuple(notes),
    )


