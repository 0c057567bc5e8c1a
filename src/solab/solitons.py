"""Soliton equation residuals, constant inference, homothety verification and
weak-maximum-principle probes.

The two defining equations are

    direct flow:   H = -lambda * Xperp          (shrinker for lambda > 0)
    inverse flow:  H/|H|^2 = -C * Xperp         (expander for C > 0)

and the homothetic families X_t = sqrt(1 - 2 lambda t) X, X_t = exp(C t) X.
A family solves the flow up to tangential reparametrization, so the flow
residual compares the *normal* part of the velocity with the curvature term;
at t = 0 it reduces exactly to the soliton residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateNormalPosition,
    TimeOutOfRange,
    VanishingMeanCurvature,
)
from .geometry import (
    Immersion,
    PointGeometry,
    RadialFunction,
    geometry,
    radial_laplacian,
    scale_immersion,
)
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, sample_geometry

TOL_H = 1e-10  # below this |H| the immersion counts as minimal at the sample
DEFAULT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SolitonSpec:
    kind: str  # "mcf" | "imcf"
    constant: float  # lambda for the direct flow, C for the inverse flow

    def __post_init__(self):
        if self.kind not in ("mcf", "imcf"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.kind == "imcf" and self.constant == 0.0:
            raise ValueError("an inverse-flow soliton constant cannot be zero")

    @property
    def classification(self) -> str:
        c = self.constant
        if self.kind == "mcf":
            return "self-shrinker" if c > 0 else ("minimal" if c == 0 else "self-expander")
        return "self-expander" if c > 0 else "self-shrinker"


@dataclass
class ResidualReport:
    kind: str
    constant: float
    residuals: np.ndarray
    sup: float
    mean: float
    sample_count: int
    tol: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _report(kind, constant, residuals, tol):
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
        tol=tol,
        verdict="PASS" if sup < tol else "FAIL",
    )


def mcf_residual(
    imm: Immersion,
    lam: float,
    samples=None,
    tol: float = DEFAULT_RESIDUAL_TOL,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> ResidualReport:
    """sup over samples of |H + lambda * Xperp|."""
    g = sample_geometry(imm, samples, count, seed)
    res = np.linalg.norm(g.H + lam * g.Xperp, axis=1)
    return _report("mcf", lam, res, tol)


def imcf_residual(
    imm: Immersion,
    c: float,
    samples=None,
    tol: float = DEFAULT_RESIDUAL_TOL,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tol_h: float = TOL_H,
) -> ResidualReport:
    """sup over samples of |H/|H|^2 + C * Xperp|; minimal points are an error."""
    g = sample_geometry(imm, samples, count, seed)
    normH = g.normH
    if np.any(normH <= tol_h):
        raise VanishingMeanCurvature(g.points[int(np.argmin(normH))])
    res = np.linalg.norm(g.H / normH[:, None] ** 2 + c * g.Xperp, axis=1)
    return _report("imcf", c, res, tol)


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
    tol: float = DEFAULT_RESIDUAL_TOL,
    tol_h: float = TOL_H,
) -> InferredConstant:
    """Least-squares inversion of the soliton equation over the samples.

    For the direct flow the minimizer of sum |H + lam Xperp|^2 is
    lam* = -sum<H, Xperp> / sum |Xperp|^2, and analogously for the inverse
    flow with H/|H|^2 in place of H.
    """
    g = sample_geometry(imm, samples, count, seed)
    perp2 = float(np.einsum("na,na->n", g.Xperp, g.Xperp).sum())
    if kind == "mcf":
        field_vec = g.H
    elif kind == "imcf":
        normH = g.normH
        if np.any(normH <= tol_h):
            raise VanishingMeanCurvature(g.points[int(np.argmin(normH))])
        field_vec = g.H / normH[:, None] ** 2
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    if perp2 <= tol_h * len(g.points):
        if kind == "mcf" and float(np.abs(field_vec).max(initial=0.0)) <= tol_h:
            # totally geodesic through the origin: H = Xperp = 0 identically
            report = _report("mcf", 0.0, np.zeros(len(g.points)), tol)
            return InferredConstant("mcf", 0.0, report)
        raise DegenerateNormalPosition(
            "normal position vanishes on the samples; the least-squares "
            "problem for the soliton constant is singular"
        )
    cross = float(np.einsum("na,na->", field_vec, g.Xperp))
    constant = -cross / perp2
    res = np.linalg.norm(field_vec + constant * g.Xperp, axis=1)
    report = _report(kind, constant, res, tol)
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
    tol: float
    verdict: str


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
    tol: float = DEFAULT_RESIDUAL_TOL,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> FlowResidualReport:
    """Check that the scaled family moves with the (normal) flow velocity.

    At each (p, t) the velocity dc/dt * X is projected onto the normal space
    and compared against the mean curvature of the scaled chart, which is
    recomputed numerically and checked against the exact scaling law H/c.
    """
    base = sample_geometry(imm, samples, count, seed)
    sup_by_time = []
    consistency = 0.0
    for t in times:
        c = _scale_factor(spec, float(t))
        rate = _scale_rate(spec, float(t), c)
        scaled = geometry(scale_immersion(imm, c), base.points)
        consistency = max(
            consistency, float(np.abs(scaled.H - base.H / c).max())
        )
        vel = rate * base.X
        vel_normal = vel - scaled.tangential(vel)
        if spec.kind == "mcf":
            res = np.linalg.norm(vel_normal - scaled.H, axis=1)
        else:
            normH = scaled.normH
            if np.any(normH <= TOL_H):
                raise VanishingMeanCurvature(base.points[int(np.argmin(normH))])
            res = np.linalg.norm(vel_normal + scaled.H / normH[:, None] ** 2, axis=1)
        sup_by_time.append(float(res.max()))
    sup = max(sup_by_time) if sup_by_time else 0.0
    return FlowResidualReport(
        kind=spec.kind,
        constant=spec.constant,
        times=[float(t) for t in times],
        sup_by_time=sup_by_time,
        sup=sup,
        scaling_consistency=consistency,
        tol=tol,
        verdict="PASS" if sup < tol else "FAIL",
    )


# --- weak-maximum-principle probe ------------------------------------------------


@dataclass
class ProbeReport:
    """What the bounded radial test functions see near their sampled suprema."""

    eps: float
    dim: int
    sup_u: float
    u_constant: bool
    near_count: int
    lap_u_min: float
    lap_u_max: float
    lap_v_min: float  # v = -r^2
    lap_v_max: float
    bound_lhs: float | None  # min of lam*|Xperp|^2 (mcf) or 1/C (imcf) near the sup
    bound_rhs: float | None  # n - 2 - eps
    verdict: str | None
    notes: tuple = field(default=())


def wmp_probe(
    imm: Immersion,
    spec: SolitonSpec | None = None,
    eps: float = 0.1,
    samples=None,
    count: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    k: int = 100,
    exclusion: float = 1e-6,
) -> ProbeReport:
    """Evaluate the bounded probes u = (1 - r^-eps)/eps and v = -r^2 on samples
    within 1/k of their supremum and report the sign of the radial Laplacian
    there, together with the inequality the near-sup points must satisfy."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = sample_geometry(imm, samples, count, seed)
    g = g.select(g.r > exclusion)
    n = imm.dim

    F = RadialFunction.shifted_inverse_power(eps)
    u = F.f(g.r)
    sup_u = float(u.max())
    u_constant = bool(np.ptp(u) <= 1e-12 * max(1.0, abs(sup_u)))
    near = np.ones_like(u, bool) if u_constant else (u > sup_u - 1.0 / k)
    lap_u = radial_laplacian(g.select(near), F)

    V = RadialFunction.neg_r_squared()
    v = -g.r**2
    near_v = np.ones_like(u, bool) if u_constant else (v > v.max() - 1.0 / k)
    lap_v = radial_laplacian(g.select(near_v), V)

    bound_lhs = bound_rhs = None
    verdict = None
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
        else:
            ok = bound_lhs > bound_rhs or float(lap_u.min()) >= 0.0
            verdict = "CONSISTENT" if ok else "INCONSISTENT"
    if u_constant:
        notes.append("probe function is constant on the samples (spherical image)")
    return ProbeReport(
        eps=eps,
        dim=n,
        sup_u=sup_u,
        u_constant=u_constant,
        near_count=int(near.sum()),
        lap_u_min=float(lap_u.min()),
        lap_u_max=float(lap_u.max()),
        lap_v_min=float(lap_v.min()),
        lap_v_max=float(lap_v.max()),
        bound_lhs=bound_lhs,
        bound_rhs=bound_rhs,
        verdict=verdict,
        notes=tuple(notes),
    )


