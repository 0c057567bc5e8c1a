"""Integration over extrinsic balls, annuli and the whole submanifold.

Two routes coexist:

* product immersions (cylinders, planes) reduce every radial integral to one
  dimension through their fiber decomposition, and pointwise integrands are
  verified to be radial before using the same reduction;
* generic charts are integrated by pencil decomposition: composite
  Gauss-Legendre panels along the outer axes, and along the innermost axis
  the sublevel conditions rho < r < R are resolved into subintervals by root
  finding before quadrature.

Improper Gaussian-weighted integrals are truncated at a radius where a fitted
Euclidean-growth majorant c * t^n pushes the analytic tail below tolerance;
the tail bound is carried in every result.  All final reductions use exact
(compensated) summation in a fixed traversal order, so results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import gammaincc

from .crossing import polyline_crossings
from .errors import ImproperWindow, PsiUnderflow, TruncationFailure
from .geometry import Immersion, geometry, radius_values, unit_sphere_volume
from .levelset import boundary_area_and_flux
from .sampling import sample_box

__all__ = [
    "ExtrinsicRegion",
    "QuadratureResult",
    "PsiCurve",
    "region_volume",
    "region_integral",
    "gaussian_volume",
    "second_moment",
    "weighted_identity_check",
    "psi",
    "cylinder_psi_closed_form",
    "parabolicity_integral",
    "flux_identity_check",
]


@dataclass(frozen=True)
class ExtrinsicRegion:
    """The annulus {rho < r < R} of an immersion, as a parameter-space set."""

    imm: Immersion
    rho: float
    R: float

    def __post_init__(self):
        if not (0.0 <= self.rho < self.R):
            raise ValueError(f"need 0 <= rho < R, got rho={self.rho}, R={self.R}")


@dataclass
class QuadratureResult:
    value: float
    error: float  # quadrature error estimate (tail included)
    cells: int
    tail: float = 0.0  # analytic bound on the truncated remainder
    method: str = ""
    notes: tuple = field(default=())


# --- dispatch ---------------------------------------------------------------


def region_integral(
    imm: Immersion,
    region: ExtrinsicRegion,
    radial_fn=None,
    point_fn=None,
    point_order: int = 2,
    method: str = "auto",
    resolution: int = 32,
) -> QuadratureResult:
    """Integrate f dV over {rho < r < R}; f is radial_fn(r) or point_fn(geom)."""
    if radial_fn is None and point_fn is None:
        radial_fn = lambda r: np.ones_like(r)
    if method == "auto":
        if imm.constant_radius is not None:
            method = "constant"
        elif imm.radial is not None:
            method = "product"
        else:
            method = "pencil"
    if method == "constant":
        return _constant_radius_integral(imm, region, radial_fn, point_fn)
    if method == "product":
        return _product_integral(imm, region, radial_fn, point_fn, point_order)
    return _pencil_integral(imm, region, radial_fn, point_fn, point_order, resolution)


def region_volume(region: ExtrinsicRegion, method: str = "auto", resolution: int = 32):
    """Induced volume of the extrinsic region (integral of sqrt(det g))."""
    region.imm.require_window(region.R)
    return region_integral(region.imm, region, method=method, resolution=resolution)


# --- constant-radius (spherical) immersions -----------------------------------


def _constant_radius_integral(imm, region, radial_fn, point_fn):
    R0 = imm.constant_radius
    if not (region.rho < R0 < region.R):
        return QuadratureResult(0.0, 0.0, 0, method="constant")
    if imm.total_volume is None:
        raise ImproperWindow(
            f"{imm.name}: no closed volume available for the constant-radius route"
        )
    if radial_fn is not None:
        value = float(radial_fn(np.array([R0]))[0]) * imm.total_volume
        return QuadratureResult(value, 0.0, 1, method="constant")
    pts = sample_box(imm.chart, 5, 13)
    vals = point_fn(geometry(imm, pts))
    if np.ptp(vals) > 1e-8 * max(1.0, np.abs(vals).max()):
        raise ImproperWindow(
            f"{imm.name}: pointwise integrand is not homogeneous; the "
            "constant-radius reduction does not apply"
        )
    return QuadratureResult(
        float(vals[0]) * imm.total_volume, 0.0, 1, method="constant"
    )


# --- product (fiber x R^q) immersions ------------------------------------------


def _t_range(rad, region):
    c = rad.offset
    t_lo = math.sqrt(max(region.rho**2 - c**2, 0.0))
    if region.R <= c:
        return None
    t_hi = math.sqrt(region.R**2 - c**2) if math.isfinite(region.R) else math.inf
    if t_hi <= t_lo:
        return None
    return t_lo, t_hi


def _product_integral(imm, region, radial_fn, point_fn, point_order):
    rad = imm.radial
    rng = _t_range(rad, region)
    if rng is None:
        return QuadratureResult(0.0, 0.0, 0, method="product")
    t_lo, t_hi = rng
    c, q = rad.offset, rad.euclid_dim
    factor = rad.fiber_volume * unit_sphere_volume(q - 1)
    if radial_fn is not None:
        fn = lambda t: radial_fn(np.array([math.hypot(c, t)]))[0] * t ** (q - 1)
    else:
        rep = _profile_point_factory(imm)
        _check_fiber_homogeneity(imm, point_fn, rep, t_lo, t_hi)
        fn = (
            lambda t: point_fn(geometry(imm, rep(t).reshape(1, -1), order=point_order))[0]
            * t ** (q - 1)
        )
    value, err, neval = _quad(fn, t_lo, t_hi)
    return QuadratureResult(factor * value, factor * err, neval, method="product")


def _quad(fn, lo, hi):
    value, err, info = integrate.quad(
        fn, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=200, full_output=True
    )[:3]
    return value, err, int(info["neval"])


def _profile_point_factory(imm):
    """Parameter point sitting at Euclidean-block distance t from the axis."""
    rad = imm.radial
    lo, hi = imm.chart.box
    base = 0.5 * (np.asarray(lo) + np.asarray(hi))

    def rep(t):
        p = base.copy()
        p[rad.euclid_start :] = 0.0
        p[rad.euclid_start] = t
        return p

    return rep


def _check_fiber_homogeneity(imm, point_fn, rep, t_lo, t_hi):
    """The product reduction of pointwise integrands needs fiber-invariance."""
    span = (t_hi - t_lo) if math.isfinite(t_hi) else 2.0
    t_probe = t_lo + 0.5 * min(span, 2.0)
    pts = sample_box(imm.chart, 8, 29)
    pts[:, imm.radial.euclid_start :] = 0.0
    pts[:, imm.radial.euclid_start] = t_probe
    ref = point_fn(geometry(imm, rep(t_probe).reshape(1, -1)))[0]
    vals = point_fn(geometry(imm, pts))
    if np.abs(vals - ref).max() > 1e-8 * max(1.0, abs(ref)):
        raise ImproperWindow(
            f"{imm.name}: pointwise integrand varies along the fiber; "
            "use the pencil route"
        )


# --- generic pencil quadrature ---------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gauss_panels(lo, hi, panels):
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _region_bounds(imm, region, count, seed, pad):
    """Tight parameter-space bounding box of the region, or None if empty:
    the box of the `count` Halton samples (scrambled with `seed`) inside it,
    grown by `pad` times the chart box on each side and clamped to that box.

    Pencil panels and PDE meshes are laid inside this box; thin spikes past
    the sampling resolution plus pad would be missed, which the pads in use
    make irrelevant for the ball/annulus regions in use.
    """
    pts = sample_box(imm.chart, count, seed)
    r = radius_values(imm, pts)
    mask = (r > region.rho) & (r < region.R)
    if not mask.any():
        return None
    lo, hi = imm.chart.box
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    grow = pad * (hi - lo)
    return (
        np.maximum(lo, pts[mask].min(axis=0) - grow),
        np.minimum(hi, pts[mask].max(axis=0) + grow),
    )


def _topology_breaks(imm, region, bounds, nu=257, nv=257):
    """Outer abscissas where the slice interval structure changes (level sets
    tangent to the pencil direction); adaptive outer quadrature splits there.
    Candidates come off a grid and are then sharpened by bisection on the
    slice-count function, so jumps land exactly on subinterval edges."""
    u = np.linspace(bounds[0][0], bounds[1][0], nu)
    v = np.linspace(bounds[0][1], bounds[1][1], nv)

    def run_counts(us):
        U, V = np.meshgrid(us, v, indexing="ij")
        pts = np.column_stack([U.ravel(), V.ravel()])
        r = radius_values(imm, pts).reshape(len(us), nv)
        inside = (r > region.rho) & (r < region.R)
        return (np.diff(inside.astype(int), axis=1) == 1).sum(axis=1) + inside[:, 0]

    runs = run_counts(u)
    i = np.nonzero(np.diff(runs) != 0)[0]
    if not len(i):
        return []
    a, b, ca = u[i], u[i + 1], runs[i]
    for _ in range(48):  # all candidates bisect in lockstep
        m = 0.5 * (a + b)
        same = run_counts(m) == ca
        a, b = np.where(same, m, a), np.where(same, b, m)
    return (0.5 * (a + b)).tolist()


def _pencil_integral(imm, region, radial_fn, point_fn, point_order, resolution):
    if imm.dim > 3:
        raise ImproperWindow(
            f"generic quadrature supports dim <= 3; {imm.name} has dim {imm.dim} "
            "and declares no product structure"
        )
    bounds = _region_bounds(imm, region, 2048, 31, 0.08)
    if bounds is None:
        return QuadratureResult(
            0.0, 0.0, 0, method="pencil", notes=("region empty by sampling",)
        )
    if imm.dim == 1:
        value, cells = _pencil_innermost(
            imm, region, radial_fn, point_fn, point_order, [], resolution, bounds
        )
        coarse, _ = _pencil_innermost(
            imm, region, radial_fn, point_fn, point_order, [], resolution // 2, bounds
        )
        return QuadratureResult(value, abs(value - coarse), cells, method="pencil")
    if imm.dim == 2:
        cells = [0]

        def outer(x):
            val, sub = _pencil_innermost(
                imm, region, radial_fn, point_fn, point_order, [x], resolution, bounds
            )
            cells[0] += sub
            return val

        breaks = _topology_breaks(imm, region, bounds)
        value, err = integrate.quad(
            outer,
            bounds[0][0],
            bounds[1][0],
            points=breaks or None,
            epsabs=1e-9,
            epsrel=1e-8,
            limit=150,
        )
        return QuadratureResult(value, err, cells[0], method="pencil")
    # dim 3: composite panels on the two outer axes (coarse; catalog charts of
    # this dimension declare a product structure and never reach this route)
    value, cells = _pencil_level(
        imm, region, radial_fn, point_fn, point_order, [], resolution, bounds
    )
    coarse, _ = _pencil_level(
        imm, region, radial_fn, point_fn, point_order, [], max(resolution // 2, 4), bounds
    )
    err = abs(value - coarse)
    return QuadratureResult(value, err, cells, method="pencil")


def _pencil_level(imm, region, radial_fn, point_fn, point_order, prefix, resolution, bounds):
    axis = len(prefix)
    if axis == imm.dim - 1:
        return _pencil_innermost(
            imm, region, radial_fn, point_fn, point_order, prefix, resolution, bounds
        )
    panels = max(resolution // 8, 3)
    nodes, weights = _gauss_panels(bounds[0][axis], bounds[1][axis], panels)
    total = []
    cells = 0
    for x, w in zip(nodes, weights):
        val, sub = _pencil_level(
            imm, region, radial_fn, point_fn, point_order, prefix + [x], resolution, bounds
        )
        total.append(w * val)
        cells += sub
    return math.fsum(total), cells


def _pencil_innermost(imm, region, radial_fn, point_fn, point_order, prefix, resolution, bounds):
    axis = len(prefix)
    a, b = bounds[0][axis], bounds[1][axis]
    scan = np.linspace(a, b, max(4 * resolution, 64) + 1)
    pts = np.tile(np.asarray(prefix + [0.0]), (len(scan), 1))
    pts[:, axis] = scan
    r = radius_values(imm, pts)

    levels = [lv for lv in (region.rho, region.R) if lv > 0.0 and math.isfinite(lv)]
    breaks = [a, b] + polyline_crossings(imm, pts, r, levels)[:, axis].tolist()
    breaks = sorted(set(breaks))

    tiny = 1e-14 * max(1.0, abs(b - a))
    spans = [(lo, hi) for lo, hi in zip(breaks[:-1], breaks[1:]) if hi - lo > tiny]
    mids = np.tile(np.asarray(prefix + [0.0]), (len(spans), 1))
    mids[:, axis] = [0.5 * (lo + hi) for lo, hi in spans]
    mid_r = radius_values(imm, mids)
    nodes_all, weights_all = [], []
    cells = 0
    for (left, right), rm in zip(spans, mid_r):
        if not (region.rho < rm < region.R):
            continue
        panels = max(1, min(resolution, int(math.ceil((right - left) / (b - a) * resolution))))
        nd, wt = _gauss_panels(left, right, panels)
        nodes_all.append(nd)
        weights_all.append(wt)
        cells += panels
    if not nodes_all:
        return 0.0, 0
    nodes = np.concatenate(nodes_all)
    weights = np.concatenate(weights_all)
    P = np.tile(np.asarray(prefix + [0.0]), (len(nodes), 1))
    P[:, axis] = nodes
    order = max(point_order if point_fn is not None else 1, 1)
    g = geometry(imm, P, order=order)
    density = g.sqrt_det
    if radial_fn is not None:
        vals = radial_fn(g.r) * density
    else:
        vals = point_fn(g) * density
    return float(math.fsum((weights * vals).tolist())), cells


# --- Gaussian-weighted volumes ----------------------------------------------------


def _gamma_tail(p: float, a: float, x: float) -> float:
    """Integral over (x, inf) of t^p * exp(-a t^2) dt via the incomplete gamma."""
    s = (p + 1.0) / 2.0
    return 0.5 * math.gamma(s) * a ** (-s) * float(gammaincc(s, a * x * x))


def _euclidean_majorant(imm: Immersion) -> float:
    """Fit c with Vol(D_t) <= c t^n on the computed window (x10 safety)."""
    n = imm.dim
    window = imm.properness_radius
    best = 0.0
    for frac in (0.35, 0.6, 0.85):
        t = frac * window
        if t <= 0:
            continue
        vol = region_volume(ExtrinsicRegion(imm, 0.0, t)).value
        best = max(best, vol / t**n)
    if best <= 0.0:
        raise TruncationFailure(
            f"{imm.name}: no extrinsic ball volume inside the covered window "
            f"(radius {window:.3g}); cannot fit a growth majorant"
        )
    return 10.0 * best


def _truncation_radius(imm: Immersion, lam: float, power: int, tol: float):
    """Smallest R with the fitted tail bound below tol; the bound is
    c * n * integral over (R, inf) of t^(n-1+power) exp(-lam t^2/2) dt."""
    n = imm.dim
    c = _euclidean_majorant(imm)
    a = lam / 2.0

    def tail(R):
        return c * n * _gamma_tail(n - 1 + power, a, R)

    R_hi = imm.properness_radius
    if tail(R_hi) > tol:
        raise TruncationFailure(
            f"{imm.name}: tail bound {tail(R_hi):.3e} at the properness window "
            f"{R_hi:.3g} exceeds tolerance {tol:.1e}"
        )
    R_lo = 1e-3 * R_hi
    if tail(R_lo) <= tol:
        return R_lo, tail(R_lo)
    R = brentq(lambda s: tail(s) - tol, R_lo, R_hi, xtol=1e-10)
    return R, tail(R)


def _weighted_integral(imm: Immersion, lam: float, power: int, tol: float):
    if lam <= 0:
        raise ValueError("the Gaussian weight needs lam > 0")
    weight = lambda r: r**power * np.exp(-lam * r**2 / 2.0)
    if imm.constant_radius is not None:
        res = region_integral(
            imm, ExtrinsicRegion(imm, 0.0, math.inf), radial_fn=weight, method="constant"
        )
        res.notes = ("compact: no truncation needed",)
        return res
    R_max, tail = _truncation_radius(imm, lam, power, tol)
    res = region_integral(imm, ExtrinsicRegion(imm, 0.0, R_max), radial_fn=weight)
    res.tail = tail
    res.error += tail
    res.notes = (f"truncated at R={R_max:.6g}",)
    return res


def gaussian_volume(imm: Immersion, lam: float, tol: float = 1e-10) -> QuadratureResult:
    """Integral of exp(-lam r^2 / 2) dV over the whole immersion."""
    return _weighted_integral(imm, lam, 0, tol)


def second_moment(imm: Immersion, lam: float, tol: float = 1e-10) -> QuadratureResult:
    """Integral of r^2 exp(-lam r^2 / 2) dV over the whole immersion."""
    return _weighted_integral(imm, lam, 2, tol)


@dataclass
class IdentityMargin:
    name: str
    lhs: float
    rhs: float
    margin: float
    tol: float
    verdict: str
    notes: tuple = field(default=())


def weighted_identity_check(imm: Immersion, lam: float, tol: float = 1e-3) -> IdentityMargin:
    """Relative defect of lam * second_moment = n * gaussian_volume."""
    m0 = gaussian_volume(imm, lam)
    m2 = second_moment(imm, lam)
    n = imm.dim
    lhs = lam * m2.value
    rhs = n * m0.value
    margin = abs(lhs - rhs) / abs(rhs)
    combined = max(tol, 4.0 * (lam * m2.error + n * m0.error) / abs(rhs))
    return IdentityMargin(
        name="weighted-volume-identity",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        tol=combined,
        verdict="PASS" if margin < combined else "FAIL",
    )


# --- the tail second moment and the parabolicity integral ------------------------


@dataclass
class PsiCurve:
    radii: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    tails: np.ndarray
    closed_form: np.ndarray | None = None
    notes: tuple = field(default=())


def psi(imm: Immersion, lam: float, radii, tol: float = 1e-10) -> PsiCurve:
    """Tail weighted second moment Psi(R) = integral over {r > R} of
    r^2 exp(-lam r^2/2) dV, with truncation tails; cylinders also carry the
    closed form for cross-checking."""
    if lam <= 0:
        raise ValueError("psi needs lam > 0")
    radii = np.asarray(radii, dtype=float)
    weight = lambda r: r**2 * np.exp(-lam * r**2 / 2.0)
    values, errors, tails = [], [], []
    if imm.constant_radius is not None:
        R0, vol = imm.constant_radius, imm.total_volume
        for R in radii:
            values.append(weight(np.array([R0]))[0] * vol if R < R0 else 0.0)
            errors.append(0.0)
            tails.append(0.0)
        return PsiCurve(radii, np.array(values), np.array(errors), np.array(tails))
    R_max, tail = _truncation_radius(imm, lam, 2, tol)
    for R in radii:
        if R >= R_max:
            values.append(0.0)
            errors.append(tail)
            tails.append(tail)
            continue
        res = region_integral(imm, ExtrinsicRegion(imm, R, R_max), radial_fn=weight)
        values.append(res.value)
        errors.append(res.error + tail)
        tails.append(tail)
    closed = None
    if imm.radial is not None:
        closed = np.array([cylinder_psi_closed_form(imm, lam, R) for R in radii])
    return PsiCurve(radii, np.array(values), np.array(errors), np.array(tails), closed)


def cylinder_psi_closed_form(imm: Immersion, lam: float, R: float) -> float:
    """Exact Psi for product immersions via incomplete-gamma tails:

        Psi(R) = fiber_vol * vol(S^(q-1)) * e^(-lam c^2/2)
                 * [c^2 G(q-1) + G(q+1)](t_R, inf),  t_R = sqrt(max(R^2-c^2, 0))

    with G(p) the Gaussian power tail.  For a fiber S^1(1) and q = 2 this
    collapses to 2 e^(-R^2/2) (R^2/2 + 1) times the two circle volumes.
    """
    rad = imm.radial
    c, q = rad.offset, rad.euclid_dim
    a = lam / 2.0
    t_R = math.sqrt(max(R**2 - c**2, 0.0))
    factor = rad.fiber_volume * unit_sphere_volume(q - 1) * math.exp(-a * c * c)
    return factor * (c * c * _gamma_tail(q - 1, a, t_R) + _gamma_tail(q + 1, a, t_R))


@dataclass
class ParabolicityReport:
    value: float  # integral of t e^(-lam t^2/2) / Psi(t) over [R0, R_max]
    trend: str  # DIVERGENT-LIKE | CONVERGENT-LIKE
    log_slope: float
    grid: np.ndarray
    integrand: np.ndarray
    notes: tuple = ("trend classification is a diagnostic, not a proof",)


def parabolicity_integral(
    imm: Immersion, lam: float, R0: float, R_max: float, grid_points: int = 33
) -> ParabolicityReport:
    """Partial sufficient-condition integral and a decay-trend classification.

    The integrand behaves like t^(1-d) when Psi ~ poly(deg d) * exp(-lam t^2/2);
    a tail log-slope >= -1.5 (1/t or slower) is classified divergent-like.
    """
    grid = np.linspace(R0, R_max, grid_points)
    curve = psi(imm, lam, grid)
    if np.any(curve.values <= 0.0) or np.any(curve.values < 1e-300):
        bad = grid[int(np.argmin(curve.values))]
        raise PsiUnderflow(
            f"Psi underflows at R={bad:.6g} before R_max={R_max:.6g}"
        )
    integrand = grid * np.exp(-lam * grid**2 / 2.0) / curve.values
    value = float(np.trapezoid(integrand, grid))
    k = max(grid_points // 3, 4)
    slope = np.polyfit(np.log(grid[-k:]), np.log(integrand[-k:]), 1)[0]
    trend = "DIVERGENT-LIKE" if slope >= -1.5 else "CONVERGENT-LIKE"
    return ParabolicityReport(value, trend, float(slope), grid, integrand)


# --- the flux identity -------------------------------------------------------------


@dataclass
class FluxIdentityReport:
    R: float
    lhs: float  # volume integral of e^(-lam r^2/2)(n - lam r^2)
    rhs: float  # R e^(-lam R^2/2) * boundary flux
    margin: float
    factor_lhs: float  # 1 - int |H|^2 / (n lam Vol)
    factor_rhs: float  # int (1 - lam r^2/n) e^(lam (R^2 - r^2)/2) / Vol
    factor_margin: float
    rhs_nonnegative: bool
    tol: float
    verdict: str


def flux_identity_check(
    imm: Immersion, lam: float, R: float, tol: float = 1e-3
) -> FluxIdentityReport:
    """Both sides of the divergence identity, computed independently:
    interior quadrature against level-set flux, plus the averaged form that
    rewrites the curvature factor as a weighted volume ratio."""
    imm.require_window(R)
    n = imm.dim
    region = ExtrinsicRegion(imm, 0.0, R)
    method = "pencil" if (imm.dim <= 2 and imm.constant_radius is None) else "auto"
    lhs = region_integral(
        imm,
        region,
        radial_fn=lambda r: np.exp(-lam * r**2 / 2.0) * (n - lam * r**2),
        method=method,
    ).value
    boundary = boundary_area_and_flux(imm, R)
    rhs = R * math.exp(-lam * R**2 / 2.0) * boundary.flux
    vol = region_integral(imm, region, method=method).value
    scale = max(abs(rhs), abs(lhs), 1e-9 * n * vol)
    margin = abs(lhs - rhs) / scale

    h2 = region_integral(
        imm, region, point_fn=lambda g: g.normH**2, method=method
    ).value
    factor_lhs = 1.0 - h2 / (n * lam * vol) if lam != 0 else math.nan
    avg = region_integral(
        imm,
        region,
        radial_fn=lambda r: (1.0 - lam * r**2 / n) * np.exp(lam * (R**2 - r**2) / 2.0),
        method=method,
    ).value
    factor_rhs = avg / vol
    factor_margin = abs(factor_lhs - factor_rhs) / max(1.0, abs(factor_rhs))
    ok = margin < tol and factor_margin < tol
    return FluxIdentityReport(
        R=R,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        factor_lhs=factor_lhs,
        factor_rhs=factor_rhs,
        factor_margin=factor_margin,
        rhs_nonnegative=rhs >= -tol * scale,
        tol=tol,
        verdict="PASS" if ok else "FAIL",
    )
