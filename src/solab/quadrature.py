"""Integration over extrinsic balls, annuli and the whole submanifold.

Two routes coexist:

* product immersions (cylinders, planes) reduce every radial integral to one
  dimension through their fiber decomposition, and pointwise integrands are
  verified to be radial before using the same reduction;
* generic charts are integrated by pencil decomposition: one batched
  adaptive Gauss-Kronrod rule runs along every chart axis, and along the
  innermost axis the sublevel conditions rho < r < R are resolved into
  subintervals by root finding before quadrature.

Improper Gaussian-weighted integrals are truncated at a radius where a fitted
Euclidean-growth majorant c * t^n pushes the analytic tail below tolerance;
the tail bound is carried in every result.  All reductions run in a fixed
order, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import gammaincc

from .crossing import level_crossings, pencil_scan
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

    def contains(self, r):
        """rho < r < R; with rho = 0 the point r = 0 belongs too."""
        return ((r > self.rho) | (self.rho == 0.0)) & (r < self.R)


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
    return _pencil_integral(imm, region, radial_fn, point_fn, point_order)


def region_volume(region: ExtrinsicRegion, method: str = "auto"):
    """Induced volume of the extrinsic region (integral of sqrt(det g))."""
    region.imm.require_window(region.R)
    return region_integral(region.imm, region, method=method)


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

# The Gauss-Kronrod (7, 15) rule on [-1, 1] of QUADPACK's qk15 (Piessens et
# al., 1983): the Kronrod nodes, with the 7 Gauss nodes at odd positions, and
# the weights that integrate the Legendre polynomials up to degree 14 exactly.
_X = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
      0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
      0.207784955007898468)
_GK_X = np.concatenate([np.negative(_X), [0.0], _X[::-1]])
_GK_W = np.linalg.solve(np.polynomial.legendre.legvander(_GK_X, 14).T, 2.0 * np.eye(15)[0])
_GK_G = np.polynomial.legendre.leggauss(7)[1]
_EPSREL = 1e-10  # each integral's error budget, relative to its integral of |f|
_ROUNDS = 60  # halvings before the panels left are accepted as they stand
_LIMIT = 128  # active panels of one integral before they are accepted as they stand
_SCAN = 128  # scan segments along a pencil


def _gauss_kronrod(f, lo, hi, owner, count):
    """Adaptive Gauss-Kronrod (7, 15) quadrature of `count` integrals at once.

    Panel [lo[p], hi[p]] belongs to integral owner[p].  Each round calls
    f(x, owners) once on the nodes of all active panels; f returns the values
    and the errors they carry.  A panel's error is QUADPACK's qk15 estimate
    from its own |K - G|.  An integral is done when these sum to at most
    _EPSREL times its integral of |f|; until then a panel within half that
    budget, pro rata to length, is accepted and the rest are halved.  The two
    halves of a panel are also accepted when their sum agrees with the
    panel's value to 1e-5 while their estimates keep 3/4 of its: the values
    are noise-limited and halving cannot help (QUADPACK's roundoff test).
    An integral with more than _LIMIT active panels, or still active after
    _ROUNDS halvings, keeps its panels as they stand (QUADPACK's limit).
    Returns the values, the errors (panel estimates plus the carried errors
    they weigh) and the number of panels accepted.
    """
    width = np.bincount(owner, hi - lo, count)
    spent, scale, parts = np.zeros(count), np.zeros(count), []
    for rnd in range(_ROUNDS + 1):
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * _GK_X
        v, e = (a.reshape(x.shape) for a in f(x.ravel(), np.repeat(owner, 15)))
        kron = half * (v @ _GK_W)
        absk = half * (np.abs(v) @ _GK_W)
        asc = half * (np.abs(v - (v @ _GK_W / 2.0)[:, None]) @ _GK_W)
        err = np.abs(kron - half * (v[:, 1::2] @ _GK_G))
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5), err)
        err = np.maximum(err, 50.0 * np.finfo(float).eps * absk)
        tol = _EPSREL * (scale + np.bincount(owner, absk, count))
        done = (spent + np.bincount(owner, err, count) <= tol)[owner] | (rnd == _ROUNDS)
        done |= (np.bincount(owner, minlength=count) > _LIMIT)[owner]
        done |= err <= 0.5 * tol[owner] * (hi - lo) / width[owner]
        if rnd:  # the halves of parent k sit at k and k + n
            n = len(parent_err)
            pair_k, pair_err = kron[:n] + kron[n:], err[:n] + err[n:]
            noise = np.abs(pair_k - parent_k) <= 1e-5 * np.abs(pair_k)
            done |= np.tile(noise & (pair_err > 0.75 * parent_err), 2)
        parts.append((owner[done], kron[done], err[done] + half[done] * (e[done] @ _GK_W)))
        spent += np.bincount(owner[done], err[done], count)
        scale += np.bincount(owner[done], absk[done], count)
        lo, hi, owner = lo[~done], hi[~done], owner[~done]
        parent_k, parent_err = kron[~done], err[~done]
        if not len(lo):
            break
        mid = 0.5 * (lo + hi)
        lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)
    owner, kron, err = (np.concatenate(a) for a in zip(*parts))
    return np.bincount(owner, kron, count), np.bincount(owner, err, count), len(kron)


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


def _topology_breaks(imm, region, bounds, prefix):
    """Where the number of runs inside the region along the pencils changes
    (level sets tangent to them) on the axis before the last, for each row
    of prefix: returns the rows and the abscissas, where the panels of that
    axis split so that no panel hides the edge of the region.  Candidates
    come off a grid and are sharpened by bisection, all in lockstep."""
    m, k = prefix.shape
    scan = np.linspace(bounds[0][-1], bounds[1][-1], _SCAN + 1)

    def run_counts(rows, us):
        pencils = np.column_stack([prefix[rows], us])
        inside = region.contains(pencil_scan(imm, pencils, scan)[1])
        return (np.diff(inside.astype(int), axis=1) == 1).sum(axis=1) + inside[:, 0]

    u = np.linspace(bounds[0][k], bounds[1][k], 257)
    runs = run_counts(np.repeat(np.arange(m), len(u)), np.tile(u, m)).reshape(m, len(u))
    q, i = np.nonzero(np.diff(runs, axis=1) != 0)
    a, b, ca = u[i], u[i + 1], runs[q, i]
    for _ in range(48 if q.size else 0):  # no run count changes: nothing to sharpen
        mid = 0.5 * (a + b)
        same = run_counts(q, mid) == ca
        a, b = np.where(same, mid, a), np.where(same, b, mid)
    return q, 0.5 * (a + b)


def _panels(owner, ends):
    """Consecutive pairs of each owner's sorted ends: lo, hi and owner."""
    order = np.lexsort((ends, owner))
    owner, ends = owner[order], ends[order]
    keep = owner[:-1] == owner[1:]
    return ends[:-1][keep], ends[1:][keep], owner[:-1][keep]


def _pencil_spans(imm, region, prefix, a, b):
    """The parts of [a, b] inside the region along the pencils (prefix, x):
    returns the spans' ends and the row of prefix each belongs to.  A scan
    segment is cut where one end has r < level and the other r >= level,
    and all cuts of all pencils are solved in one batch."""
    levels = np.array([lv for lv in (region.rho, region.R) if 0.0 < lv < math.inf])
    x, r = pencil_scan(imm, prefix, np.linspace(a, b, _SCAN + 1))
    below = r < levels[:, None, None]
    k, q, j = np.nonzero(below[..., :-1] != below[..., 1:])
    left, right = np.column_stack([prefix[q], x[q, j]]), np.column_stack([prefix[q], x[q, j + 1]])
    roots, _ = level_crossings(imm, left, right, r[q, j], r[q, j + 1], levels[k])
    m = len(prefix)
    ends = np.concatenate([np.full(m, a), np.full(m, b), roots[:, -1]])
    lo, hi, owner = _panels(np.concatenate([np.arange(m), np.arange(m), q]), ends)
    keep = hi - lo > 1e-14 * max(1.0, abs(b - a))
    lo, hi, owner = lo[keep], hi[keep], owner[keep]
    mids = np.column_stack([prefix[owner], 0.5 * (lo + hi)])
    inside = region.contains(radius_values(imm, mids))
    return lo[inside], hi[inside], owner[inside]


def _pencil_integral(imm, region, radial_fn, point_fn, point_order):
    """Iterated integral, last axis innermost, with one batched adaptive rule
    per axis: an outer axis integrates the next one at all nodes of a round
    at once (the axis before the last split at its topology breaks), the
    innermost f dV over the spans of its pencils."""
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
    order = max(point_order if point_fn is not None else 1, 1)
    cells = [0]

    def axis(prefix):
        m, k = prefix.shape
        a, b = bounds[0][k], bounds[1][k]
        if k < imm.dim - 1:
            owner, ends = np.repeat(np.arange(m), 2), np.tile([a, b], m)
            if k == imm.dim - 2:
                q, u = _topology_breaks(imm, region, bounds, prefix)
                owner, ends = np.concatenate([owner, q]), np.concatenate([ends, u])
            lo, hi, owner = _panels(owner, ends)
            inner = lambda x, i: axis(np.column_stack([prefix[i], x]))
            return _gauss_kronrod(inner, lo, hi, owner, m)[:2]

        def f(x, i):
            g = geometry(imm, np.column_stack([prefix[i], x]), order=order)
            vals = (radial_fn(g.r) if radial_fn is not None else point_fn(g)) * g.sqrt_det
            return vals, np.zeros_like(vals)

        value, error, panels = _gauss_kronrod(f, *_pencil_spans(imm, region, prefix, a, b), m)
        cells[0] += panels
        return value, error

    value, error = axis(np.empty((1, 0)))
    return QuadratureResult(float(value[0]), float(error[0]), cells[0], method="pencil")


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
