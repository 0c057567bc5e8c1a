"""Integration over extrinsic balls, annuli and the whole submanifold.

The immersion's route (``Immersion.route``) picks how: a spherical image
multiplies its closed volume, and one batched adaptive Gauss-Kronrod rule
integrates the other two routes:

* declared products (cylinders, planes) reduce every radial integral to one
  dimension through their fiber decomposition, and pointwise integrands are
  verified to be radial before using the same reduction; the rule runs over
  the distance t from the axis, all jobs at once;
* charts are integrated by pencil decomposition: the rule runs along every
  chart axis, and along the innermost axis the sublevel conditions
  rho < r < R are resolved into subintervals by root finding before
  quadrature.

Improper Gaussian-weighted integrals run up to the properness window W, and
the analytic tail past W of a fitted Euclidean-growth majorant c * t^n, which
must lie below tolerance, is carried in every result.  All reductions, the
rule's node sums among them, run in a fixed order, so results are
reproducible bit for bit and independent of the batch they are computed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .crossing import level_crossings, pencil_scan
from .errors import ImproperWindow, InvalidParams, PsiUnderflow, TruncationFailure
from .geometry import Immersion, geometry, radius_values, unit_sphere_volume
from .levelset import boundary_area_and_flux
from .sampling import memoized, sample_box

__all__ = [
    "ExtrinsicRegion",
    "QuadratureResult",
    "PsiCurve",
    "region_volume",
    "RegionJob",
    "region_integral",
    "region_integrals",
    "gaussian_volume",
    "second_moment",
    "Margin",
    "compare",
    "monotone_margins",
    "weighted_identity_check",
    "psi",
    "cylinder_psi_closed_form",
    "parabolicity_integral",
    "flux_identity_check",
]

ROUNDING_FLOOR = 1e-9  # the least tolerance of a comparison: rounding in its sums
FLUX_SLACK = 1e-3  # relative slack of the flux identity: the boundary flux carries no error
TAIL_TOL = 1e-10  # a tail bound past the window must lie below this, absolute or relative
PSI_GRID = 33  # radii of the parabolicity integral's Psi grid


@dataclass(frozen=True)
class ExtrinsicRegion:
    """The annulus {rho < r < R} of an immersion, as a parameter-space set."""

    imm: Immersion
    rho: float
    R: float

    def __post_init__(self):
        if not (0.0 <= self.rho < self.R):
            raise InvalidParams(f"need 0 <= rho < R, got rho={self.rho}, R={self.R}")


@dataclass
class QuadratureResult:
    value: float
    error: float  # quadrature error estimate (tail included)
    cells: int
    tail: float = 0.0  # analytic bound on the truncated remainder
    method: str = ""
    notes: tuple = field(default=())


# --- dispatch ---------------------------------------------------------------


def _ones(r):
    return np.ones_like(r)


@dataclass(frozen=True)
class RegionJob:
    """One integral of f dV over a region: f is radial_fn(r) if given, else
    point_fn(geom); the volume when neither is."""

    region: ExtrinsicRegion
    radial_fn: object = None
    point_fn: object = None

    def __post_init__(self):
        if self.radial_fn is None and self.point_fn is None:
            object.__setattr__(self, "radial_fn", _ones)


GEOMETRY_BLOCK = 1 << 16  # rows per geometry call of a round: bounds its memory


def _job_values(imm, jobs, pts, of):
    """f at each row of pts for its job jobs[of[row]], radial_fn(r) from a
    first-order geometry and point_fn(geom) from a second-order one, with
    one geometry call per order on each block of GEOMETRY_BLOCK rows; a
    point's geometry does not depend on its batch, so blocks change no bit.
    Returns f and sqrt(det g) at the rows."""
    vals, sqrt_det = np.empty(len(pts)), np.empty(len(pts))
    orders = np.array([1 if job.radial_fn is not None else 2 for job in jobs])[of]
    for start in range(0, len(pts), GEOMETRY_BLOCK):
        block = orders[start : start + GEOMETRY_BLOCK]
        for order in np.unique(block):
            at = start + np.flatnonzero(block == order)
            g = geometry(imm, pts[at], order=int(order))
            sqrt_det[at] = g.sqrt_det
            for t in np.unique(of[at]):
                sel, job = of[at] == t, jobs[t]
                if job.radial_fn is not None:
                    vals[at[sel]] = job.radial_fn(g.r[sel])
                else:
                    vals[at[sel]] = job.point_fn(g.select(sel))
    return vals, sqrt_det


def region_integrals(imm: Immersion, jobs) -> list[QuadratureResult]:
    """Integrate each job's f dV over its region, one result per job, on the
    immersion's route.

    On the product and chart routes all jobs run in one pass of the rule;
    every result is bit-identical to integrating that job on its own."""
    if imm.route == "constant":
        return [_constant_radius_integral(imm, job) for job in jobs]
    if imm.route == "product":
        return _product_integrals(imm, list(jobs))
    return _pencil_integrals(imm, list(jobs))


def region_integral(
    imm: Immersion, region: ExtrinsicRegion, radial_fn=None, point_fn=None
) -> QuadratureResult:
    """Integrate f dV over {rho < r < R}; f is radial_fn(r) or point_fn(geom)."""
    return region_integrals(imm, [RegionJob(region, radial_fn, point_fn)])[0]


def region_volume(region: ExtrinsicRegion):
    """Induced volume of the extrinsic region (integral of sqrt(det g))."""
    region.imm.require_window(region.R)
    return region_integral(region.imm, region)


# --- constant-radius (spherical) immersions -----------------------------------


def _constant_radius_integral(imm, job):
    R0 = imm.constant_radius
    if not (job.region.rho < R0 < job.region.R):
        return QuadratureResult(0.0, 0.0, 0, method="constant")
    if imm.total_volume is None:
        raise ImproperWindow(
            f"{imm.name}: no closed volume available for the constant-radius route"
        )
    if job.radial_fn is not None:
        value = float(job.radial_fn(np.array([R0]))[0]) * imm.total_volume
        return QuadratureResult(value, 0.0, 1, method="constant")
    pts = sample_box(imm.chart, 5, 13)
    vals = job.point_fn(geometry(imm, pts))
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
    """The distances t from the axis inside the region, or None if empty."""
    if not math.isfinite(region.R):
        raise ImproperWindow(
            f"{region.imm.name}: R = inf on the product route has no tail bound; "
            "truncate first"
        )
    c = rad.offset
    t_lo = math.sqrt(max(region.rho**2 - c**2, 0.0))
    t_hi = math.sqrt(max(region.R**2 - c**2, 0.0))
    return (t_lo, t_hi) if t_hi > t_lo else None


def _product_integrals(imm, jobs):
    """The t-ranges of all jobs in one pass of the rule: f dV is f at the
    profile point rep(t) times fiber_volume * vol(S^(q-1)) * t^(q-1) dt."""
    rad = imm.radial
    out = [QuadratureResult(0.0, 0.0, 0, method="product") for _ in jobs]
    ranges = [_t_range(rad, job.region) for job in jobs]
    live = [t for t, rng in enumerate(ranges) if rng is not None]
    if not live:
        return out
    jobs = [jobs[t] for t in live]
    lo, hi = np.array([ranges[t] for t in live]).T
    rep = _profile_point_factory(imm)
    for job, t_lo, t_hi in zip(jobs, lo, hi):
        if job.radial_fn is None:
            _check_fiber_homogeneity(imm, job.point_fn, rep, t_lo, t_hi)
    q = rad.euclid_dim

    def f(x, i):
        vals, _ = _job_values(imm, jobs, rep(x), i)
        return vals * x ** (q - 1), np.zeros_like(x)

    value, error, panels = _gauss_kronrod(f, lo, hi, np.arange(len(jobs)), len(jobs))
    factor = rad.fiber_volume * unit_sphere_volume(q - 1)
    for t, v, e, c in zip(live, value, error, panels):
        out[t] = QuadratureResult(float(factor * v), float(factor * e), int(c), method="product")
    return out


def _profile_point_factory(imm):
    """Parameter points sitting at Euclidean-block distances t from the axis."""
    rad = imm.radial
    lo, hi = imm.chart.box
    base = 0.5 * (np.asarray(lo) + np.asarray(hi))

    def rep(t):
        p = np.tile(base, (len(t), 1))
        p[:, rad.euclid_start :] = 0.0
        p[:, rad.euclid_start] = t
        return p

    return rep


def _check_fiber_homogeneity(imm, point_fn, rep, t_lo, t_hi):
    """The product reduction of pointwise integrands needs fiber-invariance."""
    t_probe = t_lo + 0.5 * min(t_hi - t_lo, 2.0)
    pts = sample_box(imm.chart, 8, 29)
    pts[:, imm.radial.euclid_start :] = 0.0
    pts[:, imm.radial.euclid_start] = t_probe
    ref = point_fn(geometry(imm, rep(np.array([t_probe]))))[0]
    vals = point_fn(geometry(imm, pts))
    if np.abs(vals - ref).max() > 1e-8 * max(1.0, abs(ref)):
        raise ImproperWindow(
            f"{imm.name}: pointwise integrand varies along the fiber; "
            "use the pencil route"
        )


# --- the batched adaptive Gauss-Kronrod rule --------------------------------------

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


def _dot(a, w):
    """a @ w summed column by column, a[:, 0] w[0] + a[:, 1] w[1] + ..., so
    a row's bits depend on the row alone: not on its batch, nor on BLAS."""
    out = a[:, 0] * w[0]
    for j in range(1, len(w)):
        out = out + a[:, j] * w[j]
    return out


def _gauss_kronrod(f, lo, hi, owner, count):
    """Adaptive Gauss-Kronrod (7, 15) quadrature of `count` integrals at once.

    Panel [lo[p], hi[p]] belongs to integral owner[p].  Each round calls
    f(x, owners) once on the nodes of all active panels; f returns the values
    and the errors they carry.  A panel's error is QUADPACK's qk15 estimate
    from its own |K - G|.  An integral is done when these sum to at most
    _EPSREL times its integral of |f|; until then a panel within half that
    budget, pro rata to length, is accepted and the rest are halved.  The two
    halves of a panel are also accepted when their sum agrees with the
    panel's value to 1e-5, by a change no smaller than 1e-3 of their
    estimates, while these keep 3/4 of the panel's: the values are
    noise-limited and halving cannot help (QUADPACK's roundoff test).  On an
    under-resolved peak the change is far below the estimates instead.
    An integral with more than _LIMIT active panels, or still active after
    _ROUNDS halvings, keeps its panels as they stand (QUADPACK's limit).
    The node sums run in a fixed order (see _dot) and all else is decided
    per integral, so an integral's results are those of running it alone.
    Returns the values, the errors (panel estimates plus the carried errors
    they weigh) and the number of panels accepted, per integral.
    """
    width = np.bincount(owner, hi - lo, count)
    spent, scale, accepted = np.zeros(count), np.zeros(count), []
    for rnd in range(_ROUNDS + 1):
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * _GK_X
        v, e = (a.reshape(x.shape) for a in f(x.ravel(), np.repeat(owner, 15)))
        vk = _dot(v, _GK_W)
        kron = half * vk
        absk = half * _dot(np.abs(v), _GK_W)
        asc = half * _dot(np.abs(v - (vk / 2.0)[:, None]), _GK_W)
        err = np.abs(kron - half * _dot(v[:, 1::2], _GK_G))
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
            change = np.abs(pair_k - parent_k)
            noise = (change <= 1e-5 * np.abs(pair_k)) & (change >= 1e-3 * pair_err)
            done |= np.tile(noise & (pair_err > 0.75 * parent_err), 2)
        carried = _dot(e[done], _GK_W)
        accepted.append((owner[done], kron[done], err[done] + half[done] * carried))
        spent += np.bincount(owner[done], err[done], count)
        scale += np.bincount(owner[done], absk[done], count)
        lo, hi, owner = lo[~done], hi[~done], owner[~done]
        parent_k, parent_err = kron[~done], err[~done]
        if not len(lo):
            break
        mid = 0.5 * (lo + hi)
        lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)
    owner, kron, err = (np.concatenate(a) for a in zip(*accepted))
    return (
        np.bincount(owner, kron, count),
        np.bincount(owner, err, count),
        np.bincount(owner, minlength=count),
    )


# --- generic pencil quadrature ---------------------------------------------------


def _region_bounds(imm, regions, count, seed, pad):
    """Tight parameter-space bounding box of each region, or None where it is
    empty: the box of the `count` Halton samples (scrambled with `seed`)
    inside it, grown by `pad` times the chart box on each side and clamped to
    that box.  One sample set and one radius evaluation serve all regions.

    Pencil panels and PDE meshes are laid inside this box; thin spikes past
    the sampling resolution plus pad would be missed, which the pads in use
    make irrelevant for the ball/annulus regions in use.
    """
    pts = sample_box(imm.chart, count, seed)
    r = radius_values(imm, pts)
    lo, hi = imm.chart.box
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    grow = pad * (hi - lo)
    out = []
    for region in regions:
        mask = (r > region.rho) & (r < region.R)
        out.append(
            (
                np.maximum(lo, pts[mask].min(axis=0) - grow),
                np.minimum(hi, pts[mask].max(axis=0) + grow),
            )
            if mask.any()
            else None
        )
    return out


@dataclass(frozen=True)
class _Boxes:
    """The regions of one pass and their parameter boxes, one row per job;
    `box` numbers the distinct boxes, so that jobs sharing one also share
    its scans."""

    rho: np.ndarray
    R: np.ndarray
    lo: np.ndarray  # (jobs, dim)
    hi: np.ndarray
    box: np.ndarray

    @classmethod
    def build(cls, regions, bounds):
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        box = np.unique(np.column_stack([lo, hi]), axis=0, return_inverse=True)[1]
        return cls(
            np.array([region.rho for region in regions], dtype=float),
            np.array([region.R for region in regions], dtype=float),
            lo,
            hi,
            box.reshape(-1),
        )

    def contains(self, r, job):
        """rho < r < R for the (rows, ...) radii r, each row against the
        region of its job; with rho = 0 the point r = 0 belongs too."""
        rho = self.rho[job].reshape(-1, *[1] * (r.ndim - 1))
        R = self.R[job].reshape(rho.shape)
        return ((r > rho) | (rho == 0.0)) & (r < R)


def _scan(imm, boxes, pencils, job):
    """pencil_scan of each row's pencil across its job's box on the last
    axis, each distinct (box, pencil) scanned once: returns the abscissas and
    radii of the distinct scans and each row's index into them."""
    key = np.column_stack([boxes.box[job], pencils])
    _, first, inv = np.unique(key, axis=0, return_index=True, return_inverse=True)
    t = job[first]
    nodes = np.linspace(boxes.lo[t, -1], boxes.hi[t, -1], _SCAN + 1, axis=-1)
    x, r = pencil_scan(imm, pencils[first], nodes)
    return x, r, inv.reshape(-1)


def _topology_breaks(imm, boxes, prefix, job):
    """Where the number of runs inside the region along the pencils changes
    (level sets tangent to them) on the axis before the last, for each row
    of prefix: returns the rows and the abscissas, where the panels of that
    axis split so that no panel hides the edge of the region.  Candidates
    come off a grid and are sharpened by bisection, all in lockstep."""
    m, k = prefix.shape

    def run_counts(rows, us):
        _, r, at = _scan(imm, boxes, np.column_stack([prefix[rows], us]), job[rows])
        counts = np.empty(len(rows), int)
        for s in range(0, len(rows), 1024):  # blocks of rows bound the memory
            block = slice(s, s + 1024)
            inside = boxes.contains(r[at[block]], job[rows[block]])
            counts[block] = (inside[:, 1:] & ~inside[:, :-1]).sum(axis=1) + inside[:, 0]
        return counts

    u = np.linspace(boxes.lo[job, k], boxes.hi[job, k], 257, axis=-1)
    runs = run_counts(np.repeat(np.arange(m), u.shape[1]), u.ravel()).reshape(u.shape)
    q, i = np.nonzero(np.diff(runs, axis=1) != 0)
    a, b, ca = u[q, i], u[q, i + 1], runs[q, i]
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


def _pencil_spans(imm, boxes, prefix, job):
    """The parts of [a, b], the last axis of each row's box, inside the row's
    region along the pencils (prefix, x): returns the spans' ends and the row
    of prefix each belongs to.  A scan segment is cut where one end has
    r < level and the other r >= level, and all cuts of all pencils and
    levels are solved in one batch."""
    a, b = boxes.lo[job, -1], boxes.hi[job, -1]
    levels = np.stack([boxes.rho[job], boxes.R[job]])
    x, r, at = _scan(imm, boxes, prefix, job)
    below = r[at] < levels[..., None]
    cut = (below[..., :-1] != below[..., 1:]) & ((0.0 < levels) & (levels < math.inf))[..., None]
    k, q, j = np.nonzero(cut)
    left = np.column_stack([prefix[q], x[at[q], j]])
    right = np.column_stack([prefix[q], x[at[q], j + 1]])
    roots, _ = level_crossings(imm, left, right, r[at[q], j], r[at[q], j + 1], levels[k, q])
    m = len(prefix)
    ends = np.concatenate([a, b, roots[:, -1]])
    lo, hi, owner = _panels(np.concatenate([np.arange(m), np.arange(m), q]), ends)
    keep = hi - lo > 1e-14 * np.maximum(1.0, np.abs(b - a))[owner]
    lo, hi, owner = lo[keep], hi[keep], owner[keep]
    mids = np.column_stack([prefix[owner], 0.5 * (lo + hi)])
    inside = boxes.contains(radius_values(imm, mids), job[owner])
    return lo[inside], hi[inside], owner[inside]


def _pencil_integrals(imm, jobs):
    """Iterated integrals, last axis innermost, of all jobs in one pass, with
    one batched adaptive rule per axis: an outer axis integrates the next one
    at all nodes of a round at once (the axis before the last split at its
    topology breaks), the innermost f dV over the spans of its pencils.

    Every row of every axis carries its job.  The jobs share one bounds
    sample, every scan of a distinct (box, pencil), one root batch per
    innermost call and one geometry call per derivative order per round; a
    job's panels, decisions and sums are those of the job run on its own,
    so the results are bit-identical to it."""
    if imm.dim > 3:
        raise ImproperWindow(
            f"generic quadrature supports dim <= 3; {imm.name} has dim {imm.dim} "
            "and declares no product structure"
        )
    out = [
        QuadratureResult(0.0, 0.0, 0, method="pencil", notes=("region empty by sampling",))
        for _ in jobs
    ]
    bounds = _region_bounds(imm, [job.region for job in jobs], 2048, 31, 0.08)
    live = [t for t, box in enumerate(bounds) if box is not None]
    if not live:
        return out
    jobs = [jobs[t] for t in live]
    boxes = _Boxes.build([job.region for job in jobs], [bounds[t] for t in live])
    cells = np.zeros(len(jobs))

    def axis(prefix, job):
        m, k = prefix.shape
        if k < imm.dim - 1:
            owner = np.repeat(np.arange(m), 2)
            ends = np.column_stack([boxes.lo[job, k], boxes.hi[job, k]]).ravel()
            if k == imm.dim - 2:
                q, u = _topology_breaks(imm, boxes, prefix, job)
                owner, ends = np.concatenate([owner, q]), np.concatenate([ends, u])
            lo, hi, owner = _panels(owner, ends)
            inner = lambda x, i: axis(np.column_stack([prefix[i], x]), job[i])
            return _gauss_kronrod(inner, lo, hi, owner, m)[:2]

        def f(x, i):
            vals, sqrt_det = _job_values(imm, jobs, np.column_stack([prefix[i], x]), job[i])
            return vals * sqrt_det, np.zeros_like(x)

        value, error, panels = _gauss_kronrod(f, *_pencil_spans(imm, boxes, prefix, job), m)
        cells[:] += np.bincount(job, panels, len(jobs))
        return value, error

    value, error = axis(np.empty((len(jobs), 0)), np.arange(len(jobs)))
    for t, v, e, c in zip(live, value, error, cells):
        out[t] = QuadratureResult(float(v), float(e), int(c), method="pencil")
    return out


# --- Gaussian-weighted volumes ----------------------------------------------------


def _gamma_tail(p: int, a: float, x: float) -> float:
    """Integral over (x, inf) of t^p * exp(-a t^2) dt = Gamma(s, a x^2) / (2 a^s),
    s = (p + 1) / 2, for an integer p >= 0.

    The upper incomplete gamma is a sum of positive terms, so nothing cancels
    (DLMF 8.4.8, 8.4.6, 8.8.2): Gamma(k, y) = (k - 1)! e^-y sum_{j<k} y^j / j!
    for an integer k, and a half-integer s starts from
    Gamma(1/2, y) = sqrt(pi) erfc(sqrt(y)) and recurs up by
    Gamma(s + 1, y) = s Gamma(s, y) + y^s e^-y."""
    y = a * x * x
    if p % 2:
        term = total = 1.0
        for j in range(1, (p + 1) // 2):
            term *= y / j
            total += term
        upper = math.factorial((p - 1) // 2) * math.exp(-y) * total
    else:
        upper = math.sqrt(math.pi) * math.erfc(math.sqrt(y))
        for j in range(p // 2):
            upper = (j + 0.5) * upper + y ** (j + 0.5) * math.exp(-y)
    return 0.5 * a ** (-(p + 1) / 2) * upper


def _euclidean_majorant(imm: Immersion) -> float:
    """The growth majorant of imm, fitted once per open run memo."""
    return memoized(imm, ("majorant",), lambda shared: _fit_majorant(imm))


def _fit_majorant(imm: Immersion) -> float:
    """Fit c with Vol(D_t) <= c t^n on the computed window (x10 safety)."""
    n = imm.dim
    radii = [t for t in (frac * imm.properness_radius for frac in (0.35, 0.6, 0.85)) if t > 0]
    for t in radii:
        imm.require_window(t)
    vols = region_integrals(imm, [RegionJob(ExtrinsicRegion(imm, 0.0, t)) for t in radii])
    best = max([0.0] + [vol.value / t**n for vol, t in zip(vols, radii)])
    if best <= 0.0:
        raise TruncationFailure(
            f"{imm.name}: no extrinsic ball volume inside the covered window "
            f"(radius {imm.properness_radius:.3g}); cannot fit a growth majorant"
        )
    return 10.0 * best


def _gaussian_tails(imm: Immersion, lam: float, tails):
    """Integrals of r^p exp(-lam r^2/2) dV over {r > R}, one per (R, p) in
    tails, in one region_integrals pass.

    A constant-radius image is integrated over (R, inf).  Any other image is
    integrated up to its properness window W, and each result carries the
    bound c * n * integral over (W, inf) of t^(n-1+p) exp(-lam t^2/2) dt on
    the rest, with c from _euclidean_majorant, as its tail and in its error;
    a radius at or past W gets 0 and that bound.  TruncationFailure is raised
    when a bound exceeds both TAIL_TOL and TAIL_TOL times its integral over
    {R < r < W}: before any quadrature where it exceeds TAIL_TOL times the
    majorant's bound c W^n max over [R, W] of t^p exp(-lam t^2/2) on that
    integral, and after it otherwise."""
    if lam <= 0:
        raise InvalidParams("the Gaussian weight needs lam > 0")
    if imm.route == "constant":
        W, bounds = math.inf, [0.0] * len(tails)
    else:
        n, W = imm.dim, imm.properness_radius
        c = _euclidean_majorant(imm)
        bounds = [c * n * _gamma_tail(n - 1 + p, lam / 2.0, W) for _, p in tails]
        for (R, p), bound in zip(tails, bounds):
            t = min(max(math.sqrt(p / lam), R), W)  # where the weight peaks on [R, W]
            most = c * W**n * t**p * math.exp(-lam * t * t / 2.0) if R < W else 0.0
            _check_tail(imm, W, bound, most, "at most ")
    inner = [t for t, (R, _) in enumerate(tails) if R < W]
    jobs = [
        RegionJob(ExtrinsicRegion(imm, R, W), lambda r, p=p: r**p * np.exp(-lam * r**2 / 2.0))
        for R, p in (tails[t] for t in inner)
    ]
    out = [QuadratureResult(0.0, 0.0, 0) for _ in tails]
    for t, res in zip(inner, region_integrals(imm, jobs)):
        out[t] = res
    for res, bound in zip(out, bounds):
        _check_tail(imm, W, bound, res.value)
        res.tail = bound
        res.error += bound
    return out


def _check_tail(imm, W, bound, integral, qualifier=""):
    """TruncationFailure when a tail bound exceeds both TAIL_TOL and TAIL_TOL
    times the integral inside the window."""
    if bound > TAIL_TOL * max(1.0, abs(integral)):
        raise TruncationFailure(
            f"{imm.name}: tail bound {bound:.3e} at the properness window "
            f"{W:.3g} exceeds tolerance {TAIL_TOL:.1e} and {TAIL_TOL:.1e} of the "
            f"integral {qualifier}{integral:.6g} inside it"
        )


def gaussian_volume(imm: Immersion, lam: float) -> QuadratureResult:
    """Integral of exp(-lam r^2 / 2) dV over the whole immersion."""
    return _gaussian_tails(imm, lam, [(0.0, 0)])[0]


def second_moment(imm: Immersion, lam: float) -> QuadratureResult:
    """Integral of r^2 exp(-lam r^2 / 2) dV over the whole immersion."""
    return _gaussian_tails(imm, lam, [(0.0, 2)])[0]


# --- comparisons ------------------------------------------------------------------


@dataclass
class Margin:
    """One comparison of two computed numbers and its verdict.

    An identity's margin is |lhs - rhs| / scale and passes when it is at most
    tol; an inequality's is (lhs - rhs) / scale and passes when it is at least
    -tol.  error is the margin's carried error estimate, None where the
    compared numbers carry none yet; notes then name the slack tol stands for.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    error: float | None
    tol: float
    verdict: str  # PASS | FAIL | SKIPPED
    notes: tuple = ()


def compare(
    name, lhs, rhs, *, identity=False, scale=1.0, error=None, slack=None, tol=None,
    notes=(), skip=None,
) -> Margin:
    """The one rule every comparison verdict takes: tol is the user's where
    given, else max(ROUNDING_FLOOR, 2 * error), else the (value, reason) slack
    the comparison rests on until it carries an error; `skip` gives the
    reason a comparison does not apply."""
    if skip is not None:
        return Margin(name, lhs, rhs, math.nan, None, 0.0, "SKIPPED", (skip,))
    margin = (abs(lhs - rhs) if identity else lhs - rhs) / scale
    if tol is not None:
        notes = (*notes, f"tol {tol:g} set by the user")
    elif error is not None:
        tol = max(ROUNDING_FLOOR, 2.0 * error)
    else:
        tol, reason = slack
        notes = (*notes, f"slack {tol:g}: {reason}")
    ok = margin <= tol if identity else margin >= -tol
    return Margin(name, lhs, rhs, margin, error, tol, "PASS" if ok else "FAIL", tuple(notes))


def monotone_margins(name, radii, values, errors, increasing=False) -> list[Margin]:
    """One margin per neighbouring pair of a sequence that must not increase
    (with `increasing`, not decrease): the step relative to the pair's first
    value, whose tolerance comes from the two values' carried errors."""
    out = []
    for R0, R1, a, b, ea, eb in zip(radii, radii[1:], values, values[1:], errors, errors[1:]):
        scale = abs(float(a)) or 1.0
        lhs, rhs = (b, a) if increasing else (a, b)
        out.append(
            compare(f"{name}(R={R0:g}..{R1:g})", float(lhs), float(rhs), scale=scale,
                    error=float(ea + eb) / scale)
        )
    return out


def weighted_identity_check(imm: Immersion, lam: float, tol: float | None = None) -> Margin:
    """Relative defect of lam * second_moment = n * gaussian_volume; both
    moments share one majorant fit and one quadrature pass."""
    m0, m2 = _gaussian_tails(imm, lam, [(0.0, 0), (0.0, 2)])
    n = imm.dim
    rhs = n * m0.value
    return compare(
        "weighted-volume-identity", lam * m2.value, rhs, identity=True, scale=abs(rhs),
        error=(lam * m2.error + n * m0.error) / abs(rhs), tol=tol,
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


def psi(imm: Immersion, lam: float, radii) -> PsiCurve:
    """Tail weighted second moment Psi(R) = integral over {r > R} of
    r^2 exp(-lam r^2/2) dV, each with the bound on its part past the
    properness window; cylinders also carry the closed form for
    cross-checking."""
    radii = np.asarray(radii, dtype=float)
    shells = _gaussian_tails(imm, lam, [(R, 2) for R in radii])
    values = np.array([res.value for res in shells], dtype=float)
    errors = np.array([res.error for res in shells], dtype=float)
    tails = np.array([res.tail for res in shells], dtype=float)
    closed = None
    if imm.route == "product":
        closed = np.array([cylinder_psi_closed_form(imm, lam, R) for R in radii])
    return PsiCurve(radii, values, errors, tails, closed)


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
    notes: tuple = ("trend classification is a diagnostic, not a proof",)


def parabolicity_integral(
    imm: Immersion, lam: float, R0: float, R_max: float
) -> ParabolicityReport:
    """Partial sufficient-condition integral and a decay-trend classification.

    The integrand behaves like t^(1-d) when Psi ~ poly(deg d) * exp(-lam t^2/2);
    a tail log-slope >= -1.5 (1/t or slower) is classified divergent-like.
    """
    grid = np.linspace(R0, R_max, PSI_GRID)
    curve = psi(imm, lam, grid)
    if np.any(curve.values < 1e-300):
        bad = grid[int(np.argmin(curve.values))]
        raise PsiUnderflow(
            f"Psi underflows at R={bad:.6g} before R_max={R_max:.6g}"
        )
    integrand = grid * np.exp(-lam * grid**2 / 2.0) / curve.values
    value = float(np.trapezoid(integrand, grid))
    k = max(PSI_GRID // 3, 4)
    slope = np.polyfit(np.log(grid[-k:]), np.log(integrand[-k:]), 1)[0]
    trend = "DIVERGENT-LIKE" if slope >= -1.5 else "CONVERGENT-LIKE"
    return ParabolicityReport(value, trend, float(slope))


# --- the flux identity -------------------------------------------------------------


def flux_identity_check(
    imm: Immersion, lam: float, R: float, tol: float | None = None
) -> list[Margin]:
    """Both sides of the divergence identity, computed independently:
    interior quadrature against level-set flux, plus the averaged form that
    rewrites the curvature factor as a weighted volume ratio, and the sign
    of the flux side; a spherical image's ball has no boundary, so there
    only the factor is judged."""
    imm.require_window(R)
    n = imm.dim
    region = ExtrinsicRegion(imm, 0.0, R)
    jobs = [
        RegionJob(region, lambda r: np.exp(-lam * r**2 / 2.0) * (n - lam * r**2)),
        RegionJob(region),
        RegionJob(region, point_fn=lambda g: g.normH**2),
        RegionJob(region, lambda r: (1.0 - lam * r**2 / n) * np.exp(lam * (R**2 - r**2) / 2.0)),
    ]
    lhs, vol, h2, avg = region_integrals(imm, jobs)
    nlv = n * lam * vol.value
    factor_lhs = 1.0 - h2.value / nlv if lam != 0 else math.nan
    dlhs = (h2.error + abs(h2.value / vol.value) * vol.error) / abs(nlv) if lam != 0 else math.nan
    factor_rhs = avg.value / vol.value
    drhs = (avg.error + abs(factor_rhs) * vol.error) / vol.value
    factor_scale = max(1.0, abs(factor_rhs))
    factor = compare(
        "curvature-factor", factor_lhs, factor_rhs, identity=True, scale=factor_scale,
        error=(dlhs + drhs) / factor_scale, tol=tol,
    )
    if imm.route == "constant":
        skip = "spherical image: the ball has no boundary"
        return [
            compare("flux-identity", math.nan, math.nan, skip=skip),
            factor,
            compare("flux-nonnegative", math.nan, math.nan, skip=skip),
        ]
    boundary = boundary_area_and_flux(imm, R)
    rhs = R * math.exp(-lam * R**2 / 2.0) * boundary.flux
    scale = max(abs(rhs), abs(lhs.value), 1e-9 * n * vol.value)
    slack = (FLUX_SLACK, "the boundary flux carries no error estimate")
    return [
        compare(
            "flux-identity", lhs.value, rhs, identity=True, scale=scale, slack=slack, tol=tol
        ),
        factor,
        compare("flux-nonnegative", rhs, 0.0, scale=scale, slack=slack, tol=tol),
    ]
