"""Differential-geometric kernel for parametric immersions.

Everything is computed from exact chart jets and one Householder QR
factorization J = QR of the Jacobian (Golub & Van Loan, Matrix Computations,
5.1-5.2), run over the whole sample batch at once: the batch sits on the last
axis, so each reflector step is a few vector operations over all points and
no LAPACK call or small matmul runs per point.  The first n columns of Q are
the orthonormal tangent frame and the others an orthonormal normal frame.
The n x n factor R has the singular values of J, which decide the rank
(computed only where the Frobenius condition number of R cannot decide it),
gives sqrt(det g) as |prod diag R| and, by back substitution, R^-1 and
g^-1 = R^-1 R^-T.  The normal projection of the second derivatives is the
vector-valued second fundamental form alpha; in the orthonormal frames it
reads B = R^-T alpha R^-1, whose trace is the mean curvature vector H and
whose squared Frobenius norm is |A|^2.  The position split X = X^T + X^perp
and the extrinsic radius r = |X| feed all radial-function calculus.

Only the QR, R^-1 with its rank test and, at order 2, the normal projection
of the second derivatives run when a geometry is made.  Each other field is
formed from these stored factors on its first read and then kept, so a
caller pays for the fields it reads and no more.

The kernel reads the jets it is handed and writes none of them, and a
point's values do not depend on the batch it comes in, so concurrent
evaluation on a shared immersion is safe; two readers that form the same
field of one geometry at once form the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import dsl
from .charts import ChartDefinition, ParamSpec, chart_from_sources
from .errors import ImproperWindow, OriginSingularity, RankDeficient

RANK_TOL = 1e-10
ORIGIN_EXCLUSION = 1e-6
RADIUS_BLOCK = 1 << 14  # points per chart evaluation of radius_values: bounds its memory
# points per geometry call of the blocked loops of levelset, fem and quadrature;
# a point's geometry does not depend on its batch, so the blocks change no bit
GEOMETRY_BLOCK = 1 << 12


def unit_sphere_volume(d: int) -> float:
    """Volume of the unit d-sphere S^d(1); S^0 is two points."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def sphere_volume(d: int, radius: float) -> float:
    return unit_sphere_volume(d) * radius**d


def ball_volume(d: int, radius: float) -> float:
    """Volume of the Euclidean d-ball of the given radius."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius**d


@dataclass(frozen=True)
class RadialStructure:
    """Product decomposition F x R^q with r^2 = offset^2 + |y|^2.

    Radial integrals over such immersions collapse to one dimension:
    integral of f(r) dV = fiber_volume * vol(S^(q-1)) * int f(sqrt(off^2+t^2)) t^(q-1) dt.
    The chart axes from ``euclid_start`` on are the Cartesian block y;
    geometric quantities are constant on fiber x {|y| = t} orbits.
    """

    offset: float
    euclid_dim: int
    fiber_volume: float
    fiber_dim: int
    euclid_start: int = 0

    def scaled(self, c: float) -> "RadialStructure":
        return RadialStructure(
            self.offset * c,
            self.euclid_dim,
            self.fiber_volume * c**self.fiber_dim,
            self.fiber_dim,
            self.euclid_start,
        )


@dataclass(frozen=True)
class Immersion:
    """A chart together with the global facts the numerics rely on."""

    chart: ChartDefinition
    properness_radius: float  # extrinsic balls D_R with R below this live in the box
    name: str = "chart"
    proper: bool = True  # False: the window cuts the region (diagnostics only)
    compact: bool = False
    constant_radius: float | None = None  # set when r is constant on the image
    total_volume: float | None = None
    radial: RadialStructure | None = None
    notes: tuple[str, ...] = field(default=(), compare=False)

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def ambient_dim(self) -> int:
        return self.chart.ambient_dim

    @property
    def route(self) -> str:
        """How radial integrals and level sets are computed, the one place
        this is decided: "constant" on a spherical image, "product" where a
        RadialStructure is declared (in every dimension), "chart" otherwise."""
        if self.constant_radius is not None:
            return "constant"
        return "chart" if self.radial is None else "product"

    def require_window(self, R: float) -> None:
        if R > self.properness_radius * (1 + 1e-12) and not self.compact:
            raise ImproperWindow(
                f"radius {R} exceeds the properness window "
                f"{self.properness_radius:.6g} of {self.name}"
            )


def scale_immersion(imm: Immersion, c: float) -> Immersion:
    """The immersion c*X, built from rescaled coordinate expressions (the
    reference ``sampling.homothetic_geometries`` is tested against)."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    old = imm.chart
    sources = old.sources or tuple(dsl.to_source(e) for e in old.coords)
    scaled = chart_from_sources(
        old.dim,
        old.codim_total,
        tuple(f"({c!r})*({src})" for src in sources),
        old.params,
    )
    return replace(
        imm,
        chart=scaled,
        name=f"{imm.name}*{c:.6g}",
        properness_radius=imm.properness_radius * c,
        constant_radius=None if imm.constant_radius is None else imm.constant_radius * c,
        total_volume=None if imm.total_volume is None else imm.total_volume * c**old.dim,
        radial=None if imm.radial is None else imm.radial.scaled(c),
    )


# --- pointwise geometry -------------------------------------------------------


class _Factors(NamedTuple):
    """The kernel's stored factors over its batch, which sits on the last
    axis (X, batch first, aside); a one-point geometry holds its point twice."""

    X: np.ndarray  # (K, A)
    cols: np.ndarray  # (n, A, K) the Jacobian columns
    Q: np.ndarray  # (A, A, K), or (n, A, K) at order 1: column k is Q[k]
    R: np.ndarray  # (n, n, K)
    R_inv: np.ndarray  # (n, n, K)
    nu: np.ndarray | None  # (A - n, n, n, K) the Hessians in the normal frame

    @property
    def tangent(self) -> np.ndarray:
        return self.Q[: len(self.R)]

    @property
    def normal(self) -> np.ndarray:
        return self.Q[len(self.R) :]


def _tangent_split(f: _Factors) -> dict:
    XT = _batch_first(_project(f.tangent, np.ascontiguousarray(f.X.T)))
    return {"XT": XT, "Xperp": f.X - XT}


def _curvature(f: _Factors) -> dict:
    # the second fundamental form in both frames, B = R^-T nu R^-1: its trace
    # is H and its squared norm |A|^2
    B = np.einsum("kin,mkjn->mijn", f.R_inv, np.einsum("mkln,ljn->mkjn", f.nu, f.R_inv))
    return {
        "H": _batch_first(np.einsum("man,miin->an", f.normal, B)),
        "normA2": np.einsum("mijn,mijn->n", B, B),
    }


# field -> how it is formed from the factors, with any field formed alongside
_FORMERS = {
    "metric": lambda f: {"metric": _batch_first(np.einsum("ian,jan->ijn", f.cols, f.cols))},
    "metric_inv": lambda f: {
        "metric_inv": _batch_first(np.einsum("ikn,jkn->ijn", f.R_inv, f.R_inv))
    },
    "sqrt_det": lambda f: {"sqrt_det": np.abs(np.prod(np.diagonal(f.R), axis=-1))},
    "frame": lambda f: {"frame": _batch_first(f.tangent.transpose(1, 0, 2))},
    "r": lambda f: {"r": np.linalg.norm(f.X, axis=1)},
    "XT": _tangent_split,
    "Xperp": _tangent_split,
    # the normal part of the Hessians, alpha = normal nu
    "alpha": lambda f: {
        "alpha": np.einsum("man,mijn->aijn", f.normal, f.nu).transpose(3, 0, 1, 2)
    },
    "H": _curvature,
    "normA2": _curvature,
}


class PointGeometry:
    """Batched first/second-order data at sample points (leading axis = batch).

    ``points`` (N, n) and ``X`` (N, A) are given.  Every other field is
    formed from the kernel's factors on its first read and then kept:

    - ``metric`` (N, n, n), ``metric_inv`` and ``sqrt_det`` (N,);
    - ``frame`` (N, A, n), the orthonormal tangent frame;
    - ``r`` (N,), and ``XT`` and ``Xperp`` (N, A), the tangential and normal
      parts of the position;
    - at order 2 ``alpha`` (N, A, n, n), the second fundamental form, ``H``
      (N, A), the mean curvature vector, and ``normA2`` (N,), the squared norm
      of the shape tensor; at order 1 these three are None.
    """

    FIELDS = ("points", "X", *_FORMERS)

    def __init__(self, points, X, factors: _Factors):
        self.points = points
        self.X = X
        self._factors = factors
        self._read_only = False
        if factors.nu is None:
            self.alpha = self.H = self.normA2 = None

    def __getattr__(self, name):
        # reached only for a field not yet formed (or an unknown name)
        if name not in _FORMERS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        count = len(self.points)
        for key, value in _FORMERS[name](self._factors).items():
            if len(value) != count:  # the pair of a one-point geometry
                value = value[:count]
            if self._read_only:
                value.flags.writeable = False
            self.__dict__[key] = value
        return self.__dict__[name]

    def freeze(self) -> None:
        """Make the geometry's arrays, and the fields it forms from now on,
        read-only."""
        self._read_only = True
        for value in (*self._factors, *(self.__dict__.get(f) for f in self.FIELDS)):
            if value is not None:
                value.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def grad_r_norm(self) -> np.ndarray:
        """|grad^Sigma r| = |X^T| / r."""
        return np.linalg.norm(self.XT, axis=1) / self.r

    @property
    def x_dot_h(self) -> np.ndarray:
        return np.einsum("na,na->n", self.X, self.H)

    @property
    def normH(self) -> np.ndarray:
        return np.linalg.norm(self.H, axis=1)

    def tangential(self, V) -> np.ndarray:
        """Tangential part Q Q^T V of (N, A) ambient vectors V."""
        return _project(self.frame.transpose(2, 1, 0), V.T).T

    def select(self, mask) -> "PointGeometry":
        """Restrict the batch to the masked points; the fields formed so far
        are restricted, the others are formed from the restricted factors."""
        rows = np.arange(len(self.points))[mask]
        if len(rows) == 1:
            rows = np.repeat(rows, 2)
        f = self._factors
        factors = _Factors(
            f.X[rows], *(None if a is None else np.take(a, rows, axis=-1) for a in f[1:])
        )
        out = PointGeometry(self.points[mask], self.X[mask], factors)
        for name in _FORMERS:
            value = self.__dict__.get(name)
            if value is not None:
                out.__dict__[name] = value[mask]
        return out


def evaluate_chart(chart: ChartDefinition, points, order: int = 2):
    """Stack per-coordinate jets into X (N,A), J (N,A,n) and S (N,A,n,n).

    J and S are views of batch-last arrays, (n, A, N) and (A, n, n, N), so
    that each Jacobian column and each Hessian entry of the whole batch is
    contiguous, as ``geometry_of_jets`` reads them.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    npts, dim = points.shape
    amb = chart.ambient_dim
    X = np.empty((npts, amb))
    J = np.empty((dim, amb, npts)) if order >= 1 else None
    S = np.empty((amb, dim, dim, npts)) if order >= 2 else None
    for a, expr in enumerate(chart.coords):
        jet = dsl.eval_jet(expr, points, order=order)
        X[:, a] = jet.value
        if order >= 1:
            J[:, a] = jet.grad.T
        if order >= 2:
            S[a] = jet.hess.transpose(1, 2, 0)
    if order >= 1:
        J = J.transpose(2, 1, 0)
    if order >= 2:
        S = S.transpose(3, 0, 1, 2)
    return points, X, J, S


def geometry(imm: Immersion, points, order: int = 2) -> PointGeometry:
    """Fundamental forms, curvature and position splits at a batch of points."""
    return geometry_of_jets(*evaluate_chart(imm.chart, points, order=max(order, 1)), order)


def geometry_of_jets(points, X, J, S, order: int = 2) -> PointGeometry:
    """The kernel of ``geometry`` on stacked chart jets (see ``evaluate_chart``);
    it reads X, J and S and writes none of them.

    It runs the Householder QR of J, R^-1 with the rank test (so
    ``RankDeficient`` is raised here) and at order 2 the normal projection nu
    of S, and keeps these factors but not S; every other field is formed
    from them on its first read (see ``PointGeometry``).

    A Jacobian column, a Hessian entry or a frame vector of the batch is one
    contiguous (A, N) array and an entry of R or R^-1 one (N,) array; every
    step is an elementwise operation or an einsum whose inner loop runs
    along the batch.  ``alpha`` is a batch-first view of such an array, the
    other fields are C-ordered copies.
    """
    if len(points) == 1:
        # einsum drops a batch axis of length one and then sums in another
        # order; as a pair, the point gets the values it has in any batch
        twice = lambda a: None if a is None else np.concatenate([a, a])
        return geometry_of_jets(*map(twice, (points, X, J, S)), order).select(slice(1))
    dim = J.shape[2]
    # column k of every J, (n, A, N); contiguous, since einsum's order of
    # summation follows the operands' layout
    cols = np.ascontiguousarray(J.transpose(2, 1, 0))
    Q, R = _householder(cols, dim if order < 2 else None)
    R_inv = _checked_inverse(R, points)
    nu = None
    if order >= 2:
        # the Hessians in the orthonormal normal frame; S itself is not kept
        nu = np.einsum("man,aijn->mijn", Q[dim:], np.ascontiguousarray(S.transpose(1, 2, 3, 0)))
    return PointGeometry(points, X, _Factors(X, cols, Q, R, R_inv, nu))


def _batch_first(a) -> np.ndarray:
    """A C-ordered copy of a with its last (batch) axis moved to the front."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _project(Q, V) -> np.ndarray:
    """Q Q^T V (A, N) for frames Q (n, A, N) and vectors V (A, N)."""
    return np.einsum("kan,kn->an", Q, np.einsum("kan,an->kn", Q, V))


def _reflect(Y, v, tau) -> None:
    """Apply I - tau u u^T, u = (1, v), to the columns Y[k] (m, N) in place."""
    w = tau * (Y[:, 0] + np.einsum("an,kan->kn", v, Y[:, 1:]))
    for y, w_k in zip(Y, w):  # one column at a time keeps the temporaries small
        y[0] -= w_k
        y[1:] -= v * w_k


def _householder(cols, columns=None):
    """Householder QR (Golub & Van Loan, Matrix Computations, Algorithm
    5.2.1) of the A x n matrices with columns cols[k] (A, N): returns the
    orthogonal Q (A, A, N), column k being Q[k], whose first n columns span
    the tangent space and whose others the normal space, and the upper
    triangular R (n, n, N), so that cols = Q[:n] R.  With `columns` set,
    only the first that many columns of Q are formed.

    Each reflector is LAPACK's (dlarfg): it maps x to beta e_1 with
    beta = -sign(x_1)|x|, and is the identity where x vanishes below its
    first entry, so R and Q are those of numpy.linalg.qr up to rounding.
    Q is accumulated backwards from the reflectors, as in dorg2r.
    """
    dim, amb, npts = cols.shape
    W = cols.copy()  # reduced to R column by column
    R = np.zeros((dim, dim, npts))
    reflectors = []
    for j in range(dim):
        x1, x = W[j, j], W[j, j + 1 :]
        below = np.einsum("an,an->n", x, x)
        reflect = below != 0.0
        beta = np.where(reflect, np.copysign(np.sqrt(x1 * x1 + below), -x1), x1)
        # where nothing is reflected x = 0 and beta = x1, so tau = 0 and v = 0
        tau = (beta - x1) / np.where(reflect, beta, 1.0)
        v = x / np.where(reflect, x1 - beta, 1.0)
        _reflect(W[j + 1 :, j:], v, tau)
        R[j, j] = beta
        R[j, j + 1 :] = W[j + 1 :, j]
        reflectors.append((v, tau))
    kept = amb if columns is None else columns
    Q = np.zeros((kept, amb, npts))
    Q[range(kept), range(kept)] = 1.0
    for j in reversed(range(dim)):
        _reflect(Q[j:, j:], *reflectors[j])
    return Q, R


def _checked_inverse(R, points) -> np.ndarray:
    """R^-1 (n, n, N) of the upper triangular R (n, n, N) by back
    substitution, after the rank test sigma_min <= RANK_TOL sigma_max on the
    singular values of R (those of J) has passed at every point.

    kappa_2 <= kappa_F = |R|_F |R^-1|_F (Golub & Van Loan, 2.3), so a point
    with kappa_F RANK_TOL < 1/2 passes for certain (the half absorbs rounding
    in kappa_F and in the singular values).  The SVD runs only on the other
    points: kappa_F past that bound, non-finite kappa_F, or a zero diagonal
    of R, which is taken as 1 there until the SVD has rejected the point.
    """
    dim = len(R)
    diag = np.diagonal(R).T
    full = np.all(diag != 0.0, axis=0)
    pivots = np.where(full, diag, 1.0)
    R_inv = np.zeros_like(R)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite goes to the SVD
        for k in range(dim):
            R_inv[k, k] = 1.0 / pivots[k]
            for i in reversed(range(k)):
                row = np.einsum("ln,ln->n", R[i, i + 1 : k + 1], R_inv[i + 1 : k + 1, k])
                R_inv[i, k] = -row / pivots[i]
        kappa_f = np.sqrt(np.einsum("ijn,ijn->n", R, R) * np.einsum("ijn,ijn->n", R_inv, R_inv))
    unsure = np.flatnonzero(~(kappa_f * RANK_TOL < 0.5) | ~full)
    if unsure.size:
        sv = np.linalg.svd(R[..., unsure].transpose(2, 0, 1), compute_uv=False)
        bad = sv[:, -1] <= RANK_TOL * sv[:, 0]
        if np.any(bad):
            raise RankDeficient(points[unsure[np.argmax(bad)]])
    return R_inv


def point_geometry(imm: Immersion, p) -> PointGeometry:
    """Single-point convenience wrapper (batch of one)."""
    return geometry(imm, np.atleast_2d(p), order=2)


def radius_values(imm: Immersion, points) -> np.ndarray:
    """Extrinsic radius r = |X| without derivative bookkeeping, one chart
    evaluation per RADIUS_BLOCK points; a point's r does not depend on its
    batch, so the blocks change no bit."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    blocks = [np.empty(0)]
    for s in range(0, len(points), RADIUS_BLOCK):
        _, X, _, _ = evaluate_chart(imm.chart, points[s : s + RADIUS_BLOCK], order=0)
        r = np.add.reduce(np.multiply(X, X, out=X), axis=1)  # np.linalg.norm(X, axis=1)
        blocks.append(np.sqrt(r, out=r))
    return np.concatenate(blocks)


# --- radial-function calculus ---------------------------------------------------


@dataclass(frozen=True)
class RadialFunction:
    """F(r) with two derivatives, for the radial Laplacian identity."""

    f: callable
    df: callable
    ddf: callable

    @staticmethod
    def r_squared() -> "RadialFunction":
        return RadialFunction(
            lambda s: s**2, lambda s: 2.0 * s, lambda s: np.full_like(s, 2.0)
        )

    @staticmethod
    def neg_r_squared() -> "RadialFunction":
        return RadialFunction(
            lambda s: -(s**2), lambda s: -2.0 * s, lambda s: np.full_like(s, -2.0)
        )

    @staticmethod
    def shifted_inverse_power(eps: float) -> "RadialFunction":
        """(1 - r^(-eps))/eps: the bounded increasing probe used near suprema."""
        return RadialFunction(
            lambda s: (1.0 - s ** (-eps)) / eps,
            lambda s: s ** (-eps - 1.0),
            lambda s: -(eps + 1.0) * s ** (-eps - 2.0),
        )


def radial_laplacian(geom: PointGeometry, F: RadialFunction) -> np.ndarray:
    """Laplace-Beltrami of F(r) from the position split:

        (F''/r^2 - F'/r^3)|X^T|^2 + (F'/r)(n + <X, H>)
    """
    if geom.H is None:
        raise ValueError("radial_laplacian needs order-2 geometry")
    r = geom.r
    if np.any(r < ORIGIN_EXCLUSION):
        raise OriginSingularity(float(r.min()), ORIGIN_EXCLUSION)
    n = geom.dim
    xt2 = np.einsum("na,na->n", geom.XT, geom.XT)
    return (F.ddf(r) / r**2 - F.df(r) / r**3) * xt2 + (F.df(r) / r) * (
        n + geom.x_dot_h
    )


def laplacian_divergence_form(imm: Immersion, fn, p, h: float = 1e-4) -> float:
    """Independent oracle: (1/sqrt g) d_i(sqrt g g^{ij} d_j f) by central
    differences of first-order chart data on a structured stencil."""
    p = np.asarray(p, dtype=float)
    n = imm.dim

    def flux(q):
        g = geometry(imm, q.reshape(1, -1), order=1)
        grad_f = _fd_gradient(fn, q, h)
        return g.sqrt_det[0] * (g.metric_inv[0] @ grad_f)

    div = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        div += (flux(p + e)[i] - flux(p - e)[i]) / (2 * h)
    g0 = geometry(imm, p.reshape(1, -1), order=1)
    return div / g0.sqrt_det[0]


def _fd_gradient(fn, p, h):
    n = len(p)
    out = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (fn(p + e) - fn(p - e)) / (2 * h)
    return out
