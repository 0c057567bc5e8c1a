"""Built-in immersions with their known soliton constants.

Every entry is expressed through the chart DSL, so catalog geometry runs
through exactly the same evaluation path as user-supplied charts.  Numeric
construction constants are folded into the expression strings via ``repr``,
which round-trips doubles exactly.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .charts import ParamSpec, chart_from_sources
from .errors import InvalidParams, UnknownCatalogEntry
from .geometry import (
    Immersion,
    RadialStructure,
    sphere_volume,
    unit_sphere_volume,
)

POLAR_MARGIN = 1e-3  # polar coordinates degenerate at the poles


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict
    constants: dict  # lam, imcf_c, normA2, normH, spherical_radius (when fixed)
    description: str
    notes: tuple[str, ...] = field(default=())


def _sphere_sources(radius: float, angles: list[str]) -> list[str]:
    """Spherical chart of S^k(radius): k angles into k+1 coordinates."""
    k = len(angles)
    out = []
    for j in range(k + 1):
        factors = [repr(float(radius))]
        factors += [f"sin({a})" for a in angles[:j]]
        if j < k:
            factors.append(f"cos({angles[j]})")
        out.append("*".join(factors))
    return out


def _angle_params(names: list[str]) -> list[ParamSpec]:
    """Polar angles in (margin, pi - margin); the last angle is periodic."""
    specs = []
    for i, name in enumerate(names):
        if i < len(names) - 1:
            specs.append(ParamSpec(name, POLAR_MARGIN, math.pi - POLAR_MARGIN))
        else:
            specs.append(ParamSpec(name, 0.0, 2.0 * math.pi, periodic=True))
    return specs


def _names(count: int, start: int = 1) -> list[str]:
    return [f"u{i}" for i in range(start, start + count)]


def sphere(n: int = 2, R: float = 1.0):
    n = int(n)
    if n < 1:
        raise InvalidParams("sphere: n must be >= 1")
    if R <= 0:
        raise InvalidParams("sphere: R must be positive")
    angles = _names(n)
    chart = chart_from_sources(n, n + 1, _sphere_sources(R, angles), _angle_params(angles))
    lam = n / R**2
    imm = Immersion(
        chart,
        properness_radius=math.inf,
        name=f"sphere({n},{R:g})",
        compact=True,
        constant_radius=R,
        total_volume=sphere_volume(n, R),
    )
    entry = CatalogEntry(
        "sphere",
        {"n": n, "R": R},
        {
            "lam": lam,
            "imcf_c": 1.0 / n,
            "normA2": n / R**2,
            "normH": n / R,
            "spherical_radius": R,
        },
        f"round sphere S^{n}({R:g}) in R^{n + 1}",
    )
    return imm, entry


def plane(n: int = 2, extent: float = 8.0):
    n = int(n)
    if n < 1:
        raise InvalidParams("plane: n must be >= 1")
    if extent <= 0:
        raise InvalidParams("plane: extent must be positive")
    names = _names(n)
    params = [ParamSpec(nm, -extent, extent) for nm in names]
    chart = chart_from_sources(n, n + 1, names + ["0"], params)
    imm = Immersion(
        chart,
        properness_radius=extent,
        name=f"plane({n})",
        radial=RadialStructure(0.0, n, 1.0, 0, euclid_start=0),
    )
    entry = CatalogEntry(
        "plane",
        {"n": n, "extent": extent},
        {"lam": 0.0, "imcf_c": None, "normA2": 0.0, "normH": 0.0},
        f"flat R^{n} through the origin (minimal; fits the shrinker equation "
        "with lambda = 0, no inverse-flow constant exists)",
    )
    return imm, entry


def generalized_cylinder(n: int = 2, k: int = 1, rho: float = 1.0, z_extent=None):
    n, k = int(n), int(k)
    if n < 2 or k < 1 or k > n - 1:
        raise InvalidParams(
            "generalized_cylinder: need n >= 2 and 1 <= k <= n-1 "
            "(k = 0 is the plane, k = n the sphere)"
        )
    if rho <= 0:
        raise InvalidParams("generalized_cylinder: rho must be positive")
    lam = k / rho**2
    if z_extent is None:
        # wide enough that the Gaussian truncation tail clears 1e-10
        z_extent = max(9.0, 3.5 * math.sqrt(2.0 * n / lam))
    angles = _names(k)
    lines = _names(n - k, start=k + 1)
    params = _angle_params(angles) + [ParamSpec(nm, -z_extent, z_extent) for nm in lines]
    sources = _sphere_sources(rho, angles) + lines
    chart = chart_from_sources(n, n + 1, sources, params)
    imm = Immersion(
        chart,
        properness_radius=math.sqrt(rho**2 + z_extent**2),
        name=f"cylinder({n},{k},{rho:g})",
        radial=RadialStructure(rho, n - k, sphere_volume(k, rho), k, euclid_start=k),
    )
    entry = CatalogEntry(
        "generalized_cylinder",
        {"n": n, "k": k, "rho": rho, "z_extent": z_extent},
        {
            "lam": lam,
            "imcf_c": 1.0 / k,
            "normA2": k / rho**2,
            "normH": k / rho,
        },
        f"S^{k}({rho:g}) x R^{n - k} in R^{n + 1}",
    )
    return imm, entry


def clifford_torus(k: int = 1, nk: int = 1, lam: float = 1.0):
    k, nk = int(k), int(nk)
    if k < 1 or nk < 1:
        raise InvalidParams("clifford_torus: factor dimensions must be >= 1")
    if lam <= 0:
        raise InvalidParams("clifford_torus: lam must be positive")
    n = k + nk
    r1, r2 = math.sqrt(k / lam), math.sqrt(nk / lam)
    a1, a2 = _names(k), _names(nk, start=k + 1)
    params = _angle_params(a1) + _angle_params(a2)
    sources = _sphere_sources(r1, a1) + _sphere_sources(r2, a2)
    chart = chart_from_sources(n, n + 2, sources, params)
    radius = math.sqrt(n / lam)
    imm = Immersion(
        chart,
        properness_radius=math.inf,
        name=f"clifford({k},{nk})",
        compact=True,
        constant_radius=radius,
        total_volume=sphere_volume(k, r1) * sphere_volume(nk, r2),
    )
    entry = CatalogEntry(
        "clifford_torus",
        {"k": k, "nk": nk, "lam": lam},
        {
            "lam": lam,
            "imcf_c": 1.0 / n,
            "normA2": 2.0 * lam,
            "normH": math.sqrt(n * lam),
            "spherical_radius": radius,
        },
        f"S^{k}(sqrt({k}/lam)) x S^{nk}(sqrt({nk}/lam)), minimal in "
        f"S^{n + 1}(sqrt({n}/lam))",
    )
    return imm, entry


def veronese_surface(lam: float = 1.0):
    if lam <= 0:
        raise InvalidParams("veronese_surface: lam must be positive")
    s = math.sqrt(2.0 / lam)  # ambient radius sqrt(n/lam), n = 2
    c0 = s * math.sqrt(3.0)
    sources = [
        f"{c0!r}*sin(u1)^2*cos(u2)*sin(u2)",
        f"{c0!r}*sin(u1)*cos(u1)*cos(u2)",
        f"{c0!r}*sin(u1)*cos(u1)*sin(u2)",
        f"{c0 / 2.0!r}*sin(u1)^2*(cos(u2)^2 - sin(u2)^2)",
        f"{s!r}*(0.5*sin(u1)^2 - cos(u1)^2)",
    ]
    params = [
        ParamSpec("u1", POLAR_MARGIN, math.pi - POLAR_MARGIN),
        ParamSpec("u2", 0.0, 2.0 * math.pi, periodic=True),
    ]
    chart = chart_from_sources(2, 5, sources, params)
    imm = Immersion(
        chart,
        properness_radius=math.inf,
        name="veronese",
        compact=True,
        constant_radius=s,
        total_volume=6.0 * math.pi * s**2,  # half of area(S^2(sqrt 3)), ambient scale s
        notes=(
            "standard degree-2 harmonic chart assumed (antipodal double cover); only the image surface is canonical",
        ),
    )
    entry = CatalogEntry(
        "veronese_surface",
        {"lam": lam},
        {
            "lam": lam,
            "imcf_c": 0.5,
            "normA2": 5.0 * lam / 3.0,
            "normH": math.sqrt(2.0 * lam),
            "spherical_radius": s,
        },
        "projective plane immersed by degree-2 harmonics, minimal in S^4(sqrt(2/lam))",
        notes=("standard chart assumed; the surface itself fixes the constants",),
    )
    return imm, entry


def castro_lerma(delta: float = 1.0, lam: float = -0.5, s_extent: float = 12.0, t_extent: float = 6.0):
    if delta <= 0:
        raise InvalidParams("castro_lerma: delta must be positive")
    if lam >= 0:
        raise InvalidParams("castro_lerma: lam must be negative (self-expander)")
    # unit prefactor gives soliton constant -1; scaling by c divides it by c^2
    a = 1.0 / math.sqrt(-lam)
    sd, cd, td = math.sinh(delta), math.cosh(delta), math.tanh(delta)
    sources = [
        f"{a * sd!r}*cosh(u2)*sin(u1/{cd!r})",
        f"{a * sd!r}*cosh(u2)*cos(u1/{cd!r})",
        f"{a * td!r}*sinh(u2)*cos({cd!r}*u1)",
        f"{a * td!r}*sinh(u2)*sin({cd!r}*u1)",
    ]
    params = [
        ParamSpec("u1", -s_extent, s_extent),
        ParamSpec("u2", -t_extent, t_extent),
    ]
    chart = chart_from_sources(2, 4, sources, params)
    ct, st = math.cosh(t_extent), math.sinh(t_extent)
    r_window = a * math.sqrt(sd**2 * ct**2 + td**2 * st**2)
    imm = Immersion(
        chart,
        properness_radius=r_window,
        name=f"castro_lerma({delta:g})",
        proper=False,
        notes=(
            "extrinsic balls are unbounded in the first parameter; window-cut "
            "results are diagnostics only",
        ),
    )
    entry = CatalogEntry(
        "castro_lerma",
        {"delta": delta, "lam": lam, "s_extent": s_extent, "t_extent": t_extent},
        {"lam": lam, "imcf_c": None, "normA2": None, "normH": None},
        "conformal plane immersed in R^4 as a shrinker-equation solution with "
        "negative constant (self-expander); |H| -> 0 far out",
    )
    return imm, entry


def castro_lerma_normH(delta: float, lam: float, points) -> np.ndarray:
    """Closed-form |H(s,t)| of the conformal expander (independent oracle).

    At unit prefactor |H| = (sinh^2 d / cosh d) / sqrt(q) with
    q = tanh^2 d cosh^2 t + sinh^2 d sinh^2 t; scaling by 1/sqrt(-lam)
    multiplies it by sqrt(-lam).  |H| -> 0 as |t| -> infinity.
    """
    sd, cd, td = math.sinh(delta), math.cosh(delta), math.tanh(delta)
    t = np.atleast_2d(points)[:, 1]
    q = td**2 * np.cosh(t) ** 2 + sd**2 * np.sinh(t) ** 2
    return math.sqrt(-lam) * sd**2 / cd / np.sqrt(q)


CATALOG = {
    "sphere": sphere,
    "plane": plane,
    "generalized_cylinder": generalized_cylinder,
    "clifford_torus": clifford_torus,
    "veronese_surface": veronese_surface,
    "castro_lerma": castro_lerma,
}

ALIASES = {"cylinder": "generalized_cylinder", "clifford": "clifford_torus", "veronese": "veronese_surface"}


def _entry(name: str) -> str:
    key = ALIASES.get(name, name)
    if key not in CATALOG:
        raise UnknownCatalogEntry(
            f"unknown catalog entry {name!r}; available: {sorted(CATALOG)}"
        )
    return key


def catalog_parameters(name: str) -> set:
    """The parameter names a catalog entry takes; raises UnknownCatalogEntry."""
    return set(inspect.signature(CATALOG[_entry(name)]).parameters)


def catalog(name: str, **params):
    """Look up a built-in immersion; raises UnknownCatalogEntry / InvalidParams."""
    key = _entry(name)
    try:
        return CATALOG[key](**params)
    except (TypeError, ValueError) as err:  # an unknown or ill-typed parameter
        raise InvalidParams(f"{key}: {err}") from None
    except ArithmeticError as err:  # a parameter whose arithmetic over- or underflows
        raise InvalidParams(f"{key}: parameters out of floating-point range: {err}") from None


def catalog_rows() -> list[dict]:
    """Summary rows (name, lambda, C, |A|^2/lambda) for the default entries."""
    rows = []
    for name in CATALOG:
        imm, entry = CATALOG[name]()
        lam = entry.constants.get("lam")
        a2 = entry.constants.get("normA2")
        rows.append(
            {
                "name": name,
                "defaults": entry.params,
                "lam": lam,
                "imcf_c": entry.constants.get("imcf_c"),
                "normA2_over_lam": (None if not lam or a2 is None else a2 / lam),
                "description": entry.description,
            }
        )
    return rows
