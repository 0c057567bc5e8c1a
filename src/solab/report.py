"""Machine-readable run reports: config echo, per-check records, verdict.

The JSON writer is deterministic: insertion order is preserved, floats are
rendered with 17 significant digits (exact double round-trip), and no
environment-dependent content enters the document except the wall-clock
fields, which consumers are expected to ignore when diffing.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from . import fem, inequalities, quadrature, solitons
from .catalog import catalog, catalog_parameters, catalog_rows
from .charts import load_chart
from .errors import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    NUMERICAL_FAILURES,
    ConfigError,
    SolabError,
)
from .geometry import Immersion, radius_values
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, run_memo, sample_box

SCHEMA_VERSION = 3


# --- deterministic JSON -------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [json_dumps(x, indent + 1) for x in list(obj)]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{inner}"{k}": ' + json_dumps(v, indent + 1) for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# --- configuration --------------------------------------------------------------

_IMMERSION_KEYS = {"catalog", "params", "chart"}
_SOLITON_KEYS = {"kind", "constant"}


@dataclass
class RunConfig:
    immersion: dict
    soliton: dict | None = None
    checks: list = field(default_factory=list)
    seed: int = DEFAULT_SEED
    tol: float | None = None
    samples: int = DEFAULT_SAMPLES
    radius: float | None = None
    radii: list | None = None
    h: float = 0.05
    rho: float | None = None
    times: list | None = None
    r0: float | None = None
    rmax: float | None = None
    out: str | None = None
    format: str = "json"

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        """The one parser of run settings, from a config file, flags laid
        over one or a library caller.  Fails closed on an unknown key and on
        any immersion, soliton, check list, number, grid or output setting
        that no run can go with; grids become lists of floats."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys (fail-closed): {sorted(unknown)}")
        imm = data.get("immersion") or {}
        if not isinstance(imm, dict) or (set(imm) - _IMMERSION_KEYS):
            raise ConfigError(f"immersion takes the keys {sorted(_IMMERSION_KEYS)}, got {imm!r}")
        sources = [imm[key] for key in ("catalog", "chart") if key in imm]
        if len(sources) != 1 or not isinstance(sources[0], str):
            raise ConfigError(
                "give exactly one immersion, a catalog name (--catalog) or a chart "
                f"path (--chart), got {imm!r}"
            )
        params = imm.get("params", {})
        if "chart" in imm and params:
            raise ConfigError(f"a chart takes no catalog params, got {params!r}")
        if not isinstance(params, dict):
            raise ConfigError(f"config.immersion.params must be a JSON object, got {params!r}")
        foreign = set(params) - catalog_parameters(imm["catalog"]) if "catalog" in imm else ()
        if foreign:
            raise ConfigError(f"catalog entry {imm['catalog']!r} takes no {sorted(foreign)}")
        cfg = RunConfig(immersion=imm)
        for key in _CONFIG_KEYS - {"immersion"}:
            if data.get(key) is not None:
                setattr(cfg, key, data[key])
        if not isinstance(cfg.checks, list) or data.get("checks") == []:
            raise ConfigError(f"checks must be a non-empty list of check names, got {cfg.checks!r}")
        unknown = [name for name in cfg.checks if not (isinstance(name, str) and name in CHECKS)]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
        if not isinstance(cfg.out, (str, type(None))):
            raise ConfigError(f"out must be a directory path, got {cfg.out!r}")
        if cfg.format not in ("json", "csv"):
            raise ConfigError(f"format must be 'json' or 'csv', got {cfg.format!r}")
        for key, least in (("seed", 0), ("samples", 1)):
            value = getattr(cfg, key)
            if not _is_a(value, numbers.Integral) or value < least:
                raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
        for key in ("h", "tol", "radius", "rho", "r0", "rmax"):
            value = getattr(cfg, key)
            if value is None and key != "h":  # unset: the check's default applies
                continue
            if not (_is_a(value, numbers.Real) and 0.0 < value <= sys.float_info.max):
                raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")
        if cfg.r0 is not None and cfg.rmax is not None and cfg.r0 >= cfg.rmax:
            raise ConfigError(f"r0 must be below rmax, got r0={cfg.r0!r} >= rmax={cfg.rmax!r}")
        sol = cfg.soliton
        if sol is not None:
            if not isinstance(sol, dict) or set(sol) - _SOLITON_KEYS:
                raise ConfigError(f"config.soliton takes the keys {sorted(_SOLITON_KEYS)}, got {sol!r}")
            kind, constant = sol.get("kind", "mcf"), sol.get("constant")
            if kind not in solitons.KINDS:
                raise ConfigError(f"soliton kind must be one of {solitons.KINDS}, got {kind!r}")
            number = _is_a(constant, numbers.Real) and abs(constant) <= sys.float_info.max
            if not (number or constant in (None, "infer")):
                raise ConfigError(f"soliton constant must be a finite number or 'infer', got {constant!r}")
            if kind == "imcf" and constant == 0:
                raise ConfigError("an inverse-flow soliton constant cannot be zero")
        for key in ("radii", "times"):
            grid = getattr(cfg, key)
            if grid is None:
                continue
            values = None
            if isinstance(grid, (list, tuple)) and not any(isinstance(x, bool) for x in grid):
                with contextlib.suppress(OverflowError, TypeError, ValueError):
                    values = [float(x) for x in grid]
            if not values or not all(map(math.isfinite, values)):
                raise ConfigError(f"{key} must be a non-empty list of finite numbers, got {grid!r}")
            if key == "radii" and any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError("radius grid must be strictly increasing")
            setattr(cfg, key, values)
        return cfg

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}
        out["checks"] = list(self.checks)
        return out


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _is_a(x, kind) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def build_immersion(cfg: RunConfig):
    imm_cfg = cfg.immersion
    if "catalog" in imm_cfg:
        return catalog(imm_cfg["catalog"], **imm_cfg.get("params", {}))
    if "chart" in imm_cfg:
        chart = load_chart(imm_cfg["chart"])
        return _immersion_from_chart(chart, name=str(imm_cfg["chart"])), None
    raise ConfigError("immersion config needs a 'catalog' name or a 'chart' path")


def _immersion_from_chart(chart, name):
    """Wrap a user chart: the covered-radius window is the smallest radius on
    the non-periodic box faces (a ball escapes the box only through them);
    an all-periodic chart is compact, and a constant sampled radius marks a
    spherical image."""
    probe = Immersion(chart, properness_radius=math.inf, name=name)
    faces_min = math.inf
    for axis, p in enumerate(chart.params):
        if p.periodic:
            continue
        for bound in (p.min, p.max):
            pts = sample_box(chart, 256, 41 + axis)
            pts[:, axis] = bound
            faces_min = min(faces_min, float(radius_values(probe, pts).min()))
    interior = radius_values(probe, sample_box(chart, 512, 43))
    compact = math.isinf(faces_min)
    constant_radius = None
    total_volume = None
    if float(np.ptp(interior)) < 1e-9 * max(1.0, float(interior.max())):
        constant_radius = float(interior.mean())
        if chart.dim <= 3:  # chart-box volume backs the constant-radius route
            total_volume = quadrature.region_integral(
                probe, quadrature.ExtrinsicRegion(probe, 0.0, math.inf)
            ).value
    return Immersion(
        chart,
        properness_radius=faces_min if not compact else math.inf,
        name=name,
        compact=compact,
        constant_radius=constant_radius,
        total_volume=total_volume,
    )


# --- running checks ----------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIPPED | ERROR
    details: dict
    wall_clock: float
    artifacts: dict = field(default_factory=dict)  # filename -> writer(path), until run writes them


def _spec_from_config(cfg: RunConfig, imm: Immersion, entry):
    sol = cfg.soliton
    if sol is None and entry is not None:
        lam = entry.constants.get("lam")
        if lam is not None and (lam != 0.0 or entry.name == "plane"):
            return solitons.SolitonSpec("mcf", lam), "catalog constant"
    if sol is None:
        fit = solitons.infer_constant(imm, "mcf", count=cfg.samples, seed=cfg.seed)
        return solitons.SolitonSpec("mcf", fit.constant), "inferred"
    constant = sol.get("constant")
    kind = sol.get("kind", "mcf")
    if constant in (None, "infer"):
        fit = solitons.infer_constant(imm, kind, count=cfg.samples, seed=cfg.seed)
        return solitons.SolitonSpec(kind, fit.constant), "inferred"
    return solitons.SolitonSpec(kind, float(constant)), "given"


def _default_rho(imm: Immersion, R: float, cfg: RunConfig) -> float:
    """Inner capacity radius: halfway between the smallest attainable radius
    and R, which keeps clear of the waist where the level flux degenerates."""
    r_min = float(radius_values(imm, sample_box(imm.chart, 512, cfg.seed)).min())
    return r_min + 0.5 * (R - r_min)


def _default_radius(imm: Immersion, cfg: RunConfig) -> float:
    if cfg.radius is not None:
        return float(cfg.radius)
    if imm.constant_radius is not None:
        return imm.constant_radius * 1.5
    return min(2.0, 0.8 * imm.properness_radius)


def _default_radii(imm: Immersion, cfg: RunConfig):
    if cfg.radii is not None:
        return list(cfg.radii)
    if imm.constant_radius is not None:  # saturated regime of a spherical image
        R0 = imm.constant_radius
        return [1.25 * R0, 1.5 * R0, 1.75 * R0, 2.0 * R0]
    R = _default_radius(imm, cfg)
    lo = 0.6 * R
    return [lo + i * (R - lo) / 3.0 for i in range(4)]


def _flow_times(spec):
    if spec.kind == "mcf" and spec.constant > 0:
        horizon = 1.0 / (2.0 * spec.constant)
        return [horizon * f for f in (0.0, 0.2, 0.4, 0.6, 0.8)]
    return [0.0, 0.25, 0.5, 0.75, 1.0]


def _pick(rep, *names) -> dict:
    return {name: getattr(rep, name) for name in names}


def _judged(margins, details):
    """A check's status from its margins: FAIL if any fails, SKIPPED if all
    are skipped, PASS otherwise (also with none to compare); details gain
    every margin's record under "margins"."""
    verdicts = {m.verdict for m in margins}
    status = "FAIL" if "FAIL" in verdicts else "SKIPPED" if verdicts == {"SKIPPED"} else "PASS"
    return status, {**details, "margins": [asdict(m) for m in margins]}


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (x if isinstance(x, str) else format(float(x), ".17g") for x in row)
            fh.write(",".join(cells) + "\n")


def _inverse_constant(imm, entry, spec):
    """The inverse-flow constant volume growth runs with, or None."""
    c = spec.constant if spec.kind == "imcf" else (entry.constants.get("imcf_c") if entry else None)
    if c is None:
        return None
    if imm.constant_radius is not None and not inequalities.is_one_over_n(c, imm.dim):
        return None
    return c


def _needs_shrinker(cfg, imm, entry, spec):
    if spec.kind != "mcf" or spec.constant <= 0:
        return "needs a shrinker"


def _needs_nonspherical_shrinker(cfg, imm, entry, spec):
    if spec.kind != "mcf" or spec.constant <= 0 or imm.constant_radius is not None:
        return "needs a non-spherical shrinker"


def _integral_range(cfg, imm):
    """R0 and R_max of the parabolicity integral: the user's, or by default
    1.5 and 0.7 of the properness window."""
    r0 = cfg.r0 if cfg.r0 is not None else 1.5
    rmax = cfg.rmax if cfg.rmax is not None else 0.7 * imm.properness_radius
    return r0, rmax


def _needs_room_for_the_integral(cfg, imm, entry, spec):
    """Skip the integral when the properness window leaves its default range
    empty; with r0 or rmax set, an empty range is the user's and fails."""
    reason = _needs_nonspherical_shrinker(cfg, imm, entry, spec)
    r0, rmax = _integral_range(cfg, imm)
    if reason is None and cfg.r0 is None and cfg.rmax is None and r0 >= rmax:
        return (f"the default integral range is empty: R0 = {r0:g} >= R_max = {rmax:g}, "
                "0.7 of the properness window")
    return reason


def _needs_curve_or_surface(cfg, imm, entry, spec):
    if imm.dim > 2 or imm.constant_radius is not None:
        return "needs a non-spherical curve or surface"


def _needs_direct_flow(cfg, imm, entry, spec):
    if spec.kind != "mcf":
        return "direct flow only"


def _needs_inverse_constant(cfg, imm, entry, spec):
    if _inverse_constant(imm, entry, spec) is None:
        return "no inverse-flow constant available"


def _needs_isoperimetric_constant(cfg, imm, entry, spec):
    if spec.kind == "mcf":
        return _needs_shrinker(cfg, imm, entry, spec)
    if inequalities.isoperimetric_excluded(spec.constant, imm.dim):
        return (
            "inverse-flow constant in [0, 1/n]: the comparison factor "
            "(Cn - 1)/(Cn) is not positive"
        )


def _soliton_residual(cfg, imm, entry, spec):
    rep = solitons.soliton_residual(imm, spec, count=cfg.samples, seed=cfg.seed)
    details = _pick(rep, "kind", "constant", "sup", "mean")
    details["samples"] = rep.sample_count
    return [solitons.residual_margin("soliton-residual", rep.sup, cfg.tol)], details, {}


def _flow_residual(cfg, imm, entry, spec):
    rep = solitons.homothety_flow_residual(
        imm, spec, cfg.times or _flow_times(spec), count=cfg.samples, seed=cfg.seed
    )
    details = _pick(rep, "times", "sup_by_time", "sup", "scaling_consistency")
    return [solitons.residual_margin("flow-residual", rep.sup, cfg.tol)], details, {}


def _wmp_probe(cfg, imm, entry, spec):
    probe = solitons.wmp_probe(imm, spec, count=cfg.samples, seed=cfg.seed)
    details = {
        **_pick(probe, "eps", "sup_u", "u_constant", "near_count"),
        "lap_u": [probe.lap_u_min, probe.lap_u_max],
        "lap_v": [probe.lap_v_min, probe.lap_v_max],
        **_pick(probe, "bound_lhs", "bound_rhs", "notes"),
    }
    return probe.margins, details, {}


def _separation(cfg, imm, entry, spec):
    rep = inequalities.separation_check(imm, spec.constant, count=cfg.samples, seed=cfg.seed)
    details = _pick(
        rep, "critical_radius", "verdict", "count_inside", "count_outside", "min_r",
        "max_r", "minimal_in_sphere_defect", "radius_defect", "notes",
    )
    return rep.margins, details, {}


def _second_form(cfg, imm, entry, spec):
    rep = inequalities.second_form_threshold(
        imm, spec.constant, count=cfg.samples, seed=cfg.seed
    )
    return rep.margins, _pick(rep, "max_ratio", "landmarks", "spherical", "notes"), {}


def _rimoldi(cfg, imm, entry, spec):
    rep = inequalities.rimoldi_criterion(imm, spec.constant, count=cfg.samples, seed=cfg.seed)
    return [], asdict(rep), {}  # the criterion is a diagnostic


def _weighted_volume(cfg, imm, entry, spec):
    return [quadrature.weighted_identity_check(imm, spec.constant, tol=cfg.tol)], {}, {}


def _psi(cfg, imm, entry, spec):
    curve = quadrature.psi(imm, spec.constant, _default_radii(imm, cfg))
    details = _pick(curve, "radii", "values", "errors", "tails")
    if curve.closed_form is not None:
        details["closed_form"] = curve.closed_form
    header = ["R", "value", "error", "tail", "closed_form"][: len(details)]
    rows = list(zip(*details.values()))
    artifacts = {"psi.csv": lambda path: _write_csv(path, header, rows)}
    margins = quadrature.monotone_margins("psi", curve.radii, curve.values, curve.errors)
    return margins, details, artifacts


def _parabolicity_integral(cfg, imm, entry, spec):
    rep = quadrature.parabolicity_integral(imm, spec.constant, *_integral_range(cfg, imm))
    return [], _pick(rep, "value", "trend", "log_slope", "notes"), {}  # diagnostic trend


def _flux_identity(cfg, imm, entry, spec):
    R = _default_radius(imm, cfg)
    return quadrature.flux_identity_check(imm, spec.constant, R, tol=cfg.tol), {"R": R}, {}


def _capacity(cfg, imm, entry, spec):
    R = _default_radius(imm, cfg)
    rho = cfg.rho if cfg.rho is not None else _default_rho(imm, R, cfg)
    bound = fem.capacity_upper_bound(imm, rho, R)  # its level sets before the mesh is held
    cap = fem.capacity(imm, rho, R, h=cfg.h)
    details = {
        "rho": rho, "R": R, "cap": cap.cap,
        "boundary_flux_form": cap.boundary_flux_form,
        "solver_residual": cap.solution.residual,
        "notes": list(cap.solution.mesh.notes),
    }
    margin = quadrature.compare(
        "capacity-bound", bound.bound, cap.cap, scale=bound.bound,
        slack=(fem.BOUND_SLACK, "the FEM capacity and its foliation bound carry no error estimate"),
    )
    artifacts = {
        "capacity_potential.csv": lambda path: fem.export_solution_csv(cap.solution, path),
        "capacity_mesh.off": lambda path: fem.export_off(cap.solution.mesh, path),
    }
    return [margin], details, artifacts


def _exit_time(cfg, imm, entry, spec):
    R = _default_radius(imm, cfg)
    field_ = fem.solve_exit_time(imm, R, h=cfg.h)
    margin = fem.exit_time_comparison(spec, field_, R, cfg.h)
    artifacts = {
        "exit_time.csv": lambda path: fem.export_solution_csv(field_, path),
        "exit_time_mesh.off": lambda path: fem.export_off(field_.mesh, path),
    }
    return [margin], {"R": R, "kind": spec.kind}, artifacts


def _isoperimetric(cfg, imm, entry, spec):
    radii = _default_radii(imm, cfg)
    margins = inequalities.isoperimetric(imm, spec, radii, count=cfg.samples, seed=cfg.seed)
    columns = ("name", "lhs", "rhs", "margin", "tol", "verdict")
    rows = [[getattr(m, c) for c in columns] for m in margins]
    artifacts = {"isoperimetric.csv": lambda path: _write_csv(path, columns, rows)}
    return margins, {}, artifacts


def _volume_growth(cfg, imm, entry, spec):
    c = _inverse_constant(imm, entry, spec)
    radii = _default_radii(imm, cfg)
    values, margins = inequalities.volume_growth_monotonicity(
        imm, c, radii, count=cfg.samples, seed=cfg.seed
    )
    details = {"constant": c, "grid": radii, "values": values}
    rows = list(zip(radii, values))
    artifacts = {"volume_growth.csv": lambda path: _write_csv(path, ("t", "value"), rows)}
    return margins, details, artifacts


@dataclass(frozen=True)
class Check:
    skip: Callable | None  # (cfg, imm, entry, spec) -> reason to skip, or None
    run: Callable  # (cfg, imm, entry, spec) -> (margins, details, artifacts)


CHECKS = {  # in report order
    "soliton-residual": Check(None, _soliton_residual),
    "flow-residual": Check(None, _flow_residual),
    "wmp-probe": Check(None, _wmp_probe),
    "separation": Check(_needs_shrinker, _separation),
    "second-form": Check(_needs_shrinker, _second_form),
    "rimoldi": Check(_needs_direct_flow, _rimoldi),
    "weighted-volume": Check(_needs_shrinker, _weighted_volume),
    "psi": Check(_needs_nonspherical_shrinker, _psi),
    "parabolicity-integral": Check(_needs_room_for_the_integral, _parabolicity_integral),
    "flux-identity": Check(_needs_shrinker, _flux_identity),
    "capacity": Check(_needs_curve_or_surface, _capacity),
    "exit-time": Check(_needs_curve_or_surface, _exit_time),
    "isoperimetric": Check(_needs_isoperimetric_constant, _isoperimetric),
    "volume-growth": Check(_needs_inverse_constant, _volume_growth),
}
FULL_CHECKS = list(CHECKS)


def run_check(name: str, cfg: RunConfig, imm: Immersion, entry, spec) -> CheckResult:
    """Run one check and take its status from its margins; a solab error
    becomes the check's record (a numerical failure or running out of memory
    is ERROR, anything else FAIL) instead of ending the report."""
    t0 = time.perf_counter()
    check = CHECKS[name]
    reason = check.skip(cfg, imm, entry, spec) if check.skip else None
    if reason is not None:
        return CheckResult(name, "SKIPPED", {"why": reason}, time.perf_counter() - t0)
    try:
        margins, details, artifacts = check.run(cfg, imm, entry, spec)
        status, details = _judged(margins, details)
    except (SolabError, MemoryError) as err:
        status = "ERROR" if isinstance(err, (*NUMERICAL_FAILURES, MemoryError)) else "FAIL"
        details, artifacts = {"error": type(err).__name__, "detail": str(err)}, {}
    return CheckResult(name, status, details, time.perf_counter() - t0, artifacts)


@dataclass
class Report:
    config: dict
    immersion: dict
    soliton: dict
    checks: list
    verdict: str
    written: list = field(default_factory=list)  # artifact paths, in the order written

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config,
            "immersion": self.immersion,
            "soliton": self.soliton,
            "checks": [_pick(c, "name", "status", "details", "wall_clock") for c in self.checks],
            "verdict": self.verdict,
        }


# worst verdict first: the report takes the first one any check reached
_EXIT_OF_VERDICT = {"ERROR": EXIT_NUMERICAL, "FAIL": EXIT_CHECK_FAILED, "PASS": EXIT_OK}


def _write_artifacts(result: CheckResult, out) -> list:
    """Write a check's artifacts under out, when given, and drop its writers,
    which hold its meshes; returns the paths written."""
    written = []
    if out:
        os.makedirs(out, exist_ok=True)
        for filename, writer in result.artifacts.items():
            written.append(os.path.join(out, filename))
            writer(written[-1])
    result.artifacts = {}
    return written


def run(cfg: RunConfig):
    """Execute the configured checks in order; returns (report, exit_code).
    The checks share one geometry per default sample set and one majorant
    fit per immersion, for this run only.  Each check's artifacts are written
    under cfg.out as it ends, so no check's mesh outlives it."""
    imm, entry = build_immersion(cfg)
    results, written = [], []
    with run_memo():
        spec, source = _spec_from_config(cfg, imm, entry)
        for name in cfg.checks or FULL_CHECKS:
            results.append(run_check(name, cfg, imm, entry, spec))
            written += _write_artifacts(results[-1], cfg.out)
    statuses = {c.status for c in results}
    verdict = next(v for v in _EXIT_OF_VERDICT if v in statuses or v == "PASS")
    info = _pick(imm, "name", "dim", "ambient_dim", "properness_radius", "compact", "proper")
    info["notes"] = list(imm.notes) + list(entry.notes if entry is not None else ())
    soliton = {**_pick(spec, "kind", "constant"), "source": source}
    report = Report(cfg.echo(), info, soliton, results, verdict, written)
    return report, _EXIT_OF_VERDICT[verdict]


def catalog_report() -> dict:
    return {"schema": SCHEMA_VERSION, "entries": catalog_rows()}
