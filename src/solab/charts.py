"""Chart definitions: a parameter box, periodicity flags and one expression
per ambient coordinate."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import dsl
from .errors import ChartValidationError


@dataclass(frozen=True)
class ParamSpec:
    name: str
    min: float
    max: float
    periodic: bool = False

    @property
    def span(self) -> float:
        return self.max - self.min


@dataclass(frozen=True)
class ChartDefinition:
    """An immersion chart from an n-dimensional box into R^(n+m)."""

    dim: int
    codim_total: int  # ambient dimension n+m
    params: tuple[ParamSpec, ...]
    coords: tuple[dsl.Expr, ...]
    sources: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ChartValidationError("dim must be >= 1")
        if self.codim_total < self.dim + 1:
            raise ChartValidationError("codim_total must be at least dim + 1")
        if len(self.params) != self.dim:
            raise ChartValidationError(
                f"expected {self.dim} parameter specs, got {len(self.params)}"
            )
        if len(self.coords) != self.codim_total:
            raise ChartValidationError(
                f"expected {self.codim_total} coordinate expressions, got {len(self.coords)}"
            )
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ChartValidationError("parameter names must be unique")
        for p in self.params:
            if not (p.min < p.max):
                raise ChartValidationError(f"parameter {p.name}: empty interval")
        for i, expr in enumerate(self.coords):
            if dsl.max_param_index(expr) > self.dim:
                raise ChartValidationError(
                    f"coordinate {i} references an undeclared parameter"
                )

    @property
    def ambient_dim(self) -> int:
        return self.codim_total

    @property
    def box(self):
        """(mins, maxs) arrays of the parameter domain."""
        return (
            [p.min for p in self.params],
            [p.max for p in self.params],
        )


def chart_from_sources(dim, codim_total, sources, params=None) -> ChartDefinition:
    """Build a chart from expression strings; default box is [0,1]^dim."""
    if params is None:
        params = tuple(
            ParamSpec(name, 0.0, 1.0) for name in dsl.default_param_names(dim)
        )
    params = tuple(params)
    names = [p.name for p in params]
    coords = tuple(dsl.parse(src, names) for src in sources)
    return ChartDefinition(dim, codim_total, params, coords, tuple(sources))


_TOP_FIELDS = {"dim", "codim_total", "params", "coords"}
_PARAM_FIELDS = {"name", "min", "max", "periodic"}


def chart_from_dict(data: dict) -> ChartDefinition:
    """Decode the chart JSON object; unknown fields are rejected."""
    if not isinstance(data, dict):
        raise ChartValidationError("chart definition must be a JSON object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise ChartValidationError(f"unknown chart fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(data)
    if missing:
        raise ChartValidationError(f"missing chart fields: {sorted(missing)}")
    params = []
    for i, p in enumerate(data["params"]):
        extra = set(p) - _PARAM_FIELDS
        if extra:
            raise ChartValidationError(f"params[{i}]: unknown fields {sorted(extra)}")
        lack = _PARAM_FIELDS - set(p)
        if lack:
            raise ChartValidationError(f"params[{i}]: missing fields {sorted(lack)}")
        params.append(
            ParamSpec(str(p["name"]), float(p["min"]), float(p["max"]), bool(p["periodic"]))
        )
    return chart_from_sources(
        int(data["dim"]),
        int(data["codim_total"]),
        [str(s) for s in data["coords"]],
        tuple(params),
    )


def chart_to_dict(chart: ChartDefinition) -> dict:
    sources = chart.sources or tuple(dsl.to_source(e) for e in chart.coords)
    return {
        "dim": chart.dim,
        "codim_total": chart.codim_total,
        "params": [
            {"name": p.name, "min": p.min, "max": p.max, "periodic": p.periodic}
            for p in chart.params
        ],
        "coords": list(sources),
    }


def load_chart(path) -> ChartDefinition:
    with open(path, "r", encoding="utf-8") as fh:
        return chart_from_dict(json.load(fh))


def save_chart(chart: ChartDefinition, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chart_to_dict(chart), fh, indent=2)
        fh.write("\n")
