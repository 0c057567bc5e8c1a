"""Chart definitions: a parameter box, periodicity flags and one expression
per ambient coordinate."""

from __future__ import annotations

import json
import sys
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


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A JSON number (a bool is not one) that is a finite float."""
    return (_integer(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


_CHART_FIELDS = {  # field -> (test, what its value must be)
    "dim": (_integer, "an integer"),
    "codim_total": (_integer, "an integer"),
    "params": (lambda x: isinstance(x, list) and all(isinstance(p, dict) for p in x),
               "a list of objects"),
    "coords": (lambda x: isinstance(x, list) and all(isinstance(s, str) for s in x),
               "a list of strings"),
}
_PARAM_FIELDS = {
    "name": (lambda x: isinstance(x, str), "a string"),
    "min": (_finite, "a finite number"),
    "max": (_finite, "a finite number"),
    "periodic": (lambda x: isinstance(x, bool), "true or false"),
}


def _check_fields(obj: dict, fields: dict, where: str) -> None:
    """obj has exactly the given fields, each of its type; nothing is coerced."""
    for what, keys in (("unknown", set(obj) - set(fields)), ("missing", set(fields) - set(obj))):
        if keys:
            raise ChartValidationError(f"{where}: {what} fields {sorted(keys)}")
    for key, (ok, kind) in fields.items():
        if not ok(obj[key]):
            raise ChartValidationError(f"{where}: {key} must be {kind}, got {obj[key]!r}")


def chart_from_dict(data: dict) -> ChartDefinition:
    """Decode the chart JSON object; unknown fields and ill-typed values are rejected."""
    if not isinstance(data, dict):
        raise ChartValidationError("chart definition must be a JSON object")
    _check_fields(data, _CHART_FIELDS, "chart")
    params = []
    for i, p in enumerate(data["params"]):
        _check_fields(p, _PARAM_FIELDS, f"params[{i}]")
        params.append(ParamSpec(p["name"], float(p["min"]), float(p["max"]), p["periodic"]))
    return chart_from_sources(data["dim"], data["codim_total"], data["coords"], tuple(params))


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
