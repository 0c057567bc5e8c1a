"""Trace solab's layers from outside the program.

``Tracer.install`` replaces every binding of each target function in every
loaded ``solab`` module (``fem``, ``levelset`` and ``quadrature`` import
``geometry`` and ``radius_values`` by name, so patching the defining module
alone would miss their calls) with a wrapper that records a span: name,
start, end and parent.  Spans stay in memory in flat arrays; ``save`` writes
them out and ``layer_metrics`` derives calls, self and inclusive times from
the span tree.  A target that no longer exists is reported as ``None``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array

import numpy as np

# (module, function, index of the `points` argument or None)
TARGETS = (
    ("dsl", "eval_jet", 1),
    ("geometry", "geometry", 1),
    ("geometry", "radius_values", 1),
    ("levelset", "level_segments", None),
    ("levelset", "boundary_area_and_flux", None),
    ("fem", "mesh_region", None),
    ("fem", "assemble", None),
    ("fem", "solve_dirichlet", None),
    ("fem", "cg", None),
    ("fem", "capacity_upper_bound", None),
    ("fem", "export_off", None),
    ("fem", "export_solution_csv", None),
    ("quadrature", "region_integral", None),
    ("sampling", "sample_box", None),
    ("report", "json_dumps", None),
    ("report", "run_check", None),
)

CHECKS = (
    "soliton-residual", "flow-residual", "wmp-probe", "separation", "second-form",
    "rimoldi", "weighted-volume", "psi", "parabolicity-integral", "flux-identity",
    "capacity", "exit-time", "isoperimetric", "volume-growth",
)


def _point_count(args, kwargs, index):
    pts = kwargs["points"] if "points" in kwargs else args[index]
    shape = np.shape(pts)
    return shape[0] if len(shape) >= 2 else 1


class Tracer:
    JOB = "harness.job"  # the span the harness opens around each job

    def __init__(self):
        self.names: list = []  # span name id -> name
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 if no ancestor span has the same name
        self.points = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cg_iterations = 0
        self.missing: set = set()
        self._stack: list = []
        self._depth: list = []
        self._patched: list = []  # (module, attribute, original)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def span(self, name: str, fn, *args, points: int = 0, **kwargs):
        """Call fn inside a span called name."""
        nid = self._id(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._depth[nid] += 1
        self.outer.append(self._depth[nid] == 1)
        self.points.append(points)
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()
            self._depth[nid] -= 1

    def _wrap(self, label, original, point_index):
        span = self.span
        if label == "fem.cg":

            def wrapper(*args, **kwargs):
                callback = kwargs.get("callback")

                def count(xk):
                    self.cg_iterations += 1
                    if callback is not None:
                        callback(xk)

                kwargs["callback"] = count
                return span(label, original, *args, **kwargs)

        elif label == "report.run_check":

            def wrapper(*args, **kwargs):
                return span(f"{label}.{args[0]}", original, *args, **kwargs)

        elif point_index is not None:

            def wrapper(*args, **kwargs):
                n = _point_count(args, kwargs, point_index)
                return span(label, original, *args, points=n, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                return span(label, original, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, func, point_index in TARGETS:
            label = f"{module_name}.{func}"
            try:
                module = importlib.import_module(f"solab.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, func, None)
            if original is None:
                self.missing.add(label)
                continue
            wrapper = self._wrap(label, original, point_index)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "solab" or mod_name.startswith("solab.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "points": np.frombuffer(self.points, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def totals(self) -> dict:
        """Per span name: calls, points, self, inclusive (outermost spans only)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        k = len(self.names)
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=k)
        points = np.bincount(ids, weights=a["points"], minlength=k)
        one_point = np.bincount(ids, weights=a["points"] == 1, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        incl_s = np.bincount(ids, weights=np.where(a["outer"], dur, 0.0), minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "points": int(points[i]),
                "one_point_calls": int(one_point[i]),
                "self_s": float(self_s[i]),
                "incl_s": float(incl_s[i]),
            }
            for i, name in enumerate(self.names)
        }


_ZERO = {"calls": 0, "points": 0, "one_point_calls": 0, "self_s": 0.0, "incl_s": 0.0}
UNITS = {"calls": "count", "one_point_calls": "count", "points_per_call": "points",
         "self_s": "s", "incl_s": "s"}
# span label -> statistics reported as "<label>.<statistic>"
LAYERS = (
    ("dsl.eval_jet", ("calls", "points_per_call", "self_s")),
    ("geometry.radius_values", ("calls", "one_point_calls", "self_s")),
    ("geometry.geometry", ("calls", "points_per_call", "self_s")),
    ("levelset.level_segments", ("self_s",)),
    ("levelset.boundary_area_and_flux", ("calls", "incl_s")),
    ("fem.mesh_region", ("calls", "self_s", "incl_s")),
    ("fem.assemble", ("self_s",)),
    ("fem.solve_dirichlet", ("self_s",)),
    ("fem.cg", ("self_s",)),
    ("fem.capacity_upper_bound", ("incl_s",)),
    ("quadrature.region_integral", ("calls", "self_s", "incl_s")),
    ("sampling.sample_box", ("self_s",)),
    ("report.json_dumps", ("self_s",)),
)


def layer_metrics(tracer: Tracer, passes: int, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics as {name: (value, unit)}, per traced job list.

    ``passes`` is the number of traced job lists; the tracing overhead is the
    median traced list wall time minus the median untraced one.
    """
    totals = tracer.totals()

    def value(label, stat, target=None):
        if (target or label) in tracer.missing:
            return None
        row = totals.get(label, _ZERO)
        if stat == "points_per_call":
            return row["points"] / row["calls"] if row["calls"] else 0.0
        return row[stat] / passes

    m = {
        f"{label}.{stat}": (value(label, stat), UNITS[stat])
        for label, stats in LAYERS
        for stat in stats
    }
    export = [value(f"fem.{f}", "self_s") for f in ("export_off", "export_solution_csv")]
    m["fem.export.self_s"] = (None if None in export else sum(export), "s")
    m["fem.cg_iterations"] = (
        None if "fem.cg" in tracer.missing else tracer.cg_iterations / passes, "count")
    for check in CHECKS:
        label = f"report.run_check.{check}"
        m[f"{label}.incl_s"] = (value(label, "incl_s", target="report.run_check"), "s")
    m["trace.unattributed_s"] = (value(Tracer.JOB, "self_s"), "s")
    m["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return m
