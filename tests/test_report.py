"""One chart evaluation per sample set and one majorant fit per report:
shared inside `report.run`, never across runs.  A check's meshes are not
kept past the check."""

import ast
import contextlib
import gc
import importlib
import inspect
import json
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from solab import fem, quadrature, report, sampling, solitons
from solab.catalog import catalog
from solab.charts import ParamSpec, chart_from_sources
from solab.geometry import Immersion, PointGeometry, geometry, scale_immersion
from solab.sampling import (
    homothetic_geometries,
    run_memo,
    sample_box,
    sample_geometry,
)

GEOMETRY = sys.modules["solab.geometry"]


@pytest.fixture
def chart_evaluations(monkeypatch):
    """Record the point count of every order-2 chart evaluation, through
    every solab module that bound ``evaluate_chart`` by name."""
    calls = []
    original = GEOMETRY.evaluate_chart

    def counted(chart, points, order=2):
        if order == 2:
            calls.append(len(np.atleast_2d(points)))
        return original(chart, points, order)

    for name, module in list(sys.modules.items()):
        if name == "solab" or name.startswith("solab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def clifford_config():
    return report.RunConfig.from_dict(
        {"immersion": {"catalog": "clifford", "params": {"k": 2, "nk": 2}}, "samples": 4096}
    )


def test_full_report_computes_each_sample_geometry_once(chart_evaluations):
    _, code = report.run(clifford_config())
    assert code == 0
    # one evaluation per sample set: the 4096 of the pointwise checks, which
    # the inequality suites' soliton verification shares, and the 5 of the
    # constant-radius integral; the flow times and the second-form rescale
    # reuse the 4096 set's jets
    assert sorted(chart_evaluations) == [5, 4096]


def test_full_report_forms_only_the_fields_it_reads(monkeypatch):
    # a field is formed on its first read: no check reads alpha, and the flow
    # times and the second-form rescale read H, |A|^2 and the frame only
    formed, scaled = [], []
    form = PointGeometry.__getattr__

    def counted(g, name):
        if name in PointGeometry.FIELDS:
            formed.append((g, name))
        return form(g, name)

    original = sampling.homothetic_geometries

    def recorded(imm, scales, *args, **kwargs):
        for c, g in zip(scales, original(imm, scales, *args, **kwargs)):
            if c != 1.0:
                scaled.append(g)
            yield g

    monkeypatch.setattr(PointGeometry, "__getattr__", counted)
    for module in [m for name, m in sys.modules.items() if name.startswith("solab.")]:
        if getattr(module, "homothetic_geometries", None) is original:
            monkeypatch.setattr(module, "homothetic_geometries", recorded)
    _, code = report.run(clifford_config())
    assert code == 0
    assert len(scaled) == 5
    assert [name for _, name in formed].count("alpha") == 0
    for geom in scaled:
        read = {name for g, name in formed if g is geom}
        assert read & {"H", "normA2"} and not read & {"metric", "metric_inv"}


def test_second_report_recomputes_its_sample_geometry(chart_evaluations, monkeypatch):
    cfg = clifford_config()
    cfg.checks = ["soliton-residual", "wmp-probe"]
    built = report.build_immersion(cfg)  # both runs see the same immersion object
    monkeypatch.setattr(report, "build_immersion", lambda cfg: built)
    report.run(cfg)
    report.run(cfg)
    assert chart_evaluations == [4096] * 2


def test_shared_geometry_is_read_only_and_scoped():
    imm, _ = catalog("sphere", n=2, R=1.0)
    with run_memo():
        g = sample_geometry(imm, count=64, seed=3)
        assert sample_geometry(imm, count=64, seed=3) is g
        assert sample_geometry(imm, count=64, seed=4) is not g
        explicit = sample_geometry(imm, sample_box(imm.chart, 64, 3))
        assert explicit is not g and explicit.H.flags.writeable
        np.testing.assert_array_equal(explicit.H, g.H)
        _, (held, jets) = sampling._RUN_MEMO.get()[(id(imm), "samples", 64, 3)]
        assert held is g and jets[0] is g.X
        # reading a field forms it, and a field formed on the shared g is read-only
        for value in (*(getattr(g, name) for name in PointGeometry.FIELDS), *jets):
            if value is not None:
                with pytest.raises(ValueError):
                    value.flat[0] = 0.0
        # J and S are held by the memo alone (g keeps X, the normal projection
        # of S, and the Jacobian columns as another view of J's buffer)
        memo_only = [weakref.ref(a) for a in jets[1:]]
        del held, jets, value
    gc.collect()
    assert sampling._RUN_MEMO.get() is None
    assert [ref() for ref in memo_only] == [None, None]
    assert sample_geometry(imm, count=64, seed=3) is not g


def _constant_coordinate_chart():
    params = [ParamSpec("u1", -1.0, 1.0), ParamSpec("u2", 0.5, 2.0)]
    chart = chart_from_sources(2, 4, ["u1", "u2*cos(u1)", "u2*sin(u1)", "0.75"], params)
    return Immersion(chart, properness_radius=0.75, name="constant coordinate")


HOMOTHETIC_CASES = {
    "sphere": lambda: catalog("sphere", n=2, R=1.0)[0],
    "veronese": lambda: catalog("veronese")[0],
    "clifford(2,2)": lambda: catalog("clifford", k=2, nk=2)[0],
    "cylinder(4,2,1)": lambda: catalog("cylinder", n=4, k=2, rho=1.0)[0],
    "constant coordinate": _constant_coordinate_chart,
}
SCALES = (1.0, 0.5, math.sqrt(0.8), math.exp(0.25))


@pytest.mark.parametrize("where", ["memo", "outside", "explicit"])
@pytest.mark.parametrize("case", sorted(HOMOTHETIC_CASES))
def test_homothetic_geometries_equal_the_rescaled_charts(case, where):
    imm = HOMOTHETIC_CASES[case]()
    points = sample_box(imm.chart, 64, 3)
    kwargs = {"samples": points} if where == "explicit" else {"count": 64, "seed": 3}
    with run_memo() if where == "memo" else contextlib.nullcontext():
        got = homothetic_geometries(imm, SCALES, **kwargs)
        for c, scaled in zip(SCALES, got):
            expected = geometry(scale_immersion(imm, c), points)
            for name in PointGeometry.FIELDS:
                np.testing.assert_array_equal(
                    getattr(scaled, name), getattr(expected, name), err_msg=f"{c} {name}"
                )
            if where == "memo" and c == 1.0:
                assert scaled is sample_geometry(imm, count=64, seed=3)


def cylinder_chart_config(tmp_path):
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps({
        "dim": 2,
        "codim_total": 3,
        "params": [
            {"name": "u1", "min": 0.0, "max": 2 * math.pi, "periodic": True},
            {"name": "u2", "min": -8.0, "max": 8.0, "periodic": False},
        ],
        "coords": ["cos(u1)", "sin(u1)", "u2"],
    }))
    return report.RunConfig.from_dict(
        {"immersion": {"chart": str(path)}, "soliton": {"kind": "mcf", "constant": 1.0}}
    )


FULL_REPORT_CATALOG = (
    {"catalog": "clifford", "params": {"k": 2, "nk": 2}},
    {"catalog": "cylinder", "params": {"n": 4, "k": 2, "rho": 1.0}},
    {"catalog": "plane", "params": {"n": 2}},
)
MARGIN_FIELDS = ["name", "lhs", "rhs", "margin", "error", "tol", "verdict", "notes"]


def test_full_report_margins_name_their_slacks(tmp_path):
    # every judged check's status is the one its margins give, and every
    # margin that carries no error names the slack its verdict rests on
    runs = [report.run(cylinder_chart_config(tmp_path))] + [
        report.run(report.RunConfig.from_dict({"immersion": imm})) for imm in FULL_REPORT_CATALOG
    ]
    for rep, code in runs:
        assert code == 0, rep.immersion["name"]
        for check in rep.checks:
            if check.status in ("SKIPPED", "ERROR"):
                continue
            margins = check.details["margins"]
            judged, _ = report._judged([quadrature.Margin(**m) for m in margins], {})
            assert check.status == judged, (rep.immersion["name"], check.name)
            for m in margins:
                assert list(m) == MARGIN_FIELDS
                if m["verdict"] == "SKIPPED":
                    continue
                if m["error"] is None:  # a verdict resting on a slack says so
                    assert any(note.startswith("slack ") for note in m["notes"]), m["name"]
                else:
                    assert m["tol"] == max(quadrature.ROUNDING_FLOOR, 2.0 * m["error"])
    checks = {c.name: c for c in runs[0][0].checks}
    ported = ("weighted-volume", "flux-identity", "capacity", "isoperimetric")
    margins = [m for name in ported for m in checks[name].details["margins"]]
    assert len(margins) == 1 + 3 + 1 + 8
    by_name = {m["name"]: m for m in margins}
    assert by_name["weighted-volume-identity"]["tol"] <= 1e-9
    assert by_name["curvature-factor"]["tol"] <= 1e-9
    assert by_name["capacity-bound"]["tol"] == 0.05
    assert checks["capacity"].details["cap"] == by_name["capacity-bound"]["rhs"]


@pytest.mark.parametrize(
    "immersion",
    [{"catalog": "veronese"}, {"catalog": "sphere", "params": {"n": 2, "R": 2.0}}],
    ids=["veronese", "sphere(2,2)"],
)
def test_flux_identity_on_a_spherical_image_judges_only_the_factor(immersion):
    # the saturated ball has no boundary, so there is no flux to compare
    cfg = report.RunConfig.from_dict({"immersion": immersion, "checks": ["flux-identity"]})
    rep, code = report.run(cfg)
    (check,) = rep.checks
    margins = check.details["margins"]
    assert [m["name"] for m in margins] == ["flux-identity", "curvature-factor", "flux-nonnegative"]
    assert [m["verdict"] for m in margins] == ["SKIPPED", "PASS", "SKIPPED"]
    assert margins[1]["tol"] == quadrature.ROUNDING_FLOOR
    assert (check.status, code) == ("PASS", 0)


def test_full_report_fits_the_majorant_once(tmp_path, monkeypatch):
    cfg = cylinder_chart_config(tmp_path)
    fits, fit = [], quadrature._fit_majorant
    monkeypatch.setattr(quadrature, "_fit_majorant", lambda imm: fits.append(imm) or fit(imm))
    imm, entry = built = report.build_immersion(cfg)
    monkeypatch.setattr(report, "build_immersion", lambda cfg: built)
    rep, code = report.run(cfg)
    assert code == 0
    assert fits == [imm]
    # outside a run each check fits again, and gets the same bits
    checks = {c.name: c for c in rep.checks}
    for name in ("weighted-volume", "psi", "parabolicity-integral"):
        alone = report.run_check(name, cfg, imm, entry, solitons.SolitonSpec("mcf", 1.0))
        assert alone.status == checks[name].status == "PASS"
        assert report.json_dumps(alone.details) == report.json_dumps(checks[name].details)
    assert fits == [imm] * 4


@pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
def test_no_mesh_outlives_its_check(tmp_path, monkeypatch, out):
    # the capacity check's artifacts are written (or dropped) as it ends, so
    # its mesh is unreachable once the exit-time check starts
    meshes, alive = [], []
    mesh_region, solve_exit_time = fem.mesh_region, fem.solve_exit_time

    def tracked(*args, **kwargs):
        mesh = mesh_region(*args, **kwargs)
        meshes.append(weakref.ref(mesh))
        return mesh

    def exit_time(*args, **kwargs):
        gc.collect()
        alive.append([ref() is not None for ref in meshes])
        return solve_exit_time(*args, **kwargs)

    monkeypatch.setattr(fem, "mesh_region", tracked)
    monkeypatch.setattr(fem, "solve_exit_time", exit_time)
    cfg = report.RunConfig.from_dict({
        "immersion": {"catalog": "plane", "params": {"n": 2}},
        "checks": ["capacity", "exit-time"],
        "out": str(tmp_path) if out else None,
    })
    rep, code = report.run(cfg)
    assert code == 0
    assert alive == [[False]]
    gc.collect()
    assert [ref() for ref in meshes] == [None, None]
    assert all(not c.artifacts for c in rep.checks)
    names = ["capacity_potential.csv", "capacity_mesh.off", "exit_time.csv", "exit_time_mesh.off"]
    assert rep.written == ([str(tmp_path / name) for name in names] if out else [])
    assert sorted(p.name for p in tmp_path.iterdir()) == (sorted(names) if out else [])


def test_benchmark_trace_targets_are_solab_functions():
    # the benchmark's tracer wraps each (module, function) of TARGETS in
    # perfbench/spans.py, and a target that moved or is no longer a function
    # leaves its layer metrics null; the file is read with ast, not run
    source = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    assert len(targets) >= 10
    for module, name, _ in targets:
        fn = getattr(importlib.import_module(f"solab.{module}"), name, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"solab.{module}", (module, name)
