"""Self-test of the benchmark harness: the gate and the tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import pytest

import gate
import run
import spans
import workloads

run.import_solab()

import solab.cli  # noqa: E402
from solab import fem, levelset, quadrature  # noqa: E402

geometry = sys.modules["solab.geometry"]  # the package re-exports a function of that name

PLANE = workloads.WORKLOADS["fem-surfaces"][0]


@pytest.fixture(scope="module")
def plane_out(tmp_path_factory):
    """A real plane(2) report with the capacity check, written once."""
    job = workloads.Job(
        PLANE.name, PLANE.args + ("--checks", "soliton-residual,capacity"), PLANE.refs
    )
    out = tmp_path_factory.mktemp("plane")
    with contextlib.redirect_stdout(io.StringIO()):
        code = solab.cli.main(workloads.job_argv(job, str(out), 7))
    return job, code, out


def _edit_report(out, fn):
    path = out / "report.json"
    text = path.read_text()
    path.write_text(fn(text))
    return text


def test_gate_passes_then_flags_capacity_nudged_by_3_percent(plane_out):
    job, code, out = plane_out
    first = gate.judge(job, code, "", str(out))
    assert first.reasons == []
    cap = [r for r in first.references if r["reference"] == "plane-capacity"][0]
    assert cap["verdict"] == "PASS" and cap["error"] < 0.02

    def nudge(text):
        report = json.loads(text)
        for rec in report["checks"]:
            if rec["name"] == "capacity":
                rec["details"]["cap"] *= 1.03
        return json.dumps(report)

    original = _edit_report(out, nudge)
    try:
        nudged = gate.judge(job, code, "", str(out))
    finally:
        (out / "report.json").write_text(original)
    assert "reference plane-capacity FAIL" in nudged.reasons
    gate.check_repeat(nudged, first)
    assert any(r.startswith("not repeatable: report.json") for r in nudged.reasons)


def test_repeat_ignores_only_wall_clock_lines(plane_out):
    job, code, out = plane_out
    first = gate.judge(job, code, "", str(out))
    original = _edit_report(
        out, lambda t: t.replace('"wall_clock": ', '"wall_clock": 12345')
    )
    try:
        again = gate.judge(job, code, "", str(out))
    finally:
        (out / "report.json").write_text(original)
    gate.check_repeat(again, first)
    assert again.reasons == []


def test_gate_flags_missing_report(tmp_path):
    verdict = gate.judge(PLANE, 0, "", str(tmp_path))
    assert verdict.failed and verdict.reasons == ["no report.json"]


def test_install_replaces_every_binding_and_restores_them():
    originals = (geometry.radius_values, geometry.geometry, fem.cg)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (fem, levelset, quadrature):
            assert mod.radius_values is geometry.radius_values is not originals[0]
            assert mod.geometry is geometry.geometry is not originals[1]
        assert fem.cg is not originals[2]
    finally:
        tracer.uninstall()
    assert (geometry.radius_values, geometry.geometry, fem.cg) == originals
    assert fem.radius_values is levelset.radius_values is originals[0]


def test_missing_target_reports_null(monkeypatch):
    monkeypatch.delattr(fem, "mesh_region")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"fem.mesh_region"}
    metrics = spans.layer_metrics(tracer, 1, [1.0], [1.0])
    assert metrics["fem.mesh_region.calls"] == (None, "count")
    assert metrics["fem.assemble.self_s"] == (0.0, "s")


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    sphere = workloads.Job("sphere", ("--catalog", "sphere", "--n", "2", "--radius", "2"))
    runner = run.Runner((sphere, PLANE), 3, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        t = time.perf_counter()
        runner.run_list(tracer)
        wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    assert [v.reasons for v in runner.verdicts] == [[], []]
    totals = tracer.totals()
    self_sum = sum(row["self_s"] for row in totals.values())
    jobs = totals[spans.Tracer.JOB]
    assert jobs["calls"] == 2
    assert self_sum == pytest.approx(jobs["incl_s"], rel=1e-9)
    assert all(row["self_s"] >= 0.0 for row in totals.values())
    # what the spans do not cover is the harness's own bookkeeping
    assert wall - self_sum == pytest.approx(runner.own_s, abs=0.005 + 0.01 * wall)
    assert tracer.cg_iterations > 0
    assert totals["geometry.radius_values"]["one_point_calls"] > 0
    metrics = spans.layer_metrics(tracer, 1, [wall], [wall])
    assert set(metrics) >= {"fem.cg_iterations", "dsl.eval_jet.points_per_call"}
    assert all(v is not None for v, _ in metrics.values())
    assert os.listdir(tmp_path) == []


def test_metric_names_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = spans.layer_metrics(spans.Tracer(), 1, [1.0], [1.0])
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()
    }
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
