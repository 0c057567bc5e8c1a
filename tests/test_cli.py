"""CLI behavior: exit codes, outputs, determinism, config handling."""

import ast
import csv as csv_module
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import solab
from solab.charts import chart_from_sources, save_chart
from solab.cli import main
from solab.errors import ConfigError
from solab.report import CHECKS, Check, RunConfig


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def json_payload(stdout: str) -> dict:
    return json.loads(stdout[stdout.index("{") :])


def test_catalog_lists_six_entries(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    body = [ln for ln in out.splitlines()[2:] if ln.strip()]
    assert len(body) == 6
    assert any("veronese" in ln for ln in body)


def test_catalog_json(capsys):
    code, out, _ = run_cli(["catalog", "--format", "json"], capsys)
    data = json.loads(out)
    assert data["schema"] == 3
    assert len(data["entries"]) == 6


def test_check_soliton_cylinder_passes(capsys):
    code, out, _ = run_cli(
        [
            "check-soliton", "--catalog", "cylinder", "--n", "2", "--k", "1",
            "--rho", "1", "--kind", "mcf", "--lambda", "1",
        ],
        capsys,
    )
    assert code == 0
    data = json_payload(out)
    assert data["checks"][0]["details"]["sup"] < 1e-8


def test_check_soliton_wrong_constant_fails(capsys):
    code, out, _ = run_cli(
        ["check-soliton", "--catalog", "sphere", "--n", "2", "--radius", "2",
         "--kind", "mcf", "--lambda", "0.7"],
        capsys,
    )
    assert code == 1


def test_plane_chart_imcf_exits_one_with_detail(tmp_path, capsys):
    chart = chart_from_sources(
        2, 3, ["u1", "u2", "0"],
        params=None,
    )
    # widen the default box so samples stay generic
    path = tmp_path / "plane.json"
    save_chart(chart, path)
    code, out, _ = run_cli(
        ["check-soliton", "--chart", str(path), "--kind", "imcf", "--c", "0.5"],
        capsys,
    )
    assert code == 1
    data = json_payload(out)
    assert data["checks"][0]["details"]["error"] == "VanishingMeanCurvature"


def test_unknown_catalog_is_config_error(capsys):
    code, _, err = run_cli(["check-soliton", "--catalog", "moebius", "--kind", "mcf", "--lambda", "1"], capsys)
    assert code == 2
    assert "moebius" in err


def test_wrong_parameter_for_entry_is_config_error(capsys):
    code, _, err = run_cli(
        ["check-soliton", "--catalog", "sphere", "--n", "2", "--k", "1",
         "--kind", "mcf", "--lambda", "2"],
        capsys,
    )
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-soliton", "--catalog", "sphere", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_truncation_failure_exits_three(tmp_path, capsys):
    # a chart window far too small for the Gaussian tail at tiny lam
    chart = chart_from_sources(2, 3, ["u1", "u2", "0"])
    path = tmp_path / "tiny.json"
    save_chart(chart, path)  # default box [0,1]^2
    code, _, err = run_cli(
        ["weighted-volume", "--chart", str(path), "--kind", "mcf", "--lambda", "0.001"],
        capsys,
    )
    assert code == 3


def test_capacity_cli_annulus(capsys):
    code, out, _ = run_cli(
        ["capacity", "--catalog", "plane", "--n", "2", "--rho", "1", "--R", "2.71828"],
        capsys,
    )
    assert code == 0
    details = json_payload(out)["checks"][0]["details"]
    assert details["cap"] == pytest.approx(6.283, rel=0.02)


def test_exit_time_cli_cylinder_ratio(capsys):
    code, out, _ = run_cli(
        ["exit-time", "--catalog", "cylinder", "--n", "2", "--k", "1", "--rho", "1",
         "--R", "2", "--kind", "imcf", "--c", "1"],
        capsys,
    )
    assert code == 0
    details = json_payload(out)["checks"][0]["details"]
    (ratio,) = details["margins"]
    assert ratio["rhs"] == pytest.approx(2.0)
    assert ratio["margin"] < 0.02


def test_dry_run_touches_nothing(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        ["check-soliton", "--catalog", "sphere", "--n", "1", "--radius", "1",
         "--kind", "mcf", "--lambda", "1", "--out", str(out_dir), "--dry-run"],
        capsys,
    )
    assert code == 0
    assert not out_dir.exists()
    assert "plan" in out or "config" in out


def test_report_writes_json_and_respects_format(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    code, _, _ = run_cli(
        ["report", "--catalog", "sphere", "--n", "1", "--radius", "1",
         "--checks", "soliton-residual,flow-residual,flux-identity", "--out", str(out_dir),
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["schema"] == 3
    assert [c["name"] for c in report["checks"]] == [
        "soliton-residual", "flow-residual", "flux-identity"
    ]
    csv = (out_dir / "report.csv").read_text().splitlines()
    assert csv[0] == "check,status,detail"
    # one cell per margin after the scalar details
    row = next(csv_module.reader([csv[3]]))
    assert row[:3] == ["flux-identity", "PASS", "R=1.5"]
    cells = [dict(kv.split("=") for kv in cell.split("; ")) for cell in row[3:]]
    margins = report["checks"][2]["details"]["margins"]
    assert [m["name"] for m in margins] == [c["name"] for c in cells] == [
        "flux-identity", "curvature-factor", "flux-nonnegative"
    ]
    for m, c in zip(margins, cells):  # a skipped margin is NaN in both
        np.testing.assert_equal(
            (float(c["margin"]), float(c["tol"]), c["verdict"]),
            (float(m["margin"]), m["tol"], m["verdict"]),
        )


def strip_timing(text: str) -> str:
    return re.sub(r'"wall_clock": [0-9eE+.\-]+', '"wall_clock": 0', text)


def test_report_determinism_byte_identical(tmp_path, capsys):
    args = [
        "report", "--catalog", "generalized_cylinder", "--n", "2", "--k", "1",
        "--rho", "1", "--kind", "mcf", "--lambda", "1", "--seed", "24301",
        "--checks", "soliton-residual,separation,second-form,weighted-volume,psi",
    ]
    texts = []
    for run_dir in ("a", "b"):
        out_dir = tmp_path / run_dir
        code, _, _ = run_cli(args + ["--out", str(out_dir)], capsys)
        assert code == 0
        texts.append(strip_timing((out_dir / "report.json").read_text()))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("n, c", [("2", "0.5"), ("3", repr(1.0 / 3.0))])
def test_inverse_flow_sphere_full_report_skips_isoperimetric(tmp_path, capsys, n, c):
    # C = 1/n is the sphere's inverse-flow constant, where the comparison factor vanishes
    code, _, _ = run_cli(
        ["report", "--catalog", "sphere", "--n", n, "--c", c, "--full", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    records = json.loads((tmp_path / "report.json").read_text())["checks"]
    checks = {record["name"]: record for record in records}
    assert checks["isoperimetric"]["status"] == "SKIPPED"
    assert "(Cn - 1)/(Cn)" in checks["isoperimetric"]["details"]["why"]
    assert {record["status"] for record in records} <= {"PASS", "SKIPPED"}


def test_inferred_inverse_flow_sphere_constant_counts_as_one_over_n(tmp_path, capsys):
    # the fitted C misses 1/2 in its last bits; volume growth still runs with it
    code, _, _ = run_cli(
        ["report", "--catalog", "sphere", "--n", "2", "--radius", "2", "--kind", "imcf",
         "--full", "--seed", "3", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["soliton"]["source"] == "inferred"
    assert report["soliton"]["constant"] == pytest.approx(0.5, rel=1e-12)
    checks = {record["name"]: record for record in report["checks"]}
    assert checks["volume-growth"]["status"] == "PASS"
    assert checks["isoperimetric"]["status"] == "SKIPPED"


def test_report_config_file_round_trip(tmp_path, capsys):
    cfg = {
        "immersion": {"catalog": "sphere", "params": {"n": 2, "R": 1.0}},
        "soliton": {"kind": "mcf", "constant": 2.0},
        "checks": ["soliton-residual"],
        "seed": 7,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["report", "--config", str(path)], capsys)
    assert code == 0
    data = json_payload(out)
    assert data["soliton"]["constant"] == 2.0


def test_report_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"immersion": {"catalog": "sphere"}, "typo_key": 1}))
    code, _, err = run_cli(["report", "--config", str(path)], capsys)
    assert code == 2
    assert "typo_key" in err


def test_user_chart_end_to_end(tmp_path, capsys):
    # a unit cylinder given as a chart file: constant inferred, checks run,
    # including a PDE solve on the user mesh with its periodic axis
    chart = {
        "dim": 2,
        "codim_total": 3,
        "params": [
            {"name": "u1", "min": 0.0, "max": 6.283185307179586, "periodic": True},
            {"name": "u2", "min": -8.0, "max": 8.0, "periodic": False},
        ],
        "coords": ["cos(u1)", "sin(u1)", "u2"],
    }
    path = tmp_path / "cyl.json"
    path.write_text(json.dumps(chart))
    code, out, _ = run_cli(
        ["report", "--chart", str(path), "--kind", "mcf", "--infer",
         "--checks", "soliton-residual,separation,weighted-volume,exit-time",
         "--R", "2"],
        capsys,
    )
    assert code == 0
    data = json_payload(out)
    assert data["soliton"]["constant"] == pytest.approx(1.0, rel=1e-9)
    assert data["immersion"]["properness_radius"] == pytest.approx(math.sqrt(65.0), rel=1e-6)
    assert all(c["status"] == "PASS" for c in data["checks"])


def test_user_spherical_chart_constant_route(tmp_path, capsys):
    # a flat torus on the unit sphere: constant radius is detected, the chart
    # volume backs the weighted integrals, and the constant comes out as 2
    r = 1.0 / math.sqrt(2.0)
    chart = {
        "dim": 2,
        "codim_total": 4,
        "params": [
            {"name": "u1", "min": 0.0, "max": 6.283185307179586, "periodic": True},
            {"name": "u2", "min": 0.0, "max": 6.283185307179586, "periodic": True},
        ],
        "coords": [f"{r!r}*cos(u1)", f"{r!r}*sin(u1)", f"{r!r}*cos(u2)", f"{r!r}*sin(u2)"],
    }
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(chart))
    code, out, _ = run_cli(
        ["report", "--chart", str(path), "--kind", "mcf", "--infer",
         "--checks", "soliton-residual,separation,second-form,weighted-volume"],
        capsys,
    )
    assert code == 0
    data = json_payload(out)
    assert data["soliton"]["constant"] == pytest.approx(2.0, rel=1e-9)
    assert data["immersion"]["compact"] is True
    assert all(c["status"] == "PASS" for c in data["checks"])


def test_inferred_constant_reported(capsys):
    code, out, _ = run_cli(
        ["check-soliton", "--catalog", "sphere", "--n", "3", "--radius", "1", "--infer"],
        capsys,
    )
    assert code == 0
    data = json_payload(out)
    assert data["soliton"]["source"] == "inferred"
    assert data["soliton"]["constant"] == pytest.approx(3.0, rel=1e-9)


def _write_chart(tmp_path, name, params, coords):
    path = tmp_path / name
    path.write_text(json.dumps({
        "dim": len(params),
        "codim_total": len(coords),
        "params": [{"name": n, "min": lo, "max": hi, "periodic": False} for n, lo, hi in params],
        "coords": coords,
    }))
    return str(path)


def test_error_inside_a_check_is_recorded_and_report_written(tmp_path, capsys):
    # a paraboloid is no soliton: separation refuses the fitted constant with
    # InvalidParams, which becomes that check's FAIL record, not an abort
    path = _write_chart(
        tmp_path, "paraboloid.json", [("u1", -1.0, 1.0), ("u2", -1.0, 1.0)],
        ["u1", "u2", "u1^2+u2^2"],
    )
    out_dir = tmp_path / "rep"
    code, _, _ = run_cli(
        ["report", "--chart", path, "--checks", "soliton-residual,separation,second-form",
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 1
    report = json.loads((out_dir / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert list(checks) == ["soliton-residual", "separation", "second-form"]
    assert checks["soliton-residual"]["status"] == "FAIL"
    assert checks["separation"]["status"] == "FAIL"
    assert checks["separation"]["details"]["error"] == "InvalidParams"


def test_check_out_of_memory_is_recorded_and_report_written(tmp_path, capsys, monkeypatch):
    # numpy's _ArrayMemoryError is a MemoryError: it becomes that check's
    # ERROR record, and the checks around it keep theirs
    def exhausted(cfg, imm, entry, spec):
        raise MemoryError("Unable to allocate 33.2 GiB for an array")

    monkeypatch.setitem(CHECKS, "separation", Check(None, exhausted))
    out_dir = tmp_path / "rep"
    code, _, _ = run_cli(
        ["report", "--catalog", "generalized_cylinder", "--n", "2", "--k", "1", "--rho", "1",
         "--checks", "soliton-residual,separation,second-form", "--out", str(out_dir)],
        capsys,
    )
    assert code == 3
    checks = {c["name"]: c for c in json.loads((out_dir / "report.json").read_text())["checks"]}
    assert list(checks) == ["soliton-residual", "separation", "second-form"]
    assert checks["separation"]["status"] == "ERROR"
    assert checks["separation"]["details"] == {
        "error": "MemoryError", "detail": "Unable to allocate 33.2 GiB for an array"
    }
    assert checks["soliton-residual"]["status"] == checks["second-form"]["status"] == "PASS"
    assert "max_ratio" in checks["second-form"]["details"]


def test_check_whose_inputs_are_invalid_fails_and_report_written(tmp_path, capsys):
    # rho = 5 lies above the default R = 2: the capacity annulus is empty, so
    # capacity is that check's InvalidParams FAIL and exit-time is still judged
    out_dir = tmp_path / "rep"
    code, _, _ = run_cli(
        ["report", "--catalog", "plane", "--n", "2", "--rho", "5",
         "--checks", "capacity,exit-time", "--out", str(out_dir)],
        capsys,
    )
    assert code == 1
    report = json.loads((out_dir / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert list(checks) == ["capacity", "exit-time"]
    assert checks["capacity"]["status"] == "FAIL"
    assert checks["capacity"]["details"]["error"] == "InvalidParams"
    assert checks["exit-time"]["status"] == "PASS"
    assert checks["exit-time"]["details"]["margins"]


def test_default_parabolicity_range_outside_the_window_is_skipped(tmp_path, capsys):
    # the properness window of a cylinder of z-extent 1 is sqrt(2), so the
    # default range 1.5 to 0.7 sqrt(2) is empty; a range the user set still
    # fails as bad input
    imm = ["--catalog", "cylinder", "--n", "2", "--k", "1", "--rho", "1", "--z-extent", "1"]
    code, _, _ = run_cli(["report", *imm, "--checks", "parabolicity-integral",
                          "--out", str(tmp_path / "default")], capsys)
    assert code == 0
    (check,) = json.loads((tmp_path / "default" / "report.json").read_text())["checks"]
    assert check["status"] == "SKIPPED"
    assert "R0 = 1.5 >= R_max = 0.989949" in check["details"]["why"]
    code, _, _ = run_cli(["parabolicity-integral", *imm, "--rmax", "1.2",
                          "--out", str(tmp_path / "set")], capsys)
    assert code == 1
    (check,) = json.loads((tmp_path / "set" / "report.json").read_text())["checks"]
    assert (check["status"], check["details"]["error"]) == ("FAIL", "InvalidParams")


def test_chart_leaving_its_domain_is_config_error(tmp_path, capsys):
    path = _write_chart(tmp_path, "log.json", [("u1", 0.0, 2.0)], ["u1", "log(u1)"])
    code, out, err = run_cli(["report", "--chart", path], capsys)
    assert code == 2
    assert err.startswith("configuration error")
    assert "log(u1)" in err
    assert out == ""  # no check ran


def test_report_config_rejects_unknown_checks_before_running(tmp_path, capsys):
    cfg = {
        "immersion": {"catalog": "sphere", "params": {"n": 2, "R": 1.0}},
        "checks": ["soliton-residual", "bogus"],
    }
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_dict(cfg)
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["report", "--config", str(path)], capsys)
    assert code == 2
    assert "bogus" in err
    assert out == ""


_SPHERE_RUN = {
    "immersion": {"catalog": "sphere", "params": {"n": 2, "R": 1.0}},
    "checks": ["soliton-residual"],
}


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"tol": "x"}, []),
        ({"tol": 0}, []),
        ({"samples": "x"}, []),
        ({"samples": 2.5}, []),
        ({"seed": "x"}, ["--dry-run"]),
        ({"seed": True}, []),
        ({"h": 0}, []),
        ({}, ["--samples", "-5"]),
        ({}, ["--samples", "0"]),
        ({}, ["--seed", "-1"]),
        ({}, ["--tol", "0"]),
        ({}, ["--tol", "nan", "--dry-run"]),
        ({}, ["--h", "inf"]),
        (None, ["capacity", "--catalog", "plane", "--n", "2", "--h", "0"]),
        ({"radii": [3.0, 1.5]}, []),
        ({"radii": ["a", "b"]}, []),
        ({"radii": [1.0, "nan"]}, []),
        ({"radii": 2.0}, []),
        ({"times": ["x"]}, []),
        ({"times": [0.0, True]}, []),
        ({}, ["--radii", "3,1.5"]),
        ({}, ["--radii", "1,inf"]),
        (None, ["report", "--catalog", "cylinder", "--n", "2", "--k", "1", "--rho", "1",
                "--checks", "psi,volume-growth", "--radii", "3,1.5"]),
        (None, ["report", "--catalog", "sphere", "--n", "2", "--radius", "2",
                "--checks", "psi", "--radii", "a,b"]),
        (None, ["flow-residual", "--catalog", "sphere", "--n", "2", "--times", "x"]),
        (None, ["capacity", "--catalog", "plane", "--n", "2", "--R", "-1"]),
        (None, ["capacity", "--catalog", "plane", "--n", "2", "--R", "nan"]),
        (None, ["capacity", "--catalog", "plane", "--n", "2", "--rho", "-0.5"]),
        ({"radius": "x"}, []),
        ({"r0": -3, "checks": ["parabolicity-integral"]}, []),
        (None, ["check-soliton", "--catalog", "cylinder", "--kind", "imcf", "--c", "0"]),
        ({"soliton": {"kind": "xcf"}}, []),
        ({"soliton": {"constant": "abc"}}, []),
        ({"r0": 5, "rmax": 1, "checks": ["parabolicity-integral"]}, []),
        ({"r0": 2, "rmax": 2, "checks": ["parabolicity-integral"]}, []),
        (None, ["parabolicity-integral", "--catalog", "cylinder", "--n", "2", "--k", "1",
                "--rho", "1", "--r0", "5", "--rmax", "1"]),
        ({"radii": []}, []),
        ({"times": []}, []),
        ({}, ["--radii", ","]),
        ({}, ["--checks", ","]),
        ({"radius": 10**400}, []),
        ({"soliton": {"constant": 10**400}}, []),
        ({"radii": [1.0, 10**400]}, []),
    ],
)
def test_bad_numeric_settings_are_config_errors(tmp_path, capsys, config, argv):
    # tol, h and the radii R, rho, r0 and rmax must be finite and > 0, r0
    # below rmax, samples an integer >= 1, seed an integer >= 0, the radii
    # and times grids non-empty lists of finite numbers, the radii strictly
    # increasing, the
    # soliton kind mcf or imcf and its constant finite (non-zero for imcf) or
    # "infer", from a config file or a flag, before anything runs
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**_SPHERE_RUN, **config}))
        argv = ["report", "--config", str(path), *argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("configuration error")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"immersion": {"chart": ["x.json"]}}, None),
        ({"immersion": {"chart": 3.5}}, None),
        ({"immersion": {"chart": 10**6}}, None),  # no descriptor this process holds
        ({"immersion": {"catalog": ["sphere"]}}, None),
        ({"immersion": {"catalog": "sphere", "chart": "x.json"}},
         ["--catalog", "sphere", "--chart", "x.json"]),
        ({"out": 5}, None),
        ({"checks": 5}, ["--catalog", "sphere", "--checks", "5"]),
        ({"format": "xml"}, ["--catalog", "sphere", "--format", "xml"]),
    ],
    ids=["chart-list", "chart-float", "chart-int", "catalog-list", "catalog-and-chart",
         "out-int", "checks-int", "format-xml"],
)
def test_ill_typed_settings_are_config_errors(tmp_path, capsys, config, flags):
    # one parser holds for a config file and for the flags laid over it: the
    # immersion is exactly one catalog name or chart path, each a string, the
    # checks a list of known names, out a path and format json or csv
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**_SPHERE_RUN, **config}))
    runs = [["report", "--config", str(path)]] + ([["report", *flags]] if flags else [])
    for argv in runs:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("configuration error"), argv


def test_config_file_that_is_not_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"immersion": ')
    code, out, err = run_cli(["report", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error")


def test_config_file_format_csv_writes_report_csv(tmp_path, capsys):
    path = tmp_path / "run.json"
    out_dir = tmp_path / "rep"
    path.write_text(json.dumps({**_SPHERE_RUN, "format": "csv", "out": str(out_dir)}))
    code, out, _ = run_cli(["report", "--config", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[-2:] == [
        f"wrote {out_dir / 'report.json'}", f"wrote {out_dir / 'report.csv'}"
    ]
    assert (out_dir / "report.csv").read_text().startswith("check,status,detail\n")


def test_catalog_flag_completes_a_config_file_without_immersion(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"checks": ["soliton-residual"], "seed": 7}))
    code, out, _ = run_cli(["report", "--config", str(path), "--catalog", "sphere", "--n", "2"], capsys)
    assert code == 0
    config = json_payload(out)["config"]
    assert config["immersion"] == {"catalog": "sphere", "params": {"n": 2}}
    assert config["seed"] == 7


def test_flags_replace_the_config_file_before_validation(tmp_path, capsys):
    # the file's samples and radius alone would fail; the flags' do not
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "immersion": {"catalog": "sphere", "params": {"n": 2, "R": -1.0}},
        "checks": ["soliton-residual"], "samples": 0, "format": "csv",
    }))
    code, out, _ = run_cli(
        ["report", "--config", str(path), "--samples", "64", "--radius", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json_payload(out)
    assert data["config"]["samples"] == 64
    assert data["config"]["immersion"]["params"] == {"n": 2, "R": 2.0}
    assert data["checks"][0]["details"]["samples"] == 64


def test_catalog_table_and_csv_files(tmp_path, capsys):
    code, out, _ = run_cli(["catalog", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out == f"wrote {tmp_path / 'catalog.txt'}\n"
    assert "veronese" in (tmp_path / "catalog.txt").read_text()
    code, out, _ = run_cli(["catalog", "--format", "csv", "--out", str(tmp_path)], capsys)
    assert code == 0
    with open(tmp_path / "catalog.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv_module.DictReader(fh))
    assert len(rows) == 6
    assert list(rows[0]) == ["name", "lambda", "C", "normA2_over_lam"]
    assert {row["name"] for row in rows} >= {"sphere", "veronese_surface"}


def test_catalog_csv_writes_nulls_as_empty_cells(tmp_path, capsys):
    # where catalog.json has null, catalog.csv has an empty cell, not "None"
    code, out, _ = run_cli(["catalog", "--format", "json"], capsys)
    entries = {e["name"]: e for e in json.loads(out)["entries"]}
    code, _, _ = run_cli(["catalog", "--format", "csv", "--out", str(tmp_path)], capsys)
    assert code == 0
    with open(tmp_path / "catalog.csv", newline="", encoding="utf-8") as fh:
        rows = {row["name"]: row for row in csv_module.DictReader(fh)}
    columns = {"lambda": "lam", "C": "imcf_c", "normA2_over_lam": "normA2_over_lam"}
    nulls = 0
    for name, row in rows.items():
        for column, key in columns.items():
            if entries[name][key] is None:
                assert row[column] == ""
                nulls += 1
            else:
                assert float(row[column]) == entries[name][key]
    assert rows["plane"]["C"] == rows["plane"]["normA2_over_lam"] == ""
    assert nulls >= 4


def test_empty_check_list_in_a_file_runs_every_check(tmp_path, capsys):
    # a file's "checks": [] resolves to the full list, which the plan echoes
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**_SPHERE_RUN, "checks": []}))
    code, out, _ = run_cli(["report", "--config", str(path), "--dry-run"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["checks"] == list(CHECKS)


@pytest.mark.parametrize(
    "params", [5, [2], "n=2", {"n": "x"}, {"n": None}, {"R": "big"}],
    ids=["int", "list", "str", "n-word", "n-null", "R-word"],
)
def test_ill_typed_catalog_params_are_config_errors(tmp_path, capsys, params):
    # params that are not a mapping, or that the entry's constructor cannot
    # take, stop the run before it starts
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**_SPHERE_RUN, "immersion": {"catalog": "sphere", "params": params}}))
    code, out, err = run_cli(["report", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("configuration error")
    assert out == ""


_CHART_ROWS = {  # a field of a valid plane chart, and the ill-typed value it gets
    "periodic-string": (("params", 0, "periodic"), "false"),
    "dim-string": (("dim",), "2"),
    "codim-float": (("codim_total",), 3.0),
    "max-word": (("params", 0, "max"), "x"),
    "params-int": (("params",), 5),
    "max-1e400": (("params", 0, "max"), math.inf),
    "min-bool": (("params", 0, "min"), True),
    "name-int": (("params", 0, "name"), 7),
    "coords-string": (("coords",), "u1"),
    "coords-number": (("coords",), ["u1", "u2", 0]),
}
_CATALOG_ROWS = {  # catalog flags whose arithmetic over- or underflows
    "sphere-radius-1e308": ["--catalog", "sphere", "--n", "2", "--radius", "1e308"],
    "cylinder-rho-1e200": ["--catalog", "cylinder", "--rho", "1e200"],
    "sphere-radius-1e-200": ["--catalog", "sphere", "--radius", "1e-200"],
    "cylinder-rho-1e-200": ["--catalog", "cylinder", "--rho", "1e-200"],
}


@pytest.mark.parametrize("row", [*_CHART_ROWS, *_CATALOG_ROWS])
def test_malformed_inputs_exit_two_without_a_traceback(tmp_path, capsys, row):
    # a chart field is checked for its type, never coerced, and a catalog
    # parameter out of floating-point range is a bad input, not a crash
    if row in _CHART_ROWS:
        (*keys, last), value = _CHART_ROWS[row]
        chart = {
            "dim": 2, "codim_total": 3, "coords": ["u1", "u2", "0"],
            "params": [{"name": u, "min": -1, "max": 1, "periodic": False} for u in ("u1", "u2")],
        }
        node = chart
        for key in keys:
            node = node[key]
        node[last] = value
        (tmp_path / "plane.json").write_text(json.dumps(chart).replace("Infinity", "1e400"))
        argv, cause = ["--chart", str(tmp_path / "plane.json"), "--kind", "mcf", "--lambda", "0"], last
    else:
        argv, cause = _CATALOG_ROWS[row], "floating-point range"
    code, out, err = run_cli(["report", *argv, "--checks", "soliton-residual"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error") and cause in err
    assert "Traceback" not in err


def test_rimoldi_on_a_compact_image_keeps_its_reason(tmp_path, capsys):
    argv = ["report", "--catalog", "sphere", "--n", "2", "--checks", "rimoldi", "--out", str(tmp_path)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    (check,) = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert check["details"]["verdict"] == "VACUOUS"
    assert check["details"]["notes"] == ["compact image: the hypothesis holds outside itself"]


def test_no_module_imports_scipy_optimize():
    # solab's root solves are its own batched crossings; scipy.optimize
    # would only add import time
    for path in sorted(Path(solab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(name.startswith("scipy.optimize") for name in names), path.name


def test_no_module_imports_scipy_stats():
    # the scrambled Halton sequence is solab's own numpy code; scipy.stats
    # (which loads scipy.optimize) would only add import time
    for path in sorted(Path(solab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(name.startswith("scipy.stats") for name in names), path.name


def test_no_module_imports_scipy():
    # solab runs on numpy alone; scipy is the test suite's reference
    for path in sorted(Path(solab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def test_only_compare_and_the_report_name_a_verdict():
    # PASS and FAIL are decided by quadrature.compare alone; report derives a
    # check's status from its margins (_judged), records a raising check
    # (run_check) and maps statuses to the exit code (the exit table, run)
    allowed = {"quadrature.py": {"compare"}, "report.py": {"_judged", "run_check", "run", None}}
    for path in sorted(Path(solab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(None, tree)]
        while scopes:
            scope, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes.append((child.name, child))
                elif isinstance(child, ast.Constant) and child.value in ("PASS", "FAIL"):
                    assert scope in allowed.get(path.name, ()), (path.name, scope, child.lineno)
                else:
                    scopes.append((scope, child))


def test_only_run_config_from_dict_builds_a_run_config():
    # RunConfig.from_dict is the one parser of run settings: no other module
    # builds a RunConfig, and the CLI only lays its flags over a config dict
    for path in sorted(Path(solab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "RunConfig" or path.name == "report.py", node.lineno
        if path.name == "cli.py":
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
            assert not names & {"validate", "validate_checks"}


@pytest.mark.parametrize(
    "catalog_args", [["plane", "--n", "2"], ["sphere", "--n", "2", "--radius", "2"]]
)
def test_full_report_loads_no_scipy(tmp_path, catalog_args):
    # a fresh interpreter, since the test session itself imports scipy
    script = (
        "import sys\n"
        "import solab.cli\n"
        "code = solab.cli.main(['report', '--catalog', *sys.argv[2:], '--full',\n"
        "                       '--out', sys.argv[1]])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(solab.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), *catalog_args],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.splitlines()[-1] == "0 []"


def test_full_report_loads_neither_scipy_stats_nor_scipy_optimize(tmp_path):
    # a fresh interpreter, since the test session itself imports both
    script = (
        "import sys\n"
        "import solab.cli\n"
        "code = solab.cli.main(['report', '--catalog', 'plane', '--n', '2', '--full',\n"
        "                       '--out', sys.argv[1]])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.startswith(('scipy.stats', 'scipy.optimize'))))\n"
    )
    src = str(Path(solab.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.splitlines()[-1] == "0 []"
