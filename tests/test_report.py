"""One sample-set geometry and one majorant fit per report: shared inside
`report.run`, never across runs."""

import json
import math
import sys
from dataclasses import fields

import numpy as np
import pytest

from solab import quadrature, report, solitons
from solab.catalog import catalog
from solab.sampling import sample_box, sample_geometry, shared_sample_geometry

GEOMETRY = sys.modules["solab.geometry"]


@pytest.fixture
def geometry_calls(monkeypatch):
    """Record (immersion name, point count) of every geometry call, through
    every solab module that bound the kernel by name."""
    calls = []
    original = GEOMETRY.geometry

    def counted(imm, points, order=2):
        calls.append((imm.name, len(np.atleast_2d(points))))
        return original(imm, points, order)

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


def test_full_report_computes_each_sample_geometry_once(geometry_calls):
    _, code = report.run(clifford_config())
    assert code == 0
    # one call per default sample set (4096 and the 512 of the soliton check),
    # and one per rescaled chart: four flow times and the second-form rescale
    assert len(geometry_calls) == 9
    assert geometry_calls.count(("clifford(2,2)", 4096)) == 1
    assert geometry_calls.count(("clifford(2,2)", 512)) == 1


def test_second_report_recomputes_its_sample_geometry(geometry_calls, monkeypatch):
    cfg = clifford_config()
    cfg.checks = ["soliton-residual", "wmp-probe"]
    built = report.build_immersion(cfg)  # both runs see the same immersion object
    monkeypatch.setattr(report, "build_immersion", lambda cfg: built)
    report.run(cfg)
    report.run(cfg)
    assert geometry_calls == [("clifford(2,2)", 4096)] * 2


def test_shared_geometry_is_read_only_and_scoped():
    imm, _ = catalog("sphere", n=2, R=1.0)
    with shared_sample_geometry():
        g = sample_geometry(imm, count=64, seed=3)
        assert sample_geometry(imm, count=64, seed=3) is g
        assert sample_geometry(imm, count=64, seed=4) is not g
        explicit = sample_geometry(imm, sample_box(imm.chart, 64, 3))
        assert explicit is not g and explicit.H.flags.writeable
        np.testing.assert_array_equal(explicit.H, g.H)
        for f in fields(g):
            value = getattr(g, f.name)
            if value is not None:
                with pytest.raises(ValueError):
                    value.flat[0] = 0.0
    assert sample_geometry(imm, count=64, seed=3) is not g


def test_full_report_fits_the_majorant_once(tmp_path, monkeypatch):
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
    cfg = report.RunConfig.from_dict(
        {"immersion": {"chart": str(path)}, "soliton": {"kind": "mcf", "constant": 1.0}}
    )
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
