"""Acceptance gate: one test per criterion, tolerances pinned as stated.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output); the assertions carry the same tolerances, so the pytest
verdict and the printed line always agree.
"""

import json
import math
import re
import time

import numpy as np
import pytest

from solab.catalog import catalog
from solab.cli import main as cli_main
from solab.fem import (
    capacity,
    capacity_ladder,
    capacity_upper_bound,
    exit_time_comparison,
    solve_exit_time,
)
from solab.inequalities import (
    isoperimetric,
    second_form_threshold,
    volume_growth_monotonicity,
)
from solab.quadrature import (
    cylinder_psi_closed_form,
    gaussian_volume,
    parabolicity_integral,
    psi,
    second_moment,
    weighted_identity_check,
)
from solab.solitons import (
    SolitonSpec,
    homothety_flow_residual,
    soliton_residual,
)


def report(number, description, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number}: {description} {extra}".rstrip())
    assert ok, f"criterion {number} failed: {description} {extra}"


def test_criterion_01_soliton_residual_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for n, R in [(1, 1.0), (2, 2.0), (3, 1.5)]:
        imm, _ = catalog("sphere", n=n, R=R)
        worst = max(worst, soliton_residual(imm, SolitonSpec("mcf", n / R**2)).sup)
        worst = max(worst, soliton_residual(imm, SolitonSpec("imcf", 1.0 / n)).sup)
    for n, k in [(2, 1), (3, 1), (4, 2)]:
        imm, _ = catalog("generalized_cylinder", n=n, k=k, rho=1.0)
        worst = max(worst, soliton_residual(imm, SolitonSpec("mcf", float(k))).sup)
        worst = max(worst, soliton_residual(imm, SolitonSpec("imcf", 1.0 / k)).sup)
    imm, entry = catalog("castro_lerma", delta=1.0)
    worst = max(worst, soliton_residual(imm, SolitonSpec("mcf", entry.constants["lam"])).sup)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    report(1, "soliton residual suite", ok, f"(sup={worst:.2e}, {elapsed:.1f}s < 10s)")


def test_criterion_02_homothety_verification():
    imm, _ = catalog("sphere", n=2, R=2.0)
    mcf = homothety_flow_residual(
        imm, SolitonSpec("mcf", 0.5), [0.0, 0.2, 0.4, 0.6, 0.8]
    )
    cyl, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    imcf = homothety_flow_residual(
        cyl, SolitonSpec("imcf", 1.0), [0.0, 0.25, 0.5, 0.75, 1.0]
    )
    worst = max(mcf.sup, imcf.sup)
    ok = worst < 1e-8 and len(mcf.times) == 5 and len(imcf.times) == 5
    report(2, "homothetic family flow residual", ok, f"(sup={worst:.2e})")


def test_criterion_03_weighted_volume_identity():
    t0 = time.perf_counter()
    worst_margin = 0.0
    worst_ratio = 0.0
    for n, k in [(2, 1), (3, 1), (4, 2)]:
        imm, entry = catalog("generalized_cylinder", n=n, k=k, rho=1.0)
        lam = entry.constants["lam"]
        check = weighted_identity_check(imm, lam)
        worst_margin = max(worst_margin, check.margin)
        ratio = gaussian_volume(imm, lam).value / second_moment(imm, lam).value
        worst_ratio = max(worst_ratio, abs(ratio / (lam / n) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_margin < 1e-3 and worst_ratio < 1e-3 and elapsed < 60.0
    report(
        3, "weighted-volume identity on shrinking cylinders", ok,
        f"(margin={worst_margin:.2e}, ratio dev={worst_ratio:.2e}, {elapsed:.1f}s < 60s)",
    )


def test_criterion_04_psi_and_parabolicity_trend():
    imm, _ = catalog("generalized_cylinder", n=3, k=1, rho=1.0)
    grid = np.linspace(1.5, 4.0, 6)
    curve = psi(imm, 1.0, grid)
    closed = np.array([cylinder_psi_closed_form(imm, 1.0, R) for R in grid])
    dev = float(np.abs(curve.values / closed - 1.0).max())
    div = parabolicity_integral(imm, 1.0, 1.5, 6.0)
    imm5, _ = catalog("generalized_cylinder", n=5, k=1, rho=1.0)
    conv = parabolicity_integral(imm5, 1.0, 1.5, 6.0)
    ok = dev < 0.005 and div.trend == "DIVERGENT-LIKE" and conv.trend == "CONVERGENT-LIKE"
    report(
        4, "tail second moment and parabolicity trend", ok,
        f"(psi dev={dev:.2e}, trends={div.trend}/{conv.trend})",
    )


def test_criterion_05_capacity():
    t0 = time.perf_counter()
    plane, _ = catalog("plane", n=2)
    annulus = capacity(plane, 1.0, math.e, h=0.05)
    cap_ok = abs(annulus.cap / (2 * math.pi) - 1.0) < 0.02

    cyl, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0, z_extent=16.0)
    mono_ok = True
    for obj, rho, r1, r2 in [
        (plane, 1.0, 2.0, 4.0),
        (plane, 1.0, math.e, math.e**2),
        (cyl, math.sqrt(2.0), 3.0, 6.0),
    ]:
        c1 = capacity(obj, rho, r1, h=0.08).cap
        c2 = capacity(obj, rho, r2, h=0.08).cap
        mono_ok = mono_ok and c1 >= c2 - 0.02 * c1

    bound_ok = True
    for obj, rho, R in [(plane, 1.0, math.e), (cyl, math.sqrt(2.0), 4.0)]:
        cap_val = capacity(obj, rho, R, h=0.06).cap
        bound = capacity_upper_bound(obj, rho, R).bound
        bound_ok = bound_ok and cap_val <= bound * 1.05

    rungs = capacity_ladder(
        cyl, math.sqrt(2.0),
        [2 * math.sqrt(2.0), 4 * math.sqrt(2.0), 8 * math.sqrt(2.0)], h=0.1,
    )
    caps = [c for _, c in rungs]
    ladder_ok = all(b <= 0.7 * a for a, b in zip(caps, caps[1:]))

    elapsed = time.perf_counter() - t0
    ok = cap_ok and mono_ok and bound_ok and ladder_ok and elapsed < 120.0
    report(
        5, "capacity suite", ok,
        f"(annulus={annulus.cap:.4f} vs {2 * math.pi:.4f}, ladder={['%.3f' % c for c in caps]}, "
        f"{elapsed:.1f}s < 120s)",
    )


def test_criterion_06_exit_time():
    plane, _ = catalog("plane", n=2)
    field = solve_exit_time(plane, 1.0, h=0.05)
    disk_err = float(np.abs(field.values - (1.0 - field.mesh.r**2) / 4.0).max())
    disk_ok = disk_err < 0.01 * 0.25

    cyl, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    ratio = exit_time_comparison(cyl, SolitonSpec("imcf", 1.0), 2.0, h=0.05)
    ratio_ok = ratio.rhs == pytest.approx(2.0) and ratio.margin < 0.02

    shrink = exit_time_comparison(cyl, SolitonSpec("mcf", 1.0), 2.0, h=0.05)
    shrink_ok = shrink.lhs >= -1e-3

    ok = disk_ok and ratio_ok and shrink_ok
    report(
        6, "mean exit time suite", ok,
        f"(disk err={disk_err:.2e}, ratio dev={ratio.margin:.2e}, "
        f"shrinker margin={shrink.lhs:.2e})",
    )


def test_criterion_07_isoperimetric_suites():
    radii = [1.5, 2.0, 3.0]
    all_ok = True
    hand_ok = False
    for n, k in [(2, 1), (3, 1), (4, 2)]:
        imm, entry = catalog("generalized_cylinder", n=n, k=k, rho=1.0)
        lam, c = entry.constants["lam"], entry.constants["imcf_c"]
        margins = isoperimetric(imm, SolitonSpec("mcf", lam), radii)
        for m in margins:
            if m.name.startswith("isoperimetric"):
                all_ok = all_ok and m.verdict == "PASS"
            else:  # the curvature discount factor must sit in [0, 1]
                all_ok = all_ok and (-m.tol <= m.lhs <= 1.0 + m.tol)
        if (n, k) == (2, 1):
            at2 = [m for m in margins if m.name == "isoperimetric(R=2)"][0]
            hand_ok = (
                abs(at2.lhs / (1.0 / math.sqrt(3.0)) - 1.0) < 0.01
                and abs(at2.rhs / 0.5 - 1.0) < 0.01
            )
        if c is not None and not (0.0 <= c <= 1.0 / n):
            for m in isoperimetric(imm, SolitonSpec("imcf", c), radii):
                all_ok = all_ok and m.verdict == "PASS" and "strict" in m.notes
    cyl, _ = catalog("generalized_cylinder", n=2, k=1, rho=1.0)
    _, trend = volume_growth_monotonicity(cyl, 1.0, np.linspace(1.5, 4.0, 10))
    monotone = all(m.verdict == "PASS" for m in trend)
    ok = all_ok and hand_ok and monotone
    report(
        7, "isoperimetric and volume-growth suites", ok,
        f"(hand values ok={hand_ok}, monotone={monotone})",
    )


def test_criterion_08_shape_tensor_landmarks():
    cases = [
        (catalog("sphere", n=2, R=2.0)[0], 0.5, 1.0),
        (catalog("clifford_torus", k=1, nk=1, lam=1.0)[0], 1.0, 2.0),
        (catalog("veronese_surface", lam=1.0)[0], 1.0, 5.0 / 3.0),
    ]
    worst_ratio = 0.0
    worst_rescale = 0.0
    for imm, lam, target in cases:
        rep = second_form_threshold(imm, lam)
        worst_ratio = max(worst_ratio, abs(rep.max_ratio - target))
        worst_rescale = max(worst_rescale, rep.margins[0].lhs)
    ok = worst_ratio < 1e-6 and worst_rescale < 1e-8
    report(
        8, "shape tensor landmarks and rescaling identity", ok,
        f"(ratio dev={worst_ratio:.2e}, rescale={worst_rescale:.2e})",
    )


def test_criterion_09_parser_property_suite():
    import test_dsl

    # 100 random cases: derivative-vs-difference agreement at 1e-6 / 1e-4
    # plus printed-form round-trip stability
    test_dsl.test_property_suite_100_cases()
    # malformed inputs are rejected with byte positions
    test_dsl.test_malformed_errors_carry_positions()
    report(9, "expression parser 100-case property suite", True)


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    args = [
        "report", "--catalog", "generalized_cylinder", "--n", "2", "--k", "1",
        "--rho", "1", "--kind", "mcf", "--lambda", "1", "--seed", "24301",
        "--checks",
        "soliton-residual,flow-residual,separation,second-form,weighted-volume,psi,"
        "parabolicity-integral,volume-growth",
    ]
    texts = []
    for sub in ("first", "second"):
        out_dir = tmp_path / sub
        code = cli_main(args + ["--out", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        raw = (out_dir / "report.json").read_text()
        texts.append(re.sub(r'"wall_clock": [0-9eE+.\-]+', '"wall_clock": 0', raw))
        json.loads(raw[raw.index("{") :])  # stays valid JSON
    ok = texts[0] == texts[1]
    with capsys.disabled():
        report(10, "byte-identical reports modulo timing", ok)
