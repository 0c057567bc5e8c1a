"""The benchmark's job lists and the analytic references their reports must meet.

Each job is one `solab report --full` invocation; the harness appends
`--full --out <fresh dir> --seed <seed>`.  The workloads split solab's layers:

* ``pointwise``: catalog entries whose checks are batched point evaluations
  (dsl/jets and the geometry kernel at thousands of points per call) plus the
  constant and product quadrature routes.  No level-set roots, no FEM and no
  pencil quadrature run here, so changes to those layers should not move it.
* ``fem-surfaces``: the capacity and exit-time solves on surfaces, where
  level-set extraction (marching triangles, one-point ``brentq`` roots) and
  the FEM layer (meshing, assembly, CG) do nearly all the work.
  ``castro_lerma`` is non-proper and exercises window cuts; both jobs write
  the largest OFF/CSV artifacts.  The geometry/dsl layer runs one point per
  call here, so a change tuned for large batches shows its cost.
* ``generic-chart``: user charts with no product structure, the only
  workload on the pencil quadrature route, the truncation-radius search and
  chart-JSON parsing.

Dim-3 charts (marching tetrahedra, ~49 s per report) and the test suite are
left out: they re-run the same layers at a cost the run budget cannot carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SAMPLES = "4096"
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple  # solab arguments after `report`, before the harness's own
    refs: tuple = ()  # names of REFERENCES this job's report must meet
    known_defect: frozenset = frozenset()  # failure reasons expected at baseline


def _catalog(name, *params, samples=None):
    args = ["--catalog", name, *params]
    if samples:
        args += ["--samples", samples]
    return tuple(args)


WORKLOADS = {
    "pointwise": (
        Job("sphere(2,2)", _catalog("sphere", "--n", "2", "--radius", "2", samples=SAMPLES)),
        Job("veronese", _catalog("veronese", samples=SAMPLES), refs=("veronese-max-ratio",)),
        Job(
            "clifford(2,2)",
            _catalog("clifford", "--k", "2", "--nk", "2", samples=SAMPLES),
            refs=("clifford-max-ratio",),
        ),
        Job(
            "cylinder(4,2,1)",
            _catalog("cylinder", "--n", "4", "--k", "2", "--rho", "1", samples=SAMPLES),
            refs=("cylinder-psi",),
            # parabolicity-integral hits PsiUnderflow under the default rmax
            known_defect=frozenset({"exit 3", "parabolicity-integral ERROR PsiUnderflow"}),
        ),
    ),
    "fem-surfaces": (
        Job("plane(2)", _catalog("plane", "--n", "2"), refs=("plane-capacity",)),
        Job("castro_lerma", _catalog("castro_lerma")),
    ),
    "generic-chart": (
        Job(
            "cylinder-chart",
            ("--chart", "perfbench/charts/cylinder2d.json", "--kind", "mcf", "--lambda", "1"),
        ),
        Job(
            "line-chart",
            ("--chart", "perfbench/charts/line1d.json", "--kind", "mcf", "--lambda", "0"),
            # the capacity boundary-flux form raises DimensionUnsupported on curves
            known_defect=frozenset({"exit 1 DimensionUnsupported", "no report.json"}),
        ),
    ),
}


def job_argv(job: Job, out_dir: str, seed: int) -> list:
    return ["report", *job.args, "--full", "--out", out_dir, "--seed", str(seed)]


# --- analytic references --------------------------------------------------------
# Each returns (error, tolerance) from a parsed report.json, or None when the
# report lacks the record the reference needs.


def _details(report, check):
    for rec in report.get("checks", ()):
        if rec.get("name") == check:
            return rec.get("details", {})
    return None


def _soliton_residual(report):
    d = _details(report, "soliton-residual")
    if not d or not isinstance(d.get("sup"), (int, float)):
        return None
    return float(d["sup"]), RESIDUAL_TOL


def _plane_capacity(report):
    d = _details(report, "capacity")
    if not d or "cap" not in d:
        return None
    exact = 2.0 * math.pi / math.log(d["R"] / d["rho"])
    return abs(d["cap"] - exact) / exact, 0.02


def _cylinder_psi(report):
    d = _details(report, "psi")
    if not d or not d.get("closed_form"):
        return None
    errs = [abs(v - c) / abs(c) for v, c in zip(d["values"], d["closed_form"])]
    return max(errs), 0.005


def _max_ratio(target):
    def ref(report):
        d = _details(report, "second-form")
        if not d or not isinstance(d.get("max_ratio"), (int, float)):
            return None
        return abs(d["max_ratio"] - target), 1e-6

    return ref


REFERENCES = {
    "soliton-residual": _soliton_residual,  # applies to every job
    "plane-capacity": _plane_capacity,
    "cylinder-psi": _cylinder_psi,
    "veronese-max-ratio": _max_ratio(5.0 / 3.0),
    "clifford-max-ratio": _max_ratio(2.0),
}
