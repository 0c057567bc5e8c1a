"""solab benchmark: wall time to a verified `solab report --full`.

Usage, from the repository root:

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 30 --trace 0

One process runs one workload as a single closed-loop caller: no threads, one
job after another, each an in-process call to ``solab.cli.main`` with a fresh
``--out`` directory and ``--seed <seed>``.  The harness reads the report.json
each job wrote and gates it (see gate.py).  The job list is repeated while
another repetition fits in ``--seconds``, and every job runs at least twice,
so each is also checked for byte-repeatability.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median job-list wall
time), ``setup_s`` (median import time of solab.cli and the modules
report.run_check imports lazily, in this process and in fresh interpreters),
``peak_rss_mb`` and ``ok_share`` (passed / attempted jobs; the table above the
result also gives ``failed_share``).  ``--trace 1`` alternates untraced and
traced job lists and prints the per-layer metrics of the traced ones (see
spans.py) and the tracing overhead.  The last
line of stdout is one JSON object; the full record, with host information and
every job verdict, goes to perfbench/out/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: BLAS and OpenMP pools would add threads and noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# What `solab report` imports before and while it runs its first check.
SETUP_MODULES = ("solab.cli", "solab.fem", "solab.inequalities", "solab.quadrature", "solab.solitons")
SETUP_SUBPROCESSES = 4
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}
_SETUP_SNIPPET = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "for m in sys.argv[2:]:\n"
    "    importlib.import_module(m)\n"
    "print(repr(time.perf_counter() - t))\n"
)


def import_solab() -> float:
    """Import the solab under SRC in this process; returns the seconds it took."""
    if not (SRC / "solab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no solab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    for name in SETUP_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - t
    origin = Path(sys.modules["solab"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"perfbench: imported solab from {origin}, not from {SRC}")
    return elapsed


def _setup_in_subprocess() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), *SETUP_MODULES],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def host_probe() -> float:
    """Seconds for a fixed loop of tiny numpy calls, to record host speed swings."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 3).reshape(1, 3)
    t = time.perf_counter()
    for _ in range(5000):
        np.linalg.norm(np.sin(x) * np.cos(x), axis=1)
    return time.perf_counter() - t


class Runner:
    """Runs job lists of one workload and keeps every verdict."""

    def __init__(self, jobs: tuple, seed: int, jobs_dir: Path):
        import solab.cli  # only after import_solab put SRC on the path

        self.main = solab.cli.main
        self.jobs = jobs
        self.seed = seed
        self.jobs_dir = jobs_dir
        self.first: dict = {}  # job name -> verdict of its first run
        self.verdicts: list = []
        self.job_s: dict = {job.name: [] for job in jobs}  # seconds of every run
        self.argv: dict = {}  # job name -> argv of its first run
        self.own_s = 0.0  # harness bookkeeping outside the job calls

    def run_job(self, job, tracer=None):
        """One job; returns (verdict, seconds inside solab.cli.main)."""
        t = time.perf_counter()
        out_dir = tempfile.mkdtemp(prefix="job-", dir=self.jobs_dir)
        argv = workloads.job_argv(job, out_dir, self.seed)
        self.argv.setdefault(job.name, ["solab", *argv])
        stdout, stderr = io.StringIO(), io.StringIO()
        own = time.perf_counter() - t
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if tracer is None:
                    code = self.main(argv)
                else:
                    code = tracer.span(tracer.JOB, self.main, argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an escaped bug is a failed job, not a crash
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
        elapsed = time.perf_counter() - start
        t = time.perf_counter()
        verdict = gate.judge(job, code, stderr.getvalue(), out_dir)
        if job.name in self.first:
            gate.check_repeat(verdict, self.first[job.name])
        else:
            self.first[job.name] = verdict
        self.verdicts.append(verdict)
        self.job_s[job.name].append(elapsed)
        shutil.rmtree(out_dir)
        self.own_s += own + time.perf_counter() - t
        return verdict, elapsed

    def run_list(self, tracer=None) -> float:
        return sum(self.run_job(job, tracer)[1] for job in self.jobs)


def host_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    load_start = os.getloadavg()
    setups = [import_solab()]
    setups += [_setup_in_subprocess() for _ in range(SETUP_SUBPROCESSES)]
    OUT.mkdir(exist_ok=True)
    jobs_dir = OUT / "jobs"
    jobs_dir.mkdir(exist_ok=True)
    runner = Runner(workloads.WORKLOADS[workload], seed, jobs_dir)
    probes, untraced, traced = [], [], []
    if trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    t0 = time.perf_counter()
    while True:  # rounds of one untraced job list, plus one traced list when tracing
        probes.append(host_probe())
        untraced.append(runner.run_list())
        if trace:
            tracer.install()
            try:
                traced.append(runner.run_list(tracer))
            finally:
                tracer.uninstall()
        round_s = statistics.median(untraced) + (statistics.median(traced) if trace else 0.0)
        # every job runs at least twice, so each is also checked for repeatability
        enough = trace or len(untraced) >= 2
        if enough and time.perf_counter() - t0 + round_s > seconds:
            break
    probes.append(host_probe())

    jobs = {job.name: job for job in runner.jobs}
    attempted = len(runner.verdicts)
    failed = sum(v.failed for v in runner.verdicts)
    unexpected = sorted({
        f"{v.job}: {r}" for v in runner.verdicts for r in v.unexpected(jobs[v.job])
    })
    if trace:
        layers = layer_metrics(tracer, len(traced), traced, untraced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.save(OUT / f"spans-{workload}.npz")
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_info(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "host_probe_s": probes,
        "host_swing": max(probes) / min(probes),
        "argv": runner.argv,
        "setup_samples_s": setups,
        "untraced_list_s": untraced,
        "traced_list_s": traced,
        "job_s": runner.job_s,
        "harness_own_s": runner.own_s,
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": unexpected,
        "verdicts": [
            {"job": v.job, "code": v.code, "reasons": v.reasons, "references": v.references}
            for v in runner.verdicts
        ],
        "metrics": metrics,
    }
    with open(OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_table(record: dict) -> None:
    n_lists = len(record["untraced_list_s"])
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"nproc {record['host']['nproc']}  host swing {record['host_swing']:.2f}x  "
          f"load {record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}")
    by_job: dict = {}
    for v in record["verdicts"]:
        by_job.setdefault(v["job"], []).append(v)
    for name, runs in by_job.items():
        refs = "  ".join(
            f"{r['reference']}={r.get('error', float('nan')):.3g}/{r.get('tol', float('nan')):.0e}"
            f" {r['verdict']}"
            for r in runs[0]["references"]
        )
        reasons = sorted({r for v in runs for r in v["reasons"]})
        bad = sum(bool(v["reasons"]) for v in runs)
        status = f"ok x{len(runs)}" if not bad else f"FAILED {bad}/{len(runs)} ({'; '.join(reasons)})"
        print(f"  job {name:16s} exit {runs[0]['code']:>2}  {status}  {refs}")
    print(f"  failed_share {record['failed'] / record['attempted']:.4f} share "
          f"({record['failed']} of {record['attempted']} jobs)")
    for u in record["unexpected_failures"]:
        print(f"  UNEXPECTED {u}")
    notes = {
        "wall_s": f"median of {n_lists} job lists",
        "setup_s": f"median of {len(record['setup_samples_s'])} imports",
    }
    for name, m in record["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:44s} {value:>12s} {m['unit']:6s} {notes.get(name, '')}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    os.chdir(ROOT)  # job argv names the chart files relative to the root
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(record)
    print(json.dumps({
        "correct": not record["unexpected_failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
