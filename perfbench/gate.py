"""Correctness gate: judge one finished job from the files it left behind.

A job fails when its exit code is not 0, when it wrote no report.json, when
any check in the report is ERROR or FAIL, when an analytic reference misses
its tolerance, or when a repeat of the job with the same seed produced
different bytes (report.json up to its wall_clock lines, and every artifact).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

from workloads import REFERENCES, Job

_WALL_CLOCK_LINE = re.compile(rb'^[ \t]*"wall_clock": [^\n]*\n', re.MULTILINE)
_ERROR_TYPE = re.compile(r"^(?:error|numerical failure): (\w+):", re.MULTILINE)


@dataclass
class Verdict:
    job: str
    code: int
    reasons: list = field(default_factory=list)  # empty means the job passed
    references: list = field(default_factory=list)  # one record per reference
    digest: dict = field(default_factory=dict)  # output file -> sha256

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    def unexpected(self, job: Job) -> list:
        """Failure reasons that are not the job's known defect."""
        return [r for r in self.reasons if r not in job.known_defect]


def output_digest(out_dir: str) -> dict:
    """sha256 of every file under out_dir; report.json without wall_clock lines."""
    digest = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, out_dir)
            if rel == "report.json":
                data = _WALL_CLOCK_LINE.sub(b"", data)
            digest[rel] = hashlib.sha256(data).hexdigest()
    return digest


def judge(job: Job, code: int, stderr: str, out_dir: str) -> Verdict:
    verdict = Verdict(job.name, code)
    if code != 0:
        kind = _ERROR_TYPE.search(stderr)
        verdict.reasons.append(f"exit {code}" + (f" {kind.group(1)}" if kind else ""))
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        verdict.reasons.append("no report.json")
        return verdict
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    for rec in report.get("checks", ()):
        if rec.get("status") in ("ERROR", "FAIL"):
            error = rec.get("details", {}).get("error")
            verdict.reasons.append(
                f"{rec['name']} {rec['status']}" + (f" {error}" if error else "")
            )
    for name in ("soliton-residual", *job.refs):
        measured = REFERENCES[name](report)
        if measured is None:
            verdict.references.append({"reference": name, "verdict": "MISSING"})
            verdict.reasons.append(f"reference {name} missing")
            continue
        error, tol = measured
        ok = error < tol
        verdict.references.append(
            {"reference": name, "error": error, "tol": tol, "verdict": "PASS" if ok else "FAIL"}
        )
        if not ok:
            verdict.reasons.append(f"reference {name} FAIL")
    verdict.digest = output_digest(out_dir)
    return verdict


def check_repeat(verdict: Verdict, first: Verdict) -> None:
    """Flag a repeat whose outputs differ from the first run of the same job."""
    if verdict.digest != first.digest:
        changed = sorted(
            k for k in set(verdict.digest) | set(first.digest)
            if verdict.digest.get(k) != first.digest.get(k)
        )
        verdict.reasons.append("not repeatable: " + ",".join(changed))
