"""Command-line front end.

Every run command takes one flag set, declared once: the immersion and
soliton flags, `--config` and the setting flags, one per key of a config
file.  A command lays the flags it is given over the `--config` JSON object,
if any, and hands the result to RunConfig.from_dict, the one parser of run
settings, so a file and the flags share one set of rules and one execution
path.  A single-check command is `report --checks <its check>`; only
`report` takes `--full` and `--checks`.  Exit codes: 0 all checks pass, 1 at
least one check failed, 2 configuration or usage error, 3 numerical failure
(solver divergence, truncation failure, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    CONFIG_ERRORS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    SolabError,
    exit_code_of,
)
from .catalog import catalog_parameters
from .report import FULL_CHECKS, RunConfig, catalog_report, json_dumps, run

# (flag, catalog key, type, help) of each immersion flag, in --help order
_CATALOG_FLAGS = (
    ("n", "n", int, None),
    ("k", "k", int, None),
    ("nk", "nk", int, None),
    ("rho", "rho", float, "cylinder fiber radius / inner capacity radius"),
    ("radius", "R", float, "sphere radius"),
    ("extent", "extent", float, None),
    ("z_extent", "z_extent", float, None),
    ("lam", "lam", float, "construction constant (clifford/veronese/castro_lerma)"),
    ("delta", "delta", float, None),
    ("s_extent", "s_extent", float, None),
    ("t_extent", "t_extent", float, None),
)


def _grid(text):
    return [x for x in text.split(",") if x.strip()]


# (flag, config key, type, help) of each setting flag: a flag given replaces its key
_SETTING_FLAGS = (
    ("seed", "seed", int, None),
    ("tol", "tol", float, None),
    ("samples", "samples", int, None),
    ("times", "times", _grid, "comma-separated flow times"),
    ("radii", "radii", _grid, "comma-separated radius grid"),
    ("r0", "r0", float, "lower end of the parabolicity integral"),
    ("rmax", "rmax", float, "upper end of the parabolicity integral"),
    ("R", "radius", float, "outer extrinsic radius"),
    ("h", "h", float, "target mesh spacing"),
    ("out", "out", str, "output directory for report.json and CSVs"),
    ("format", "format", str, "json (default) or csv"),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="solab",
        description="numerical laboratory for direct/inverse mean curvature flow solitons",
    )
    sub = top.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="list built-in immersions and their constants")
    cat.add_argument("--format", choices=("json", "csv", "table"), default="table")
    cat.add_argument("--out")
    cat.add_argument("--dry-run", action="store_true")

    # the run flags, declared once in a parent parser that every run command takes
    run_flags = argparse.ArgumentParser(add_help=False)
    src = run_flags.add_argument_group("immersion")
    src.add_argument("--catalog", help="built-in immersion name")
    src.add_argument("--chart", help="chart definition JSON file")
    for flag, _, cast, helptext in _CATALOG_FLAGS:
        src.add_argument("--" + flag.replace("_", "-"), dest=flag, type=cast, help=helptext)
    sol = run_flags.add_argument_group("soliton")
    sol.add_argument("--kind", choices=("mcf", "imcf"))
    sol.add_argument("--lambda", dest="lam_const", type=float, help="direct-flow constant")
    sol.add_argument("--c", dest="c_const", type=float, help="inverse-flow constant")
    sol.add_argument("--infer", action="store_true", help="fit the constant from samples")
    run_flags.add_argument("--config", help="RunConfig JSON file (flags override)")
    for flag, _, cast, helptext in _SETTING_FLAGS:
        run_flags.add_argument("--" + flag, type=cast, help=helptext)
    run_flags.add_argument("--dry-run", action="store_true", help="print the resolved plan only")

    for name, helptext in [
        ("check-soliton", "sup |H + lam Xperp| or |H/|H|^2 + C Xperp| over samples"),
        ("flow-residual", "verify the homothetic family against the flow"),
        ("weighted-volume", "Gaussian-weighted volume identity"),
        ("psi", "tail weighted second moment on a radius grid"),
        ("parabolicity-integral", "sufficient-condition integral and trend"),
        ("capacity", "equilibrium potential energy of an extrinsic annulus"),
        ("exit-time", "mean exit time on an extrinsic ball"),
        ("isoperimetric", "boundary-to-volume comparisons"),
        ("separation", "position relative to the critical sphere"),
        ("report", "run the full applicable check suite"),
    ]:
        p = sub.add_parser(name, help=helptext, parents=[run_flags])
    p.add_argument("--full", action="store_true", help="run every applicable check")  # report
    p.add_argument("--checks", help="comma-separated check names")
    return top


def _immersion(args, imm):
    """Lay the immersion flags over the file's immersion block: --catalog or
    --chart replaces its source, and the parameter flags join its params.
    --rho doubles as the cylinder fiber radius and as the inner capacity
    radius; the catalog entry's signature decides which role it plays here.
    Returns the block and the capacity radius the flags give, or None."""
    if args.catalog or args.chart:
        imm = {"chart": args.chart} if args.chart else {}
        if args.catalog:
            imm.update(catalog=args.catalog, params={})
    if not isinstance(imm, dict):  # from_dict rejects it
        return imm, None
    given = {key: getattr(args, flag) for flag, key, _, _ in _CATALOG_FLAGS
             if getattr(args, flag) is not None}
    name, rho = imm.get("catalog"), None
    if "rho" in given and not (isinstance(name, str) and "rho" in catalog_parameters(name)):
        rho = given.pop("rho")  # inner radius of a capacity annulus
    if given and isinstance(imm.get("params", {}), dict):
        imm = {**imm, "params": {**imm.get("params", {}), **given}}
    return imm, rho


def _soliton_config(args) -> dict | None:
    kind = args.kind
    constant = None
    if args.lam_const is not None:
        kind = kind or "mcf"
        if kind != "mcf":
            raise ConfigError("--lambda is the direct-flow constant; use --c for the inverse flow")
        constant = args.lam_const
    if args.c_const is not None:
        if constant is not None:
            raise ConfigError("give either --lambda or --c")
        kind = kind or "imcf"
        if kind != "imcf":
            raise ConfigError("--c is the inverse-flow constant; use --lambda for the direct flow")
        constant = args.c_const
    if args.infer:
        return {"kind": kind or "mcf", "constant": "infer"}
    if kind is None and constant is None:
        return None
    if constant is None:
        return {"kind": kind, "constant": "infer"}
    return {"kind": kind, "constant": constant}


def _config_from_args(args) -> RunConfig:
    """Lay the given flags over the --config object; RunConfig.from_dict
    alone parses and checks the merged settings."""
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            return RunConfig.from_dict(data)  # which rejects it
    data["immersion"], rho = _immersion(args, data.get("immersion", {}))
    if rho is not None:
        data["rho"] = rho
    sol = _soliton_config(args)
    if sol is not None:
        data["soliton"] = sol
    if args.command != "report":
        data["checks"] = ["soliton-residual" if args.command == "check-soliton" else args.command]
    elif args.checks is not None:
        data["checks"] = [c.strip() for c in args.checks.split(",") if c.strip()]
    elif args.full or data.get("checks") in (None, []):
        data["checks"] = list(FULL_CHECKS)
    for flag, key, _, _ in _SETTING_FLAGS:
        if getattr(args, flag) is not None:
            data[key] = getattr(args, flag)
    return RunConfig.from_dict(data)


def _emit_catalog(args) -> int:
    if args.dry_run:
        print("plan: list catalog entries")
        return EXIT_OK
    data = catalog_report()
    rows = data["entries"]
    filename = f"catalog.{args.format}"
    if args.format == "json":
        text = json_dumps(data) + "\n"
    elif args.format == "csv":
        columns = ("name", "lam", "imcf_c", "normA2_over_lam")
        text = "name,lambda,C,normA2_over_lam\n" + "\n".join(
            ",".join("" if r[c] is None else str(r[c]) for c in columns) for r in rows
        ) + "\n"
    else:
        filename = "catalog.txt"
        header = f"{'name':24s} {'lambda':>10s} {'C':>10s} {'|A|^2/lam':>10s}  description"
        lines = [header, "-" * len(header)]
        for row in rows:
            lam = "-" if row["lam"] is None else f"{row['lam']:.4g}"
            c = "-" if row["imcf_c"] is None else f"{row['imcf_c']:.4g}"
            a2 = "-" if row["normA2_over_lam"] is None else f"{row['normA2_over_lam']:.4g}"
            lines.append(f"{row['name']:24s} {lam:>10s} {c:>10s} {a2:>10s}  {row['description']}")
        text = "\n".join(lines) + "\n"
    _write_or_print(args.out, filename, text)
    return EXIT_OK


def _write_or_print(out_dir, filename, text):
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _report_csv(report) -> str:
    """One row per check: its scalar details in one cell, then one cell per
    margin with its name, margin, tol and verdict."""
    lines = ["check,status,detail"]
    for c in report.checks:
        cells = [{k: v for k, v in c.details.items() if isinstance(v, (int, float, str, bool))}]
        for m in c.details.get("margins", ()):
            cells.append({k: m[k] for k in ("name", "margin", "tol", "verdict")})
        quoted = ['"' + "; ".join(f"{k}={v}" for k, v in cell.items()) + '"' for cell in cells]
        lines.append(",".join([c.name, c.status, *quoted]))
    lines.append(f"overall,{report.verdict},")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            return _emit_catalog(args)
        cfg = _config_from_args(args)
        if args.dry_run:
            plan = {"command": args.command, "config": cfg.echo()}
            print(json_dumps(plan))
            return EXIT_OK
        report, code = run(cfg)
        for c in report.checks:
            print(f"[{c.status:7s}] {c.name}  ({c.wall_clock:.2f}s)")
        print(f"verdict: {report.verdict}")
        if cfg.out or cfg.format == "json":
            _write_or_print(cfg.out, "report.json", json_dumps(report.to_dict()) + "\n")
        if cfg.format == "csv":
            _write_or_print(cfg.out, "report.csv", _report_csv(report))
        for target in report.written:  # by run, as each check ended
            print(f"wrote {target}")
        return code
    except (SolabError, *CONFIG_ERRORS) as err:
        code = exit_code_of(err)
        if code == EXIT_CONFIG:
            print(f"configuration error: {err}", file=sys.stderr)
        else:
            label = "numerical failure" if code == EXIT_NUMERICAL else "error"
            print(f"{label}: {type(err).__name__}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
