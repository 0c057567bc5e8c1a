"""Command-line front end.

Every subcommand resolves its flags into the same RunConfig that a JSON
config file would provide, so `solab report --config run.json` and the
flag-based invocations share one execution path.  Exit codes: 0 all checks
pass, 1 at least one check failed, 2 configuration or usage error,
3 numerical failure (solver divergence, truncation failure, ...).
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
    UnknownCatalogEntry,
    exit_code_of,
)
from .report import FULL_CHECKS, RunConfig, catalog_report, json_dumps, run, validate_checks

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


def _add_common(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("immersion")
    src.add_argument("--catalog", help="built-in immersion name")
    src.add_argument("--chart", help="chart definition JSON file")
    for flag, _, cast, helptext in _CATALOG_FLAGS:
        src.add_argument("--" + flag.replace("_", "-"), dest=flag, type=cast, help=helptext)

    sol = p.add_argument_group("soliton")
    sol.add_argument("--kind", choices=("mcf", "imcf"))
    sol.add_argument("--lambda", dest="lam_const", type=float, help="direct-flow constant")
    sol.add_argument("--c", dest="c_const", type=float, help="inverse-flow constant")
    sol.add_argument("--infer", action="store_true", help="fit the constant from samples")

    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", help="output directory for report.json and CSVs")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dry-run", action="store_true", help="print the resolved plan only")


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
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name in ("flow-residual",):
            p.add_argument("--times", help="comma-separated flow times")
        if name in ("psi", "isoperimetric", "report"):
            p.add_argument("--radii", help="comma-separated radius grid")
        if name in ("parabolicity-integral",):
            p.add_argument("--r0", type=float)
            p.add_argument("--rmax", type=float)
        if name in ("capacity", "exit-time", "report"):
            p.add_argument("--R", dest="big_r", type=float, help="outer extrinsic radius")
            p.add_argument("--h", type=float, help="target mesh spacing")
        if name == "report":
            p.add_argument("--config", help="RunConfig JSON file (flags override)")
            p.add_argument("--full", action="store_true", help="run every applicable check")
            p.add_argument("--checks", help="comma-separated check names")
    return top


def _catalog_signature(name):
    import inspect

    from .catalog import ALIASES, CATALOG

    key = ALIASES.get(name, name)
    if key not in CATALOG:
        raise UnknownCatalogEntry(f"unknown catalog entry {name!r}")
    return set(inspect.signature(CATALOG[key]).parameters)


def _immersion_config(args) -> dict:
    """Split flags into construction parameters and check parameters.

    --rho doubles as the cylinder fiber radius and as the inner capacity
    radius; the catalog entry's signature decides which role it plays here.
    """
    if args.chart:
        if args.catalog:
            raise ConfigError("give either --catalog or --chart, not both")
        return {"chart": args.chart}, {}
    if not args.catalog:
        raise ConfigError("an immersion is required: --catalog NAME or --chart FILE")
    accepted = _catalog_signature(args.catalog)
    params, leftover = {}, {}
    for flag, key, _, _ in _CATALOG_FLAGS:
        val = getattr(args, flag, None)
        if val is None:
            continue
        if key in accepted:
            params[key] = val
        elif key == "rho":
            leftover["rho"] = val  # inner radius of a capacity annulus
        else:
            raise ConfigError(
                f"--{flag.replace('_', '-')} is not a parameter of catalog "
                f"entry {args.catalog!r}"
            )
    return {"catalog": args.catalog, "params": params}, leftover


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


# flag -> the RunConfig field it overrides when given
_FLAG_FIELDS = {
    "seed": "seed", "tol": "tol", "samples": "samples", "big_r": "radius", "h": "h",
    "r0": "r0", "rmax": "rmax",
}


def _config_from_args(args) -> RunConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        cfg = RunConfig.from_dict(data)
    else:
        cfg = RunConfig(immersion={}, soliton=None)
    leftover = {}
    if args.catalog or args.chart or not getattr(args, "config", None):
        cfg.immersion, leftover = _immersion_config(args)
    sol = _soliton_config(args)
    if sol is not None:
        cfg.soliton = sol
    if args.command != "report":
        cfg.checks = ["soliton-residual" if args.command == "check-soliton" else args.command]
    else:
        if getattr(args, "checks", None):
            cfg.checks = [c.strip() for c in args.checks.split(",") if c.strip()]
            validate_checks(cfg.checks)
        elif not cfg.checks or getattr(args, "full", False):
            cfg.checks = list(FULL_CHECKS)
    for flag, key in _FLAG_FIELDS.items():
        if getattr(args, flag, None) is not None:
            setattr(cfg, key, getattr(args, flag))
    for key in ("radii", "times"):
        if getattr(args, key, None):
            setattr(cfg, key, [x for x in getattr(args, key).split(",") if x.strip()])
    if "rho" in leftover:
        cfg.rho = leftover["rho"]
    if args.out:
        cfg.out = args.out
    cfg.format = args.format
    return cfg.validate()


def _emit_catalog(args) -> int:
    data = catalog_report()
    if args.dry_run:
        print("plan: list catalog entries")
        return EXIT_OK
    if args.format == "json":
        text = json_dumps(data) + "\n"
        _write_or_print(args.out, "catalog.json", text)
        return EXIT_OK
    rows = data["entries"]
    header = f"{'name':24s} {'lambda':>10s} {'C':>10s} {'|A|^2/lam':>10s}  description"
    lines = [header, "-" * len(header)]
    for row in rows:
        lam = "-" if row["lam"] is None else f"{row['lam']:.4g}"
        c = "-" if row["imcf_c"] is None else f"{row['imcf_c']:.4g}"
        a2 = "-" if row["normA2_over_lam"] is None else f"{row['normA2_over_lam']:.4g}"
        lines.append(f"{row['name']:24s} {lam:>10s} {c:>10s} {a2:>10s}  {row['description']}")
    text = "\n".join(lines) + "\n"
    if args.format == "csv":
        text = "name,lambda,C,normA2_over_lam\n" + "\n".join(
            f"{r['name']},{r['lam']},{r['imcf_c']},{r['normA2_over_lam']}" for r in rows
        ) + "\n"
    _write_or_print(args.out, "catalog.csv", text)
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
        text = json_dumps(report.to_dict()) + "\n"
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            path = os.path.join(cfg.out, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {path}")
            if cfg.format == "csv":
                with open(os.path.join(cfg.out, "report.csv"), "w", encoding="utf-8") as fh:
                    fh.write(_report_csv(report))
            for target in report.written:  # by run, as each check ended
                print(f"wrote {target}")
        elif cfg.format == "csv":
            sys.stdout.write(_report_csv(report))
        else:
            sys.stdout.write(text)
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
