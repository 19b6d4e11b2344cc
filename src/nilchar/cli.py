"""Command-line interface.

Commands: catalog, cn, cntheta, checks, branching, oracle-check. Output is
byte-stable across runs: fixed sort orders, no timestamps. Exit codes:
0 success, 1 usage or configuration error, 2 check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import catalog_description, catalog_names, load_catalog_config
from .config import ConfigError, LoadedConfig, load_config_file
from .ktheta import (
    dimension_check,
    koszul_check,
    lusztig_check,
    theta_cone_character,
    theta_cone_ktypes,
)
from .langlands import graded_branching_sum
from .nilcone import nilcone_series
from . import oracle  # called as oracle.<name>, so a wrapper set on the module sees every call

DEFAULT_DEGREE = 10
DEGREE_CAP = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nilchar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        if group:
            p.add_argument("--group", required=True, help="catalog name or path to a config file")
        p.add_argument("--degree", type=int, default=DEFAULT_DEGREE, help="truncation degree")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--allow-deep",
            action="store_true",
            help=f"permit truncation degrees above the cap of {DEGREE_CAP}",
        )

    p = sub.add_parser("catalog", help="list built-in configurations")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cn", help="graded highest-weight decomposition of the cone functions")
    common(p)

    p = sub.add_parser("cntheta", help="graded K-torus character of the K-nilpotent cone")
    common(p)
    p.add_argument("--force", action="store_true", help="compute even when not split modulo center")
    p.add_argument("--decompose-k", action="store_true", help="decompose layers into K-irreducible labels")

    p = sub.add_parser("checks", help="run the Koszul, dimension, Lusztig-route, and cone-model checks")
    common(p)
    p.add_argument("--force", action="store_true", help="run the model comparison even when not split")

    p = sub.add_parser("branching", help="the graded branching sum in standard-module classes")
    common(p)

    p = sub.add_parser("oracle-check", help="brute-force cone model versus the product formula")
    common(p)
    p.add_argument("--force", action="store_true", help="compare even when not split modulo center")

    return parser


def _load_group(name: str, require_split: bool = True) -> LoadedConfig:
    if name in catalog_names():
        return load_catalog_config(name)
    if os.path.exists(name):
        return load_config_file(name, require_split=require_split)
    raise ConfigError(f"unknown group {name!r}: not a catalog name or readable file")


def _check_degree(args) -> int:
    n = args.degree
    if n < 0:
        raise UsageError("--degree must be non-negative")
    if n > DEGREE_CAP and not args.allow_deep:
        raise UsageError(f"--degree {n} exceeds the cap of {DEGREE_CAP}; pass --allow-deep to override")
    return n


def _emit(payload: dict, rows: list[dict], columns: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps({**payload, "rows": rows}, sort_keys=True))
        return
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in columns))


def _fmt_weight(w) -> str:
    return "[" + ",".join(str(v) for v in w) + "]"


def _weight_rows(records: list[dict], key: str, as_json: bool) -> list[dict]:
    """`to_records()` rows, passed through for JSON; for text, with the
    weight column `key` written compactly."""
    if as_json:
        return records
    return [{**r, key: _fmt_weight(r[key])} for r in records]


def cmd_catalog(args) -> int:
    rows = [{"name": n, "description": catalog_description(n)} for n in catalog_names()]
    _emit({"command": "catalog"}, rows, ["name", "description"], args.json)
    return 0


def cmd_cn(args) -> int:
    cfg = _load_group(args.group)
    degree = _check_degree(args)
    series = nilcone_series(cfg.real_form.g_datum, degree)
    _emit(
        {"command": "cn", "group": cfg.label, "degree": degree},
        _weight_rows(series.to_records(), "highest_weight", args.json),
        ["degree", "highest_weight", "multiplicity"],
        args.json,
    )
    return 0


def cmd_cntheta(args) -> int:
    cfg = _load_group(args.group)
    degree = _check_degree(args)
    if args.decompose_k:
        records = theta_cone_ktypes(cfg.real_form, degree, force=args.force).to_records()
        key = "highest_weight"
    else:
        records = theta_cone_character(cfg.real_form, degree, force=args.force).to_records()
        key = "weight"
    _emit(
        {"command": "cntheta", "group": cfg.label, "degree": degree},
        _weight_rows(records, key, args.json),
        ["degree", key, "multiplicity"],
        args.json,
    )
    return 0


def cmd_checks(args) -> int:
    # A config declared split but failing its dimension identities loads
    # here, so that the dimensions entry can report the failing lines.
    cfg = _load_group(args.group, require_split=False)
    degree = _check_degree(args)
    rf = cfg.real_form
    results = []

    koszul = koszul_check(rf.k_weights, degree, rank=rf.k_torus_rank)
    results.append(("koszul", koszul, None))
    dims = dimension_check(rf)
    results.append(("dimensions", dims, None))
    results.append(("lusztig-vs-harmonics", lusztig_check(rf.g_datum, degree), None))
    if cfg.oracle_model is not None:
        if rf.split_mod_center or args.force:
            res = oracle.compare_with_formula(rf, cfg.oracle_model, degree, force=args.force)
            results.append(("oracle", res, None))
        else:
            results.append(("oracle", None, "skipped: config is not split modulo center"))
    rows = []
    ok = True
    for name, res, note in results:
        if res is None:
            rows.append({"check": name, "passed": None, "details": [note]})
            continue
        ok &= res.passed
        rows.append({"check": name, "passed": res.passed, "details": list(res.lines)})
    if args.json:
        print(json.dumps({"command": "checks", "group": cfg.label, "degree": degree, "rows": rows}, sort_keys=True))
    else:
        for r in rows:
            tag = "SKIP" if r["passed"] is None else ("PASS" if r["passed"] else "FAIL")
            print(f"[{tag}] {r['check']}")
            for line in r["details"]:
                print(f"    {line}")
    return 0 if ok else 2


def cmd_branching(args) -> int:
    cfg = _load_group(args.group)
    degree = _check_degree(args)
    if cfg.tori is None:
        raise ConfigError(f"config {cfg.label!r} has no `tori` section; branching needs the torus table")
    total = graded_branching_sum(cfg.real_form, cfg.tori, degree)
    rows = total.to_records()
    _emit(
        {"command": "branching", "group": cfg.label, "degree": degree},
        rows,
        ["q_power", "coefficient", "torus", "gamma", "positive_system"],
        args.json,
    )
    return 0


def cmd_oracle_check(args) -> int:
    cfg = _load_group(args.group)
    degree = _check_degree(args)
    if cfg.oracle_model is None:
        raise ConfigError(f"config {cfg.label!r} has no `oracle_model` section")
    actual = oracle.graded_character_by_degree(cfg.oracle_model, degree)
    dims = actual.masses()
    result = oracle.compare_with_formula(
        cfg.real_form, cfg.oracle_model, degree, force=args.force, actual=actual
    )
    if args.json:
        print(
            json.dumps(
                {
                    "command": "oracle-check",
                    "group": cfg.label,
                    "degree": degree,
                    "hilbert": dims,
                    "passed": result.passed,
                    "details": list(result.lines),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"hilbert function: {dims}")
        for line in result.lines:
            print(line)
        print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 2


_COMMANDS = {
    "catalog": cmd_catalog,
    "cn": cmd_cn,
    "cntheta": cmd_cntheta,
    "checks": cmd_checks,
    "branching": cmd_branching,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
