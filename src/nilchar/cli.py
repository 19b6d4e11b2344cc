"""Command-line interface.

Commands: catalog, cn, cntheta, checks, branching, oracle-check. Output is
byte-stable across runs: fixed sort orders, no timestamps. `--json` output
is `json.dumps(payload, sort_keys=True)`, written without loading the `json`
package: the series rows of `cn` and `cntheta` straight from the layers
(`_json_rows`), everything else by CPython's C encoder (`_json`). Exit codes:
0 success, 1 usage or configuration error, 2 check failure, and, from a
process run by `entry`, 141 when the reader of stdout went away. `main()` is
the in-process API; `entry()` runs it as a whole process.

Flags are read from one table, `COMMANDS`, by a small loop instead of
`argparse`, whose import and parser construction cost more than a degree-0
query. A flag is written in full, as `--flag value` or `--flag=value`; the
last of repeated values wins. `-h`/`--help` prints the table.
"""

import os
import sys

from .config import ConfigError, LoadedConfig, catalog_description, catalog_names, load_catalog_config, load_config_file
from .ktheta import (
    dimension_check,
    k_invariant_check,
    koszul_check,
    ktypes_vs_torus_check,
    nilcone_series,
    require_split,
    theta_cone_character,
    theta_cone_ktypes,
)

# `kernels`, `langlands` and `oracle` are imported inside the commands that
# run them, so that a cold `cn` or `cntheta` loads none of them. `oracle` is
# called as `oracle.<name>`, so that a wrapper set on the module sees every
# call.

DEFAULT_DEGREE = 10
DEGREE_CAP = 64


class UsageError(Exception):
    pass


def _load_group(name: str, require_split: bool = True) -> LoadedConfig:
    if name in catalog_names():
        return load_catalog_config(name)
    if os.path.exists(name):
        return load_config_file(name, require_split=require_split)
    raise ConfigError(f"unknown group {name!r}: not a catalog name or readable file")


def _check_degree(opts) -> int:
    n = opts["--degree"]
    if n < 0:
        raise UsageError("--degree must be non-negative")
    if n > DEGREE_CAP and not opts["--allow-deep"]:
        raise UsageError(f"--degree {n} exceeds the cap of {DEGREE_CAP}; pass --allow-deep to override")
    return n


def _json_text(value) -> str:
    """`json.dumps(value, sort_keys=True)`, written by the C encoder behind
    it. `_json` loads without the `json` package, whose import (it compiles
    the decoder's regexes) costs a cold query more than the encoding does."""
    from _json import encode_basestring_ascii, make_encoder

    def default(obj):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    # The arguments `json.dumps` passes with its defaults: a circular
    # reference is a ValueError, and `default` refuses any other type.
    encode = make_encoder({}, default, encode_basestring_ascii, None, ": ", ", ", True, False, True)
    return "".join(encode(value, 0))


def _emit(payload: dict, rows: list[dict], columns: list[str], as_json: bool) -> None:
    if as_json:
        print(_json_text({**payload, "rows": rows}))
        return
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in columns))


def _json_rows(layers: list[dict], key: str) -> str:
    """`_json_text(rows)` of the `to_records()` rows of a series with these
    `layers`, its weights under `key`, written straight from the layers:
    each row is one format string with its keys in sorted order, and each
    weight is written once (`str` of a list of ints is its JSON)."""
    weight_first = key < "multiplicity"
    text = {w: str(list(w)) for w in set().union(*layers)}
    rows = []
    for n, layer in enumerate(layers):
        if weight_first:
            rows += [f'{{"degree": {n}, "{key}": {text[w]}, "multiplicity": {layer[w]}}}' for w in sorted(layer)]
        else:
            rows += [f'{{"degree": {n}, "multiplicity": {layer[w]}, "{key}": {text[w]}}}' for w in sorted(layer)]
    return "[" + ", ".join(rows) + "]"


def _emit_series(payload: dict, series, as_json: bool) -> None:
    """`_emit` of `series.to_records()`, its weights under `series.key`. For
    JSON the rows come from `_json_rows` and are spliced in after the header,
    where `"rows"` sorts; for text the weights are written compactly."""
    key = series.key
    if as_json:
        print(_json_text(payload)[:-1] + ', "rows": ' + _json_rows(series.layers, key) + "}")
        return
    rows = [{**r, key: "[" + ",".join(str(v) for v in r[key]) + "]"} for r in series.to_records()]
    _emit(payload, rows, ["degree", key, "multiplicity"], False)


def cmd_catalog(opts) -> int:
    """list built-in configurations"""
    rows = [{"name": n, "description": catalog_description(n)} for n in catalog_names()]
    _emit({"command": "catalog"}, rows, ["name", "description"], opts["--json"])
    return 0


def cmd_cn(opts) -> int:
    """graded highest-weight decomposition of the cone functions"""
    cfg = _load_group(opts["--group"])
    degree = _check_degree(opts)
    series = nilcone_series(cfg.real_form.g_datum, degree)
    _emit_series({"command": "cn", "group": cfg.real_form.label, "degree": degree}, series, opts["--json"])
    return 0


def cmd_cntheta(opts) -> int:
    """graded K-torus character of the K-nilpotent cone"""
    cfg = _load_group(opts["--group"])
    degree = _check_degree(opts)
    if opts["--decompose-k"]:
        series = theta_cone_ktypes(cfg.real_form, degree, force=opts["--force"])
    else:
        series = theta_cone_character(cfg.real_form, degree, force=opts["--force"])
    _emit_series({"command": "cntheta", "group": cfg.real_form.label, "degree": degree}, series, opts["--json"])
    return 0


def cmd_checks(opts) -> int:
    """run the Koszul, dimension, Lusztig-route, K-invariant, K-types-vs-torus and cone-model checks"""
    from . import oracle
    from .kernels import lusztig_check

    # A split config failing its Iwasawa count loads here, so that the
    # dimensions entry can report the failing line.
    cfg = _load_group(opts["--group"], require_split=False)
    degree = _check_degree(opts)
    rf = cfg.real_form
    results = []

    results.append(("koszul", koszul_check(rf.k_weights, degree, rank=rf.k_torus_rank), None))
    results.append(("dimensions", dimension_check(rf), None))
    results.append(("lusztig-vs-harmonics", lusztig_check(rf.g_datum, degree), None))
    force = opts["--force"]
    not_split = None if rf.split_mod_center or force else "skipped: config is not split modulo center"
    no_ktypes = "skipped: config carries no K root datum" if rf.k_datum is None else not_split
    # Each cone form is built once, for every entry that reads it.
    torus = None
    if no_ktypes:
        results += [("k-invariants", None, no_ktypes), ("ktypes-vs-torus", None, no_ktypes)]
    else:
        ktypes = theta_cone_ktypes(rf, degree, force=force)
        torus = theta_cone_character(rf, degree, force=force)
        results.append(("k-invariants", k_invariant_check(ktypes), None))
        results.append(("ktypes-vs-torus", ktypes_vs_torus_check(rf.k_datum, ktypes, torus), None))
    if cfg.oracle_model is not None:
        res = None
        if not_split is None:
            if torus is None:  # no K datum, so no entry above built it
                torus = theta_cone_character(rf, degree, force=force)
            res = oracle.compare_with_formula(torus, oracle.graded_character_by_degree(cfg.oracle_model, degree))
        results.append(("oracle", res, not_split))
    rows = []
    ok = True
    for name, res, note in results:
        if res is None:
            rows.append({"check": name, "passed": None, "details": [note]})
            continue
        ok &= res.passed
        rows.append({"check": name, "passed": res.passed, "details": list(res.lines)})
    if opts["--json"]:
        print(_json_text({"command": "checks", "group": cfg.real_form.label, "degree": degree, "rows": rows}))
    else:
        for r in rows:
            tag = "SKIP" if r["passed"] is None else ("PASS" if r["passed"] else "FAIL")
            print(f"[{tag}] {r['check']}")
            for line in r["details"]:
                print(f"    {line}")
    return 0 if ok else 2


def cmd_branching(opts) -> int:
    """the graded branching sum in standard-module classes"""
    from .langlands import graded_branching_sum

    cfg = _load_group(opts["--group"])
    degree = _check_degree(opts)
    if cfg.tori is None:
        raise ConfigError(f"config {cfg.real_form.label!r} has no `tori` section; branching needs the torus table")
    total = graded_branching_sum(cfg.real_form, cfg.tori, degree)
    rows = total.to_records()
    _emit(
        {"command": "branching", "group": cfg.real_form.label, "degree": degree},
        rows,
        ["q_power", "coefficient", "torus", "gamma", "positive_system"],
        opts["--json"],
    )
    return 0


def cmd_oracle_check(opts) -> int:
    """brute-force cone model versus the product formula"""
    from . import oracle

    cfg = _load_group(opts["--group"])
    degree = _check_degree(opts)
    if cfg.oracle_model is None:
        raise ConfigError(f"config {cfg.real_form.label!r} has no `oracle_model` section")
    # The comparison would refuse a non-split config; refuse it before the
    # elimination, which is the costly part.
    require_split(cfg.real_form, opts["--force"])
    actual = oracle.graded_character_by_degree(cfg.oracle_model, degree)
    dims = actual.masses()
    formula = theta_cone_character(cfg.real_form, degree, force=opts["--force"])
    result = oracle.compare_with_formula(formula, actual)
    if opts["--json"]:
        payload = {"command": "oracle-check", "group": cfg.real_form.label, "degree": degree, "hilbert": dims}
        print(_json_text({**payload, "passed": result.passed, "details": list(result.lines)}))
    else:
        print(f"hilbert function: {dims}")
        for line in result.lines:
            print(line)
        print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 2


_JSON = {"--json": ("flag", "machine-readable output")}
_GROUP = {
    "--group": ("text", "catalog name or path to a config file (required)"),
    "--degree": ("int", f"truncation degree (default {DEFAULT_DEGREE})"),
    **_JSON,
    "--allow-deep": ("flag", f"permit truncation degrees above the cap of {DEGREE_CAP}"),
}
_FORCE = {"--force": ("flag", "run even when the form is not split modulo center")}

# command: (function, {flag: (kind, help)}); a "text" flag has no default,
# so it is required.
COMMANDS = {
    "catalog": (cmd_catalog, _JSON),
    "cn": (cmd_cn, _GROUP),
    "cntheta": (cmd_cntheta, {**_GROUP, **_FORCE, "--decompose-k": ("flag", "decompose layers into K-irreducible labels")}),
    "checks": (cmd_checks, {**_GROUP, **_FORCE}),
    "branching": (cmd_branching, _GROUP),
    "oracle-check": (cmd_oracle_check, {**_GROUP, **_FORCE}),
}
_DEFAULTS = {"flag": False, "int": DEFAULT_DEGREE}
_METAVARS = {"flag": "", "int": " N", "text": " TEXT"}


def _help() -> str:
    lines = ["usage: nilchar COMMAND [--flag VALUE | --flag=VALUE ...]", ""]
    for command, (run, flags) in COMMANDS.items():
        lines.append(f"{command:<14}{run.__doc__}")
        lines += [f"  {flag + _METAVARS[kind]:<18}{text}" for flag, (kind, text) in flags.items()]
    return "\n".join(lines)


def parse_args(argv: list[str]) -> tuple[str, dict] | None:
    """(command, {flag: value}) with every flag of the command present, or
    None when help is asked for. Any other mistake is a UsageError."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv or argv[0] not in COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise UsageError(f"{given}; expected one of {', '.join(COMMANDS)}")
    command, rest = argv[0], argv[1:]
    flags = COMMANDS[command][1]
    opts = {flag: _DEFAULTS[kind] for flag, (kind, _) in flags.items() if kind in _DEFAULTS}
    i = 0
    while i < len(rest):
        flag, eq, value = rest[i].partition("=")
        i += 1
        if flag not in flags:
            raise UsageError(f"{command}: unrecognized argument {rest[i - 1]!r}")
        kind = flags[flag][0]
        if kind == "flag":
            if eq:
                raise UsageError(f"{flag} takes no value")
            opts[flag] = True
            continue
        if not eq:
            if i == len(rest):
                raise UsageError(f"{flag} expects a value")
            value, i = rest[i], i + 1
        if kind == "int":
            # Only an optional "-" and ASCII digits: `int` would also take
            # "1_0", " 3", "+2" and non-ASCII digits, and change them.
            digits = value[1:] if value.startswith("-") else value
            if not (digits.isascii() and digits.isdigit()):
                raise UsageError(f"{flag} expects an integer, got {value!r}")
            value = int(value)
        opts[flag] = value
    missing = [flag for flag in flags if flag not in opts]
    if missing:
        raise UsageError(f"{command} requires {', '.join(missing)}")
    return command, opts


def main(argv=None) -> int:
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            print(_help())
            return 0
        command, opts = parsed
        return COMMANDS[command][0](opts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run `main()` as a whole process: the one place a CLI process ends.

    Once stdout and stderr are flushed, nothing is left for a one-shot command
    to do, so the process leaves with `os._exit` and skips the interpreter's
    teardown of every loaded module (about a tenth of a cold query). Nothing
    in the package may rely on that teardown (`atexit`, `__del__`). A reader
    of stdout that went away ends the process with status 141 (128 + SIGPIPE,
    as a shell reports for a C tool cut off by `head`) and nothing on stderr.
    Any other exception takes the normal exit, with its traceback."""
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except BrokenPipeError:
        os._exit(141)
    os._exit(code)


if __name__ == "__main__":
    entry()
