"""The read-only value records (`rootdata.Record`), the import cost they
keep off every command, and the lazily resolved package namespace."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilchar
from nilchar.config import load_catalog_config
from nilchar.ktheta import CheckResult, RealFormConfig, dimension_check
from nilchar.langlands import ContinuedParameter, FormalStandardSum
from nilchar.rootdata import Record, RootDatum, build_root_datum, classify_roots

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["nilchar", "nilchar.cli"])
def test_cold_import_loads_no_code_generation_modules(module):
    """Importing the package (as the benchmark child does) or the CLI in a
    fresh interpreter loads neither `dataclasses` nor `inspect`."""
    code = (
        "import sys; before = set(sys.modules); "
        f"import {module}; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert module in loaded
    assert not loaded & {"dataclasses", "inspect"}


def _cold_query(argv):
    """Exit status, stdout and the modules newly loaded when a fresh
    interpreter runs `cli.main(argv)`."""
    code = (
        "import sys; before = set(sys.modules); "
        "from nilchar import cli; "
        f"code = cli.main({argv!r}); "
        "print(code, ' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    status, *loaded = out.stderr.split()
    return status, out.stdout, set(loaded)


def test_cold_cli_query_loads_no_parser_or_number_tower_modules():
    """A cold query through `cli.main` parses its flags without `argparse`
    (and its `gettext` and `locale`) and reads exact rationals as integer
    pairs, without `fractions` (and its `decimal` and `numbers`). That holds
    for `oracle-check` too, whose cone model clears its denominators when it
    is built and whose elimination runs on the integers it holds."""
    for command, group, degree in (("cntheta", "sl3-split", "0"), ("oracle-check", "sp4-split", "2")):
        status, stdout, loaded = _cold_query([command, "--group", group, "--degree", degree, "--json"])
        assert status == "0" and f'"command": "{command}"' in stdout
        assert "nilchar.cli" in loaded
        assert not loaded & {"argparse", "gettext", "locale", "fractions", "decimal", "numbers"}, command


def test_cold_text_query_loads_no_json():
    """Only `--json` output and config files read JSON: a cold text query
    of a catalog group loads no `json` module."""
    status, stdout, loaded = _cold_query(["cntheta", "--group", "sl3-split", "--degree", "0"])
    assert status == "0" and stdout.startswith("degree  weight")
    assert "nilchar.cli" in loaded
    assert not [m for m in loaded if m == "json" or m.startswith(("json.", "_json"))]


def test_cold_json_query_loads_no_json():
    """`--json` output is written by `_json`, the C encoder behind
    `json.dumps`, without the `json` package: a cold `--json` query of a
    catalog group loads `_json` and none of `json` or its submodules."""
    status, stdout, loaded = _cold_query(["cntheta", "--group", "sl3-split", "--degree", "0", "--json"])
    assert status == "0" and stdout.startswith('{"command": "cntheta"')
    assert {"nilchar.cli", "_json"} <= loaded
    assert not loaded & {"json", "json.decoder", "json.scanner", "json.encoder"}


# The nilchar modules every command loads: the command line, the config
# format with the catalog, and the cone formulas with what they stand on.
CORE_MODULES = {
    "nilchar", "nilchar.cli", "nilchar.config", "nilchar.ktheta", "nilchar.charring", "nilchar.rootdata",
}


@pytest.mark.parametrize(
    "argv, extra",
    [
        pytest.param(
            ["cntheta", "--group", "sl3-split", "--degree", "0", "--json"],
            set(),
            id="cntheta --group sl3-split",
        ),
        pytest.param(
            ["cntheta", "--group", "sl3-split", "--degree", "0", "--decompose-k", "--json"],
            set(),
            id="cntheta --group sl3-split --decompose-k",
        ),
        pytest.param(
            ["cntheta", "--group", "sp4-split", "--degree", "0", "--decompose-k", "--json"],
            set(),
            id="cntheta --group sp4-split",
        ),
        pytest.param(
            ["oracle-check", "--group", "sp4-split", "--degree", "0", "--json"],
            {"nilchar.oracle"},
            id="oracle-check --group sp4-split",
        ),
        pytest.param(
            ["cn", "--group", "sl3-split", "--degree", "0", "--json"],
            set(),
            id="cn --group sl3-split",
        ),
        pytest.param(
            ["cn", "--group", "sl2-split", "--degree", "0", "--json"],
            set(),
            id="cn --group sl2-split",
        ),
        pytest.param(
            ["cntheta", "--group", "sl2-split", "--degree", "0", "--json"],
            set(),
            id="cntheta --group sl2-split",
        ),
        pytest.param(
            ["branching", "--group", "sl2-split", "--degree", "0", "--json"],
            {"nilchar.langlands"},
            id="branching --group sl2-split",
        ),
        pytest.param(
            ["checks", "--group", "sl2-split", "--degree", "0", "--json"],
            {"nilchar.oracle", "nilchar.kernels"},
            id="checks --group sl2-split",
        ),
    ],
)
def test_cold_query_loads_only_the_modules_it_runs(argv, extra):
    """A cold query loads exactly the nilchar modules its command runs: the
    catalog lives in `config`, and the cone forms of both C[N] and
    C[N_theta] in `ktheta`, so `cn` and `cntheta` load nothing more. The
    cone model's elimination (`oracle`) is loaded by `oracle-check` and
    `checks` alone, the Lusztig route with its partition table (`kernels`)
    by `checks` alone, and the branching sum (`langlands`) by `branching`
    alone: the torus-table records that a config such as sl2-split's holds
    live in `config`. No module asks for `__future__`."""
    status, _, loaded = _cold_query(argv)
    assert status == "0"
    assert {m for m in loaded if m.partition(".")[0] == "nilchar"} == CORE_MODULES | extra
    assert "__future__" not in loaded


# The package's public names, as `from nilchar import *` gives them.
PUBLIC_NAMES = {
    "AffineConeModel", "CheckResult", "ConeVariable", "ConfigError", "ContinuedParameter", "FormalStandardSum", "GradedCharacter", "InvolutionData", "IrrepSeries", "LoadedConfig", "PositiveSystem",
    "RealFormConfig", "RootDatum", "SplitHypothesisError", "TorusDatum", "build_root_datum",
    "catalog_names", "classify_roots", "compare_with_formula", "config_from_dict", "dimension_check",
    "dominant_weights_up_to_height", "graded_branching_sum", "graded_character_by_degree",
    "k_invariant_check", "k_weight_multiset", "koszul_check", "load_catalog_config", "load_config_file",
    "lusztig_check", "lusztig_series", "nilcone_series", "theta_cone_character", "theta_cone_ktypes",
}


def test_star_import_gives_the_public_names_from_their_home_modules():
    """The package resolves its public names on first use, each to the object
    its home module defines; the submodules are not among them."""
    namespace = {}
    exec("from nilchar import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC_NAMES) == 34 and set(namespace) == PUBLIC_NAMES <= set(dir(nilchar))
    for name, value in namespace.items():
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert getattr(nilchar, name) is value, name


def test_unknown_package_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nilchar.no_such_name


def test_cold_package_imports_that_the_benchmark_uses():
    """`from nilchar import <function>, <submodule>` and `import
    nilchar.kernels`, in a fresh interpreter: the package loads a submodule
    by name, and a function's home module on first use."""
    code = (
        "from nilchar import build_root_datum, cli, nilcone_series; "
        "import nilchar.kernels; "
        "print(nilchar.kernels.active_backend(), cli.__name__, nilcone_series(build_root_datum([[2]]), 2).layers)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "python nilchar.cli [{(0,): 1}, {(2,): 1}, {(4,): 1}]\n"


def _every_record():
    """One instance of each record type, from the catalog configs."""
    sl2 = load_catalog_config("sl2-split")
    rf = sl2.real_form
    torus = sl2.tori[0]
    model = sl2.oracle_model
    return [
        sl2,
        rf,
        torus.theta,
        classify_roots(rf.g_datum, torus.theta),
        dimension_check(rf),
        torus,
        torus.positive_systems[0],
        ContinuedParameter("T", (1,), "ps"),
        model,
        model.variables[0],
        rf.g_datum,
    ]


def test_every_record_type_is_covered():
    assert len({type(r) for r in _every_record()}) == 11
    assert all(isinstance(r, Record) for r in _every_record())


@pytest.mark.parametrize("record", _every_record(), ids=lambda r: type(r).__name__)
def test_records_are_read_only(record):
    field = record._fields[0]
    with pytest.raises(AttributeError, match="read-only"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="read-only"):
        record.extra = 1
    with pytest.raises(AttributeError, match="read-only"):
        delattr(record, field)


def test_equal_parameters_hash_alike_and_merge():
    p = ContinuedParameter("T", (1, 0), "ps")
    q = ContinuedParameter("T", tuple([1, 0]), "ps")
    assert p is not q and p == q and hash(p) == hash(q)
    assert FormalStandardSum([(2, p, 0), (3, q, 0)]).terms == {(p, 0): 5}
    assert FormalStandardSum([(1, p, 1), (-1, q, 1)]).terms == {}
    other = ContinuedParameter("T", (0, 1), "ps")
    assert p != other
    assert len(FormalStandardSum([(1, p, 0), (1, other, 0)]).terms) == 2


def test_records_of_different_types_are_unequal():
    class Verdict(Record):
        __slots__ = ("passed", "lines")

    assert CheckResult(True, ()) != Verdict(True, ())
    assert CheckResult(True, ()) != (True, ())
    assert ContinuedParameter("T", (1,), "ps") != None  # noqa: E711


def test_constructor_binds_positional_and_keyword_arguments():
    p = ContinuedParameter("T", gamma0=(1,), positive_system="ps")
    assert p == ContinuedParameter(torus="T", gamma0=(1,), positive_system="ps") == ContinuedParameter("T", (1,), "ps")
    assert repr(p) == "ContinuedParameter(torus='T', gamma0=(1,), positive_system='ps')"


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("T", (1,)), {}, "missing arguments: positive_system"),
        (("T", (1,), "ps"), {"extra": 0}, "unexpected argument 'extra'"),
        (("T", (1,)), {"torus": "T", "positive_system": "ps"}, "multiple values for argument 'torus'"),
        (("T", (1,), "ps", 0), {}, "takes 3 arguments but 4 were given"),
    ],
)
def test_constructor_refuses_missing_unknown_or_repeated_fields(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        ContinuedParameter(*args, **kwargs)


def _rebuild(rf, **changes):
    fields = {f: getattr(rf, f) for f in rf._fields}
    fields.update(changes)
    return RealFormConfig(**fields)


def test_real_form_config_leaves_out_derived_p_weights():
    rf = load_catalog_config("sp4-split").real_form
    assert rf._fields == ("label", "g_datum", "involution", "restriction", "k_weights", "k_datum")
    assert len(rf.p_weights) == 6 and rf.k_torus_rank == 2
    assert (rf.rank_split, rf.split_mod_center) == (2, True)
    assert not any(name in repr(rf) for name in rf._derived)
    assert repr(rf).startswith("RealFormConfig(label='sp4-split', g_datum=RootDatum(")
    copy = _rebuild(rf)
    object.__setattr__(copy, "p_weights", ())
    assert copy == rf and hash(copy) == hash(rf)
    assert _rebuild(rf, label="other") != rf
    for name in rf._derived:
        with pytest.raises(TypeError, match=f"unexpected argument '{name}'"):
            _rebuild(rf, **{name: getattr(rf, name)})


def test_root_datum_is_a_record_of_its_simple_co_roots():
    """A datum is equal, hashed and printed by its rank and simple (co)roots;
    everything derived from them takes no part."""
    datum = build_root_datum([[2, -1], [-1, 2]])
    rebuilt = RootDatum(2, [list(r) for r in datum.simple_roots], [list(c) for c in datum.simple_coroots])
    assert rebuilt is not datum and rebuilt == datum and hash(rebuilt) == hash(datum)
    assert rebuilt != RootDatum(2, datum.simple_roots[:1], datum.simple_coroots[:1])
    assert datum._fields == ("rank", "simple_roots", "simple_coroots")
    assert repr(datum) == "RootDatum(rank=2, simple_roots=((2, -1), (-1, 2)), simple_coroots=((1, 0), (0, 1)))"


def test_check_result_keeps_its_truth_value():
    assert not CheckResult(False, ("FAIL: x",))
    assert CheckResult(True, ())
