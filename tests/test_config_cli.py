"""Configuration loading and the command-line surface."""

import copy
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalog_documents import catalog_document
from nilchar import cli, ktheta, oracle
from nilchar.charring import GradedCharacter, IrrepSeries
from nilchar.cli import _json_rows, _json_text, main
from nilchar.config import ConfigError, catalog_names, config_from_dict, load_catalog_config
from nilchar.ktheta import SplitHypothesisError, theta_cone_character, theta_cone_ktypes
from nilchar.ktheta import nilcone_series
from oracle_reference import hilbert_by_degree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config loading ----------------------------------------------------------

def test_catalog_round_trips_through_files(tmp_path):
    for name in catalog_names():
        doc = catalog_document(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        from nilchar.config import load_config_file

        cfg = load_config_file(str(path))
        assert cfg.real_form.label == name


def _refused_file(tmp_path, capsys, data: bytes) -> str:
    """The error line `cntheta` gives for a config file holding `data`,
    checked to be a config error naming the file, with no traceback."""
    path = tmp_path / "refused.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "1")
    assert (code, out) == (1, "") and err.startswith(f"error: config file {path}") and "Traceback" not in err
    return err


def test_deeply_nested_file_is_a_config_error(tmp_path, capsys):
    """Nesting deeper than the JSON decoder's recursion limit is refused
    like any other unreadable file, not ended in a RecursionError."""
    err = _refused_file(tmp_path, capsys, b"[" * 100_000 + b"]" * 100_000)
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "data",
    [json.dumps(catalog_document("sl2-split")).encode("utf-16"), b'{"label": "sl\xe2-split"}'],
    ids=["utf-16 with its byte order mark", "latin-1"],
)
def test_non_utf8_file_is_a_config_error(tmp_path, capsys, data):
    assert "is not UTF-8" in _refused_file(tmp_path, capsys, data)


@pytest.mark.parametrize("where", ["top", "nested"])
def test_duplicate_key_is_a_config_error(tmp_path, capsys, where):
    """A repeated key is refused, naming it, instead of resolving to its last
    value (here, a form stated not split and then split, or an involution
    stated compact and then split)."""
    text = json.dumps(catalog_document("sl2-split"))
    if where == "top":
        text = text.replace('"label": "sl2-split",', '"label": "sl2-split", "split_mod_center": false, "split_mod_center": true,')
        key = "split_mod_center"
    else:
        text = text.replace('"matrix": [[-1]]', '"matrix": [[1]], "matrix": [[-1]]')
        key = "matrix"
    assert "duplicate key " + repr(key) in _refused_file(tmp_path, capsys, text.encode())


def test_config_error_names_field():
    doc = catalog_document("sl2-split")
    del doc["involution"]["matrix"]
    with pytest.raises(ConfigError, match="involution.matrix: missing"):
        config_from_dict(doc)


# The derived fields as the catalog documents stated them before they were
# derived.
STATED = {
    "sl2-split": {"g": 3, "k": 1, "p": 2, "rank_split": 1, "split_mod_center": True, "torus_rank": 1,
                  "weights": [[0]]},
    "sl2xsl2-swap": {"g": 6, "k": 3, "p": 3, "rank_split": 1, "split_mod_center": False, "torus_rank": 1,
                     "weights": [[-2], [0], [2]]},
    "sl3-split": {"g": 8, "k": 3, "p": 5, "rank_split": 2, "split_mod_center": True, "torus_rank": 1,
                  "weights": [[-2], [0], [2]]},
    "sp4-split": {"g": 10, "k": 4, "p": 6, "rank_split": 2, "split_mod_center": True, "torus_rank": 2,
                  "weights": [[1, -1], [-1, 1], [0, 0], [0, 0]]},
}


def _wrong(value):
    """A value of the same JSON type that differs from `value`."""
    if isinstance(value, list):
        return value[1:]
    return not value if isinstance(value, bool) else value + 1


@pytest.mark.parametrize("name", list(STATED))
@pytest.mark.parametrize(
    "field", ["dims.g", "dims.k", "dims.p", "dims.rank_split", "split_mod_center", "k.torus_rank", "k.weights"]
)
def test_stated_derived_field_is_a_cross_check(name, field):
    """A document may still state a derived field: the value it is derived
    as loads to the same config as the short form, and any other value is
    a ConfigError naming the field."""
    *sections, key = field.split(".")
    short = config_from_dict(catalog_document(name)).real_form
    doc = owner = catalog_document(name)
    for section in sections:
        owner = owner.setdefault(section, {})
    stated = owner[key] = STATED[name][key]
    assert config_from_dict(doc).real_form == short
    owner[key] = _wrong(stated)
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: the document states .*, derived from "):
        config_from_dict(doc)


def test_config_error_bad_cartan():
    doc = catalog_document("sl2-split")
    doc["group"]["cartan_matrix"] = [[3]]
    with pytest.raises(ConfigError, match="group"):
        config_from_dict(doc)


def test_config_error_inconsistent_weights():
    doc = catalog_document("sl2-split")
    del doc["k"]["datum"]
    doc["k"]["weights"] = [[0], [2]]
    with pytest.raises(ConfigError, match="sl2-split"):
        config_from_dict(doc)


def test_config_error_k_weights_outside_g(tmp_path, capsys):
    """sl3-split restricts the roots of g to +-4, +-2, +-2 on the K-torus.
    With k weights +-6, p would need weight 6 with multiplicity -1."""
    doc = catalog_document("sl3-split")
    del doc["k"]["datum"]
    doc["k"]["weights"] = [[-6], [0], [6]]
    with pytest.raises(ConfigError, match=r"k\.weights: weight \[-6\] occurs 1 times in k but 0"):
        config_from_dict(doc)
    path = tmp_path / "bad_k.json"
    path.write_text(json.dumps(doc))
    for command in ("cntheta", "checks"):
        code, out, err = run(capsys, command, "--group", str(path), "--degree", "3")
        assert code == 1 and out == "", command
        assert err.startswith("error: ") and "Traceback" not in err, command
        assert "k.weights" in err, command


def test_config_error_involution_must_permute_the_roots(tmp_path, capsys):
    """The involution decides the split hypothesis, and it is checked
    against G's roots when the document loads: one that does not permute
    them is a config error naming `involution`, exit 1."""
    doc = catalog_document("sl3-split")
    doc["involution"]["matrix"] = [[1, 0], [0, -1]]
    with pytest.raises(ConfigError, match=r"^involution: involution does not permute the roots"):
        config_from_dict(doc)
    path = tmp_path / "bad_involution.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "1")
    assert (code, out) == (1, "") and err.startswith("error: involution: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "name, matrix, root, rank_split",
    [("sl2-split", [[1]], [2], 0), ("sl3-split", [[0, 1], [1, 0]], [1, 1], 1)],
    ids=["sl2-identity", "sl3-swap"],
)
def test_involution_must_be_on_a_maximally_split_cartan(tmp_path, capsys, name, matrix, root, rank_split):
    """A noncompact imaginary root means theta is not on a maximally split
    Cartan, where the rank it does not fix would be too small for the
    split rank: a config error naming `involution`, exit 1. With the root
    marked compact, the same theta loads, as a form that is not split."""
    doc = catalog_document(name)
    doc["involution"]["matrix"] = matrix
    with pytest.raises(ConfigError, match=re.escape(f"involution: root {root} is noncompact imaginary, ")):
        config_from_dict(doc)
    path = tmp_path / "not_maximally_split.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "1")
    assert (code, out) == (1, "") and err.startswith(f"error: involution: root {root} is noncompact imaginary")
    doc["involution"]["compact_roots"] = [root]
    rf = config_from_dict(doc).real_form
    assert (rf.rank_split, rf.split_mod_center) == (rank_split, False)


@pytest.mark.parametrize(
    "theta, message",
    [
        ([[1.5]], "tori[0].theta[0][0]: expected an integer, got 1.5"),
        ("x", "tori[0].theta: expected a matrix"),
        ([[1, 0]], "tori[0].theta: involution matrix must be square"),
        ([[2]], "tori[0].theta: involution matrix must square to the identity"),
    ],
    ids=["float-entry", "string", "not-square", "not-an-involution"],
)
def test_bad_torus_theta_names_the_theta_field(theta, message):
    """A torus states its involution as `theta`, and that is the field an
    error names, not the top-level involution's `matrix`."""
    doc = catalog_document("sl2-split")
    doc["tori"][0]["theta"] = theta
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        config_from_dict(doc)


def test_config_error_model_rank():
    doc = catalog_document("sl2-split")
    doc["oracle_model"]["variables"][0]["weight"] = [2, 0]
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_config_error_bad_tori():
    doc = catalog_document("sl2-split")
    doc["tori"][1]["positive_systems"][0]["imaginary_roots"] = [[2], [-2]]
    with pytest.raises(ConfigError, match="tori"):
        config_from_dict(doc)


def test_config_error_duplicate_torus_label():
    """A repeated torus would silently double its branching coefficients."""
    doc = catalog_document("sl2-split")
    doc["tori"].append(copy.deepcopy(doc["tori"][0]))
    with pytest.raises(ConfigError, match=re.escape("tori[2].label: duplicate torus label 'split'")):
        config_from_dict(doc)


def test_config_error_duplicate_positive_system_id():
    doc = catalog_document("sl2-split")
    systems = doc["tori"][0]["positive_systems"]
    systems.append(copy.deepcopy(systems[0]))
    with pytest.raises(ConfigError, match=re.escape("tori[0].positive_systems[1].id: duplicate")):
        config_from_dict(doc)


def test_config_error_k_datum_is_not_k(tmp_path, capsys):
    """sl2-split has K = SO(2), a torus: an A1 datum for K has weights -2, 0,
    2, not the one zero weight of k that the document states, and would
    print A1 labels."""
    doc = catalog_document("sl2-split")
    doc["k"]["weights"] = [[0]]
    doc["k"]["datum"] = {"cartan_matrix": [[2]]}
    with pytest.raises(ConfigError, match=r"k\.weights: .* derived from the adjoint weights of k\.datum"):
        config_from_dict(doc)
    path = tmp_path / "bad_k_datum.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "3", "--decompose-k")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "k.datum" in err


def test_config_error_p_is_not_a_k_module(tmp_path, capsys):
    """sp4-split with a sheared restriction still covers the k weights, but
    its p weights are not invariant under the swap that is K's Weyl group:
    p would not be a K-module, and the K-types would be meaningless."""
    doc = catalog_document("sp4-split")
    doc["k"]["restriction"] = [[-1, -1], [-1, 1]]
    with pytest.raises(ConfigError, match=r"k\.datum: the p weights .* not invariant"):
        config_from_dict(doc)
    path = tmp_path / "p_not_invariant.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "1", "--decompose-k")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "k.datum" in err


@pytest.mark.parametrize(
    "field, value",
    [
        (("k", "restriction", 0, 0), 1.5),
        (("dims", "rank_split"), True),
        (("oracle_model", "generators", 0, 0, "num"), 1.5),
        (("dims", "g"), "10"),
        (("dims", "p"), 6.0),
        (("oracle_model", "variables", 2, "weight", 1), False),
    ],
    ids=["float-entry", "bool-dim", "float-num", "str-dim", "integral-float", "bool-entry"],
)
def test_config_refuses_non_integers(tmp_path, capsys, field, value):
    """A value that is not a JSON integer is refused, never converted
    (int(1.5) == 1 and int(True) == 1 would run a different model)."""
    doc = catalog_document("sp4-split")
    doc["dims"] = {}  # a stated dimension is read, as a cross-check
    owner = doc
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = value
    field_path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in field)[1:]
    with pytest.raises(ConfigError, match=re.escape(field_path + ": expected an integer")):
        config_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("value", [5, None, [1], True], ids=repr)
def test_label_must_be_a_string(tmp_path, capsys, value):
    """A label is taken as it is: 5, null, [1] or true is refused, not
    turned into the group name "5", "None", "[1]" or "True"."""
    doc = catalog_document("sl2-split")
    doc["label"] = value
    with pytest.raises(ConfigError, match=re.escape(f"label: expected a string, got {value!r}")):
        config_from_dict(doc)
    path = tmp_path / "label.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "1")
    assert (code, out) == (1, "") and err.startswith("error: label: ")


NAMED_FIELDS = {
    "tori[0].label": lambda doc: doc["tori"][0],
    "tori[1].positive_systems[0].id": lambda doc: doc["tori"][1]["positive_systems"][0],
    "oracle_model.variables[1].name": lambda doc: doc["oracle_model"]["variables"][1],
}


@pytest.mark.parametrize("value", [5, None], ids=repr)
@pytest.mark.parametrize("field", NAMED_FIELDS)
def test_names_must_be_strings(tmp_path, capsys, field, value):
    """A torus label, a positive-system id and an oracle variable name are
    taken as they are: 5 or null is refused, naming the field, not turned
    into "5" or "None"."""
    doc = catalog_document("sl2-split")
    NAMED_FIELDS[field](doc)[field.rsplit(".", 1)[1]] = value
    path = tmp_path / "names.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field}: expected a string, got {value!r}")


def test_missing_label_is_unnamed():
    doc = catalog_document("sl2-split")
    del doc["label"]
    assert config_from_dict(doc).real_form.label == "unnamed"


@pytest.mark.parametrize("value", ["false", 0, None, "true"], ids=repr)
def test_split_mod_center_must_be_boolean(value):
    """A stated `split_mod_center` is read as JSON true/false only:
    bool("false") is True, so "false" would pass the cross-check on a split
    form."""
    doc = catalog_document("sp4-split")
    doc["split_mod_center"] = value
    with pytest.raises(ConfigError, match=re.escape("split_mod_center: expected true or false")):
        config_from_dict(doc)
    doc["split_mod_center"] = True
    assert config_from_dict(doc).real_form.split_mod_center is True


def _top_and_first_level_fields(doc):
    for key, value in doc.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)


@pytest.mark.parametrize("value", [5, None, "x", [], True], ids=repr)
def test_single_field_mutation_is_valid_or_config_error(tmp_path, capsys, value):
    """Every top-level and first-level field of sp4-split set to one wrong
    value: the document loads, or it is refused with a ConfigError and the
    CLI exits 1 with `error:`; never another exception."""
    path = tmp_path / "mutated.json"
    for field in _top_and_first_level_fields(catalog_document("sp4-split")):
        doc = catalog_document("sp4-split")
        owner = doc
        for key in field[:-1]:
            owner = owner[key]
        owner[field[-1]] = value
        try:
            config_from_dict(doc)
            valid = True
        except ConfigError:
            valid = False
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "cntheta", "--group", str(path), "--degree", "1")
        if valid:
            assert code == 0, (field, err)
        else:
            assert code == 1 and out == "", field
            assert err.startswith("error: ") and "Traceback" not in err, (field, err)


# -- CLI ----------------------------------------------------------------------

def test_catalog_lists_all(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("sl2-split", "sl2xsl2-swap", "sl3-split", "sp4-split"):
        assert name in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [r["name"] for r in doc["rows"]] == list(catalog_names())
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "catalog", "--bogus")
    assert code == 1
    assert "usage error" in err


def test_unknown_group(capsys):
    code, _, err = run(capsys, "cn", "--group", "nope")
    assert code == 1
    assert "unknown group" in err


def test_cn_rows(capsys):
    code, out, _ = run(capsys, "cn", "--group", "sl2-split", "--degree", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [
        {"degree": m, "highest_weight": [2 * m], "multiplicity": 1} for m in range(4)
    ]


def test_cn_degree_zero(capsys):
    code, out, _ = run(capsys, "cn", "--group", "sl2-split", "--degree", "0", "--json")
    assert code == 0
    assert json.loads(out)["rows"] == [{"degree": 0, "highest_weight": [0], "multiplicity": 1}]


def test_cn_sl3_degree_one_adjoint(capsys):
    code, out, _ = run(capsys, "cn", "--group", "sl3-split", "--degree", "1", "--json")
    rows = [r for r in json.loads(out)["rows"] if r["degree"] == 1]
    assert rows == [{"degree": 1, "highest_weight": [1, 1], "multiplicity": 1}]


def test_cntheta_rows(capsys):
    code, out, _ = run(capsys, "cntheta", "--group", "sl2-split", "--degree", "5", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {tuple(r["weight"]) for r in rows if r["degree"] == 0} == {(0,)}
    for m in range(1, 6):
        assert {tuple(r["weight"]) for r in rows if r["degree"] == m} == {(2 * m,), (-2 * m,)}


def test_cntheta_refuses_non_split(capsys):
    """The refusal names the command-line flag that overrides it, not only
    the library keyword."""
    code, out, err = run(capsys, "cntheta", "--group", "sl2xsl2-swap", "--degree", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "split" in err and "--force" in err


def test_cntheta_force(capsys):
    code, out, _ = run(capsys, "cntheta", "--group", "sl2xsl2-swap", "--degree", "2", "--force")
    assert code == 0


def test_cntheta_decompose_k(capsys):
    code, out, _ = run(capsys, "cntheta", "--group", "sl3-split", "--degree", "2", "--decompose-k", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {(r["degree"], tuple(r["highest_weight"])): r["multiplicity"] for r in rows} == {
        (0, (0,)): 1,
        (1, (4,)): 1,
        (2, (4,)): 1,
        (2, (8,)): 1,
    }


def test_checks_pass(capsys):
    code, out, _ = run(capsys, "checks", "--group", "sl2-split", "--degree", "10")
    assert code == 0
    assert out.count("[PASS]") == 6
    assert "[PASS] lusztig-vs-harmonics" in out
    assert "[PASS] k-invariants" in out
    assert "[PASS] ktypes-vs-torus" in out


CHECK_ROWS = ["koszul", "dimensions", "lusztig-vs-harmonics", "k-invariants", "ktypes-vs-torus"]


@pytest.mark.parametrize("force", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("name", catalog_names())
def test_checks_rows_are_pinned(capsys, name, force):
    """Every entry of `checks`, in order, on every catalog group, with and
    without --force: an entry that drops out silently fails here. `oracle`
    is there where the config has a cone model."""
    argv = ["checks", "--group", name, "--degree", "3", "--json"] + ["--force"] * force
    code, out, _ = run(capsys, *argv)
    rows = json.loads(out)["rows"]
    has_model = load_catalog_config(name).oracle_model is not None
    assert [r["check"] for r in rows] == CHECK_ROWS + ["oracle"] * has_model
    skipped = {r["check"] for r in rows if r["passed"] is None}
    if name == "sl2xsl2-swap" and not force:
        assert skipped == {"k-invariants", "ktypes-vs-torus"}
    else:
        assert skipped == set()


def test_checks_builds_each_cone_form_once(monkeypatch, capsys):
    """One `checks` run builds the K-types once and the torus series once;
    `k-invariants`, `ktypes-vs-torus` and `oracle` share them."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for owner in (cli, ktheta, oracle):
        for name in ("theta_cone_character", "theta_cone_ktypes"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counted(name, getattr(ktheta, name)))
    code, out, _ = run(capsys, "checks", "--group", "sp4-split", "--degree", "6")
    assert code == 0 and out.count("[PASS]") == 6
    assert sorted(calls) == ["theta_cone_character", "theta_cone_ktypes"]


def test_checks_degree_zero_vacuous(capsys):
    code, out, _ = run(capsys, "checks", "--group", "sl2-split", "--degree", "0")
    assert code == 0


def test_checks_fail_on_bad_dims(tmp_path, capsys):
    """A stated dimension is a cross-check on the derived one, so a wrong
    table is refused when the document loads, also by `checks`."""
    doc = catalog_document("sl2-split")
    doc["dims"] = {"g": 5, "p": 4}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "checks", "--group", str(path), "--degree", "2")
    assert (code, out) == (1, "")
    assert err == "error: dims.g: the document states 5, but it is 3, derived from the k and p weights\n"


def test_checks_skips_oracle_when_not_split(tmp_path, capsys):
    doc = catalog_document("sl2xsl2-swap")
    doc["oracle_model"] = {
        "variables": [{"name": "t", "weight": [0]}],
        "generators": [],
    }
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "checks", "--group", str(path), "--degree", "4")
    assert code == 0
    assert "[SKIP] oracle" in out


def test_checks_k_invariants_skip_unforced_and_fail_forced_on_swap(capsys):
    code, out, _ = run(capsys, "checks", "--group", "sl2xsl2-swap", "--degree", "4")
    assert code == 0
    assert "[SKIP] k-invariants\n    skipped: config is not split modulo center\n" in out
    code, out, _ = run(capsys, "checks", "--group", "sl2xsl2-swap", "--degree", "4", "--force")
    assert code == 2
    assert "[FAIL] k-invariants\n    trivial K-type has multiplicity -1 in degree 2, expected 0\n" in out
    assert out.count("[FAIL]") == 1


def test_checks_k_invariants_skip_without_k_datum(tmp_path, capsys):
    doc = catalog_document("sl3-split")
    del doc["k"]["datum"]
    doc["k"]["weights"] = [[-2], [0], [2]]
    path = tmp_path / "no-k-datum.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "checks", "--group", str(path), "--degree", "3")
    assert code == 0
    assert "[SKIP] k-invariants\n    skipped: config carries no K root datum\n" in out
    assert out.count("[PASS]") == 4


def _flipped_swap(tmp_path):
    """sl2xsl2-swap declared split: its involution says otherwise."""
    doc = catalog_document("sl2xsl2-swap")
    doc["split_mod_center"] = True
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(doc))
    return doc, path


def test_declared_split_must_pass_dimension_identities(tmp_path):
    """A form is split modulo center when its involution is -1 on the whole
    lattice (the split rank is the rank), so a stated `split_mod_center`
    that says otherwise is refused, also for the `checks` command."""
    doc, _ = _flipped_swap(tmp_path)
    message = "split_mod_center: the document states True, but it is False, derived from the involution"
    for require_split in (True, False):
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            config_from_dict(doc, require_split=require_split)


@pytest.mark.parametrize("command", ["cntheta", "oracle-check", "branching"])
def test_split_dependent_commands_refuse_false_split(tmp_path, capsys, command):
    """Without the load-time check, `cntheta` printed a wrong character and
    exited 0."""
    _, path = _flipped_swap(tmp_path)
    code, out, err = run(capsys, command, "--group", str(path), "--degree", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: split_mod_center: ") and "Traceback" not in err
    assert "derived from the involution" in err


def test_checks_reports_false_split(tmp_path, capsys):
    """`checks` loads a split form whose Iwasawa count fails, to report the
    line, but a stated split hypothesis that the involution contradicts is
    a config error there too."""
    _, path = _flipped_swap(tmp_path)
    code, out, err = run(capsys, "checks", "--group", str(path), "--degree", "2")
    assert (code, out) == (1, "") and err.startswith("error: split_mod_center: the document states True")


def test_branching_degree_zero_is_zuckerman(capsys):
    code, out, _ = run(capsys, "branching", "--group", "sl2-split", "--degree", "0", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert sorted(r["coefficient"] for r in rows) == [-1, -1, 1]


def test_branching_requires_tori(capsys):
    code, _, err = run(capsys, "branching", "--group", "sp4-split")
    assert code == 1
    assert "tori" in err


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "--group", "sl2-split", "--degree", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["hilbert"] == [1, 2, 2, 2, 2, 2, 2]
    assert doc["passed"] is True


def test_oracle_check_hilbert_is_model_character_masses(capsys, monkeypatch):
    """oracle-check builds the model's weight-split character once and reads
    its Hilbert function off the masses; the rank count on the unsplit
    matrices agrees."""
    calls = []
    split = oracle.graded_character_by_degree

    def counted(*args, **kwargs):
        calls.append(args)
        return split(*args, **kwargs)

    monkeypatch.setattr(oracle, "graded_character_by_degree", counted)
    code, out, _ = run(capsys, "oracle-check", "--group", "sp4-split", "--degree", "5", "--json")
    assert code == 0
    assert len(calls) == 1
    model = load_catalog_config("sp4-split").oracle_model
    assert json.loads(out)["hilbert"] == hilbert_by_degree(model, 5)


def test_oracle_check_refuses_non_split_before_the_elimination(tmp_path, capsys, monkeypatch):
    """A config that is not split modulo center is refused before the
    model's elimination, the costly part (seconds at degree 40), with the
    comparison's own message and exit status 1."""
    doc = catalog_document("sl2xsl2-swap")
    doc["oracle_model"] = catalog_document("sl3-split")["oracle_model"]
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc))

    def refused(*args, **kwargs):
        pytest.fail("oracle-check ran the elimination for a non-split config")

    monkeypatch.setattr(oracle, "graded_character_by_degree", refused)
    code, out, err = run(capsys, "oracle-check", "--group", str(path), "--degree", "40")
    with pytest.raises(SplitHypothesisError) as refusal:
        theta_cone_character(config_from_dict(doc).real_form, 40)
    assert (code, out, err) == (1, "", f"error: {refusal.value}\n")


def test_unknown_catalog_name_is_a_config_error():
    """Like every other config failure, an unknown catalog name is a
    ConfigError (it was a bare KeyError), naming the known groups."""
    expected = "unknown catalog group 'sl4-split'; expected one of sl2-split, sl2xsl2-swap, sl3-split, sp4-split"
    with pytest.raises(ConfigError) as exc:
        load_catalog_config("sl4-split")
    assert str(exc.value) == expected


def test_oracle_check_missing_model(capsys):
    code, _, err = run(capsys, "oracle-check", "--group", "sl2xsl2-swap")
    assert code == 1
    assert "oracle_model" in err


def test_degree_cap(capsys):
    code, _, err = run(capsys, "cn", "--group", "sl2-split", "--degree", "65")
    assert code == 1
    assert "cap" in err
    code, _, _ = run(capsys, "cn", "--group", "sl2-split", "--degree", "65", "--allow-deep")
    assert code == 0


def test_negative_degree(capsys):
    code, _, err = run(capsys, "cn", "--group", "sl2-split", "--degree", "-1")
    assert code == 1


def test_output_byte_stable(capsys):
    _, first, _ = run(capsys, "cntheta", "--group", "sp4-split", "--degree", "4")
    _, second, _ = run(capsys, "cntheta", "--group", "sp4-split", "--degree", "4")
    assert first == second
    _, j1, _ = run(capsys, "branching", "--group", "sl2-split", "--degree", "2", "--json")
    _, j2, _ = run(capsys, "branching", "--group", "sl2-split", "--degree", "2", "--json")
    assert j1 == j2


def test_json_and_table_agree(capsys):
    _, table, _ = run(capsys, "cn", "--group", "sl3-split", "--degree", "3")
    _, as_json, _ = run(capsys, "cn", "--group", "sl3-split", "--degree", "3", "--json")
    rows = json.loads(as_json)["rows"]
    table_lines = [ln.split() for ln in table.strip().splitlines()[1:]]
    flat = [
        (int(cells[0]), "[" + ",".join(str(v) for v in r["highest_weight"]) + "]", int(cells[2]))
        for cells, r in zip(table_lines, rows)
    ]
    assert all(
        cells[1] == label and int(cells[0]) == r["degree"] and int(cells[2]) == r["multiplicity"]
        for cells, (_, label, _), r in zip(table_lines, flat, rows)
    )
    assert len(table_lines) == len(rows)


def test_halved_generator_gives_the_same_character(tmp_path, capsys):
    """A generator written with `den` terms is scaled to integers by the lcm
    of its denominators. sp4-split's first invariant, halved (one term as
    -1/-2) and added next to itself, must leave the ideal, the character
    and the `oracle-check` output as they are; any other scaling of its
    terms is a second quadric of the same weight."""
    doc = catalog_document("sp4-split")
    with_half = copy.deepcopy(doc)
    gens = with_half["oracle_model"]["generators"]
    half = copy.deepcopy(gens[0])
    assert [t["num"] for t in half] == [1, 1, 2]
    half[0].update(num=1, den=2)
    half[1].update(num=-1, den=-2)
    half[2].update(num=1)
    gens.append(half)
    outputs = []
    for d in (doc, with_half):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        code, out, _ = run(capsys, "oracle-check", "--group", str(path), "--degree", "6", "--json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    chars = [oracle.graded_character_by_degree(config_from_dict(d).oracle_model, 6).layers for d in (doc, with_half)]
    assert chars[0] == chars[1]


@pytest.mark.parametrize(
    "exponents, reason",
    [
        (([2, 0], [1, 0]), "generator is not degree-homogeneous: degrees [1, 2]"),
        (([2, 0], [0, 2]), "generator is not weight-homogeneous: weights [(-4,), (4,)]"),
    ],
    ids=["degree", "weight"],
)
def test_inhomogeneous_generator_names_the_field(tmp_path, capsys, exponents, reason):
    """x^2 + x and x^2 + y^2 added to sl2-split's model are refused at load,
    naming the generator, by every command and not only by the oracle."""
    doc = catalog_document("sl2-split")
    doc["oracle_model"]["generators"].append([{"num": 1, "exponents": e} for e in exponents])
    message = f"oracle_model.generators[1]: {reason}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(doc)
    path = tmp_path / "inhomogeneous.json"
    path.write_text(json.dumps(doc))
    for command in ("cntheta", "oracle-check", "checks"):
        code, out, err = run(capsys, command, "--group", str(path), "--degree", "3")
        assert code == 1 and out == "", command
        assert err == f"error: {message}\n", command


@pytest.mark.parametrize("den, reason", [(0, "zero denominator"), (1.5, "expected an integer")])
def test_bad_denominator_names_the_field(den, reason):
    doc = catalog_document("sp4-split")
    doc["oracle_model"]["generators"][0][1]["den"] = den
    with pytest.raises(ConfigError, match=re.escape(f"oracle_model.generators[0][1].den: {reason}")):
        config_from_dict(doc)


# -- JSON output ---------------------------------------------------------------

SERIES_COMMANDS = [["cn"], ["cntheta"], ["cntheta", "--decompose-k"]]
JSON_COMMANDS = SERIES_COMMANDS + [["checks"], ["branching"], ["oracle-check"]]


@pytest.mark.parametrize("degree", ["0", "6"])
@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("command", JSON_COMMANDS, ids=" ".join)
def test_json_output_is_sorted_json_dumps(capsys, command, name, degree):
    """Every `--json` document is byte for byte what `json.dumps(...,
    sort_keys=True)` writes; a command the entry cannot run writes nothing."""
    code, out, _ = run(capsys, *command, "--group", name, "--degree", degree, "--json")
    if code == 1:
        assert out == ""
        return
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert json.loads(out)["group"] == name


def _series(command, rf, degree):
    if command == ["cn"]:
        return nilcone_series(rf.g_datum, degree)
    if command == ["cntheta"]:
        return theta_cone_character(rf, degree)
    return theta_cone_ktypes(rf, degree)


@pytest.mark.parametrize("degree", [0, 1, 7])
@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("command", SERIES_COMMANDS, ids=" ".join)
def test_series_json_is_the_dumped_records(capsys, command, name, degree):
    """`cn` and `cntheta` write their rows straight from the layers; the
    document is still `json.dumps` of the header and `to_records()`. An
    entry the command refuses writes nothing."""
    rf = load_catalog_config(name).real_form
    code, out, _ = run(capsys, *command, "--group", name, "--degree", str(degree), "--json")
    try:
        series = _series(command, rf, degree)
    except ValueError:
        assert (code, out) == (1, "")
        return
    header = {"command": command[0], "group": name, "degree": degree}
    assert code == 0
    assert out == json.dumps({**header, "rows": series.to_records()}, sort_keys=True) + "\n"


def _random_layers(rank):
    weights = st.tuples(*[st.integers(-40, 40)] * rank)
    multiplicities = st.integers(-(10**20), 10**20)
    return st.lists(st.dictionaries(weights, multiplicities, max_size=8), min_size=1, max_size=5)


_RANKED_LAYERS = st.integers(0, 3).flatmap(lambda rank: st.tuples(st.just(rank), _random_layers(rank)))


@given(_RANKED_LAYERS, st.sampled_from([GradedCharacter, IrrepSeries]))
@settings(max_examples=150, deadline=None)
@example((0, [{(): -3}, {}, {(): 2}]), GradedCharacter)
@example((2, [{}, {}]), IrrepSeries)
def test_json_rows_are_the_dumped_records(ranked, cls):
    """The row writer on random series, negative multiplicities, empty
    layers and rank-0 weights included, against `json.dumps` of the rows."""
    rank, layers = ranked
    series = cls(rank, len(layers) - 1, layers)
    key = "weight" if cls is GradedCharacter else "highest_weight"
    assert _json_rows(series.layers, key) == json.dumps(series.to_records(), sort_keys=True)


def test_non_ascii_label_round_trips_through_json_output(tmp_path, capsys):
    label = "sl\u2082 \u201cx\u201d \U0001d524"  # sl₂ “x” 𝔤
    doc = catalog_document("sl2-split")
    doc["label"] = label
    path = tmp_path / "label.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "cntheta", "--group", str(path), "--degree", "2", "--json")
    assert code == 0 and json.loads(out)["group"] == label
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert '"group": "sl\\u2082 \\u201cx\\u201d \\ud835\\udd24"' in out


# Strings with every kind of character the escaping distinguishes: quotes,
# backslashes, control characters, DEL, non-ASCII, outside the Basic
# Multilingual Plane, and a lone surrogate.
_TRICKY = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\b\f \x80\xe9\u2082\ud800\U0001d524'), st.characters())
)
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TRICKY,
    lambda inner: (
        st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.dictionaries(_TRICKY, inner)
        | st.dictionaries(st.integers(), inner)
    ),
    max_leaves=20,
)


@given(_PAYLOADS)
@settings(max_examples=100, deadline=None)
@example(1.5)
@example([1, 2.0])
@example({1: 2})
def test_json_text_is_sorted_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("value", [{"a": {1}}, b"x"], ids=repr)
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


# -- the flag parser -----------------------------------------------------------

def test_flag_value_forms_agree(capsys):
    spaced = run(capsys, "cn", "--group", "sl3-split", "--degree", "5")
    joined = run(capsys, "cn", "--group=sl3-split", "--degree=5")
    assert spaced == joined and spaced[0] == 0 and spaced[1]


def test_repeated_flag_last_value_wins(capsys):
    once = run(capsys, "cntheta", "--group", "sp4-split", "--degree", "3", "--json")
    repeated = run(capsys, "cntheta", "--group", "sl2-split", "--degree", "9", "--json", "--group=sp4-split", "--degree", "3")
    assert once == repeated and json.loads(once[1])["group"] == "sp4-split"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["cn", "--group", "sl2-split", "--help"]])
def test_help_lists_every_command(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    for command in ("catalog", "cn", "cntheta", "checks", "branching", "oracle-check"):
        assert re.search(rf"^{command} ", out, re.M), command
    for flag in ("--group", "--degree", "--json", "--allow-deep", "--force", "--decompose-k"):
        assert flag in out, flag


@pytest.mark.parametrize(
    "argv, reason",
    [
        ([], "no command given"),
        (["nilcone"], "unknown command 'nilcone'"),
        (["catalog", "--bogus"], "unrecognized argument '--bogus'"),
        (["cn", "--group", "sl2-split", "--deg", "3"], "unrecognized argument '--deg'"),
        (["cn", "--group", "sl2-split", "extra"], "unrecognized argument 'extra'"),
        (["cn", "--group", "sl2-split", "--degree"], "--degree expects a value"),
        (["cn", "--group", "sl2-split", "--degree", "1.5"], "--degree expects an integer, got '1.5'"),
        (["cn", "--group", "sl2-split", "--degree", "x"], "--degree expects an integer, got 'x'"),
        (["cn", "--group", "sl2-split", "--degree", "1_0"], "--degree expects an integer, got '1_0'"),
        (["cn", "--group", "sl2-split", "--degree", "\u0663"], "--degree expects an integer, got '\u0663'"),
        (["cn", "--group", "sl2-split", "--degree", " 3"], "--degree expects an integer, got ' 3'"),
        (["cn", "--group", "sl2-split", "--degree=+2"], "--degree expects an integer, got '+2'"),
        (["cn", "--group", "sl2-split", "--json=1"], "--json takes no value"),
        (["cn", "--degree", "3"], "cn requires --group"),
        (["checks"], "checks requires --group"),
    ],
    ids=["none", "unknown-command", "bogus", "abbreviated", "positional", "no-value", "float", "word", "underscore",
         "arabic-indic-digit", "space", "plus", "flag-value", "no-group", "no-group-bare"],
)
def test_usage_errors(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and reason in err and "Traceback" not in err


def test_negative_degree_reaches_the_range_check(capsys):
    for argv in (["--degree", "-1"], ["--degree=-1"]):
        code, out, err = run(capsys, "cn", "--group", "sl2-split", *argv)
        assert (code, out, err) == (1, "", "usage error: --degree must be non-negative\n")
