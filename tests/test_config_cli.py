"""Configuration loading and the command-line surface."""

import json
import re

import pytest

from nilchar.catalog import catalog_document, catalog_names
from nilchar.cli import main
from nilchar.config import ConfigError, config_from_dict


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
        assert cfg.label == name


def test_config_error_names_field():
    doc = catalog_document("sl2-split")
    del doc["dims"]["p"]
    with pytest.raises(ConfigError, match="dims.p"):
        config_from_dict(doc)


def test_config_error_bad_cartan():
    doc = catalog_document("sl2-split")
    doc["group"]["cartan_matrix"] = [[3]]
    with pytest.raises(ConfigError, match="group"):
        config_from_dict(doc)


def test_config_error_inconsistent_weights():
    doc = catalog_document("sl2-split")
    doc["k"]["weights"] = [[0], [2]]
    with pytest.raises(ConfigError, match="sl2-split"):
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
    code, _, err = run(capsys, "cntheta", "--group", "sl2xsl2-swap", "--degree", "2")
    assert code == 1
    assert "split" in err


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
    assert out.count("[PASS]") == 4
    assert "[PASS] lusztig-vs-harmonics" in out


def test_checks_degree_zero_vacuous(capsys):
    code, out, _ = run(capsys, "checks", "--group", "sl2-split", "--degree", "0")
    assert code == 0


def test_checks_fail_on_bad_dims(tmp_path, capsys):
    doc = catalog_document("sl2-split")
    doc["dims"]["g"] = 5
    doc["dims"]["p"] = 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "checks", "--group", str(path), "--degree", "2")
    assert code == 2
    assert "[FAIL] dimensions" in out


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
