"""Acceptance suite: the exit criteria, one test per criterion.

Every comparison is an exact integer identity (zero tolerance). Each test
prints a single PASS line on success and enforces its runtime budget.
"""

import json
import time
from math import comb

import pytest

from nilchar.cli import main
from nilchar.config import AffineConeModel, ConeVariable, load_catalog_config
from nilchar.charring import irreducible_character
from nilchar.kernels import dominant_weights_up_to_height, lusztig_series
from nilchar.ktheta import dimension_check, koszul_check, theta_cone_character
from nilchar.langlands import graded_branching_sum
from nilchar.oracle import compare_with_formula, graded_character_by_degree
from nilchar.rootdata import build_root_datum
from lusztig_reference import lusztig_mq, weyl_multiplicity
from paper_formula import nilcone_character
from standard_sums import mass_by_degree, zuckerman_expansion
from weyl_action import weyl_dimension

SL2 = load_catalog_config("sl2-split")
A2 = build_root_datum([[2, -1], [-1, 2]])
B2 = build_root_datum([[2, -2], [-1, 2]])


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s exceeds {self.seconds}s"
            print(f"PASS {self.name} ({elapsed:.2f}s)")
        else:
            print(f"FAIL {self.name}")
        return False


def _cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_cn_sl2(capsys):
    with Budget("criterion 1: cn sl2-split degree 10", 1.0):
        doc = _cli_json(capsys, "cn", "--group", "sl2-split", "--degree", "10", "--json")
        expected = [
            {"degree": m, "highest_weight": [2 * m], "multiplicity": 1} for m in range(11)
        ]
        assert doc["rows"] == expected


def test_criterion_2_cntheta_sl2(capsys):
    with Budget("criterion 2: cntheta sl2-split degree 10", 1.0):
        doc = _cli_json(capsys, "cntheta", "--group", "sl2-split", "--degree", "10", "--json")
        by_degree: dict = {}
        for r in doc["rows"]:
            by_degree.setdefault(r["degree"], {})[tuple(r["weight"])] = r["multiplicity"]
        assert by_degree[0] == {(0,): 1}
        for m in range(1, 11):
            assert by_degree[m] == {(2 * m,): 1, (-2 * m,): 1}


def test_criterion_3_koszul_identity():
    with Budget("criterion 3: Koszul identity through degree 10", 1.0):
        assert koszul_check([(0,)], 10, rank=1).passed
        assert koszul_check([(-2,), (0,), (2,)], 10, rank=1).passed
        sl3 = load_catalog_config("sl3-split").real_form
        assert len(sl3.k_weights) == 3
        assert koszul_check(sl3.k_weights, 10, rank=sl3.k_torus_rank).passed


def test_criterion_4_oracle_equivalence():
    with Budget("criterion 4: oracle equivalence through degree 8", 5.0):
        xy = AffineConeModel(
            (ConeVariable("x", (2,)), ConeVariable("y", (-2,))),
            ({(1, 1): 1},),
        )
        assert compare_with_formula(theta_cone_character(SL2.real_form, 8), graded_character_by_degree(xy, 8)).passed
        full = AffineConeModel(
            (ConeVariable("a", (0,)), ConeVariable("b", (2,)), ConeVariable("c", (-2,))),
            ({(2, 0, 0): 1, (0, 1, 1): 1},),
        )
        cone = graded_character_by_degree(full, 8)
        assert cone.masses() == [2 * n + 1 for n in range(9)]
        assert cone.masses() == nilcone_character(SL2.real_form.g_datum, 8).masses()


SCAN = [(datum, lam) for datum in (A2, B2) for lam in dominant_weights_up_to_height(datum, 6)]


def test_criterion_5_q1_consistency():
    with Budget("criterion 5: q->1 consistency (A2 and B2, height <= 6)", 10.0):
        checked = 0
        for datum, lam in SCAN:
            for mu, expected in irreducible_character(datum, lam).items():
                mq = lusztig_mq(datum, lam, mu)
                assert sum(mq.coeffs.values()) == expected
                assert weyl_multiplicity(datum, lam, mu) == expected
                checked += 1
        assert checked > 250  # non-degenerate scan over both systems


def test_criterion_6_positivity():
    with Budget("criterion 6: q-analog positivity over the scan set", 10.0):
        zero_a2, zero_b2 = (0, 0), (0, 0)
        for datum, lam in SCAN:
            mq = lusztig_mq(datum, lam, zero_a2 if datum is A2 else zero_b2)
            assert all(c >= 0 for _, c in mq.items()), (lam, mq)


def test_criterion_7_dimension_identity():
    with Budget("criterion 7: dimension identities for the split catalog", 1.0):
        for name in ("sl2-split", "sl3-split", "sp4-split"):
            assert dimension_check(load_catalog_config(name).real_form).passed, name


def test_criterion_8_multiplicity_one():
    with Budget("criterion 8: Kostant-Rallis multiplicity one (sl2, N=10)", 1.0):
        gc = theta_cone_character(SL2.real_form, 10)
        totals: dict = {}
        for layer in gc.layers:
            for w, c in layer.items():
                totals[w] = totals.get(w, 0) + c
        assert totals == {(2 * k,): 1 for k in range(-10, 11)}


def test_criterion_9_branching_bookkeeping():
    with Budget("criterion 9: branching sum bookkeeping", 1.0):
        rf, tori = SL2.real_form, SL2.tori
        assert graded_branching_sum(rf, tori, 0) == zuckerman_expansion(tori)

        total = graded_branching_sum(rf, tori, 1)
        datum = rf.g_datum
        z_mass = sum((-1) ** ps.ell for torus in tori for ps in torus.positive_systems)
        dim_series = [0, 0]
        for deg, layer in enumerate(lusztig_series(datum, 1).layers):
            for lam, c in layer.items():
                dim_series[deg] += weyl_dimension(datum, lam) * c
        dim_k = len(rf.k_weights)
        expected = {
            n: z_mass
            * sum(dim_series[j] * (-1) ** (n - j) * comb(dim_k, n - j) for j in range(n + 1) if n - j <= dim_k)
            for n in (0, 1)
        }
        got = mass_by_degree(total)
        assert {n: got.get(n, 0) for n in (0, 1)} == expected
