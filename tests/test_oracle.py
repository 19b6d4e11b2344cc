"""Brute-force cone models: Hilbert functions, graded characters, and the
comparison against the product formula."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchar.catalog import load_catalog_config
from nilchar.oracle import (
    AffineConeModel,
    ConeVariable,
    _insert_row,
    compare_with_formula,
    graded_character_by_degree,
    hilbert_by_degree,
)
from paper_formula import nilcone_character

SL2 = load_catalog_config("sl2-split")

XY_MODEL = AffineConeModel(
    variables=(ConeVariable("x", (2,)), ConeVariable("y", (-2,))),
    generators=({(1, 1): 1},),
)

FULL_CONE = AffineConeModel(
    variables=(ConeVariable("a", (0,)), ConeVariable("b", (2,)), ConeVariable("c", (-2,))),
    generators=({(2, 0, 0): 1, (0, 1, 1): 1},),
)


def test_free_polynomial_ring():
    model = AffineConeModel((ConeVariable("t", (0,)),), ())
    assert hilbert_by_degree(model, 5) == [1] * 6
    gc = graded_character_by_degree(model, 4)
    assert all(gc.layers[n] == {(0,): 1} for n in range(5))


def test_xy_model_hilbert_and_character():
    assert hilbert_by_degree(XY_MODEL, 8) == [1] + [2] * 8
    gc = graded_character_by_degree(XY_MODEL, 4)
    assert gc.layers[0] == {(0,): 1}
    for n in range(1, 5):
        assert gc.layers[n] == {(2 * n,): 1, (-2 * n,): 1}


def test_full_cone_model():
    assert hilbert_by_degree(FULL_CONE, 8) == [2 * n + 1 for n in range(9)]
    gc = graded_character_by_degree(FULL_CONE, 3)
    assert gc.layers[1] == {(-2,): 1, (0,): 1, (2,): 1}
    assert gc == nilcone_character(SL2.real_form.g_datum, 3)


def test_character_masses_match_hilbert():
    for model in (XY_MODEL, FULL_CONE, SL2.oracle_model):
        n = 5
        assert graded_character_by_degree(model, n).masses() == hilbert_by_degree(model, n)


def test_rank_independent_of_monomial_order():
    for model in (XY_MODEL, FULL_CONE):
        assert hilbert_by_degree(model, 6, order="lex") == hilbert_by_degree(model, 6, order="revlex")
        assert graded_character_by_degree(model, 4, order="lex") == graded_character_by_degree(
            model, 4, order="revlex"
        )


def test_inhomogeneous_generator_rejected():
    model = AffineConeModel(
        (ConeVariable("x", (2,)), ConeVariable("y", (-2,))),
        ({(1, 0): 1, (1, 1): 1},),
    )
    with pytest.raises(ValueError, match="degree-homogeneous"):
        hilbert_by_degree(model, 2)


def test_weight_inhomogeneous_generator_rejected():
    model = AffineConeModel(
        (ConeVariable("x", (2,)), ConeVariable("y", (-2,))),
        ({(2, 0): 1, (1, 1): 1},),
    )
    with pytest.raises(ValueError, match="weight-homogeneous"):
        graded_character_by_degree(model, 2)


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError, match="unique"):
        AffineConeModel((ConeVariable("x", (0,)), ConeVariable("x", (1,))), ())


def test_compare_sl2_models():
    assert compare_with_formula(SL2.real_form, XY_MODEL, 8).passed


def test_compare_detects_perturbed_model():
    bad = AffineConeModel(
        (ConeVariable("x", (2,)), ConeVariable("y", (-2,))),
        ({(2, 0): 1},),
    )
    result = compare_with_formula(SL2.real_form, bad, 4)
    assert not result.passed
    assert "degree 2" in result.lines[-1]


def test_compare_degree_zero_trivial():
    assert compare_with_formula(SL2.real_form, XY_MODEL, 0).passed


def test_compare_rank_mismatch():
    model = AffineConeModel((ConeVariable("x", (1, 0)),), ())
    with pytest.raises(ValueError, match="rank"):
        compare_with_formula(SL2.real_form, model, 2)


def test_catalog_models_agree_with_formula():
    sl3 = load_catalog_config("sl3-split")
    assert compare_with_formula(sl3.real_form, sl3.oracle_model, 10).passed
    sp4 = load_catalog_config("sp4-split")
    assert compare_with_formula(sp4.real_form, sp4.oracle_model, 8).passed


def test_rational_coefficients():
    half = AffineConeModel(
        (ConeVariable("x", (2,)), ConeVariable("y", (-2,))),
        ({(1, 1): Fraction(1, 2)},),
    )
    assert hilbert_by_degree(half, 4) == hilbert_by_degree(XY_MODEL, 4)
    # x/2 + y/3 is a multiple of 3x + 2y, so the ideal is principal; it is
    # not a multiple of 3x + 3y, and the two span both linear forms.
    plane = (ConeVariable("x", (0,)), ConeVariable("y", (0,)))
    mixed = {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}
    principal = AffineConeModel(plane, (mixed, {(1, 0): 3, (0, 1): 2}))
    assert hilbert_by_degree(principal, 4) == [1] * 5
    maximal = AffineConeModel(plane, (mixed, {(1, 0): 3, (0, 1): 3}))
    assert hilbert_by_degree(maximal, 4) == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("weight", [(1.5,), (True,), (2.0,)])
def test_non_integer_variable_weight_rejected(weight):
    with pytest.raises(ValueError, match="variable 'x'"):
        ConeVariable("x", weight)


@pytest.mark.parametrize("exps", [(1.7, 0), (True, 1), (1.0, 1)])
def test_non_integer_exponent_rejected(exps):
    with pytest.raises(ValueError, match=r"generator 0 term .*exponents must be integers"):
        AffineConeModel(XY_MODEL.variables, ({exps: 1},))


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, Decimal("1")])
def test_float_coefficient_rejected(coeff):
    with pytest.raises(ValueError, match=r"generator 0 term \(1, 1\): coefficient"):
        AffineConeModel(XY_MODEL.variables, ({(1, 1): coeff},))


def _fraction_rank(rows) -> int:
    """Reference rank: Gaussian elimination over the rationals on dense rows."""
    work = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col] / work[rank][col]
            work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Small integer matrices of low rank: integer combinations of a few
    random rows, plus a zero row, a repeated row and multiples of a row."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-5, 5)
    basis = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    combos = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
    rows = [
        [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ncols)]
        for coeffs in draw(st.lists(combos, max_size=6))
    ]
    factor = draw(st.integers(2, 6))
    rows += [[0] * ncols, basis[0], basis[0], [factor * v for v in basis[-1]], [-v for v in basis[-1]]]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_sparse_rank_matches_fraction_elimination(rows):
    pivots = {}
    for r in rows:
        _insert_row(pivots, {c: v for c, v in enumerate(r) if v})
    assert len(pivots) == _fraction_rank(rows)
    for lead, pivot in pivots.items():
        assert lead == min(pivot) and gcd(*pivot.values()) == 1
