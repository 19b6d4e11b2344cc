"""Brute-force cone models: Hilbert functions, graded characters, the packed
route held to the tuple route of `oracle_reference`, and the comparison
against the product formula."""

import re
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchar import oracle
from nilchar.config import AffineConeModel, ConeVariable, config_from_dict, load_catalog_config
from nilchar.ktheta import theta_cone_character
from nilchar.oracle import _insert_row, compare_with_formula, graded_character_by_degree
from catalog_documents import catalog_document
from oracle_reference import _monomials, hilbert_by_degree, reference_layers
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
    """The library's lex elimination and the reference's revlex one give the
    same quotient."""
    for model in (XY_MODEL, FULL_CONE):
        assert hilbert_by_degree(model, 6, order="lex") == hilbert_by_degree(model, 6, order="revlex")
        assert graded_character_by_degree(model, 4).layers == reference_layers(model, 4, order="revlex")


# -- the packed route against the tuple route ----------------------------------

ORDERS = ("lex", "revlex")
PLANE = (ConeVariable("x", (0,)), ConeVariable("y", (0,)))


def assert_matches_reference(model, truncation, order):
    """The library's packed lex route equals the reference in `order`."""
    packed = graded_character_by_degree(model, truncation)
    reference = reference_layers(model, truncation, order)
    assert len(packed.layers) == len(reference) == truncation + 1
    for n, (got, want) in enumerate(zip(packed.layers, reference)):
        assert got == want, (n, order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("model", [XY_MODEL, FULL_CONE], ids=["xy", "full-cone"])
def test_packed_route_matches_reference_on_small_models(model, order):
    assert_matches_reference(model, 8, order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("group, truncation", [("sl2-split", 12), ("sl3-split", 8), ("sp4-split", 8)])
def test_packed_route_matches_reference_on_catalog_models(group, truncation, order):
    assert_matches_reference(load_catalog_config(group).oracle_model, truncation, order)


@st.composite
def weight_homogeneous_models(draw):
    """Small models whose variables share few weights, so that a weight block
    holds several monomials, with generators made homogeneous by drawing one
    monomial and then terms among the monomials of its degree and weight."""
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 4))
    weight = st.tuples(*[st.integers(-1, 1)] * rank)
    variables = tuple(ConeVariable(f"x{i}", draw(weight)) for i in range(nvars))
    bare = AffineConeModel(variables, ())
    coefficient = st.integers(-3, 3).filter(bool)
    generators = []
    for _ in range(draw(st.integers(0, 4))):
        monomials = _monomials(nvars, draw(st.integers(1, 3)))
        seed = bare.monomial_weight(draw(st.sampled_from(monomials)))
        same = [m for m in monomials if bare.monomial_weight(m) == seed]
        terms = draw(st.lists(st.sampled_from(same), min_size=1, max_size=4, unique=True))
        generators.append({m: draw(coefficient) for m in terms})
    return AffineConeModel(variables, tuple(generators))


@settings(max_examples=150, deadline=None)
@given(weight_homogeneous_models(), st.integers(0, 7), st.sampled_from(ORDERS))
def test_packed_route_matches_reference_on_random_models(model, truncation, order):
    assert_matches_reference(model, truncation, order)


@pytest.mark.parametrize("order", ORDERS)
def test_constant_generator_after_a_quadric(order):
    """A degree-0 generator listed second: the F5 lookup for its rows is in
    the degree being built, and it kills every degree."""
    model = AffineConeModel(PLANE, ({(1, 1): 1}, {(0, 0): 3}))
    assert graded_character_by_degree(model, 4).layers == [{}] * 5
    assert_matches_reference(model, 4, order)


@pytest.mark.parametrize("order", ORDERS)
def test_generator_above_the_truncation_listed_first(order):
    """The first kept generator, not the first listed, has its rows put in
    as pivots unreduced."""
    model = AffineConeModel(XY_MODEL.variables, ({(4, 0): 1}, {(1, 1): 1}, {(2, 0): 1}))
    assert graded_character_by_degree(model, 3).masses() == [1, 2, 1, 1]
    assert_matches_reference(model, 3, order)


@pytest.mark.parametrize("order", ORDERS)
def test_four_generators(order):
    """Four generators of degrees 2, 2, 3 and 3; the third is `d*f_1 + c*f_2`,
    so its rows reduce to zero, which the F5 criterion does not foresee."""
    variables = (
        ConeVariable("a", (1,)),
        ConeVariable("b", (-1,)),
        ConeVariable("c", (0,)),
        ConeVariable("d", (0,)),
    )
    generators = (
        {(1, 1, 0, 0): 1, (0, 0, 2, 0): -1},
        {(0, 0, 1, 1): 2},
        {(1, 1, 0, 1): 1, (0, 0, 2, 1): 1},
        {(2, 1, 0, 0): 2, (1, 0, 2, 0): -1},
    )
    assert_matches_reference(AffineConeModel(variables, generators), 8, order)


@pytest.mark.parametrize("order", ORDERS)
def test_weight_digits_at_their_bound(order):
    """Weights with entries +-5 on rank 2 at truncation 6: the sixth powers
    of the variables reach +-30 in each coordinate, the largest signed digit
    in base 2*6*5 + 1."""
    variables = (
        ConeVariable("u", (5, -5)),
        ConeVariable("v", (-5, 5)),
        ConeVariable("s", (5, 5)),
        ConeVariable("t", (-5, -5)),
    )
    generators = ({(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}, {(2, 1, 0, 0): 1, (1, 0, 1, 1): -1})
    model = AffineConeModel(variables, generators)
    top = graded_character_by_degree(model, 6).layers[6]
    assert {(30, -30), (-30, 30), (30, 30), (-30, -30)} <= set(top)
    assert_matches_reference(model, 6, order)


@pytest.mark.parametrize("group, truncation", [("sp4-split", 7), ("sp4-split", 12), ("sl3-split", 12)])
def test_f5_leaves_catalog_models_no_reduction_to_zero(monkeypatch, group, truncation):
    """The catalog models' invariants form a regular sequence, so the F5
    criterion leaves no row that reduces to zero, and every row that is
    reduced makes a pivot. Without the criterion, sp4-split at N=12 had 924
    zero reductions and sl3-split at N=12 had 792; at sp4 N=7 the rows
    reduced fell from 546 to 77."""
    leads = []

    def counted(pivots, row):
        leads.append(_insert_row(pivots, row))
        return leads[-1]

    monkeypatch.setattr(oracle, "_insert_row", counted)
    model = load_catalog_config(group).oracle_model
    masses = graded_character_by_degree(model, truncation).masses()
    assert leads.count(None) == 0
    nvars = len(model.variables)
    first, *rest = (model.generator_degree(g) for g in model.generators)
    free = sum(comb(nvars + n - 1, n) for n in range(truncation + 1))
    first_rows = sum(comb(nvars + n - 1, n) for n in range(truncation + 1 - first))
    rows = first_rows + sum(comb(nvars + n - 1, n) for d in rest for n in range(truncation + 1 - d))
    assert len(leads) == free - sum(masses) - first_rows
    assert 4 * len(leads) < rows


@pytest.mark.parametrize("order", ORDERS)
def test_model_without_variables(order):
    free = AffineConeModel((), ())
    assert graded_character_by_degree(free, 3).layers == [{(): 1}, {}, {}, {}]
    killed = AffineConeModel((), ({(): 2},))
    assert graded_character_by_degree(killed, 3).layers == [{}, {}, {}, {}]
    for model in (free, killed):
        assert_matches_reference(model, 3, order)


@pytest.mark.parametrize("order", ORDERS)
def test_truncation_one_keeps_same_weight_variables_apart(order):
    """At truncation 1 the digits are in base 2. Two weight-0 variables and
    two independent linear forms leave nothing in degree 1; with base 1 both
    variables would be one column and the rank would be 1."""
    model = AffineConeModel(PLANE, ({(1, 0): 1, (0, 1): 2}, {(1, 0): 1, (0, 1): 1}))
    assert graded_character_by_degree(model, 1).masses() == [1, 0]
    assert_matches_reference(model, 1, order)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("truncation", [1, 2, 5])
def test_exponent_at_the_truncation(truncation, order):
    """x^N - y^N at truncation N: each exponent reaches the largest digit,
    and the generator's degree is the truncation, so it cuts degree N only."""
    n = truncation
    model = AffineConeModel(PLANE, ({(n, 0): 1, (0, n): -1},))
    assert graded_character_by_degree(model, n).masses() == list(range(1, n + 1)) + [n]
    assert_matches_reference(model, n, order)
    assert graded_character_by_degree(model, n - 1).masses() == list(range(1, n + 1))


@pytest.mark.parametrize("order", ORDERS)
def test_generator_of_the_truncation_degree(order):
    """A generator of degree N in one variable of a model with three: its
    only row is in degree N, in its own weight block."""
    variables = (ConeVariable("t", (1,)), ConeVariable("u", (-1,)), ConeVariable("v", (0,)))
    model = AffineConeModel(variables, ({(0, 0, 4): 1},))
    gc = graded_character_by_degree(model, 4)
    free = graded_character_by_degree(AffineConeModel(variables, ()), 4)
    assert gc.layers[:4] == free.layers[:4]
    assert gc.layers[4] == {**free.layers[4], (0,): free.layers[4][(0,)] - 1}
    assert_matches_reference(model, 4, order)


def test_inhomogeneous_generator_rejected():
    with pytest.raises(ValueError, match=re.escape("generators[0]: generator is not degree-homogeneous")):
        AffineConeModel(XY_MODEL.variables, ({(1, 0): 1, (1, 1): 1},))


def test_weight_inhomogeneous_generator_rejected():
    with pytest.raises(ValueError, match=re.escape("generators[0]: generator is not weight-homogeneous")):
        AffineConeModel(XY_MODEL.variables, ({(2, 0): 1, (1, 1): 1},))


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError, match="unique"):
        AffineConeModel((ConeVariable("x", (0,)), ConeVariable("x", (1,))), ())


def compare(config, model, truncation):
    """`config`'s product formula held against `model`'s brute-force character."""
    formula = theta_cone_character(config, truncation)
    return compare_with_formula(formula, graded_character_by_degree(model, truncation))


def test_compare_sl2_models():
    assert compare(SL2.real_form, XY_MODEL, 8).passed


def test_compare_detects_perturbed_model():
    bad = AffineConeModel(
        (ConeVariable("x", (2,)), ConeVariable("y", (-2,))),
        ({(2, 0): 1},),
    )
    result = compare(SL2.real_form, bad, 4)
    assert not result.passed
    assert result.lines[-1] == "FAIL: degree 2 disagrees: formula 1*e[-4] + 1*e[4], model 1*e[-4] + 1*e[0]"


def test_compare_degree_zero_trivial():
    assert compare(SL2.real_form, XY_MODEL, 0).passed


def test_compare_rank_mismatch():
    model = AffineConeModel((ConeVariable("x", (1, 0)),), ())
    with pytest.raises(ValueError, match="rank"):
        compare(SL2.real_form, model, 2)


def test_catalog_models_agree_with_formula():
    sl3 = load_catalog_config("sl3-split")
    assert compare(sl3.real_form, sl3.oracle_model, 10).passed
    sp4 = load_catalog_config("sp4-split")
    assert compare(sp4.real_form, sp4.oracle_model, 8).passed


def _loaded_model(variables, generators) -> AffineConeModel:
    """The cone model that sl2-split's document loads with these variables
    and these generators, each coefficient an int or a `Fraction` written
    as a `num`/`den` term."""
    doc = catalog_document("sl2-split")
    doc["oracle_model"] = {
        "variables": [{"name": v.name, "weight": list(v.weight)} for v in variables],
        "generators": [
            [{"num": c.numerator, "den": c.denominator, "exponents": list(e)} for e, c in g.items()] for g in generators
        ],
    }
    return config_from_dict(doc).oracle_model


def test_rational_coefficients():
    half = _loaded_model(XY_MODEL.variables, ({(1, 1): Fraction(1, 2)},))
    assert hilbert_by_degree(half, 4) == hilbert_by_degree(XY_MODEL, 4)
    # x/2 + y/3 is a multiple of 3x + 2y, so the ideal is principal; it is
    # not a multiple of 3x + 3y, and the two span both linear forms.
    plane = (ConeVariable("x", (0,)), ConeVariable("y", (0,)))
    mixed = {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}
    principal = _loaded_model(plane, (mixed, {(1, 0): 3, (0, 1): 2}))
    assert hilbert_by_degree(principal, 4) == [1] * 5
    maximal = _loaded_model(plane, (mixed, {(1, 0): 3, (0, 1): 3}))
    assert hilbert_by_degree(maximal, 4) == [1, 0, 0, 0, 0]


def test_fraction_coefficients_are_cleared_by_the_loader():
    """The loader scales a generator's `num`/`den` terms by the lcm of their
    denominators: x/2 + y/3 and x/2 - 3y/4 load as 3x + 2y and 2x - 3y, the
    integer generators the record takes."""
    plane = (ConeVariable("x", (0,)), ConeVariable("y", (0,)))
    given = ({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 4)})
    model = _loaded_model(plane, given)
    assert model == AffineConeModel(plane, ({(1, 0): 3, (0, 1): 2}, {(1, 0): 2, (0, 1): -3}))
    assert all(type(c) is int for g in model.generators for c in g.values())


@pytest.mark.parametrize("weight", [(1.5,), (True,), (2.0,)])
def test_non_integer_variable_weight_rejected(weight):
    with pytest.raises(ValueError, match="variable 'x'"):
        ConeVariable("x", weight)


@pytest.mark.parametrize("exps", [(1.7, 0), (True, 1), (1.0, 1)])
def test_non_integer_exponent_rejected(exps):
    with pytest.raises(ValueError, match=r"generators\[0\] term .*exponents must be integers"):
        AffineConeModel(XY_MODEL.variables, ({exps: 1},))


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, Decimal("1"), Fraction(1, 2), Fraction(2)])
def test_float_coefficient_rejected(coeff):
    """A coefficient is an int as it is: the loader clears a document's
    denominators, and the record refuses any other value, even a
    `Fraction` equal to an integer."""
    with pytest.raises(ValueError, match=r"^generators\[0\] term \(1, 1\): coefficient .* must be an integer$"):
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
