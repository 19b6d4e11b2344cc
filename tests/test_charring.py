"""Torus characters, graded series, decomposition into irreducibles."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilchar import charring
from nilchar.charring import (
    GradedCharacter,
    IrrepSeries,
    TorusCharacter,
    graded_mul,
    irreducible_character,
    symmetric_irreps,
    symmetric_series,
)
from nilchar.config import load_catalog_config
from nilchar.kernels import dominant_weights_up_to_height
from nilchar.ktheta import nilcone_series, theta_cone_character, wedge_class
from nilchar.rootdata import RootDatum, build_root_datum
from lusztig_reference import QPolynomial, weyl_multiplicity
from paper_formula import nilcone_character, restrict_character, restrict_graded
from weyl_action import act, decompose_into_irreducibles, sign, weyl_dimension, weyl_words

A1 = build_root_datum([[2]])
A2 = build_root_datum([[2, -1], [-1, 2]])
B2 = build_root_datum([[2, -2], [-1, 2]])
G2 = build_root_datum([[2, -1], [-3, 2]])
A3 = build_root_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
A4 = build_root_datum([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
GL2 = RootDatum(2, [(1, -1)], [(1, -1)])


def chi(*coords, mult=1):
    return TorusCharacter(len(coords), {tuple(coords): mult})


def test_character_arithmetic():
    a = chi(2) + chi(-2) + chi(0)
    assert a.mass() == 3
    assert (a - a).mass() == 0 and not (a - a)
    prod = chi(2) * chi(-2)
    assert prod == chi(0)
    assert (2 * chi(1)).terms == {(1,): 2}


def test_character_rank_mismatch():
    with pytest.raises(ValueError):
        chi(1) + chi(1, 0)
    with pytest.raises(ValueError):
        chi(1) * chi(1, 0)


@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_constructors_refuse_non_integers(bad):
    """A float (even 2.0) or a bool as a weight entry, multiplicity, degree
    or matrix entry is refused, not rounded."""
    makers = [
        lambda: TorusCharacter(1, {(0,): bad}),
        lambda: TorusCharacter(1, {(bad,): 1}),
        lambda: GradedCharacter(1, 0, [{(0,): bad}]),
        lambda: GradedCharacter(1, 0, [{(bad,): 1}]),
        lambda: IrrepSeries(1, 0, [{(0,): bad}]),
        lambda: IrrepSeries(1, 0, [{(bad,): 1}]),
        lambda: QPolynomial({0: bad}),
        lambda: QPolynomial({bad: 1}),
        lambda: restrict_character(chi(2), [[bad]]),
    ]
    for make in makers:
        with pytest.raises(ValueError, match="integer"):
            make()


@pytest.mark.parametrize("cls", [GradedCharacter, IrrepSeries])
def test_graded_constructors_refuse_bad_rank_and_truncation(cls):
    """A label or weight of the wrong rank and a negative truncation are
    refused, not kept or turned into an empty series."""
    with pytest.raises(ValueError, match="does not have rank 2"):
        cls(2, 0, [{(1,): 1, (1, 2, 3): 2}])
    with pytest.raises(ValueError, match="non-negative"):
        cls(1, -1)
    with pytest.raises(ValueError, match=r"weight \(7, 2\.0\) in degree 1 has"):
        cls(2, 1, [{}, {(k, -k): 1 for k in range(50)} | {(7, 2.0): 1}])


def test_characters_name_a_non_integer_weight():
    """The refusal names the weight that holds the stray entry, also when it
    is one weight among many."""
    with pytest.raises(ValueError, match=r"weight \(1\.5,\) has"):
        TorusCharacter(1, {(1.5,): 1})
    with pytest.raises(ValueError, match=r"weight \(True,\) in degree 0 has"):
        GradedCharacter(1, 0, [{(True,): 1}])
    many = {(k, -k): 1 for k in range(50)}
    many[(7, 2.0)] = 1
    with pytest.raises(ValueError, match=r"weight \(7, 2\.0\) in degree 1 has"):
        GradedCharacter(2, 1, [{}, many])


def test_constructors_name_a_bad_multiplicity_or_rank_among_many(monkeypatch):
    """Plain-int input is checked in one pass per property, with no `is_int`
    call per item; a bad multiplicity or rank among many is still named, the
    first in the given order, zero multiplicities are dropped, and the stored
    terms are a copy of the input."""
    many = {(k, -k): k + 1 for k in range(50)}
    calls = []
    monkeypatch.setattr(charring, "is_int", lambda v: calls.append(v) or isinstance(v, int) and not isinstance(v, bool))
    series = IrrepSeries(2, 1, [{}, many])
    assert calls == [] and series.layers[1] == many
    many[(0, 0)] = 0
    assert series.layers[1][(0, 0)] == 1
    assert IrrepSeries(2, 1, [{}, many]).layers[1] == {w: c for w, c in many.items() if w != (0, 0)}
    assert (0, 0) not in TorusCharacter(2, many).terms
    for bad in (2.0, True):
        with pytest.raises(ValueError, match=rf"^multiplicity of \(7, -7\) in degree 1 = {bad!r} is not an integer$"):
            GradedCharacter(2, 1, [{}, {**many, (7, -7): bad, (9, -9): 1.5}])
        with pytest.raises(ValueError, match=rf"^multiplicity of \(7, -7\) = {bad!r} is not an integer$"):
            TorusCharacter(2, {**many, (7, -7): bad})
    for cls in (GradedCharacter, IrrepSeries):
        with pytest.raises(ValueError, match=r"^weight \(1, 2, 3\) does not have rank 2$"):
            cls(2, 1, [{}, {**many, (1, 2, 3): 1, (4,): 1}])
    with pytest.raises(ValueError, match=r"^weight \(1, 2, 3\) does not have rank 2$"):
        TorusCharacter(2, {**many, (1, 2, 3): 1})


def test_irreducible_character_trivial():
    assert irreducible_character(A1, (0,)) == TorusCharacter.trivial(1)


def test_irreducible_character_a1_adjoint():
    assert irreducible_character(A1, (2,)) == chi(-2) + chi(0) + chi(2)


def test_irreducible_character_a2_fundamental():
    ch = irreducible_character(A2, (1, 0))
    assert ch.mass() == 3
    assert all(m == 1 for m in ch.terms.values())


def test_irreducible_character_mass_is_weyl_dimension():
    for lam in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        assert irreducible_character(A2, lam).mass() == weyl_dimension(A2, lam)


def simply_laced(n, edges):
    """The Cartan matrix of the simply laced Dynkin diagram on n nodes."""
    return [[2 if i == j else -1 if (i, j) in edges or (j, i) in edges else 0 for j in range(n)] for i in range(n)]


E7_EDGES = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]  # Bourbaki's numbering, from 0


@pytest.mark.parametrize(
    "n, edges, dim, zero", [(7, E7_EDGES, 56, 0), (8, E7_EDGES + [(6, 7)], 248, 8)], ids=["E7", "E8"]
)
def test_irreducible_character_reaches_e7_and_e8(n, edges, dim, zero):
    """E7's minuscule omega_7 and E8's adjoint omega_8, whose Weyl groups have
    2,903,040 and 696,729,600 elements: the right dimension, the zero weight
    as often as the adjoint's rank (never for a minuscule weight), and
    invariance under every simple reflection."""
    datum = build_root_datum(simply_laced(n, edges))
    lam = (0,) * (n - 1) + (1,)
    ch = irreducible_character(datum, lam)
    assert ch.mass() == weyl_dimension(datum, lam) == dim
    assert ch.terms.get((0,) * n, 0) == zero
    for i in range(n):
        assert {datum.reflect(i, w): c for w, c in ch.terms.items()} == ch.terms


def test_irreducible_character_rejects_non_dominant():
    with pytest.raises(ValueError):
        irreducible_character(A2, (-1, 0))


def dominant_box(datum, bound):
    """Every dominant weight with coordinates in [-bound, bound]."""
    box = itertools.product(range(-bound, bound + 1), repeat=datum.rank)
    return [lam for lam in box if datum.is_dominant(lam)]


@pytest.mark.parametrize(
    "datum, bound", [(A2, 3), (B2, 3), (G2, 2), (A3, 2), (GL2, 3)], ids=["A2", "B2", "G2", "A3", "GL2"]
)
def test_irreducible_character_times_denominator_is_weyl_numerator(datum, bound):
    """Weyl's character formula in product form: ch(V_lam) * prod_{alpha>0}
    (1 - e^{-alpha}) = sum_w sign(w) e^{(w(2 lam + 2 rho) - 2 rho) / 2}, with
    the denominator built here by ring products and the numerator summed over
    the whole Weyl group."""
    one = TorusCharacter.trivial(datum.rank)
    denominator = one
    for alpha in datum.positive_roots:
        denominator = denominator * (one - TorusCharacter(datum.rank, {tuple(-v for v in alpha): 1}))
    two_rho = datum.two_rho
    lams = dominant_box(datum, bound)
    assert len(lams) > bound
    for lam in lams:
        numerator = TorusCharacter(datum.rank)
        shifted = tuple(2 * x + r for x, r in zip(lam, two_rho))
        for word in weyl_words(datum):
            doubled = tuple(a - r for a, r in zip(act(datum, word, shifted), two_rho))
            assert all(v % 2 == 0 for v in doubled)
            numerator = numerator + TorusCharacter(datum.rank, {tuple(v // 2 for v in doubled): sign(word)})
        assert irreducible_character(datum, lam) * denominator == numerator, lam


def test_decompose_trivial():
    assert decompose_into_irreducibles(A1, TorusCharacter.trivial(1)) == {(0,): 1}


def test_decompose_adjoint_square():
    adj = irreducible_character(A1, (2,))
    assert decompose_into_irreducibles(A1, adj * adj) == {(4,): 1, (2,): 1, (0,): 1}


def test_decompose_virtual():
    adj = irreducible_character(A1, (2,))
    virt = adj - 2 * TorusCharacter.trivial(1)
    assert decompose_into_irreducibles(A1, virt) == {(2,): 1, (0,): -2}


def test_decompose_rejects_non_invariant():
    with pytest.raises(ValueError, match="orbit"):
        decompose_into_irreducibles(A1, chi(2))
    with pytest.raises(ValueError, match="orbit"):
        decompose_into_irreducibles(A2, chi(1, 0) + chi(-1, 1))


def test_decompose_rejects_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        decompose_into_irreducibles(A2, chi(0))


@pytest.mark.parametrize(
    "datum, truncation",
    [(A1, 20), (A2, 12), (B2, 8), (G2, 6), (A3, 4), (A4, 2), (GL2, 6), (RootDatum(2, (), ()), 4)],
    ids=["A1", "A2", "B2", "G2", "A3", "A4", "GL2", "T2"],
)
def test_decompose_nilcone_layers_match_lusztig(datum, truncation):
    """The closed-form C[N] on the torus, decomposed layer by layer off the
    Weyl denominator, is the same closed form computed on labels by Newton's
    identity and Brauer-Klimyk straightening."""
    gc = nilcone_character(datum, truncation)
    layers = [decompose_into_irreducibles(datum, gc.layer(n)) for n in range(truncation + 1)]
    assert IrrepSeries(datum.rank, truncation, layers) == nilcone_series(datum, truncation)


@pytest.mark.parametrize("datum", [B2, G2], ids=["B2", "G2"])
def test_decompose_signed_exterior_round_trip(datum):
    """Every layer of the signed exterior algebra of the adjoint weights (a
    virtual character, negative in odd degree) is rebuilt from its parts."""
    roots = list(datum.positive_roots)
    weights = roots + [tuple(-v for v in r) for r in roots] + [(0,) * datum.rank] * datum.rank
    wedge = wedge_class(weights, len(weights), rank=datum.rank)
    signs = set()
    for n in range(wedge.truncation + 1):
        layer = wedge.layer(n)
        parts = decompose_into_irreducibles(datum, layer)
        signs |= {c > 0 for c in parts.values()}
        rebuilt = TorusCharacter(datum.rank)
        for lam, c in parts.items():
            rebuilt = rebuilt + c * irreducible_character(datum, lam)
        assert rebuilt == layer
    assert signs == {True, False}


def test_decompose_builds_no_irreducible(monkeypatch):
    """Reading K-types off the Weyl denominator needs no irreducible
    character, no Demazure operator and no root-lattice solve."""
    rf = load_catalog_config("sp4-split").real_form
    gc = theta_cone_character(rf, 8)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(charring, "irreducible_character", counted("irrep", charring.irreducible_character))
    monkeypatch.setattr(charring, "_demazure", counted("demazure", charring._demazure))
    monkeypatch.setattr(RootDatum, "root_coords_int", counted("solve", RootDatum.root_coords_int))
    ktypes = [decompose_into_irreducibles(rf.k_datum, gc.layer(n)) for n in range(9)]
    assert calls == []
    assert all(ktypes)


def test_decompose_round_trip():
    ch = irreducible_character(A2, (1, 1)) * irreducible_character(A2, (1, 0))
    parts = decompose_into_irreducibles(A2, ch)
    rebuilt = TorusCharacter(2)
    for lam, c in parts.items():
        rebuilt = rebuilt + c * irreducible_character(A2, lam)
    assert rebuilt == ch


def test_decompose_gl2_with_central_charge():
    gl2 = RootDatum(2, [(1, -1)], [(1, -1)])
    std = chi(1, 0) + chi(0, 1)
    sym2 = chi(2, 0) + chi(1, 1) + chi(0, 2)
    assert decompose_into_irreducibles(gl2, std) == {(1, 0): 1}
    assert decompose_into_irreducibles(gl2, sym2) == {(2, 0): 1}
    det = chi(1, 1)
    assert decompose_into_irreducibles(gl2, det) == {(1, 1): 1}


def test_decompose_torus_is_identity():
    t = RootDatum(1, (), ())
    ch = chi(3) + chi(-1, mult=2)
    assert decompose_into_irreducibles(t, ch) == {(3,): 1, (-1,): 2}


def test_graded_identity_element():
    a = GradedCharacter(1, 3, [{(0,): 1}, {(2,): 1, (-2,): 1}])
    one = GradedCharacter.trivial(1, 3)
    assert graded_mul(a, one) == a
    assert graded_mul(one, a) == a


def test_graded_binomial_square():
    b = GradedCharacter(1, 2, [{(0,): 1}, {(0,): -1}])
    sq = graded_mul(b, b)
    assert sq.layers == [{(0,): 1}, {(0,): -2}, {(0,): 1}]


def test_graded_sl2_restriction_convolution():
    # (sum_m (chi_{-2m}+...+chi_{2m}) q^m) * (chi_0 - chi_0 q)
    N = 5
    layers = []
    for m in range(N + 1):
        layers.append({(w,): 1 for w in range(-2 * m, 2 * m + 1, 2)})
    series = GradedCharacter(1, N, layers)
    wedge = GradedCharacter(1, N, [{(0,): 1}, {(0,): -1}])
    result = graded_mul(series, wedge)
    assert result.layers[0] == {(0,): 1}
    for m in range(1, N + 1):
        assert result.layers[m] == {(2 * m,): 1, (-2 * m,): 1}


def test_graded_mul_truncates_to_smaller():
    a = GradedCharacter.trivial(1, 5)
    b = GradedCharacter.trivial(1, 3)
    assert graded_mul(a, b).truncation == 3


def test_graded_rank_mismatch():
    with pytest.raises(ValueError):
        graded_mul(GradedCharacter.trivial(1, 2), GradedCharacter.trivial(2, 2))


small_chars = st.dictionaries(
    st.tuples(st.integers(-3, 3)), st.integers(-3, 3), max_size=4
)


@settings(max_examples=40, deadline=None)
@given(small_chars, small_chars, small_chars)
def test_graded_mul_associative_commutative(t1, t2, t3):
    N = 3
    a = GradedCharacter(1, N, [t1, t2])
    b = GradedCharacter(1, N, [t3, t1])
    c = GradedCharacter(1, N, [t2, t3])
    assert graded_mul(a, b) == graded_mul(b, a)
    assert graded_mul(graded_mul(a, b), c) == graded_mul(a, graded_mul(b, c))


def test_restrict_character_identity_and_zero():
    ch = irreducible_character(A1, (2,))
    assert restrict_character(ch, [[1]]) == ch
    assert restrict_character(ch, [[0]]) == chi(0, mult=3)


def test_restrict_character_collapse():
    ch = irreducible_character(A2, (1, 0))
    # project to the first fundamental coordinate
    r = restrict_character(ch, [[1, 0]])
    assert r.mass() == 3


def test_restrict_shape_mismatch():
    with pytest.raises(ValueError):
        restrict_character(chi(1), [[1, 0]])


@settings(max_examples=30, deadline=None)
@given(small_chars, small_chars)
def test_restrict_is_ring_homomorphism(t1, t2):
    a = TorusCharacter(1, t1)
    b = TorusCharacter(1, t2)
    r = [[2]]
    lhs = restrict_character(a * b, r)
    rhs = restrict_character(a, r) * restrict_character(b, r)
    assert lhs == rhs


def test_restrict_graded():
    gc = GradedCharacter(2, 1, [{(0, 0): 1}, {(1, 1): 1, (-1, -1): 1}])
    r = restrict_graded(gc, [[1, 1]])
    assert r.layers == [{(0,): 1}, {(2,): 1, (-2,): 1}]


def test_records_are_sorted_and_stable():
    gc = GradedCharacter(1, 1, [{(0,): 1}, {(2,): 1, (-2,): 1}])
    assert gc.to_records() == [
        {"degree": 0, "weight": [0], "multiplicity": 1},
        {"degree": 1, "weight": [-2], "multiplicity": 1},
        {"degree": 1, "weight": [2], "multiplicity": 1},
    ]


def test_irreducible_character_matches_weyl_sums():
    """Demazure-built characters against the Weyl-sum multiplicities over
    the criterion-5 scan set (A2 and B2, height <= 6), the dominant G2
    weights of height <= 10 and a box of GL2 weights (central charge
    included)."""
    checked = 0
    scans = [(datum, dominant_weights_up_to_height(datum, h)) for datum, h in ((A2, 6), (B2, 6), (G2, 10))]
    scans.append((GL2, dominant_box(GL2, 3)))
    for datum, lams in scans:
        for lam in lams:
            ch = irreducible_character(datum, lam)
            assert ch.mass() == weyl_dimension(datum, lam)
            for mu, m in ch.terms.items():
                assert weyl_multiplicity(datum, lam, mu) == m, (lam, mu)
                checked += 1
    assert checked > 250


def tuple_symmetric_series(weights, truncation, rank):
    """The reference for `symmetric_series`: the product of the factors
    1 / (1 - e^w q), one weight at a time, on weight tuples."""
    layers = [{(0,) * rank: 1}] + [{} for _ in range(truncation)]
    for w in weights:
        for n in range(1, truncation + 1):
            for v, c in layers[n - 1].items():
                key = tuple(a + b for a, b in zip(v, w))
                layers[n][key] = layers[n].get(key, 0) + c
    return layers


@st.composite
def weight_multisets(draw):
    """(rank, weights): ranks 0-3, entries within a drawn top, often at
    +-top (the digit bound of the packed route), drawn from a small pool so
    that weights repeat, with the zero weight in the pool."""
    rank = draw(st.integers(0, 3))
    top = draw(st.integers(0, 3))
    entry = st.sampled_from([-top, top]) | st.integers(-top, top)
    pool = draw(st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=4)) + [(0,) * rank]
    return rank, draw(st.lists(st.sampled_from(pool), max_size=6))


@settings(max_examples=150, deadline=None)
@given(weight_multisets(), st.integers(0, 8))
@example((2, [(3, -3), (3, -3), (-3, 3), (-3, -3)]), 8)
@example((3, [(-2, 2, -2)] * 3 + [(2, -2, 2)] * 3), 8)
@example((0, [(), (), ()]), 5)
@example((1, []), 4)
def test_symmetric_series_is_the_tuple_product(multiset, truncation):
    """The packed series against the plain product, weight tuples keyed;
    each degree-n coordinate may reach n * top, with no carry between
    digits."""
    rank, weights = multiset
    assert symmetric_series(weights, truncation, rank) == tuple_symmetric_series(weights, truncation, rank)


def test_series_refuse_a_weight_of_the_wrong_length():
    """A weight that is longer or shorter than the rank is named, not cut or
    read as a weight of the rank."""
    with pytest.raises(ValueError, match=r"^weight \(1, 2, 3\) does not have rank 2$"):
        symmetric_series([(1, 2, 3)], 2, rank=2)
    with pytest.raises(ValueError, match=r"^weight \(1,\) does not have rank 2$"):
        symmetric_series([(1, 2), (1,)], 2, rank=2)
    with pytest.raises(ValueError, match=r"^weight \(2, 5\) does not have rank 1$"):
        symmetric_irreps(A1, [(2, 5), (-2, 5), (0, 5)], 3)
    with pytest.raises(ValueError, match=r"^weight \(\) does not have rank 2$"):
        symmetric_irreps(A2, [(1, 0), (-1, 1), ()], 3)
