"""Torus characters as weight -> multiplicity dicts, graded series, and the
read-back of a torus character into irreducibles."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilchar import charring
from nilchar.charring import GradedCharacter, IrrepSeries, irreducible_character, symmetric_irreps
from nilchar.config import load_catalog_config
from nilchar.kernels import dominant_weights_up_to_height
from nilchar.ktheta import exterior_products, labels_off_torus, nilcone_series, theta_cone_character
from nilchar.rootdata import RootDatum, build_root_datum
from lusztig_reference import QPolynomial, weyl_multiplicity
from paper_formula import exterior_layers, nilcone_character, restrict_character, restrict_graded, symmetric_layers
from paper_formula import tuple_product
from weyl_action import act, expand_labels, sign, two_rho, weyl_dimension, weyl_words

A1 = build_root_datum([[2]])
A2 = build_root_datum([[2, -1], [-1, 2]])
B2 = build_root_datum([[2, -2], [-1, 2]])
G2 = build_root_datum([[2, -1], [-3, 2]])
A3 = build_root_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
A4 = build_root_datum([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
GL2 = RootDatum(2, [(1, -1)], [(1, -1)])


def chi(*coords, mult=1):
    return {tuple(coords): mult}


@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_constructors_refuse_non_integers(bad):
    """A float (even 2.0) or a bool as a weight entry, multiplicity, degree
    or matrix entry is refused, not rounded."""
    makers = [
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


@pytest.mark.parametrize("cls", [GradedCharacter, IrrepSeries])
def test_series_equal_only_their_own_class_and_name_their_row_key(cls):
    """A torus series and a label series with the same rank, truncation and
    layers are unequal, in both directions, and the rows of each carry the
    key of its class: `weight` on the torus, `highest_weight` on labels."""
    other = IrrepSeries if cls is GradedCharacter else GradedCharacter
    key = "weight" if cls is GradedCharacter else "highest_weight"
    layers = [{(0,): 1}, {(2,): 3}]
    series = cls(1, 1, layers)
    assert series == cls(1, 1, layers)
    assert series != other(1, 1, layers) and other(1, 1, layers) != series
    assert series.to_records() == [
        {"degree": 0, key: [0], "multiplicity": 1},
        {"degree": 1, key: [2], "multiplicity": 3},
    ]


def test_characters_name_a_non_integer_weight():
    """The refusal names the weight that holds the stray entry, also when it
    is one weight among many."""
    with pytest.raises(ValueError, match=r"weight \(1\.5,\) in degree 0 has"):
        IrrepSeries(1, 0, [{(1.5,): 1}])
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
    assert (0, 0) not in GradedCharacter(2, 1, [{}, many]).layers[1]
    for cls in (GradedCharacter, IrrepSeries):
        for bad in (2.0, True):
            with pytest.raises(ValueError, match=rf"^multiplicity of \(7, -7\) in degree 1 = {bad!r} is not an integer$"):
                cls(2, 1, [{}, {**many, (7, -7): bad, (9, -9): 1.5}])
        with pytest.raises(ValueError, match=r"^weight \(1, 2, 3\) does not have rank 2$"):
            cls(2, 1, [{}, {**many, (1, 2, 3): 1, (4,): 1}])


def test_irreducible_character_trivial():
    assert irreducible_character(A1, (0,)) == {(0,): 1}


def test_irreducible_character_a1_adjoint():
    assert irreducible_character(A1, (2,)) == {(-2,): 1, (0,): 1, (2,): 1}


def test_irreducible_character_a2_fundamental():
    ch = irreducible_character(A2, (1, 0))
    assert sum(ch.values()) == 3
    assert all(m == 1 for m in ch.values())


def test_irreducible_character_mass_is_weyl_dimension():
    for lam in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        assert sum(irreducible_character(A2, lam).values()) == weyl_dimension(A2, lam)


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
    assert sum(ch.values()) == weyl_dimension(datum, lam) == dim
    assert ch.get((0,) * n, 0) == zero
    for i in range(n):
        assert {datum.reflect(i, w): c for w, c in ch.items()} == ch


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
    the denominator built here by `tuple_product` and the numerator summed
    over the whole Weyl group."""
    one = {(0,) * datum.rank: 1}
    denominator = [one]
    for alpha in datum.positive_roots:
        denominator = tuple_product(denominator, [{**one, tuple(-v for v in alpha): -1}])
    rho2 = two_rho(datum)
    lams = dominant_box(datum, bound)
    assert len(lams) > bound
    for lam in lams:
        numerator = {}
        shifted = tuple(2 * x + r for x, r in zip(lam, rho2))
        for word in weyl_words(datum):
            doubled = tuple(a - r for a, r in zip(act(datum, word, shifted), rho2))
            assert all(v % 2 == 0 for v in doubled)
            key = tuple(v // 2 for v in doubled)
            numerator[key] = numerator.get(key, 0) + sign(word)
        assert tuple_product([irreducible_character(datum, lam)], denominator) == [numerator], lam


def test_decompose_trivial():
    assert labels_off_torus(A1, {(0,): 1}) == {(0,): 1}


def test_decompose_adjoint_square():
    adj = irreducible_character(A1, (2,))
    square = tuple_product([adj], [adj])[0]
    assert labels_off_torus(A1, square) == {(4,): 1, (2,): 1, (0,): 1}


def test_decompose_virtual():
    virt = {(-2,): 1, (0,): -1, (2,): 1}
    assert labels_off_torus(A1, virt) == {(2,): 1, (0,): -2}


def test_decompose_rejects_non_invariant():
    """A character that one simple reflection does not preserve is refused,
    also when the offending weight is the image of one in the support."""
    with pytest.raises(ValueError, match=r"not Weyl-invariant: e\[2\] has multiplicity 1, its image e\[-2\]"):
        labels_off_torus(A1, chi(2))
    with pytest.raises(ValueError, match="not Weyl-invariant"):
        labels_off_torus(A2, {(1, 0): 1, (-1, 1): 1})


def test_decompose_rejects_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        labels_off_torus(A2, chi(0))


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
    layers = [labels_off_torus(datum, layer) for layer in gc.layers]
    assert IrrepSeries(datum.rank, truncation, layers) == nilcone_series(datum, truncation)


@pytest.mark.parametrize("datum", [B2, G2], ids=["B2", "G2"])
def test_decompose_signed_exterior_round_trip(datum):
    """Every layer of the signed exterior algebra of the adjoint weights (a
    virtual character, negative in odd degree) is rebuilt from its parts."""
    roots = list(datum.positive_roots)
    weights = roots + [tuple(-v for v in r) for r in roots] + [(0,) * datum.rank] * datum.rank
    signs = set()
    for layer in exterior_products([], [weights], len(weights), rank=datum.rank)[0]:
        parts = labels_off_torus(datum, layer)
        signs |= {c > 0 for c in parts.values()}
        assert expand_labels(datum, parts) == layer
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
    ktypes = [labels_off_torus(rf.k_datum, layer) for layer in gc.layers]
    assert calls == []
    assert all(ktypes)


def test_decompose_round_trip():
    factors = [[irreducible_character(A2, lam)] for lam in ((1, 1), (1, 0))]
    ch = tuple_product(*factors)[0]
    assert expand_labels(A2, labels_off_torus(A2, ch)) == ch


def test_decompose_gl2_with_central_charge():
    gl2 = RootDatum(2, [(1, -1)], [(1, -1)])
    std = {(1, 0): 1, (0, 1): 1}
    sym2 = {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert labels_off_torus(gl2, std) == {(1, 0): 1}
    assert labels_off_torus(gl2, sym2) == {(2, 0): 1}
    det = chi(1, 1)
    assert labels_off_torus(gl2, det) == {(1, 1): 1}


def test_decompose_torus_is_identity():
    t = RootDatum(1, (), ())
    ch = {(3,): 1, (-1,): 2}
    assert labels_off_torus(t, ch) == {(3,): 1, (-1,): 2}


def test_graded_identity_element():
    """The reference product has the trivial series as its unit."""
    a = [{(0,): 1}, {(2,): 1, (-2,): 1}, {}, {}]
    one = [{(0,): 1}, {}, {}, {}]
    assert tuple_product(a, one) == a == tuple_product(one, a)


def test_graded_binomial_square():
    """(1 - q)^2 is the packed exterior class of two zero weights."""
    assert exterior_products([], [[(0,), (0,)]], 2, rank=1)[0] == [{(0,): 1}, {(0,): -2}, {(0,): 1}]


def test_graded_sl2_restriction_convolution():
    # (sum_m (chi_{-2m}+...+chi_{2m}) q^m) * (chi_0 - chi_0 q)
    N = 5
    series = [{(w,): 1 for w in range(-2 * m, 2 * m + 1, 2)} for m in range(N + 1)]
    result = tuple_product(series, exterior_layers([(0,)], N, 1))
    assert result[0] == {(0,): 1}
    for m in range(1, N + 1):
        assert result[m] == {(2 * m,): 1, (-2 * m,): 1}


def test_graded_mul_truncates_to_smaller():
    assert tuple_product([{(0,): 1}] * 6, [{(0,): 1}] * 4) == [{(0,): k} for k in range(1, 5)]


small_chars = st.dictionaries(
    st.tuples(st.integers(-3, 3)), st.integers(-3, 3), max_size=4
)


@settings(max_examples=40, deadline=None)
@given(small_chars, small_chars, small_chars)
def test_graded_mul_associative_commutative(t1, t2, t3):
    """`tuple_product`, the reference every packed product is held to, is a
    commutative and associative product."""
    a, b, c = [t1, t2, {}, {}], [t3, t1, {}, {}], [t2, t3, {}, {}]
    assert tuple_product(a, b) == tuple_product(b, a)
    assert tuple_product(tuple_product(a, b), c) == tuple_product(a, tuple_product(b, c))


def test_restrict_character_identity_and_zero():
    ch = irreducible_character(A1, (2,))
    assert restrict_character(ch, [[1]]) == ch
    assert restrict_character(ch, [[0]]) == chi(0, mult=3)


def test_restrict_character_collapse():
    ch = irreducible_character(A2, (1, 0))
    # project to the first fundamental coordinate
    r = restrict_character(ch, [[1, 0]])
    assert sum(r.values()) == 3


def test_restrict_shape_mismatch():
    with pytest.raises(ValueError):
        restrict_character(chi(1), [[1, 0]])


@settings(max_examples=30, deadline=None)
@given(small_chars, small_chars)
def test_restrict_is_ring_homomorphism(t1, t2):
    r = [[2]]
    lhs = restrict_character(tuple_product([t1], [t2])[0], r)
    images = [[restrict_character(t, r)] for t in (t1, t2)]
    assert [lhs] == tuple_product(*images)


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
            assert sum(ch.values()) == weyl_dimension(datum, lam)
            for mu, m in ch.items():
                assert weyl_multiplicity(datum, lam, mu) == m, (lam, mu)
                checked += 1
    assert checked > 250


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
    """The packed series (times the exterior class of nothing) against the
    plain product, weight tuples keyed; each degree-n coordinate may reach
    n * top, with no carry between digits."""
    rank, weights = multiset
    assert exterior_products(weights, [()], truncation, rank) == [symmetric_layers(weights, truncation, rank)]


@st.composite
def two_weight_multisets(draw):
    """(rank, a, b): a as `weight_multisets` draws it, and b with entries
    that reach past twice a's largest, so that a codec sized on a alone
    would carry between digits."""
    rank, a = draw(weight_multisets())
    top = 2 * max(map(abs, itertools.chain.from_iterable(a)), default=0) + 1
    entry = st.sampled_from([-top, top]) | st.integers(-top, top)
    return rank, a, draw(st.lists(st.tuples(*[entry] * rank), max_size=3))


@settings(max_examples=100, deadline=None)
@given(two_weight_multisets(), st.integers(0, 6))
@example((2, [(1, -1)], [(3, 3)]), 4)
@example((1, [(1,), (0,)], [(-5,), (5,)]), 3)
def test_exterior_products_are_the_tuple_products(multisets, truncation):
    """S(a) times the exterior class of b, and of a, under one codec, against
    `tuple_product` on weight tuples: the codec is sized on every weight the
    products add."""
    rank, a, b = multisets
    s = symmetric_layers(a, truncation, rank)
    expected = [tuple_product(s, exterior_layers(x, truncation, rank)) for x in (b, a)]
    assert exterior_products(a, [b, a], truncation, rank) == expected


def test_series_refuse_a_weight_of_the_wrong_length():
    """A weight that is longer or shorter than the rank is named, not cut or
    read as a weight of the rank."""
    with pytest.raises(ValueError, match=r"^weight \(1, 2, 3\) does not have rank 2$"):
        exterior_products([(1, 2, 3)], [()], 2, rank=2)
    with pytest.raises(ValueError, match=r"^weight \(1,\) does not have rank 2$"):
        exterior_products([(1, 2)], [[(1,)]], 2, rank=2)
    with pytest.raises(ValueError, match=r"^weight \(2, 5\) does not have rank 1$"):
        symmetric_irreps(A1, [(2, 5), (-2, 5), (0, 5)], 3)
    with pytest.raises(ValueError, match=r"^weight \(\) does not have rank 2$"):
        symmetric_irreps(A2, [(1, 0), (-1, 1), ()], 3)
