"""Root datum construction, Weyl groups as reduced words, involutions, and
the enumeration of dominant weights that the Lusztig scan runs over
(`kernels`)."""

import itertools

import pytest

from nilchar import charring
from nilchar.kernels import dominant_weights_up_to_height
from nilchar.rootdata import (
    InvolutionData,
    RootDatum,
    adjugate,
    build_root_datum,
    classify_roots,
    mat_mul,
    wneg,
)
from weyl_action import act, weyl_dimension, weyl_orbit, weyl_words

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
B2 = [[2, -2], [-1, 2]]
C2 = [[2, -1], [-2, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
A1A1 = [[2, 0], [0, 2]]
G2 = [[2, -1], [-3, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def test_positive_root_counts():
    assert len(build_root_datum(A1).positive_roots) == 1
    assert len(build_root_datum(A2).positive_roots) == 3
    assert len(build_root_datum(B2).positive_roots) == 4
    assert len(build_root_datum(G2).positive_roots) == 6


def test_exponents():
    assert build_root_datum(A1).exponents == (1,)
    assert build_root_datum(A2).exponents == (1, 2)
    assert build_root_datum(C2).exponents == (1, 3)
    assert build_root_datum(G2).exponents == (1, 5)
    assert build_root_datum(A4).exponents == (1, 2, 3, 4)
    assert build_root_datum(A1A1).exponents == (1, 1)
    # central torus directions add no exponent
    assert RootDatum(2, [(1, -1)], [(1, -1)]).exponents == (1,)
    assert RootDatum(2, (), ()).exponents == ()


def test_two_rho_is_sum_of_positive_roots():
    for cartan in (A1, A2, B2, A1A1, G2):
        datum = build_root_datum(cartan)
        total = (0,) * datum.rank
        for r in datum.positive_roots:
            total = tuple(a + b for a, b in zip(total, r))
        assert datum.two_rho == total
        # <2 rho, alpha_i^vee> = 2 in the fundamental-weight realization
        assert datum.two_rho == (2,) * datum.rank


WEYL_ORDERS = [(A1, 2), (A2, 6), (B2, 8), (A1A1, 4), (G2, 12), (A4, 120), (D4, 192), (F4, 1152)]


def test_weyl_group_orders():
    """weyl_words gives |W| words in (length, word) order, with distinct
    images of rho."""
    for cartan, order in WEYL_ORDERS:
        datum = build_root_datum(cartan)
        words = weyl_words(datum)
        assert len(words) == order, cartan
        assert list(words) == sorted(words, key=lambda w: (len(w), w)), cartan
        assert len({act(datum, w, datum.two_rho) for w in words}) == order, cartan


def test_weyl_lengths_match_inversions():
    """Each word's length is #{alpha > 0 : w(alpha) < 0}, so it is reduced."""
    for cartan, _ in WEYL_ORDERS:
        datum = build_root_datum(cartan)
        positive = set(datum.positive_roots)
        for w in weyl_words(datum):
            inversions = sum(wneg(act(datum, w, r)) in positive for r in datum.positive_roots)
            assert len(w) == inversions, (cartan, w)


def test_longest_element():
    """Only the last word, w0, has length |positive roots|."""
    for cartan, _ in WEYL_ORDERS:
        datum = build_root_datum(cartan)
        words = weyl_words(datum)
        assert max(len(w) for w in words[:-1]) < len(words[-1]) == len(datum.positive_roots), cartan
    assert [len(w) for w in weyl_words(build_root_datum(A2))] == [0, 1, 1, 2, 2, 3]


def test_w0_word_is_the_last_listed_word():
    """The word `irreducible_character` reads off rho is w0's least reduced
    word, the last of the listing, so its Demazure operators run in the
    listing's order; it has one letter per positive root."""
    data = [build_root_datum(cartan) for cartan, _ in WEYL_ORDERS]
    data += [RootDatum(2, [(1, -1)], [(1, -1)]), RootDatum(1, (), ())]
    for datum in data:
        word = charring._w0_word(datum)
        assert word == weyl_words(datum)[-1], datum
        assert len(word) == len(datum.positive_roots), datum


@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_constructors_refuse_non_integer_entries(bad):
    """A float (even 2.0) or a bool is refused and named, not rounded."""
    with pytest.raises(ValueError, match=r"simple_roots\[0\]\[0\]"):
        RootDatum(2, [(bad, -1)], [(1, -1)])
    with pytest.raises(ValueError, match=r"simple_coroots\[0\]\[1\]"):
        RootDatum(2, [(1, -1)], [(1, bad)])
    with pytest.raises(ValueError, match=r"cartan_matrix\[1\]\[1\]"):
        build_root_datum([[2, -1], [-1, bad]])
    with pytest.raises(ValueError, match=r"matrix\[0\]\[0\]"):
        InvolutionData([[bad]])
    with pytest.raises(ValueError, match=r"compact\[0\]\[0\]"):
        InvolutionData([[1]], compact=[(bad,)])


@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_root_coords_int_refuses_non_integer_entries(bad):
    """A float (even 2.0) or a bool in a weight is named, not read as an int."""
    with pytest.raises(ValueError, match=r"weight\[0\] = .* is not an integer"):
        build_root_datum(A1).root_coords_int((bad,))
    with pytest.raises(ValueError, match=r"weight\[1\]"):
        RootDatum(2, [(1, -1)], [(1, -1)]).root_coords_int((1, bad))


def test_bad_cartan_matrices_rejected():
    """Each matrix is refused for its own reason."""
    with pytest.raises(ValueError, match=r"diagonal entry \(0,0\) = 1"):
        build_root_datum([[1]])
    with pytest.raises(ValueError, match=r"off-diagonal entry \(0,1\) = 1 is positive"):
        build_root_datum([[2, 1], [1, 2]])
    with pytest.raises(ValueError, match="disagree on zero"):
        build_root_datum([[2, -1], [0, 2]])
    # a 3-cycle whose ratios a[i][j]/a[j][i] multiply to 1/2 around it, not 1
    with pytest.raises(ValueError, match="not symmetrizable"):
        build_root_datum([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])
    # affine A1 and affine A2 (twisted): a zero leading minor
    with pytest.raises(ValueError, match="not of finite type .*order 2 is 0"):
        build_root_datum([[2, -2], [-2, 2]])
    with pytest.raises(ValueError, match="not of finite type .*order 2 is 0"):
        build_root_datum([[2, -4], [-1, 2]])
    # hyperbolic rank 2: a negative leading minor
    with pytest.raises(ValueError, match="not of finite type .*order 2 is -5"):
        build_root_datum([[2, -3], [-3, 2]])


A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
B3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
C3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]


@pytest.mark.parametrize(
    "cartan, positive_roots",
    [(A1, 1), (A2, 3), (A3, 6), (A4, 10), (B2, 4), (B3, 9), (C3, 9), (D4, 12), (G2, 6), (F4, 24)],
    ids=["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"],
)
def test_finite_types_load(cartan, positive_roots):
    """Every finite type passes the integer checks, with its number of positive roots."""
    assert len(build_root_datum(cartan).positive_roots) == positive_roots


def test_classify_split_involution():
    datum = build_root_datum(A1)
    cls = classify_roots(datum, InvolutionData([[-1]]))
    assert set(cls.real) == {(2,), (-2,)}
    assert not cls.imaginary and not cls.complex_


def test_classify_compact_involution_all_marked():
    datum = build_root_datum(A2)
    roots = list(datum.positive_roots) + [wneg(r) for r in datum.positive_roots]
    cls = classify_roots(datum, InvolutionData([[1, 0], [0, 1]], compact=roots))
    assert set(cls.imaginary_compact) == set(roots)
    assert not cls.imaginary_noncompact and not cls.real and not cls.complex_


def test_classify_swap_involution_complex():
    datum = build_root_datum(A1A1)
    cls = classify_roots(datum, InvolutionData([[0, 1], [1, 0]]))
    assert set(cls.complex_) == {(2, 0), (0, 2), (-2, 0), (0, -2)}


def test_classification_stable_under_negation_and_theta():
    datum = build_root_datum(A1A1)
    inv = InvolutionData([[0, 1], [1, 0]])
    cls = classify_roots(datum, inv)
    for bucket in (cls.imaginary_compact, cls.imaginary_noncompact, cls.real, cls.complex_):
        assert {wneg(r) for r in bucket} == set(bucket)
        assert {inv.act(r) for r in bucket} == set(bucket)


def test_involution_must_permute_roots():
    datum = build_root_datum(A2)
    with pytest.raises(ValueError, match="permute"):
        classify_roots(datum, InvolutionData([[1, 0], [0, -1]]))


def test_involution_must_square_to_identity():
    with pytest.raises(ValueError):
        InvolutionData([[1, 1], [0, 1]])


def test_compact_marks_must_be_imaginary():
    datum = build_root_datum(A1)
    with pytest.raises(ValueError, match="marks"):
        classify_roots(datum, InvolutionData([[-1]], compact=[(2,)]))


def test_dominant_weights_up_to_height():
    a1 = build_root_datum(A1)
    # all dominant root-lattice weights of height <= bound, bound inclusive
    assert dominant_weights_up_to_height(a1, 0) == [(0,)]
    assert dominant_weights_up_to_height(a1, 2) == [(0,), (2,), (4,)]
    a2 = build_root_datum(A2)
    assert dominant_weights_up_to_height(a2, 2) == [(0, 0), (1, 1)]
    for w in dominant_weights_up_to_height(a2, 5):
        assert a2.is_dominant(w)
        assert a2.height(w) <= 5


@pytest.mark.parametrize(
    "datum, bound",
    [
        (build_root_datum(A2), 8),
        (build_root_datum(G2), 8),
        (build_root_datum(A1A1), 8),
        (build_root_datum(A4), 6),
        (build_root_datum(D4), 6),
        (RootDatum(2, [(1, -1)], [(1, -1)]), 8),
        (RootDatum(2, (), ()), 3),
    ],
    ids=["A2", "G2", "A1A1", "A4", "D4", "GL2", "T2"],
)
def test_dominant_weights_match_exhaustive_scan(datum, bound):
    """The pruned scan against every simple-root combination of height <=
    bound, tested with is_dominant and sorted by (height, weight)."""
    expected = []
    for m in itertools.product(range(bound + 1), repeat=datum.nsimple):
        if sum(m) <= bound:
            w = tuple(sum(mj * alpha[k] for mj, alpha in zip(m, datum.simple_roots)) for k in range(datum.rank))
            if datum.is_dominant(w):
                expected.append((sum(m), w))
    assert dominant_weights_up_to_height(datum, bound) == [w for _, w in sorted(expected)]
    assert dominant_weights_up_to_height(datum, -1) == []


def test_equal_data_are_equal_and_hash_alike():
    first, second = build_root_datum(A4), build_root_datum(A4)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert build_root_datum(A2) != build_root_datum(A1A1)
    sl2 = build_root_datum(A1)
    gl2 = RootDatum(2, [(1, -1)], [(1, -1)])
    assert sl2 != gl2 and gl2 == RootDatum(2, [(1, -1)], [(1, -1)])
    assert sl2 != "A1"


def test_dominant_rep_and_orbit():
    """Each orbit holds exactly one dominant weight, its representative."""
    datum = build_root_datum(A2)
    for w in [(1, 0), (-1, 1), (0, -1)]:
        orbit = weyl_orbit(datum, w)
        assert len(orbit) == 3
        assert [v for v in orbit if datum.is_dominant(v)] == [(1, 0)]


def test_reductive_datum_gl2():
    gl2 = RootDatum(2, [(1, -1)], [(1, -1)])
    assert gl2.positive_roots == ((1, -1),)
    assert weyl_words(gl2) == ((), (0,))
    assert gl2.is_dominant((3, 1)) and not gl2.is_dominant((1, 3))


def test_torus_datum():
    t = RootDatum(2, (), ())
    assert t.positive_roots == ()
    assert t.is_dominant((-5, 3))
    assert weyl_words(t) == ((),)


def test_weyl_dimension():
    a2 = build_root_datum(A2)
    assert weyl_dimension(a2, (0, 0)) == 1
    assert weyl_dimension(a2, (1, 0)) == 3
    assert weyl_dimension(a2, (1, 1)) == 8
    b2 = build_root_datum(B2)
    assert weyl_dimension(b2, (1, 0)) == 4
    assert weyl_dimension(b2, (0, 1)) == 5
    assert weyl_dimension(b2, (2, 0)) == 10


# name: (datum, det(C), m-box radius, weight-box radius). An m-box too small
# for its weight box makes the test fail; it cannot make it pass.
COORD_CASES = {
    "A2": (build_root_datum(A2), 3, 4, 4),
    "B2": (build_root_datum(B2), 2, 6, 3),
    "G2": (build_root_datum(G2), 1, 10, 2),
    "A1xA1": (build_root_datum(A1A1), 4, 3, 3),
    "F4": (build_root_datum(F4), 1, 2, 0),
    "GL2": (RootDatum(2, [(1, -1)], [(1, -1)]), 2, 3, 3),
    "SO3": (RootDatum(1, [(2,)], [(1,)]), 2, 3, 6),
    "GL3": (RootDatum(3, [(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)]), 3, 2, 2),
    "T2": (RootDatum(2, (), ()), 1, 0, 2),
}


@pytest.mark.parametrize("name", list(COORD_CASES))
def test_root_coords_int(name):
    """Against brute force: w = sum_j m_j alpha_j for every integer m in a
    box gives back m, and every weight of a box has the coordinates of the
    m reaching it, or None when no m does (e.g. the fundamental weight (1, 0)
    of A2, the central (1, 1) of GL2, the (1,) off the roots (2,) of SO3)."""
    datum, _, m_box, w_box = COORD_CASES[name]
    span = {}
    for m in itertools.product(range(-m_box, m_box + 1), repeat=datum.nsimple):
        w = tuple(sum(mj * alpha[k] for mj, alpha in zip(m, datum.simple_roots)) for k in range(datum.rank))
        span[w] = m
        assert datum.root_coords_int(w) == m
    for w in itertools.product(range(-w_box, w_box + 1), repeat=datum.rank):
        assert datum.root_coords_int(w) == span.get(w), w


@pytest.mark.parametrize("name", list(COORD_CASES))
def test_cartan_adjugate(name):
    """adj(C) C = det(C) I, with the known determinant of each Cartan matrix."""
    datum, det, _, _ = COORD_CASES[name]
    adj, d = adjugate(datum.cartan_matrix)
    assert d == det
    assert mat_mul(adj, datum.cartan_matrix) == tuple(
        tuple(det if i == j else 0 for j in range(datum.nsimple)) for i in range(datum.nsimple)
    )
