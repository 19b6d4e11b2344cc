"""Partition function, q-multiplicities, Demazure-built characters against
the Weyl-group sums; the partition kernel.

Expected values for the partition polynomials come from the exhaustive
enumeration oracle below, which never touches the dynamic program.
"""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchar import kernels
from nilchar.charring import irreducible_character
from nilchar.kernels import LusztigSum, dominant_weights_up_to_height, lusztig_series
from nilchar.ktheta import nilcone_series
from nilchar.rootdata import RootDatum, build_root_datum, wsub
from lusztig_reference import QPolynomial, brute_weyl_sum, kostant_partition_q, lusztig_mq, weyl_multiplicity
from weyl_action import weyl_words

A1 = build_root_datum([[2]])
A2 = build_root_datum([[2, -1], [-1, 2]])
B2 = build_root_datum([[2, -2], [-1, 2]])
G2 = build_root_datum([[2, -1], [-3, 2]])
A3 = build_root_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
GL2 = RootDatum(2, [(1, -1)], [(1, -1)])


def brute_partition_q(datum, lam):
    """Enumerate every m: positive roots -> non-negative integers directly."""
    rc = datum.root_coords_int(lam)
    if rc is None or any(v < 0 for v in rc):
        return QPolynomial.zero()
    roots = [datum.root_coords_int(r) for r in datum.positive_roots]
    height = sum(rc)
    counts: dict[int, int] = {}
    ranges = [range(0, height // sum(root) + 1) for root in roots]
    for combo in itertools.product(*ranges):
        if sum(combo) > height:
            continue
        total = [0] * len(rc)
        for mult, root in zip(combo, roots):
            for i, v in enumerate(root):
                total[i] += mult * v
        if tuple(total) == rc:
            counts[sum(combo)] = counts.get(sum(combo), 0) + 1
    return QPolynomial(counts)


def test_partition_zero_weight():
    for datum in (A1, A2, B2):
        assert kostant_partition_q(datum, (0,) * datum.rank) == QPolynomial.one()


def test_partition_simple_cases():
    assert kostant_partition_q(A1, (2,)) == QPolynomial({1: 1})
    assert kostant_partition_q(A2, (1, 1)) == QPolynomial({1: 1, 2: 1})
    assert kostant_partition_q(A1, (-2,)) == QPolynomial.zero()
    assert kostant_partition_q(A1, (1,)) == QPolynomial.zero()  # not in the root lattice


@pytest.mark.parametrize("datum", [A2, B2], ids=["A2", "B2"])
def test_partition_matches_brute_force(datum):
    for m in itertools.product(range(5), repeat=2):
        lam = tuple(
            sum(m[j] * datum.simple_roots[j][k] for j in range(2)) for k in range(2)
        )
        assert kostant_partition_q(datum, lam) == brute_partition_q(datum, lam), m


def test_partition_degree_bounds():
    # lowest degree = minimal number of parts, top degree <= height
    for m in itertools.product(range(4), repeat=2):
        if not any(m):
            continue
        lam = tuple(sum(m[j] * B2.simple_roots[j][k] for j in range(2)) for k in range(2))
        p = kostant_partition_q(B2, lam)
        if not p:
            continue
        assert p.degree <= sum(B2.root_coords_int(lam))
        brute = brute_partition_q(B2, lam)
        assert min(p.coeffs) == min(brute.coeffs)


def test_mq_diagonal_is_one():
    assert lusztig_mq(A2, (1, 1), (1, 1)) == QPolynomial.one()
    assert lusztig_mq(B2, (2, 1), (2, 1)) == QPolynomial.one()


def test_mq_a1_powers():
    for m in range(5):
        assert lusztig_mq(A1, (2 * m,), (0,)) == QPolynomial({m: 1} if m else {0: 1})


def test_mq_a2_adjoint():
    assert lusztig_mq(A2, (1, 1), (0, 0)) == QPolynomial({1: 1, 2: 1})


def test_mq_rejects_non_dominant():
    with pytest.raises(ValueError):
        lusztig_mq(A2, (-1, 0), (0, 0))
    with pytest.raises(ValueError):
        weyl_multiplicity(A2, (-1, 0), (0, 0))


@pytest.mark.parametrize(
    "datum", [A2, B2, G2, A3, GL2], ids=["A2", "B2", "G2", "A3", "GL2"]
)
def test_lusztig_sum_equals_brute_force_weyl_sum(datum):
    """The pruned orbit walk of `LusztigSum.coeffs` against the Weyl-group
    sum taken one element at a time, whole and cut after q^2, for dominant
    lam in a box and every mu in a box: dominant or not, and, except on G2,
    whose roots span its weights, on lam's coset of the root lattice or off
    it (GL2 has a central torus, so labels do not determine a weight
    there)."""
    side = 2 if datum.rank > 2 else 3
    lams = [lam for lam in itertools.product(range(side), repeat=datum.rank) if datum.is_dominant(lam)]
    pairs = [(lam, mu) for lam in lams for mu in itertools.product(range(-2, 3), repeat=datum.rank)]
    heights = [sum(rc) for rc in (datum.root_coords_int(wsub(lam, mu)) for lam, mu in pairs) if rc is not None]
    whole, cut = LusztigSum(datum, max(heights), max(heights)), LusztigSum(datum, max(heights), 2)
    hits = 0
    for lam, mu in pairs:
        expected = brute_weyl_sum(datum, lam, mu)
        assert QPolynomial.from_list(whole.coeffs(lam, mu)) == expected, (lam, mu)
        assert QPolynomial.from_list(cut.coeffs(lam, mu)) == expected.truncate(2), (lam, mu)
        hits += bool(expected)
    assert hits >= len(lams)


def test_walk_at_the_zero_weight_makes_one_lookup():
    """At lam = mu = 0 every first step would take the argument below zero,
    so the walk reads the table once, at the identity, not once for each of
    the 120 elements of W(A4)."""
    a4 = build_root_datum([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    lusztig = LusztigSum(a4, 4, 4)
    keys = []

    class Counted(dict):
        def get(self, key, default=None):
            keys.append(key)
            return dict.get(self, key, default)

    lusztig.table = Counted(lusztig.table)
    assert lusztig.coeffs((0,) * 4, (0,) * 4) == [1]
    assert keys == [(0, 0, 0, 0)]
    assert len(weyl_words(a4)) == 120


def test_mq_outside_root_lattice_is_zero():
    assert lusztig_mq(A2, (1, 0), (0, 0)) == QPolynomial.zero()
    assert lusztig_mq(A2, (1, 0), (0, 0), 3) == QPolynomial.zero()
    assert weyl_multiplicity(A2, (1, 0), (0, 0)) == 0
    assert weyl_multiplicity(A2, (1, 0), (-1, 1)) == 1  # (1, 0) - alpha_1, a weight of V(1, 0)
    assert lusztig_mq(A2, (1, 0), (-1, 1)) == QPolynomial({1: 1})


def test_mq_on_a_torus_is_the_delta():
    t = RootDatum(2, (), ())
    assert lusztig_mq(t, (1, -2), (1, -2)) == QPolynomial.one()
    assert lusztig_mq(t, (1, -2), (0, 0)) == QPolynomial.zero()
    assert lusztig_mq(t, (0, 0), (0, 0), 0) == QPolynomial.one()
    assert weyl_multiplicity(t, (3, 0), (3, 0)) == 1
    assert weyl_multiplicity(t, (3, 0), (2, 0)) == 0


def test_weyl_multiplicity_examples():
    assert weyl_multiplicity(A1, (2,), (0,)) == 1
    assert weyl_multiplicity(A2, (1, 1), (0, 0)) == 2
    assert weyl_multiplicity(A2, (1, 1), (1, 1)) == 1


def test_irreducible_character_examples():
    assert irreducible_character(A1, (4,))[(0,)] == 1
    assert irreducible_character(A2, (1, 1))[(2, -1)] == 1
    assert irreducible_character(A2, (1, 1))[(0, 0)] == 2
    assert (5, 5) not in irreducible_character(A2, (1, 1))


@pytest.mark.parametrize("datum", [A2, B2], ids=["A2", "B2"])
def test_three_way_multiplicity_agreement(datum):
    """Lusztig's q-analog at q = 1, the Weyl-group sum and the Demazure-built
    character agree on every weight of every irreducible scanned."""
    for lam in dominant_weights_up_to_height(datum, 4):
        for mu, m in irreducible_character(datum, lam).items():
            mq = lusztig_mq(datum, lam, mu)
            assert sum(mq.coeffs.values()) == weyl_multiplicity(datum, lam, mu)
            assert sum(mq.coeffs.values()) == m


def test_cache_transparency():
    lam = (2, 2)
    cold = lusztig_mq(B2, lam, (0, 0))
    warm = lusztig_mq(B2, lam, (0, 0))
    assert cold == warm


def test_no_datum_outlives_its_computations():
    """Nothing in the library holds a datum once its caller lets it go: no
    process-wide table or memo is keyed by it."""
    datum = build_root_datum([[2, -1], [-2, 2]])
    nilcone_series(datum, 4)
    lusztig_series(datum, 4)
    lusztig_mq(datum, (2, 2), (0, 0))
    irreducible_character(datum, (3, 2))
    ref = weakref.ref(datum)
    del datum
    gc.collect()
    assert ref() is None


def test_warm_partition_table(monkeypatch):
    """A `LusztigSum` builds its table up front, once, at its height and
    truncation; every query of that height reads it."""
    builds = []
    real = kernels.partition_table

    def counted(roots, height_bound, degree_bound):
        builds.append((height_bound, degree_bound))
        return real(roots, height_bound, degree_bound)

    monkeypatch.setattr(kernels, "partition_table", counted)
    warm = LusztigSum(B2, 6, 6)
    assert builds == [(6, 6)]
    rc = B2.root_coords_int((0, 1))
    assert QPolynomial.from_list(warm.table[rc]) == brute_partition_q(B2, (0, 1))
    for lam in [(0, 1), (2, 0), (1, 1), (2, 1), (0, 2)]:
        assert QPolynomial.from_list(warm.coeffs(lam, (0, 0))) == lusztig_mq(B2, lam, (0, 0))


def test_lusztig_sum_refuses_a_query_above_its_height():
    """A table too low for lam - mu would miss terms; the query is refused,
    not answered with a partial sum or zero."""
    lusztig = LusztigSum(A2, 3, 2)
    assert QPolynomial.from_list(lusztig.coeffs((1, 1), (0, 0))) == QPolynomial({1: 1, 2: 1})
    with pytest.raises(ValueError, match="height 4"):
        lusztig.coeffs((2, 2), (0, 0))
    with pytest.raises(ValueError, match="height 5"):
        lusztig.coeffs((4, 1), (0, 0))
    assert lusztig.coeffs((1, 1), (2, 2)) == []  # below zero: no term, at any height


def test_truncated_lookups_match_whole_polynomials():
    """Cut and whole queries, in either order, each get their own exact
    answer."""
    lam = (4, 2)  # M_q = q^4 + 2q^6 + q^7 + 2q^8 + q^9 + q^10
    for first_cut in (True, False):
        if first_cut:
            cut = [lusztig_mq(B2, lam, (0, 0), n) for n in range(11)]
            whole = lusztig_mq(B2, lam, (0, 0))
        else:
            whole = lusztig_mq(B2, lam, (0, 0))
            cut = [lusztig_mq(B2, lam, (0, 0), n) for n in range(11)]
        assert whole == QPolynomial({4: 1, 6: 2, 7: 1, 8: 2, 9: 1, 10: 1})
        assert cut == [whole.truncate(n) for n in range(11)]


# -- the partition kernel ----------------------------------------------------


def test_pure_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        kernels.partition_table([(0, 0)], 2, 2)
    with pytest.raises(ValueError):
        kernels.partition_table([(1, -1)], 2, 2)
    with pytest.raises(ValueError):
        kernels.partition_table([(1, 0)], -1, 2)
    with pytest.raises(ValueError):
        kernels.partition_table([(1, 0)], 2, -1)


def _simplex(rank, height):
    return [m for m in itertools.product(range(height + 1), repeat=rank) if sum(m) <= height]


@pytest.mark.parametrize("datum,height", [(A2, 8), (B2, 7), (G2, 7)], ids=["A2", "B2", "G2"])
def test_kernel_matches_brute_force_on_simplex(datum, height):
    """Every cell of the simplex, reachable or not, against direct enumeration."""
    roots = [datum.root_coords_int(r) for r in datum.positive_roots]
    table = kernels.partition_table(roots, height, height)
    cells = _simplex(datum.nsimple, height)
    assert set(table) <= set(cells)
    for m in cells:
        lam = tuple(sum(m[j] * datum.simple_roots[j][k] for j in range(2)) for k in range(2))
        assert QPolynomial.from_list(table.get(m, ())) == brute_partition_q(datum, lam), m


@pytest.mark.parametrize("datum", [A2, B2, G2], ids=["A2", "B2", "G2"])
def test_truncated_table_is_full_table_cut(datum):
    roots = [datum.root_coords_int(r) for r in datum.positive_roots]
    height = 9
    full = kernels.partition_table(roots, height, height)
    assert kernels.partition_table(roots, height, height + 5) == full
    for degree in range(height):
        cut = {}
        for m, coeffs in full.items():
            kept = coeffs[: degree + 1]
            while kept and not kept[-1]:
                kept = kept[:-1]
            if kept:
                cut[m] = kept
        assert kernels.partition_table(roots, height, degree) == cut, degree


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_kernel_total_count_property(roots):
    """One table entry against direct enumeration of root multiplicity tuples."""
    table = kernels.partition_table(roots, 6, 6)
    target = (3, 3)
    expected: dict[int, int] = {}
    for combo in itertools.product(range(0, 8), repeat=len(roots)):
        tot = [0, 0]
        for mult, root in zip(combo, roots):
            tot[0] += mult * root[0]
            tot[1] += mult * root[1]
        if tuple(tot) == target:
            expected[sum(combo)] = expected.get(sum(combo), 0) + 1
    got = dict(enumerate(table.get(target, ())))
    got = {d: c for d, c in got.items() if c}
    assert got == expected
