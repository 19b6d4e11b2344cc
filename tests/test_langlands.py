"""Continued-parameter bookkeeping: the k weights on a torus, tensoring,
Zuckerman, the graded branching sum."""

from math import comb

import pytest

from nilchar import charring, kernels, ktheta, langlands
from nilchar.charring import irreducible_character
from nilchar.config import PositiveSystem, TorusDatum, load_catalog_config
from nilchar.kernels import lusztig_series
from nilchar.ktheta import exterior_products, nilcone_series
from nilchar.langlands import ContinuedParameter, FormalStandardSum, graded_branching_sum, k_weight_multiset
from nilchar.rootdata import InvolutionData, build_root_datum
from standard_sums import branching_reference, mass_by_degree, subset_sums, tensor_standard, zuckerman_expansion
from weyl_action import weyl_dimension

A1 = build_root_datum([[2]])
SL2 = load_catalog_config("sl2-split")
TORI = SL2.tori
# The split torus of split Sp4 on its own: every root is real, so k is four
# zero weights there. C[N] of Sp4 has labels of multiplicity 2 from degree
# 5 on, which sl2's cannot show.
SP4_SPLIT_TORUS = (TorusDatum("split", InvolutionData([[-1, 0], [0, -1]]), (PositiveSystem("pos", (), 0),)),)


def test_torus_table_validates():
    for torus in TORI:
        torus.validate(A1)


def test_torus_table_rejects_bad_positive_system():
    bad = TorusDatum(
        "compact",
        InvolutionData([[1]]),
        (PositiveSystem("both", ((2,), (-2,)), 0),),
    )
    with pytest.raises(ValueError):
        bad.validate(A1)


@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_positive_system_refuses_non_integer_roots(bad):
    with pytest.raises(ValueError, match=r"imaginary_roots\[0\]\[0\]"):
        PositiveSystem("p", ((bad,),), 0)


def test_k_multiset_split_torus():
    # one zero from the single positive real root
    assert k_weight_multiset(A1, TORI[0], 1) == ((0,),)


def test_k_multiset_compact_torus():
    # no compact/complex/real contributions; one zero from the fixed torus line
    assert k_weight_multiset(A1, TORI[1], 1) == ((0,),)


def test_k_multiset_size_mismatch_rejected():
    with pytest.raises(ValueError, match=r"has size 1, expected dim k = 2"):
        k_weight_multiset(A1, TORI[0], 2)


def test_k_multiset_complex_pairs():
    swap = load_catalog_config("sl2xsl2-swap")
    datum = swap.real_form.g_datum
    torus = TorusDatum("swap", InvolutionData([[0, 1], [1, 0]]), (PositiveSystem("e", (), 0),))
    weights = k_weight_multiset(datum, torus, 3)
    # two complex pairs (lex-smaller members) plus one fixed direction, sorted
    assert weights == ((-2, 0), (0, 0), (0, 2))
    # restricted to the theta-fixed diagonal, that is the weight set of k
    assert sorted(a + b for (a, b) in weights) == [-2, 0, 2]


def test_k_multiset_repeats_a_weight():
    """The four zero weights of k on the split torus of Sp4 (one per positive
    real root) are kept with their multiplicity."""
    rf = load_catalog_config("sp4-split").real_form
    assert k_weight_multiset(rf.g_datum, SP4_SPLIT_TORUS[0], len(rf.k_weights)) == ((0, 0),) * 4


@pytest.mark.parametrize(
    "weights",
    [[(1,), (2,)], [(0,)], [(1,), (1,), (-1,), (3,)], [(0, 0)] * 4, [(-2, 0), (0, 0), (0, 2)]],
    ids=["distinct", "single", "repeated", "four-zeros", "rank-2"],
)
def test_wedge_class_layers_are_signed_subset_sums(weights):
    """Layer n of the signed exterior class (`exterior_products` of no
    symmetric weights) is (-1)^n times the sums over the size-n
    sub-multisets, counted by recursion over the distinct weights."""
    top = len(weights) + 1
    wedge = exterior_products([], [weights], top, rank=len(weights[0]))[0]
    for n in range(top + 1):
        assert wedge[n] == {w: (-1) ** n * c for w, c in subset_sums(weights, n).items()}, n


def test_wedge_multiset_edges():
    assert exterior_products([], [[(1,), (2,)]], 3, rank=1)[0] == [{(0,): 1}, {(1,): -1, (2,): -1}, {(3,): 1}, {}]
    assert exterior_products([], [[(0,)]], 1, rank=1)[0] == [{(0,): 1}, {(0,): -1}]


def test_wedge_multiset_total_counts():
    weights = [(1,), (1,), (-1,), (3,)]
    wedge = exterior_products([], [weights], 5, rank=1)[0]
    for n in range(5):
        assert sum(wedge[n].values()) == (-1) ** n * comb(4, n)
        assert sum(subset_sums(weights, n).values()) == comb(4, n)
    assert wedge[5] == {}


def test_irrep_multiset_masses():
    assert irreducible_character(A1, (0,)) == {(0,): 1}
    assert irreducible_character(A1, (2,)) == {(-2,): 1, (0,): 1, (2,): 1}
    a2 = build_root_datum([[2, -1], [-1, 2]])
    adj = irreducible_character(a2, (1, 1))
    assert sum(adj.values()) == 8
    assert adj[(0, 0)] == 2


def test_tensor_standard():
    p = ContinuedParameter("split", (0,), "pos")
    out = tensor_standard(p, {(-2,): 1, (0,): 1, (2,): 1})
    gammas = sorted(param.gamma0 for _, param, _ in out.items())
    assert gammas == [(-2,), (0,), (2,)]
    assert all(c == 1 and q == 0 for c, _, q in out.items())
    doubled = tensor_standard(p, {(4,): 2})
    assert doubled.items()[0][0] == 2


def test_tensor_standard_rank_mismatch():
    p = ContinuedParameter("split", (0,), "pos")
    with pytest.raises(ValueError):
        tensor_standard(p, {(1, 0): 1})


def test_tensor_standard_additive_in_multiset():
    p = ContinuedParameter("split", (1,), "pos")
    s1 = {(-2,): 1, (0,): 2}
    s2 = {(0,): 1, (4,): 1}
    total = tensor_standard(p, {(-2,): 1, (0,): 3, (4,): 1})
    assert total == FormalStandardSum(t for s in (s1, s2) for t in tensor_standard(p, s).items())


def test_zuckerman_signs():
    z = zuckerman_expansion(TORI)
    rows = {(p.torus, p.positive_system): c for c, p, q in z.items()}
    assert rows == {("split", "pos"): 1, ("compact", "plus"): -1, ("compact", "minus"): -1}
    assert all(p.describe() == "rho_im" and p.gamma0 == (0,) and q == 0 for _, p, q in z.items())


def test_zuckerman_rejects_empty_table():
    with pytest.raises(ValueError):
        zuckerman_expansion([])


def test_branching_degree_zero_equals_zuckerman():
    assert graded_branching_sum(SL2.real_form, TORI, 0) == zuckerman_expansion(TORI)


def test_branching_degree_one_rows():
    total = graded_branching_sum(SL2.real_form, TORI, 1)
    degree1 = [(c, p) for c, p, q in total.items() if q == 1]
    # gamma0 = 0 terms cancel; the +-2 families remain with torus-dependent signs
    expected = {
        ("split", (2,)): 1,
        ("split", (-2,)): 1,
        ("compact", (2,)): -2,
        ("compact", (-2,)): -2,
    }
    got: dict = {}
    for c, p in degree1:
        key = (p.torus, p.gamma0)
        got[key] = got.get(key, 0) + c
    assert got == expected


def _assert_three_factor_masses(rf, tori, N):
    """The mass of each q-power of the branching sum is the Zuckerman mass
    times the convolution of dim C[N] (from Lusztig's q-analogs) with the
    signed exterior algebra of k."""
    total = graded_branching_sum(rf, tori, N)
    datum = rf.g_datum
    z_mass = sum(
        (-1) ** ps.ell for torus in tori for ps in torus.positive_systems
    )
    dim_series = [0] * (N + 1)
    for deg, layer in enumerate(lusztig_series(datum, N).layers):
        for lam, c in layer.items():
            dim_series[deg] += weyl_dimension(datum, lam) * c
    dim_k = len(rf.k_weights)
    expected = {}
    for n in range(N + 1):
        conv = sum(
            dim_series[j] * (-1) ** r * comb(dim_k, r)
            for j in range(n + 1)
            for r in [n - j]
            if r <= dim_k
        )
        expected[n] = z_mass * conv
    got = mass_by_degree(total)
    for n in range(N + 1):
        assert got.get(n, 0) == expected[n], n


def test_branching_mass_matches_three_factor_convolution():
    _assert_three_factor_masses(SL2.real_form, TORI, 3)


def test_branching_mass_matches_three_factor_convolution_on_the_sp4_split_torus():
    _assert_three_factor_masses(load_catalog_config("sp4-split").real_form, SP4_SPLIT_TORUS, 6)


def test_branching_builds_one_symmetric_series_and_no_irreducible_or_table(monkeypatch):
    """C[N] on the torus of G comes from Kostant's form on packed weights:
    one packed symmetric series, S(g), however many tori and positive
    systems read it. No highest-weight label, irreducible character or
    partition table is built."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(charring, "_w0_word", counted("irreducible", charring._w0_word))
    monkeypatch.setattr(kernels, "partition_table", counted("partition_table", kernels.partition_table))
    monkeypatch.setattr(ktheta, "symmetric_irreps", counted("labels", ktheta.symmetric_irreps))
    monkeypatch.setattr(ktheta, "packed_symmetric_series", counted("symmetric", ktheta.packed_symmetric_series))
    graded_branching_sum(SL2.real_form, TORI, 6)
    assert sum(len(t.positive_systems) for t in TORI) > 1
    assert calls == ["symmetric"]


@pytest.mark.parametrize(
    "name, tori, N",
    [("sl2-split", TORI, n) for n in (0, 5, 30, 64)] + [("sp4-split", SP4_SPLIT_TORUS, 6)],
    ids=["sl2-0", "sl2-5", "sl2-30", "sl2-64", "sp4-6"],
)
def test_branching_equals_the_sum_on_lusztig_contributors(name, tori, N):
    """The branching sum equals the quintuple sum with the highest weights
    of C[N] read from Lusztig's q-analogs, a route that shares no step with
    Kostant's form on packed torus weights."""
    rf = load_catalog_config(name).real_form
    total = graded_branching_sum(rf, tori, N)
    assert total == branching_reference(rf, tori, N, lusztig_series)
    assert total.terms


@pytest.mark.parametrize(
    "name, tori, N",
    [("sl2-split", TORI, n) for n in (0, 1, 5, 30, 64)] + [("sp4-split", SP4_SPLIT_TORUS, n) for n in (6, 10)],
    ids=["sl2-0", "sl2-1", "sl2-5", "sl2-30", "sl2-64", "sp4-6", "sp4-10"],
)
def test_branching_equals_the_quintuple_sum(name, tori, N):
    """One graded product per torus gives the same sum, and the same rows,
    as adding every (torus, positive system, highest weight, weight,
    sub-multiset) term on its own, with the highest weights of C[N] from
    Newton's identity on labels (`nilcone_series`)."""
    rf = load_catalog_config(name).real_form
    total = graded_branching_sum(rf, tori, N)
    reference = branching_reference(rf, tori, N, nilcone_series)
    assert total == reference
    assert total.to_records() == reference.to_records()
    assert total.terms


def test_branching_takes_one_product_per_torus(monkeypatch):
    """The exterior class of k multiplies S(g) once per torus, not once per
    positive system (sl2's compact torus has two), all from one call of
    `exterior_products` on g's weights."""
    calls, products = [], []
    take, multiply = ktheta.exterior_products, ktheta.times_exterior

    def counted_products(weights, exteriors, *args):
        calls.append((len(weights), [tuple(b) for b in exteriors]))
        return take(weights, exteriors, *args)

    def counted_exterior(packed, layers):
        products.append((len(packed), len(layers) - 1))
        return multiply(packed, layers)

    monkeypatch.setattr(langlands, "exterior_products", counted_products)
    monkeypatch.setattr(ktheta, "times_exterior", counted_exterior)
    graded_branching_sum(SL2.real_form, TORI, 8)
    assert [len(t.positive_systems) for t in TORI] == [1, 2]
    assert calls == [(3, [((0,),), ((0,),)])]
    assert products == [(1, 8), (1, 8)]


def test_branching_builds_one_parameter_per_term(monkeypatch):
    """Coefficients are summed before any parameter is built: one
    `ContinuedParameter` per distinct non-zero term of the result."""
    built = []
    build = langlands.ContinuedParameter

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(langlands, "ContinuedParameter", counted)
    total = graded_branching_sum(SL2.real_form, TORI, 10)
    assert total.terms
    assert len(built) == len(total.terms)


def test_formal_sum_items_return_the_held_parameters(monkeypatch):
    """`items()` sorts the held (parameter, q) keys: `to_records()` and
    `repr()` of the degree-30 sum build no `ContinuedParameter`."""
    total = graded_branching_sum(SL2.real_form, TORI, 30)
    built = []
    build = langlands.ContinuedParameter

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(langlands, "ContinuedParameter", counted)
    assert len(total.to_records()) == len(total.terms) == 183
    assert repr(total).count("*I(") == 183
    assert built == []
    assert {id(p) for _, p, _ in total.items()} == {id(p) for p, _ in total.terms}


def test_branching_requires_split():
    swap = load_catalog_config("sl2xsl2-swap")
    torus = TorusDatum("c", InvolutionData([[0, 1], [1, 0]]), (PositiveSystem("e", (), 0),))
    with pytest.raises(ValueError, match="split"):
        graded_branching_sum(swap.real_form, (torus,), 1)


def test_branching_requires_tori():
    with pytest.raises(ValueError, match="empty"):
        graded_branching_sum(SL2.real_form, (), 1)


def test_formal_sum_merging():
    p = ContinuedParameter("t", (0,), "e")
    s = FormalStandardSum([(1, p, 0), (2, p, 0), (-3, p, 0)])
    assert s.terms == {}
    s2 = FormalStandardSum([(1, p, 0), (1, p, 1)])
    assert len(s2.items()) == 2

