"""Graded functions on the full nilpotent cone."""

import pytest

from nilchar import kernels, ktheta
from nilchar.charring import symmetric_irreps
from nilchar.kernels import dominant_weights_up_to_height, lusztig_series
from nilchar.ktheta import nilcone_series
from nilchar.rootdata import RootDatum, build_root_datum
from lusztig_reference import lusztig_mq
from paper_formula import nilcone_character
from weyl_action import expand_labels

A1 = build_root_datum([[2]])
A2 = build_root_datum([[2, -1], [-1, 2]])
C2 = build_root_datum([[2, -1], [-2, 2]])
G2 = build_root_datum([[2, -1], [-3, 2]])
A4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
A4 = build_root_datum(A4_CARTAN)
A3 = build_root_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
B2 = build_root_datum([[2, -2], [-1, 2]])
B3 = build_root_datum([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
C3 = build_root_datum([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
D4 = build_root_datum([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
GL2 = RootDatum(2, [(1, -1)], [(1, -1)])


def test_a1_series_single_string():
    series = nilcone_series(A1, 3)
    assert series.layers == [{(0,): 1}, {(2,): 1}, {(4,): 1}, {(6,): 1}]


def test_degree_zero_is_trivial():
    for datum in (A1, A2):
        series = nilcone_series(datum, 2)
        assert series.layers[0] == {(0,) * datum.rank: 1}


def test_a2_degree_one_is_adjoint():
    series = nilcone_series(A2, 1)
    assert series.layers[1] == {(1, 1): 1}


def test_a1_character_masses():
    gc = nilcone_character(A1, 8)
    assert gc.masses() == [2 * n + 1 for n in range(9)]
    assert gc.layers[1] == {(-2,): 1, (0,): 1, (2,): 1}


def test_all_coefficients_non_negative():
    for datum in (A1, A2):
        series = nilcone_series(datum, 5)
        for layer in series.layers:
            assert all(c > 0 for c in layer.values())


def test_no_contributors_beyond_height_bound():
    """Weights on the shell just above the enumeration bound never carry
    q-powers within the truncation."""
    N = 3
    bound = N * A2.max_root_height
    shell = [
        w
        for w in dominant_weights_up_to_height(A2, bound + A2.max_root_height)
        if sum(A2.root_coords_int(w)) > bound
    ]
    assert shell
    for lam in shell:
        assert not lusztig_mq(A2, lam, (0, 0)).truncate(N)


@pytest.mark.parametrize(
    "datum, truncation",
    [(A1, 24), (A2, 12), (A3, 8), (A4, 6), (B2, 12), (B3, 6), (C3, 6), (G2, 12), (GL2, 8), (RootDatum(2, (), ()), 4)],
    ids=["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "GL2", "T2"],
)
def test_label_route_equals_lusztig_series(datum, truncation):
    """Newton's identity with Brauer-Klimyk straightening and Lusztig's
    q-analogs give the same labels in every degree."""
    series = nilcone_series(datum, truncation)
    assert series == lusztig_series(datum, truncation)
    assert all(series.layers) or not datum.positive_roots


@pytest.mark.parametrize("datum, truncation", [(A4, 8), (D4, 6), (G2, 12)], ids=["A4", "D4", "G2"])
@pytest.mark.parametrize("route", [nilcone_series, lusztig_series], ids=["labels", "lusztig"])
def test_degree_n_labels_lie_below_n_theta(route, datum, truncation):
    """C[N]_n is a quotient of S^n(g), whose weights are all <= n theta (theta
    the highest root), so every label of degree n lies below n theta, the
    cut a Lusztig scan may make; V_{n theta}, the image of S^n of the
    adjoint's highest weight vector, occurs once in every degree n >= 1."""
    theta = datum.positive_roots[-1]
    for n, layer in enumerate(route(datum, truncation).layers):
        n_theta = tuple(n * t for t in theta)
        for lam in layer:
            rc = datum.root_coords_int(tuple(a - b for a, b in zip(n_theta, lam)))
            assert rc is not None and min(rc, default=0) >= 0, (n, lam)
        if n:
            assert layer.get(n_theta) == 1, n


def test_label_route_builds_no_weyl_group_or_partition_table(monkeypatch):
    """`nilcone_series` never builds a partition table; `lusztig_series`,
    its check, builds one. Neither lists the Weyl group: the library has no
    listing of its words, which the tests keep (`weyl_action.weyl_words`)."""
    calls = []
    build = kernels.partition_table

    def counted_table(*args, **kwargs):
        calls.append("partition_table")
        return build(*args, **kwargs)

    monkeypatch.setattr(kernels, "partition_table", counted_table)
    series = nilcone_series(A4, 4)
    assert calls == []
    assert series == lusztig_series(A4, 4)
    assert calls == ["partition_table"]


@pytest.mark.parametrize("datum", [A2, GL2], ids=["A2", "GL2"])
def test_nilcone_series_takes_its_factors_from_the_one_factor_loop(monkeypatch, datum):
    """C[N] is S(g) * prod_i (1 - q^{d_i}) by the two calls of the K side:
    its factors, a central one for GL2 too, come from one call of
    `ktheta.times_invariant_factors` on G, with no loop of its own."""
    calls = []
    apply = ktheta.times_invariant_factors

    def counted(g, layers):
        calls.append(g)
        return apply(g, layers)

    monkeypatch.setattr(ktheta, "times_invariant_factors", counted)
    nilcone_series(datum, 5)
    assert calls == [datum]


def test_symmetric_irreps_of_the_standard_representation():
    """S^n of the standard representation of SL2 and of SL3 is irreducible:
    V(n) and V(n, 0)."""
    assert symmetric_irreps(A1, [(1,), (-1,)], 5) == [{(n,): 1} for n in range(6)]
    assert symmetric_irreps(A2, [(1, 0), (-1, 1), (0, -1)], 5) == [{(n, 0): 1} for n in range(6)]


@pytest.mark.parametrize(
    "datum, weights, named",
    [
        (A1, [(2,), (2,), (-2,)], "highest weight \\[2\\] has multiplicity -3 in 2 \\* h_2"),
        (A2, [(1, 1), (-1, -1), (-1, 2), (1, -2)], "highest weight \\[1, 1\\] has multiplicity -1 in 2 \\* h_2"),
    ],
    ids=["A1", "A2"],
)
def test_symmetric_irreps_refuses_weights_that_are_not_weyl_invariant(datum, weights, named):
    """Brauer-Klimyk needs a Weyl-invariant multiset; without one, some
    coefficient of n h_n is not divisible by n, and the error names it."""
    with pytest.raises(ValueError, match=named):
        symmetric_irreps(datum, weights, 4)


def test_scan_builds_one_partition_table(monkeypatch):
    """The Lusztig scan sizes its table once, from the truncation: height
    N * max_root_height, cut after q^N. A rebuild as the weights grow would
    show as a second call."""
    calls = []
    build = kernels.partition_table

    def counted(roots, height_bound, degree_bound):
        calls.append((height_bound, degree_bound))
        return build(roots, height_bound, degree_bound)

    monkeypatch.setattr(kernels, "partition_table", counted)
    series = lusztig_series(A4, 3)
    assert calls == [(12, 3)]
    assert [len(layer) for layer in series.layers] == [1, 1, 3, 7]


def test_scan_solves_once_per_weight(monkeypatch):
    """Lusztig's sum acts on Dynkin labels in simple-root coordinates: one
    lattice solve per scanned weight (for lam - 0), none per Weyl element."""
    scanned = []
    enumerate_weights = kernels.dominant_weights_up_to_height

    def recorded(datum, bound):
        out = enumerate_weights(datum, bound)
        scanned.extend(out)
        return out

    solves = []
    solve = RootDatum.root_coords_int

    def counted(self, weight):
        solves.append(weight)
        return solve(self, weight)

    monkeypatch.setattr(kernels, "dominant_weights_up_to_height", recorded)
    monkeypatch.setattr(RootDatum, "root_coords_int", counted)
    series = lusztig_series(A4, 3)
    assert [len(layer) for layer in series.layers] == [1, 1, 3, 7]
    assert scanned
    assert len(solves) <= len(scanned)


def test_torus_cone_is_constants_only():
    t = RootDatum(1, (), ())
    gc = nilcone_character(t, 3)
    assert gc.masses() == [1, 0, 0, 0]


@pytest.mark.parametrize(
    "datum, truncation",
    [(A1, 20), (A2, 12), (C2, 8), (G2, 6), (A4, 2), (GL2, 6), (RootDatum(2, (), ()), 4)],
    ids=["A1", "A2", "C2", "G2", "A4", "GL2", "T2"],
)
def test_closed_form_equals_lusztig_expansion(datum, truncation):
    """Layer by layer, the closed form is Lusztig's series with every highest
    weight expanded into its full torus character."""
    gc = nilcone_character(datum, truncation)
    series = nilcone_series(datum, truncation)
    for n in range(truncation + 1):
        assert gc.layers[n] == expand_labels(datum, series.layers[n])


def test_closed_form_hilbert_series():
    """A2: the masses are (1 + q)(1 + q + q^2) / (1 - q)^6, expanded by hand."""
    assert nilcone_character(A2, 4).masses() == [1, 8, 35, 111, 286]
