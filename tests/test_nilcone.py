"""Graded functions on the full nilpotent cone."""

import pytest

from nilchar.charring import expand_irrep_series
from nilchar.kostant import lusztig_mq
from nilchar.nilcone import nilcone_character, nilcone_series
from nilchar.rootdata import (
    build_root_datum,
    dominant_weights_up_to_height,
    reductive_root_datum,
    torus_datum,
)

A1 = build_root_datum([[2]])
A2 = build_root_datum([[2, -1], [-1, 2]])
C2 = build_root_datum([[2, -1], [-2, 2]])
G2 = build_root_datum([[2, -1], [-3, 2]])
A4 = build_root_datum([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
GL2 = reductive_root_datum(2, [(1, -1)], [(1, -1)])


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
        if A2.height(w) > bound
    ]
    assert shell
    for lam in shell:
        assert not lusztig_mq(A2, lam, (0, 0)).truncate(N)


def test_torus_cone_is_constants_only():
    t = torus_datum(1)
    gc = nilcone_character(t, 3)
    assert gc.masses() == [1, 0, 0, 0]


@pytest.mark.parametrize(
    "datum, truncation",
    [(A1, 20), (A2, 12), (C2, 8), (G2, 6), (A4, 2), (GL2, 6), (torus_datum(2), 4)],
    ids=["A1", "A2", "C2", "G2", "A4", "GL2", "T2"],
)
def test_closed_form_equals_lusztig_expansion(datum, truncation):
    lusztig = expand_irrep_series(datum, nilcone_series(datum, truncation))
    assert nilcone_character(datum, truncation) == lusztig


def test_closed_form_hilbert_series():
    """A2: the masses are (1 + q)(1 + q + q^2) / (1 - q)^6, expanded by hand."""
    assert nilcone_character(A2, 4).masses() == [1, 8, 35, 111, 286]
