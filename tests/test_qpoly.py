"""Exact q-polynomial arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lusztig_reference import QPolynomial


def test_construction_drops_zeros():
    p = QPolynomial({0: 1, 2: 0, 3: -1})
    assert p.coeffs == {0: 1, 3: -1}
    assert QPolynomial.from_list([0, 1, 1]) == QPolynomial({1: 1, 2: 1})


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        QPolynomial({-1: 1})


def test_arithmetic():
    p = QPolynomial({0: 1, 1: 2})
    q = QPolynomial({1: -2, 2: 3})
    assert (p + q).coeffs == {0: 1, 2: 3}
    assert (p - p) == QPolynomial.zero()
    assert (p * q).coeffs == {1: -2, 2: -1, 3: 6}
    assert (p * 3).coeffs == {0: 3, 1: 6}
    assert (-p).coeffs == {0: -1, 1: -2}


def test_shift_truncate_eval():
    p = QPolynomial({0: 1, 1: 1, 4: 2})
    assert (p * QPolynomial({2: 1})).coeffs == {2: 1, 3: 1, 6: 2}
    assert p.truncate(1).coeffs == {0: 1, 1: 1}
    assert sum(p.coeffs.values()) == 4
    assert p.degree == 4
    assert QPolynomial.zero().degree == -1


def test_repr():
    assert repr(QPolynomial({0: 1, 1: 1, 2: -3})) == "1 + q - 3*q^2"
    assert repr(QPolynomial.zero()) == "0"
    assert repr(QPolynomial({1: -1})) == "-q"


polys = st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=5).map(QPolynomial)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * QPolynomial.one() == a
    assert sum((a * b).coeffs.values()) == sum(a.coeffs.values()) * sum(b.coeffs.values())
