"""Kostant's partition function, Lusztig's q-analog of weight multiplicity,
and Freudenthal's recursion.

The partition polynomial counts expressions of a root-lattice weight as sums
of positive roots, graded by the number of summands. Weight multiplicities
come in two independent flavours: the alternating Weyl-group sum over the
partition function, and Freudenthal's recursion over the weight saturation.
Freudenthal's tables build the irreducible characters; the Weyl-group sum is
kept as the independent check of them, not as a second production route.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from weakref import WeakKeyDictionary

from . import kernels
from .qpoly import QPolynomial
from .rootdata import RootDatum, Weight, wadd, wscale, wsub

_lock = threading.Lock()
_tables: WeakKeyDictionary = WeakKeyDictionary()
_memos: list[WeakKeyDictionary] = []


def new_memo() -> WeakKeyDictionary:
    """A per-datum memo table (datum -> {key: value}) that `clear_caches`
    empties. Read and write it only through `memo_get` and `memo_put`."""
    memo: WeakKeyDictionary = WeakKeyDictionary()
    _memos.append(memo)
    return memo


def memo_get(memo: WeakKeyDictionary, datum: RootDatum, key):
    with _lock:
        per_datum = memo.get(datum)
        return None if per_datum is None else per_datum.get(key)


def memo_put(memo: WeakKeyDictionary, datum: RootDatum, key, value):
    """Store `value` unless another caller stored one first; return the
    stored value, so concurrent callers all get the same object."""
    with _lock:
        return memo.setdefault(datum, {}).setdefault(key, value)


_freudenthal_cache = new_memo()


class _Table:
    """Partition polynomials of every weight of height <= `height`, exact
    through q^degree."""

    __slots__ = ("height", "degree", "data")

    def __init__(self, height, degree, data):
        self.height = height
        self.degree = degree
        self.data = data


def _root_matrix(datum: RootDatum):
    coords = []
    for r in datum.positive_roots:
        rc = datum.root_coords_int(r)
        assert rc is not None
        coords.append(rc)
    return coords


def _build_table(datum: RootDatum, height: int, degree: int) -> _Table:
    return _Table(height, degree, kernels.partition_table(_root_matrix(datum), height, degree))


def _covering_table(datum: RootDatum, height: int, degree: int) -> _Table:
    """The datum's table, rebuilt (keeping what it covered) unless it covers
    `height` and `degree` already. The caller holds `_lock`."""
    tab = _tables.get(datum)
    if tab is None or height > tab.height or degree > tab.degree:
        if tab is not None:
            height, degree = max(height, tab.height), max(degree, tab.degree)
        tab = _tables[datum] = _build_table(datum, height, degree)
    return tab


def warm_partition_table(datum: RootDatum, height: int, degree: int | None = None) -> None:
    """Pre-build the partition table for every weight of height <= `height`,
    exact through q^degree (every degree when None)."""
    with _lock:
        _covering_table(datum, height, height if degree is None else degree)


def clear_caches() -> None:
    with _lock:
        _tables.clear()
        for memo in _memos:
            memo.clear()


def _partition_coeffs(datum: RootDatum, rc: tuple[int, ...], truncation: int | None):
    height = sum(rc)
    degree = height if truncation is None else min(height, truncation)
    with _lock:
        tab = _tables.get(datum)
        if tab is None or height > tab.height or degree > tab.degree:
            # Grow with a little headroom so scans do not rebuild per query.
            height = max(height + height // 4, 4)
            tab = _covering_table(datum, height, height if truncation is None else degree)
        coeffs = tab.data.get(rc, ())
    return coeffs if truncation is None else coeffs[: truncation + 1]


def kostant_partition_q(datum: RootDatum, lam: Weight, truncation: int | None = None) -> QPolynomial:
    """Counting polynomial of `lam` as graded sums of positive roots, cut
    after q^truncation (whole when None); zero when `lam` is not a
    non-negative root-lattice combination."""
    rc = datum.root_coords_int(lam)
    if rc is None or any(v < 0 for v in rc):
        return QPolynomial.zero()
    if datum.nsimple == 0:
        return QPolynomial.one() if not any(lam) else QPolynomial.zero()
    return QPolynomial.from_list(_partition_coeffs(datum, rc, truncation))


def kostant_partition(datum: RootDatum, lam: Weight) -> int:
    """Plain partition count: the q-polynomial evaluated at q = 1."""
    return kostant_partition_q(datum, lam).eval_at_one()


def _rho_shifted_argument(datum: RootDatum, w, lam: Weight, mu: Weight) -> Weight:
    """w(lam+rho) - (mu+rho), computed on the doubled lattice to stay integral."""
    doubled = wsub(w.act(wadd(wscale(2, lam), datum.two_rho)), wadd(wscale(2, mu), datum.two_rho))
    assert all(v % 2 == 0 for v in doubled)
    return tuple(v // 2 for v in doubled)


def lusztig_mq(datum: RootDatum, lam: Weight, mu: Weight, truncation: int | None = None) -> QPolynomial:
    """q-analog of the weight multiplicity of `mu` in the irreducible of
    highest weight `lam`: the signed Weyl-group sum of partition polynomials,
    cut after q^truncation (whole when None)."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    total = QPolynomial.zero()
    for w in datum.weyl_group():
        arg = _rho_shifted_argument(datum, w, lam, mu)
        p = kostant_partition_q(datum, arg, truncation)
        if p:
            total = total + p * w.sign
    return total


def weyl_multiplicity(datum: RootDatum, lam: Weight, mu: Weight) -> int:
    """Multiplicity of the weight `mu` in the irreducible of highest weight
    `lam`, by the signed Weyl-group sum over plain partition counts."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    total = 0
    for w in datum.weyl_group():
        arg = _rho_shifted_argument(datum, w, lam, mu)
        total += w.sign * kostant_partition(datum, arg)
    return total


def freudenthal_table(datum: RootDatum, lam: Weight) -> dict[Weight, int]:
    """Multiplicities of all dominant weights of the irreducible with highest
    weight `lam`, by Freudenthal's recursion. Independent of the partition
    function path."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    cached = memo_get(_freudenthal_cache, datum, lam)
    if cached is not None:
        return cached

    if datum.nsimple == 0:
        return memo_put(_freudenthal_cache, datum, lam, {lam: 1})

    w0 = datum.longest_element()
    span = wsub(lam, w0.act(lam))
    hmax = datum.height(span)
    dominants: list[tuple[int, Weight]] = []
    for total, mu in _lower_dominants(datum, lam, hmax):
        dominants.append((total, mu))
    dominants.sort(key=lambda t: (t[0], t[1]))

    two_rho = datum.two_rho
    lam2 = wadd(wscale(2, lam), two_rho)
    norm_lam = datum.inner(lam2, lam2)
    mult: dict[Weight, int] = {}
    for dist, mu in dominants:
        if dist == 0:
            mult[mu] = 1
            continue
        num = Fraction(0)
        for alpha in datum.positive_roots:
            k = 1
            while True:
                nu = wadd(mu, wscale(k, alpha))
                m_nu = mult.get(datum.dominant_rep(nu))
                if m_nu is None:
                    break
                num += 2 * m_nu * datum.inner(nu, alpha)
                k += 1
        mu2 = wadd(wscale(2, mu), two_rho)
        denom = (norm_lam - datum.inner(mu2, mu2)) / 4
        val = num / denom
        assert val.denominator == 1 and val >= 0
        mult[mu] = int(val)
    return memo_put(_freudenthal_cache, datum, lam, mult)


def freudenthal_multiplicity(datum: RootDatum, lam: Weight, mu: Weight) -> int:
    return freudenthal_table(datum, lam).get(datum.dominant_rep(mu), 0)


def _lower_dominants(datum: RootDatum, lam: Weight, hmax: int):
    """(height-distance, mu) for dominant mu with lam - mu a non-negative
    root-lattice combination of height <= hmax."""
    nsimple = datum.nsimple
    stack = [(0, (0,) * nsimple)]
    seen = {(0,) * nsimple}
    while stack:
        total, m = stack.pop()
        mu = lam
        for j, mj in enumerate(m):
            mu = wsub(mu, wscale(mj, datum.simple_roots[j]))
        if datum.is_dominant(mu):
            yield total, mu
        if total < hmax:
            for j in range(nsimple):
                nm = m[:j] + (m[j] + 1,) + m[j + 1:]
                if nm not in seen:
                    seen.add(nm)
                    stack.append((total + 1, nm))
