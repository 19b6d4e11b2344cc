"""Kostant's partition function and Lusztig's q-analog of weight multiplicity.

The partition polynomial counts expressions of a root-lattice weight as sums
of positive roots, graded by the number of summands. Its alternating
Weyl-group sum gives the q-analog of a weight multiplicity; at q = 1 it is
Kostant's multiplicity formula (`weyl_multiplicity`), kept as the reference
that tests hold the Demazure-built irreducible characters
(`charring.irreducible_character`) against.

The Weyl-group sum runs in integer simple-root coordinates: each Weyl element,
taken as a reduced word from `RootDatum.weyl_words`, acts on Dynkin labels
through one integer matrix (`weyl_on_labels`), so a call solves for the
coordinates of lam - mu once and reads every partition polynomial from one
table, with no solve per element.
"""

from __future__ import annotations

import threading
from operator import mul

from . import kernels
from .qpoly import QPolynomial
from .rootdata import Matrix, RootDatum, Weight, wdot, wsub

# Per-datum caches are plain dicts keyed by the datum, which compares and
# hashes by its Cartan data: an entry serves every equal datum and lives
# until `clear_caches`. (Weak keys would drop it with the first datum that
# stored it, while an equal one is still in use.)
_lock = threading.Lock()
_tables: dict[RootDatum, _Table] = {}
_memos: list[dict] = []


def new_memo() -> dict:
    """A per-datum memo table (datum -> {key: value}) that `clear_caches`
    empties. Read and write it only through `memo_get` and `memo_put`."""
    memo: dict = {}
    _memos.append(memo)
    return memo


def memo_get(memo: dict, datum: RootDatum, key):
    with _lock:
        per_datum = memo.get(datum)
        return None if per_datum is None else per_datum.get(key)


def memo_put(memo: dict, datum: RootDatum, key, value):
    """Store `value` unless another caller stored one first; return the
    stored value, so concurrent callers all get the same object."""
    with _lock:
        return memo.setdefault(datum, {}).setdefault(key, value)


class _Table:
    """Partition polynomials of every weight of height <= `height`, exact
    through q^degree."""

    __slots__ = ("height", "degree", "data")

    def __init__(self, height, degree, data):
        self.height = height
        self.degree = degree
        self.data = data


def _build_table(datum: RootDatum, height: int, degree: int) -> _Table:
    return _Table(height, degree, kernels.partition_table(datum.positive_root_coords, height, degree))


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


def _table_for(datum: RootDatum, height: int, truncation: int | None) -> _Table:
    """A table exact, through q^truncation (every degree when None), for
    every weight of height <= `height`. A table is never changed once built,
    so the caller may read it without the lock."""
    degree = height if truncation is None else min(height, truncation)
    with _lock:
        tab = _tables.get(datum)
        if tab is None or height > tab.height or degree > tab.degree:
            # Grow with a little headroom so scans do not rebuild per query.
            height = max(height + height // 4, 4)
            tab = _covering_table(datum, height, height if truncation is None else degree)
    return tab


def kostant_partition_q(datum: RootDatum, lam: Weight, truncation: int | None = None) -> QPolynomial:
    """Counting polynomial of `lam` as graded sums of positive roots, cut
    after q^truncation (whole when None); zero when `lam` is not a
    non-negative root-lattice combination."""
    rc = datum.root_coords_int(lam)
    if rc is None or any(v < 0 for v in rc):
        return QPolynomial.zero()
    if datum.nsimple == 0:
        return QPolynomial.one()
    coeffs = _table_for(datum, sum(rc), truncation).data.get(rc, ())
    return QPolynomial.from_list(coeffs if truncation is None else coeffs[: truncation + 1])


_weyl_on_labels_cache = new_memo()


def weyl_on_labels(datum: RootDatum) -> tuple[tuple[int, Matrix], ...]:
    """(sign(w), D_w) for every Weyl element w, in `weyl_words()` order,
    where sign(w) = (-1)^len(word) and x - w(x) = D_w . labels(x) in
    simple-root coordinates for every weight x.

    Built along the reduced words: s_i(v) = v - <v, alpha_i^vee> alpha_i
    gives, for w = w' s_i, D_w = D_w' + (e_i - D_w' . C e_i) e_i^T, where
    C e_i (column i of the Cartan matrix) holds the labels of alpha_i. Each
    word less its last letter is an earlier word of the list, since the
    words are grown breadth-first by appending letters.
    """
    cached = memo_get(_weyl_on_labels_cache, datum, None)
    if cached is not None:
        return cached
    n = datum.nsimple
    cartan = datum.cartan_matrix
    by_word: dict[tuple[int, ...], Matrix] = {(): tuple((0,) * n for _ in range(n))}
    out = []
    for word in datum.weyl_words():
        if word:
            prefix, i = by_word[word[:-1]], word[-1]
            column = [cartan[j][i] for j in range(n)]
            by_word[word] = tuple(
                row[:i] + (row[i] + (k == i) - wdot(row, column),) + row[i + 1:]
                for k, row in enumerate(prefix)
            )
        out.append((-1 if len(word) % 2 else 1, by_word[word]))
    return memo_put(_weyl_on_labels_cache, datum, None, tuple(out))


def _weyl_sum(datum: RootDatum, lam: Weight, mu: Weight, truncation: int | None) -> list[int]:
    """Coefficients of sum_w sign(w) P_q(w(lam + rho) - (mu + rho)), cut after
    q^truncation (whole when None).

    In simple-root coordinates the argument is rc(lam - mu) - D_w . (labels(lam)
    + 1), since labels(rho) = 1: one lattice solve per call, none per element.
    Every argument lies below lam - mu, so one table sized to ht(lam - mu)
    covers them all, and a negative ht(lam - mu) or coordinate leaves none.
    """
    labels = datum.labels(lam)
    if any(v < 0 for v in labels):
        raise ValueError(f"{lam} is not dominant")
    rc = datum.root_coords_int(wsub(lam, mu))
    if rc is None or any(v < 0 for v in rc):
        return []
    if datum.nsimple == 0:
        return [1]
    shifted = tuple(v + 1 for v in labels)
    data = _table_for(datum, sum(rc), truncation).data
    top = None if truncation is None else truncation + 1
    acc: list[int] = []
    for sign, d in weyl_on_labels(datum):
        arg = tuple([r - sum(map(mul, row, shifted)) for r, row in zip(rc, d)])
        coeffs = data.get(arg)
        if coeffs is None:
            continue
        if top is not None:
            coeffs = coeffs[:top]
        if len(acc) < len(coeffs):
            acc.extend([0] * (len(coeffs) - len(acc)))
        for k, c in enumerate(coeffs):
            acc[k] += sign * c
    return acc


def lusztig_mq(datum: RootDatum, lam: Weight, mu: Weight, truncation: int | None = None) -> QPolynomial:
    """q-analog of the weight multiplicity of `mu` in the irreducible of
    highest weight `lam`: the signed Weyl-group sum of partition polynomials,
    cut after q^truncation (whole when None)."""
    return QPolynomial.from_list(_weyl_sum(datum, lam, mu, truncation))


def weyl_multiplicity(datum: RootDatum, lam: Weight, mu: Weight) -> int:
    """Multiplicity of the weight `mu` in the irreducible of highest weight
    `lam`, by the signed Weyl-group sum over plain partition counts."""
    return sum(_weyl_sum(datum, lam, mu, None))
