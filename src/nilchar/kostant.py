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

import hashlib
import json
import os
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
    __slots__ = ("bounds", "data")

    def __init__(self, bounds, data):
        self.bounds = bounds
        self.data = data


def _root_matrix(datum: RootDatum):
    coords = []
    for r in datum.positive_roots:
        rc = datum.root_coords_int(r)
        assert rc is not None
        coords.append(rc)
    return coords


def _cache_path(cache_dir: str, roots, bounds) -> str:
    key = hashlib.sha256(json.dumps([roots, list(bounds)]).encode()).hexdigest()[:24]
    return os.path.join(cache_dir, f"ptable-{key}.json")


def _build_table(datum: RootDatum, bounds) -> _Table:
    roots = _root_matrix(datum)
    cache_dir = os.environ.get("NILCHAR_CACHE_DIR")
    path = _cache_path(cache_dir, roots, bounds) if cache_dir else None
    if path and os.path.exists(path):
        with open(path) as fh:
            raw = json.load(fh)
        data = {tuple(m): tuple(coeffs) for m, coeffs in raw}
        return _Table(bounds, data)
    data = kernels.partition_table(roots, bounds)
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump([[list(m), list(c)] for m, c in sorted(data.items())], fh)
        os.replace(tmp, path)
    return _Table(bounds, data)


def warm_partition_table(datum: RootDatum, bounds) -> None:
    """Pre-build the partition table for a componentwise box."""
    nsimple = datum.nsimple
    bounds = tuple(bounds)
    if len(bounds) != nsimple:
        raise ValueError("bounds length must equal the number of simple roots")
    with _lock:
        tab = _tables.get(datum)
        if tab is None or any(b > tb for b, tb in zip(bounds, tab.bounds)):
            merged = bounds if tab is None else tuple(max(b, tb) for b, tb in zip(bounds, tab.bounds))
            _tables[datum] = _build_table(datum, merged)


def clear_caches() -> None:
    with _lock:
        _tables.clear()
        for memo in _memos:
            memo.clear()


def _partition_coeffs(datum: RootDatum, rc: tuple[int, ...]):
    with _lock:
        tab = _tables.get(datum)
        if tab is None or any(m > b for m, b in zip(rc, tab.bounds)):
            # Rebuild with a little headroom so scans do not rebuild per query.
            if tab is None:
                bounds = tuple(max(m + m // 4, m, 4) for m in rc)
            else:
                bounds = tuple(max(b, m + m // 4, m) for b, m in zip(tab.bounds, rc))
            tab = _build_table(datum, bounds)
            _tables[datum] = tab
        return tab.data.get(rc, ())


def kostant_partition_q(datum: RootDatum, lam: Weight) -> QPolynomial:
    """Counting polynomial of `lam` as graded sums of positive roots; zero
    when `lam` is not a non-negative root-lattice combination."""
    rc = datum.root_coords_int(lam)
    if rc is None or any(v < 0 for v in rc):
        return QPolynomial.zero()
    if datum.nsimple == 0:
        return QPolynomial.one() if not any(lam) else QPolynomial.zero()
    return QPolynomial.from_list(_partition_coeffs(datum, rc))


def kostant_partition(datum: RootDatum, lam: Weight) -> int:
    """Plain partition count: the q-polynomial evaluated at q = 1."""
    return kostant_partition_q(datum, lam).eval_at_one()


def _rho_shifted_argument(datum: RootDatum, w, lam: Weight, mu: Weight) -> Weight:
    """w(lam+rho) - (mu+rho), computed on the doubled lattice to stay integral."""
    doubled = wsub(w.act(wadd(wscale(2, lam), datum.two_rho)), wadd(wscale(2, mu), datum.two_rho))
    assert all(v % 2 == 0 for v in doubled)
    return tuple(v // 2 for v in doubled)


def lusztig_mq(datum: RootDatum, lam: Weight, mu: Weight) -> QPolynomial:
    """q-analog of the weight multiplicity of `mu` in the irreducible of
    highest weight `lam`: the signed Weyl-group sum of partition polynomials."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    total = QPolynomial.zero()
    for w in datum.weyl_group():
        arg = _rho_shifted_argument(datum, w, lam, mu)
        p = kostant_partition_q(datum, arg)
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
