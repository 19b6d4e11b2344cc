"""Truncated q-graded character series, the packed-int weight codec with
the graded symmetric algebra on it, and the graded symmetric algebra on
highest-weight labels. A character is a plain {weight: multiplicity} dict,
written as text by `format_terms`.

A graded symmetric algebra of a Weyl-invariant weight multiset is computed
on highest-weight labels (`symmetric_irreps`), so no production route
builds an irreducible character or decomposes a torus character into
irreducibles; the tests expand labels onto the torus by Demazure's formula
(`tests/weyl_action.py`).
Negative multiplicities are first-class everywhere: alternating classes
(signed exterior algebras, character expansions of the trivial module) are
the typical inputs.
"""

from collections import Counter
from itertools import chain
from operator import add, mul

from .rootdata import RootDatum, Weight, is_int


def _refuse_bad_weights(weights, rank: int, where: str = "") -> None:
    """A weight with an entry that is not an int (`is_int`), or whose length
    is not `rank`, is a ValueError naming it. The types of all entries and
    the lengths are collected in one pass each, so weights of plain ints of
    the right length cost no Python call per entry; only a stray type or
    length leads to the search for the weight that has it."""
    if set(map(type, chain.from_iterable(weights))) - {int}:
        for w in weights:
            if not all(map(is_int, w)):
                raise ValueError(f"weight {w}{where} has an entry that is not an integer")
    if set(map(len, weights)) - {rank}:
        for w in weights:
            if len(w) != rank:
                raise ValueError(f"weight {w} does not have rank {rank}")


def _checked_terms(rank: int, terms, where: str = "") -> dict[Weight, int]:
    """A new dict of `terms` (weight -> multiplicity), keyed by tuples, with
    zero multiplicities dropped. A weight of another rank, or an entry or
    multiplicity that is not an int, is a ValueError naming it. As in
    `_refuse_bad_weights`, the multiplicity types are collected in one pass;
    only a bad one leads to the search for the item that holds it, and the
    dict is rebuilt only when it holds a zero or a key that is not a tuple."""
    terms = dict(terms)
    _refuse_bad_weights(terms, rank, where)
    if set(map(type, terms.values())) - {int}:
        for w, c in terms.items():
            if not is_int(c):
                raise ValueError(f"multiplicity of {w}{where} = {c!r} is not an integer")
    if not all(terms.values()) or set(map(type, terms)) - {tuple}:
        terms = {tuple(w): c for w, c in terms.items() if c}
    return terms


def _checked_layers(rank: int, truncation: int, layers) -> list[dict[Weight, int]]:
    """`layers` as degrees 0..truncation (missing ones empty, later ones
    dropped), each checked by `_checked_terms`. A negative truncation is a
    ValueError."""
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    given = list(layers or ())[: truncation + 1]
    given += [{}] * (truncation + 1 - len(given))
    return [_checked_terms(rank, layer, f" in degree {n}") for n, layer in enumerate(given)]


def format_terms(terms) -> str:
    """A weight -> multiplicity map as text: `0`, or `c*e[w] + ...` in weight order."""
    return " + ".join(f"{c}*e{list(w)}" for w, c in sorted(terms.items())) or "0"


class _Series:
    """Truncated q-series: `layers[n]` is the multiplicity map in q-degree n
    for n = 0..truncation, keyed by weights; `to_records()` names the key
    by the class attribute `key`. A series equals only a series of its own
    class."""

    __slots__ = ("rank", "truncation", "layers")

    def __init__(self, rank: int, truncation: int, layers=None):
        self.rank = rank
        self.truncation = truncation
        self.layers = _checked_layers(rank, truncation, layers)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.rank == other.rank
            and self.truncation == other.truncation
            and self.layers == other.layers
        )

    def to_records(self) -> list[dict]:
        """Stable machine-readable rows: one per (degree, weight) pair."""
        rows = []
        for n in range(self.truncation + 1):
            for w, c in sorted(self.layers[n].items()):
                rows.append({"degree": n, self.key: list(w), "multiplicity": c})
        return rows


class GradedCharacter(_Series):
    """Truncated q-series of virtual torus characters, built from layers
    whose products were taken on packed weights (`weight_codec`)."""

    __slots__ = ()
    key = "weight"

    def mass(self, n: int) -> int:
        return sum(self.layers[n].values())

    def masses(self) -> list[int]:
        return [self.mass(n) for n in range(self.truncation + 1)]

    def __repr__(self) -> str:
        parts = [f"q^{n}:({format_terms(layer)})" for n, layer in enumerate(self.layers) if layer]
        return " + ".join(parts) if parts else "0"


def weight_codec(weights, truncation: int, rank: int):
    """Each weight as one int, and the function that turns layers keyed by
    sums of at most `truncation` of those ints back into layers keyed by
    weight tuples, with zero multiplicities dropped.

    The coordinates are signed digits in base 2 * bound + 1, the first
    coordinate the least significant, with bound = truncation * max|w|. No
    coordinate of a sum of at most `truncation` weights exceeds the bound,
    so the int of such a sum is the sum of the ints, with no carry. A weight
    whose length is not `rank`, or with an entry that is not an int, is a
    ValueError naming it."""
    weights = [tuple(w) for w in weights]
    _refuse_bad_weights(weights, rank)
    bound = truncation * max(map(abs, chain.from_iterable(weights)), default=0)
    digit = 2 * bound + 1
    scales = [digit**k for k in range(rank)]
    offset = bound * sum(scales)

    def unpack(layers: list[dict[int, int]]) -> list[dict[Weight, int]]:
        # Each int once, however many layers hold it.
        weight = {}
        for v in set().union(*layers):
            u, coords = v + offset, []
            for _ in scales:
                u, x = divmod(u, digit)
                coords.append(x - bound)
            weight[v] = tuple(coords)
        return [{weight[v]: c for v, c in layer.items() if c} for layer in layers]

    return [sum(map(mul, w, scales)) for w in weights], unpack


def packed_symmetric_series(packed, truncation: int) -> list[dict[int, int]]:
    """Torus layers s_0..s_truncation of the graded symmetric algebra of a
    weight multiset (weight w in degree 1), the product over weights w of
    1 / (1 - e^w q), on the ints of `weight_codec`: one weight times one
    layer is one int sum per entry, with no weight tuple built."""
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(truncation)]
    for w in packed:
        for n in range(1, truncation + 1):
            layer = layers[n]
            for v, c in layers[n - 1].items():
                key = v + w
                layer[key] = layer.get(key, 0) + c
    return layers


def symmetric_irreps(datum: RootDatum, weights, truncation: int) -> list[dict[Weight, int]]:
    """Highest-weight layers h_0..h_truncation of the graded symmetric
    algebra of a Weyl-invariant weight multiset, with no Weyl group and no
    torus character.

    Newton's identity n h_n = sum_{k=1..n} psi^k * h_{n-k}, where the Adams
    operation psi^k = sum_w e^{k w} runs over the weights (Macdonald,
    Symmetric Functions and Hall Polynomials, I.2), gives each layer from the
    lower ones. psi^k is linear in the multiset, so each distinct weight
    keeps one running sum, counted with its multiplicity. Each product is
    taken by Brauer-Klimyk: V_lam * sum_nu e^nu = sum_nu sign(w)
    V_{w.(lam + nu)}, straightened by `_straighten`. A coefficient of n h_n
    that n does not divide is a ValueError naming its weight; it shows a
    multiset that is not Weyl-invariant.
    """
    weights = [tuple(w) for w in weights]
    _refuse_bad_weights(weights, datum.rank)
    zero = (0,) * datum.rank
    layers: list[dict[Weight, int]] = [{zero: 1}]
    # strings[j] holds m * sum_{k=1..n} e^{k w} * h_{n-k} for the j-th
    # distinct weight w and its multiplicity m, as unstraightened labels
    # lam + k w: from degree n - 1 to n it is shifted by w after m * h_{n-1}
    # is added, so each layer costs one shift per distinct weight, not one
    # per k, and m multiplies only the entries of h_{n-1}.
    counts = list(Counter(weights).items())
    strings: list[dict[Weight, int]] = [{} for _ in counts]
    # weight -> `_straighten` of it; a weight recurs across the weights and
    # the layers.
    straightened: dict[Weight, tuple[Weight, int]] = {}
    for n in range(1, truncation + 1):
        raw: dict[Weight, int] = {}
        for j, (w, m) in enumerate(counts):
            string = strings[j]
            for lam, c in layers[n - 1].items():
                string[lam] = string.get(lam, 0) + m * c
            string = strings[j] = {tuple(map(add, v, w)): c for v, c in string.items() if c}
            for v, c in string.items():
                raw[v] = raw.get(v, 0) + c
        total: dict[Weight, int] = {}
        for v, c in raw.items():
            hit = straightened.get(v)
            if hit is None:
                hit = straightened[v] = _straighten(datum, v)
            mu, sign = hit
            if sign:
                total[mu] = total.get(mu, 0) + sign * c
        layer = {}
        for mu, c in total.items():
            h, r = divmod(c, n)
            if r:
                raise ValueError(
                    f"highest weight {list(mu)} has multiplicity {c} in {n} * h_{n}, not divisible by {n}: "
                    "the weights are not Weyl-invariant"
                )
            if h:
                layer[mu] = h
        layers.append(layer)
    return layers


def _straighten(datum: RootDatum, v: Weight) -> tuple[Weight, int]:
    """(mu, sign) with V_v = sign * V_mu for the dominant mu in the dot orbit
    w.v = w(v + rho) - rho; sign 0 when v + rho lies on a wall.

    In Dynkin labels l: while some l_i < -1, the dot reflection
    s_i.v = v - (l_i + 1) alpha_i moves v up by a positive multiple of
    alpha_i and flips the sign; a label l_i = -1 means s_i fixes v, so the
    term cancels. The labels are updated by columns of the Cartan matrix,
    and v by the simple roots once at the end.
    """
    labels = [sum(map(mul, v, coroot)) for coroot in datum.simple_coroots]
    up = [0] * datum.nsimple
    sign = 1
    while True:
        low = min(labels, default=0)
        if low >= 0:
            break
        if -1 in labels:
            return v, 0
        i = labels.index(low)
        m = -1 - low
        up[i] += m
        labels = [l + m * row[i] for l, row in zip(labels, datum.cartan_matrix)]
        sign = -sign
    for m, alpha in zip(up, datum.simple_roots):
        if m:
            v = tuple([a + m * b for a, b in zip(v, alpha)])
    return v, sign


class IrrepSeries(_Series):
    """Truncated q-series whose layers are multiplicity maps on dominant
    highest-weight labels."""

    __slots__ = ()
    key = "highest_weight"

    def __repr__(self) -> str:
        parts = []
        for n in range(self.truncation + 1):
            for w, c in sorted(self.layers[n].items()):
                parts.append(f"{c}*tau{list(w)}q^{n}")
        return " + ".join(parts) if parts else "0"
