"""The oracle's quotient layers by the plain tuple route, the reference that
the packed-integer route in `nilchar.oracle` is held to: every degree's
monomials enumerated afresh as exponent tuples, in lex or revlex order, each
weight computed from scratch, and one block per degree or one per weight.
The elimination is the library's own `_insert_row`, so a revlex run shows
that the rank does not depend on the library's lex order."""

import itertools
from collections import Counter
from operator import add

from nilchar.config import AffineConeModel
from nilchar.oracle import _insert_row


def _monomials(nvars: int, degree: int, order: str = "lex"):
    """Exponent vectors of total degree `degree`, in a deterministic order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for head in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in head:
            exps[i] += 1
        out.append(tuple(exps))
    if order == "lex":
        out.sort()
    elif order == "revlex":
        out.sort(reverse=True)
    else:
        raise ValueError(f"unknown monomial order {order!r}")
    return out


def reference_layers(model: AffineConeModel, truncation: int, order: str = "lex", split: bool = True) -> list[dict]:
    """Dimension of each block of each degree slice of the quotient ring.

    With `split` the blocks are the weights; without it each degree is one
    block keyed `()`. The model's generators are integral and homogeneous,
    as `AffineConeModel` builds them."""
    nvars = len(model.variables)
    weight = model.monomial_weight if split else (lambda m: ())
    gens = [(model.generator_degree(g), weight(next(iter(g))), g.items()) for g in model.generators]
    graded = []  # graded[d]: the degree-d monomials in order, each with its block
    layers = []
    for n in range(truncation + 1):
        graded.append([(m, weight(m)) for m in _monomials(nvars, n, order)])
        index = {m: i for i, (m, _) in enumerate(graded[n])}
        sizes = Counter(w for _, w in graded[n])
        pivots: dict = {w: {} for w in sizes}
        for dg, gw, terms in gens:
            if dg > n:
                continue
            for m, w in graded[n - dg]:
                row = {index[tuple(map(add, m, exps))]: c for exps, c in terms}
                _insert_row(pivots[tuple(map(add, w, gw))], row)
        layers.append({w: size - len(pivots[w]) for w, size in sizes.items() if size > len(pivots[w])})
    return layers


def hilbert_by_degree(model: AffineConeModel, truncation: int, order: str = "lex") -> list[int]:
    """Dimension of each degree slice of the quotient ring, on unsplit
    matrices."""
    return [layer.get((), 0) for layer in reference_layers(model, truncation, order, split=False)]
