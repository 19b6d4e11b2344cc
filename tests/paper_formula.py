"""The paper's product formula for C[N_theta], kept on the test side: the
G-torus character of C[N] restricted to the K-torus, times the signed
exterior class of k. The library computes the same character in the
Kostant-Rallis form S(p) * prod_i (1 - q^{d_i}) (`theta_cone_character`);
the two agree by the Koszul identity S(k) * Lambda(k) = 1. The torus
character of C[N] it restricts is Kostant's closed form, here on the torus;
the library computes the same form on highest-weight labels
(`nilcone_series`). Every product here is one `tuple_product` on weight
tuples: the reference route that the library's products on packed weights
are held to."""

from functools import reduce
from operator import add

from nilchar.charring import GradedCharacter
from nilchar.ktheta import RealFormConfig
from nilchar.rootdata import RootDatum, Weight, int_vector, mat_apply, wneg


def tuple_product(a, b) -> list[dict[Weight, int]]:
    """Cauchy product of two lists of layers (layer n the multiplicity map of
    q-degree n, keyed by weight tuples), truncated to the shorter, with zero
    multiplicities dropped. A torus character is a list of one layer."""
    top = min(len(a), len(b))
    out = [{} for _ in range(top)]
    for i, ai in enumerate(a[:top]):
        for j, bj in enumerate(b[: top - i]):
            layer = out[i + j]
            for w1, c1 in ai.items():
                for w2, c2 in bj.items():
                    key = tuple(map(add, w1, w2))
                    layer[key] = layer.get(key, 0) + c1 * c2
    return [{w: c for w, c in layer.items() if c} for layer in out]


def symmetric_layers(weights, truncation: int, rank: int) -> list[dict[Weight, int]]:
    """S(weights) through `truncation`: the product over weights w of
    sum_k e^{k w} q^k."""
    factors = ([{tuple(k * v for v in w): 1} for k in range(truncation + 1)] for w in weights)
    return reduce(tuple_product, factors, [{(0,) * rank: 1}] + [{}] * truncation)


def exterior_layers(weights, truncation: int, rank: int) -> list[dict[Weight, int]]:
    """The signed exterior class through `truncation`: the product over
    weights w of (1 - e^w q)."""
    zero = (0,) * rank
    factors = ([{zero: 1}, {tuple(w): -1}] + [{}] * truncation for w in weights)
    return reduce(tuple_product, factors, [{zero: 1}] + [{}] * truncation)


def nilcone_character(datum: RootDatum, truncation: int) -> GradedCharacter:
    """Torus character of the graded cone functions, by the harmonic closed
    form: S(roots) * prod over exponents e of (1 + q + ... + q^e)."""
    roots = datum.positive_roots + tuple(wneg(r) for r in datum.positive_roots)
    out = symmetric_layers(roots, truncation, datum.rank)
    zero = (0,) * datum.rank
    for e in datum.exponents:
        out = tuple_product(out, [{zero: 1}] * (e + 1) + [{}] * truncation)
    return GradedCharacter(datum.rank, truncation, out)


def restrict_character(ch: dict[Weight, int], rmatrix) -> dict[Weight, int]:
    """Push a character (weight -> multiplicity) forward along an integer
    lattice map (rows index the target coordinates); colliding weights add,
    and zero multiplicities are dropped."""
    rows = tuple(int_vector(row, f"rmatrix[{i}]") for i, row in enumerate(rmatrix))
    out: dict[Weight, int] = {}
    for w, c in ch.items():
        for row in rows:
            if len(row) != len(w):
                raise ValueError(f"restriction matrix expects source rank {len(row)}, weight {w} has rank {len(w)}")
        key = mat_apply(rows, w)
        out[key] = out.get(key, 0) + c
    return {w: c for w, c in out.items() if c}


def restrict_graded(gc: GradedCharacter, rmatrix) -> GradedCharacter:
    """`restrict_character` applied to every layer."""
    rows = tuple(tuple(int(v) for v in row) for row in rmatrix)
    layers = [restrict_character(layer, rows) for layer in gc.layers]
    return GradedCharacter(len(rows), gc.truncation, layers)


def restrict_times_wedge(config: RealFormConfig, truncation: int) -> GradedCharacter:
    restricted = restrict_graded(nilcone_character(config.g_datum, truncation), config.restriction)
    wedge = exterior_layers(config.k_weights, truncation, config.k_torus_rank)
    return GradedCharacter(config.k_torus_rank, truncation, tuple_product(restricted.layers, wedge))
