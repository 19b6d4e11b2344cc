"""The paper's product formula for C[N_theta], kept on the test side: the
G-torus character of C[N] restricted to the K-torus, times the signed
exterior class of k. The library computes the same character in the
Kostant-Rallis form S(p) * prod_i (1 - q^{d_i}) (`theta_cone_character`);
the two agree by the Koszul identity S(k) * Lambda(k) = 1. The torus
character of C[N] it restricts is Kostant's closed form, here on the torus;
the library computes the same form on highest-weight labels
(`nilcone_series`)."""

from nilchar.charring import GradedCharacter, TorusCharacter, graded_mul, symmetric_series
from nilchar.ktheta import RealFormConfig, wedge_class
from nilchar.rootdata import RootDatum, Weight, int_vector, mat_apply, wneg


def nilcone_character(datum: RootDatum, truncation: int) -> GradedCharacter:
    """Torus character of the graded cone functions, by the harmonic closed
    form: S(roots) * prod over exponents e of (1 + q + ... + q^e)."""
    roots = datum.positive_roots + tuple(wneg(r) for r in datum.positive_roots)
    out = GradedCharacter(datum.rank, truncation, symmetric_series(roots, truncation, rank=datum.rank))
    zero = (0,) * datum.rank
    for e in datum.exponents:
        out = graded_mul(out, GradedCharacter(datum.rank, truncation, [{zero: 1}] * (e + 1)))
    return out


def restrict_character(ch: TorusCharacter, rmatrix) -> TorusCharacter:
    """Push a character forward along an integer lattice map (rows index the
    target coordinates); colliding weights add."""
    rows = tuple(int_vector(row, f"rmatrix[{i}]") for i, row in enumerate(rmatrix))
    for row in rows:
        if len(row) != ch.rank:
            raise ValueError(
                f"restriction matrix expects source rank {len(row)}, character has rank {ch.rank}"
            )
    out: dict[Weight, int] = {}
    for w, c in ch.terms.items():
        key = mat_apply(rows, w)
        out[key] = out.get(key, 0) + c
    return TorusCharacter(len(rows), out)


def restrict_graded(gc: GradedCharacter, rmatrix) -> GradedCharacter:
    """`restrict_character` applied to every layer."""
    rows = tuple(tuple(int(v) for v in row) for row in rmatrix)
    layers = [restrict_character(gc.layer(n), rows).terms for n in range(gc.truncation + 1)]
    return GradedCharacter(len(rows), gc.truncation, layers)


def restrict_times_wedge(config: RealFormConfig, truncation: int) -> GradedCharacter:
    restricted = restrict_graded(nilcone_character(config.g_datum, truncation), config.restriction)
    return graded_mul(restricted, wedge_class(config.k_weights, truncation, rank=config.k_torus_rank))
