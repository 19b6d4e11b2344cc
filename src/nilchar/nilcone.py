"""Graded character of the ring of functions on the nilpotent cone.

`nilcone_character` is Kostant's harmonic closed form (Amer. J. Math. 85,
1963): ch_q C[N] = ch_q S(g*) * prod_i (1 - q^{d_i}). The rank zero weights
of g* give 1 / (1 - q)^rank, and grouping them with the invariant degrees
d_i = e_i + 1 leaves prod_i (1 + q + ... + q^{e_i}) over the exponents;
central torus directions have d = 1 and cancel exactly. So the character is
the symmetric algebra on the roots times those q-strings, in integer
arithmetic that never subtracts.

`nilcone_series` is the highest-weight decomposition: the degree-n layer
assigns to each dominant root-lattice weight the q^n coefficient of its
q-analog multiplicity against the zero weight. Only weights expressible as
sums of at most n positive roots can contribute at degree n, which bounds the
enumeration domain by height. Expanded through irreducible characters it is
an independent route to `nilcone_character` (`ktheta.lusztig_check`).
"""

from __future__ import annotations

from .charring import GradedCharacter, IrrepSeries, graded_mul, symmetric_series
from .kostant import lusztig_mq, warm_partition_table
from .rootdata import RootDatum, dominant_weights_up_to_height, wneg


def contributor_polynomials(datum: RootDatum, truncation: int):
    """(lam, M_q(lam, 0) truncated) for every dominant root-lattice weight
    that can contribute a q-power <= truncation."""
    height_bound = truncation * datum.max_root_height
    if datum.nsimple:
        # One table for the whole scan: for dominant lam, every argument
        # w(lam + rho) - rho of the Weyl-group sum lies below lam, so its
        # height is at most ht(lam) <= height_bound.
        warm_partition_table(datum, height_bound, truncation)
    zero = (0,) * datum.rank
    out = []
    for lam in dominant_weights_up_to_height(datum, height_bound):
        mq = lusztig_mq(datum, lam, zero, truncation)
        if mq:
            out.append((lam, mq))
    return out


def nilcone_series(datum: RootDatum, truncation: int) -> IrrepSeries:
    """Highest-weight decomposition of the graded cone functions, by degree."""
    layers: list[dict] = [dict() for _ in range(truncation + 1)]
    for lam, mq in contributor_polynomials(datum, truncation):
        height = datum.height(lam)
        for deg, coeff in mq.items():
            assert height <= deg * max(datum.max_root_height, 1)
            layers[deg][lam] = coeff
    return IrrepSeries(datum.rank, truncation, layers)


def nilcone_character(datum: RootDatum, truncation: int) -> GradedCharacter:
    """Torus character of the graded cone functions, by the harmonic closed
    form: S(roots) * prod over exponents e of (1 + q + ... + q^e)."""
    roots = datum.positive_roots + tuple(wneg(r) for r in datum.positive_roots)
    out = symmetric_series(roots, truncation, rank=datum.rank)
    zero = (0,) * datum.rank
    for e in datum.exponents:
        out = graded_mul(out, GradedCharacter(datum.rank, truncation, [{zero: 1}] * (e + 1)))
    return out
