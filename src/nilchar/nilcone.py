"""Graded functions on the nilpotent cone, by highest weight and degree.

`nilcone_series` is Kostant's harmonic closed form (Amer. J. Math. 85,
1963): ch_q C[N] = ch_q S(g*) * prod_i (1 - q^{d_i}). The rank zero weights
of g* give 1 / (1 - q)^rank, and grouping them with the invariant degrees
d_i = e_i + 1 leaves prod_i (1 + q + ... + q^{e_i}) over the exponents;
central torus directions have d = 1 and cancel exactly. So C[N] is the
symmetric algebra on the roots times those q-strings. The symmetric algebra
is computed on highest-weight labels (`charring.symmetric_irreps`: Newton's
identity, each product by Brauer-Klimyk), with no Weyl group, no partition
function and no torus character; the q-strings only add layers. It is the
C[N] of both `cn` and `branching`.

`lusztig_series` is the independent check, which `lusztig_check` holds
against `nilcone_series` label by label. Its degree-n layer assigns to each
dominant root-lattice weight the q^n coefficient of its q-analog
multiplicity against the zero weight. Only weights expressible as sums of
at most n positive roots can contribute at degree n, which bounds the
enumeration domain by height. The scan builds one
`kostant.LusztigSum` (one partition table, cut at q^n) and spends one
lattice solve and one pruned Weyl-orbit walk per scanned weight.
"""

from .charring import IrrepSeries, symmetric_irreps
from .ktheta import CheckResult
from .rootdata import RootDatum, dominant_weights_up_to_height, wneg


def lusztig_series(datum: RootDatum, truncation: int) -> IrrepSeries:
    """Highest-weight decomposition of the graded cone functions, by degree,
    from Lusztig's q-analogs M_q(lam, 0) of every dominant root-lattice
    weight that can contribute a q-power <= truncation: the independent
    check on `nilcone_series`."""
    from .kostant import LusztigSum  # here, so that `cn` never loads the partition kernel

    height_bound = truncation * datum.max_root_height
    # One table for the whole scan: for dominant lam, every argument
    # w(lam + rho) - rho of the Weyl-group sum lies below lam, so its height
    # is at most ht(lam) <= height_bound.
    lusztig = LusztigSum(datum, height_bound, truncation)
    zero = (0,) * datum.rank
    layers: list[dict] = [dict() for _ in range(truncation + 1)]
    for lam in dominant_weights_up_to_height(datum, height_bound):
        for deg, coeff in enumerate(lusztig.coeffs(lam, zero)):
            layers[deg][lam] = coeff
    return IrrepSeries(datum.rank, truncation, layers)


def nilcone_series(datum: RootDatum, truncation: int) -> IrrepSeries:
    """Highest-weight decomposition of the graded cone functions, by degree,
    from the harmonic closed form on labels: S(roots) by
    `symmetric_irreps`, times prod over exponents e of (1 + q + ... + q^e)."""
    roots = datum.positive_roots + tuple(wneg(r) for r in datum.positive_roots)
    layers = symmetric_irreps(datum, roots, truncation)
    for e in datum.exponents:
        # Times 1 + q + ... + q^e, from the top down, so that each layer
        # below n still holds the factor's input when layer n reads it.
        for n in range(truncation, 0, -1):
            layer = layers[n]
            for j in range(max(n - e, 0), n):
                for lam, c in layers[j].items():
                    layer[lam] = layer.get(lam, 0) + c
    return IrrepSeries(datum.rank, truncation, layers)


def lusztig_check(datum: RootDatum, truncation: int) -> CheckResult:
    """Compare Lusztig's highest-weight series with the harmonic closed form,
    label by label. The two are independent: one is Lusztig's signed
    Weyl-group sum over the partition function (`lusztig_series`), the other
    Newton's identity on the roots with Brauer-Klimyk straightening
    (`nilcone_series`). Both describe the complex group alone, so no
    real-form hypothesis is needed. A closed-form coefficient that Newton's
    identity cannot divide fails the check, naming the weight."""
    lusztig = lusztig_series(datum, truncation)
    try:
        harmonic = nilcone_series(datum, truncation)
    except ValueError as exc:
        return CheckResult(False, (f"harmonic closed form fails: {exc}",))
    for n in range(truncation + 1):
        a, b = lusztig.layers[n], harmonic.layers[n]
        if a != b:
            lam = min(v for v in a.keys() | b.keys() if a.get(v, 0) != b.get(v, 0))
            return CheckResult(
                False,
                (
                    f"Lusztig series and harmonic closed form differ first at degree {n}: "
                    f"highest weight {list(lam)} has multiplicity {a.get(lam, 0)} vs {b.get(lam, 0)}",
                ),
            )
    return CheckResult(
        True, (f"Lusztig expansion equals the harmonic closed form through degree {truncation}",)
    )
