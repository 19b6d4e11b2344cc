"""Standard-module sums that only the tests read: bookkeeping on
`FormalStandardSum`, tensoring a parameter by a finite character, and the
Zuckerman expansion of the trivial representation, which the degree-0 part
of `graded_branching_sum` is held to."""

from nilchar.langlands import ContinuedParameter, FormalStandardSum, WeightMultiset
from nilchar.rootdata import wadd


def mass_by_degree(total: FormalStandardSum) -> dict[int, int]:
    """Sum of the coefficients in each q-power."""
    out: dict[int, int] = {}
    for (_, q), c in total.terms.items():
        out[q] = out.get(q, 0) + c
    return out


def tensor_standard(param: ContinuedParameter, s: WeightMultiset) -> FormalStandardSum:
    """Tensoring a standard-module class by a finite character: one shifted
    parameter per multiset entry."""
    for w in s.entries:
        if len(w) != len(param.gamma0):
            raise ValueError("multiset weights do not live on the parameter's lattice")
    return FormalStandardSum(
        (m, ContinuedParameter(param.torus, wadd(param.gamma0, w), param.rho_imaginary, param.positive_system), 0)
        for w, m in s.items()
    )


def zuckerman_expansion(tori) -> FormalStandardSum:
    """The trivial representation as a signed sum of standard classes over
    the supplied torus table."""
    tori = list(tori)
    if not tori:
        raise ValueError("the torus table is empty")
    terms = []
    for torus in tori:
        rank = torus.theta.rank
        for ps in torus.positive_systems:
            sign = -1 if ps.ell % 2 else 1
            terms.append((sign, ContinuedParameter(torus.label, (0,) * rank, True, ps.id), 0))
    return FormalStandardSum(terms)
