"""Standard-module sums that only the tests read: bookkeeping on
`FormalStandardSum`, tensoring a parameter by a finite character, the
Zuckerman expansion of the trivial representation, which the degree-0 part
of `graded_branching_sum` is held to, and the branching sum by its
quintuple sum over (torus, positive system, highest weight, weight,
sub-multiset of the k weights), which the library's one graded product per
torus is held to, with the highest weights of C[N] from either of its two
label routes (`nilcone_series` or `lusztig_series`), each expanded by
Demazure's formula."""

from nilchar.charring import TorusCharacter, irreducible_character
from nilchar.langlands import ContinuedParameter, FormalStandardSum, k_weight_multiset
from nilchar.rootdata import Weight, wadd


def mass_by_degree(total: FormalStandardSum) -> dict[int, int]:
    """Sum of the coefficients in each q-power."""
    out: dict[int, int] = {}
    for (_, q), c in total.terms.items():
        out[q] = out.get(q, 0) + c
    return out


def tensor_standard(param: ContinuedParameter, ch: TorusCharacter) -> FormalStandardSum:
    """Tensoring a standard-module class by a finite character: one shifted
    parameter per weight, with its multiplicity."""
    if ch.rank != len(param.gamma0):
        raise ValueError("character weights do not live on the parameter's lattice")
    return FormalStandardSum(
        (m, ContinuedParameter(param.torus, wadd(param.gamma0, w), param.positive_system), 0)
        for w, m in ch.items()
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
            terms.append((sign, ContinuedParameter(torus.label, (0,) * rank, ps.id), 0))
    return FormalStandardSum(terms)


def subset_sums(weights, n: int) -> dict[Weight, int]:
    """Sums over all size-n sub-multisets of `weights`, counted with
    multiplicity, by recursion over the distinct weights: the unsigned
    degree-n layer of the exterior algebra."""
    counts: dict[Weight, int] = {}
    for w in weights:
        counts[w] = counts.get(w, 0) + 1
    items = sorted(counts.items())
    acc: dict[Weight, int] = {}

    def rec(idx: int, left: int, weight: Weight, mult: int) -> None:
        if left == 0:
            acc[weight] = acc.get(weight, 0) + mult
            return
        if idx == len(items):
            return
        w, m = items[idx]
        c = 1
        for k in range(0, min(m, left) + 1):
            if k > 0:
                c = c * (m - k + 1) // k
            shifted = weight
            for _ in range(k):
                shifted = wadd(shifted, w)
            rec(idx + 1, left - k, shifted, mult * c)

    rank = len(items[0][0]) if items else 0
    rec(0, n, (0,) * rank, 1)
    return acc


def branching_reference(config, tori, truncation: int, cone_labels) -> FormalStandardSum:
    """The graded branching sum as the quintuple sum over (torus, positive
    system, highest weight of C[N], weight of its irreducible, sub-multiset
    of the k weights), truncated in total q-power. The highest weights come
    from `cone_labels(datum, truncation)`, an `IrrepSeries` of C[N], and each
    irreducible from `irreducible_character`. Every product term is added on
    its own; no graded product is taken."""
    datum = config.g_datum
    contributors = [
        (j, c, irreducible_character(datum, lam).items())
        for j, layer in enumerate(cone_labels(datum, truncation).layers)
        for lam, c in layer.items()
    ]
    terms = []
    for torus in tori:
        k_weights = k_weight_multiset(datum, torus, config.dims.dim_k)
        subs = [
            (n, (-1) ** n * mult, sigma)
            for n in range(min(len(k_weights), truncation) + 1)
            for sigma, mult in subset_sums(k_weights, n).items()
        ]
        for ps in torus.positive_systems:
            sign = (-1) ** ps.ell
            for j, c, weights in contributors:
                for n, mult, sigma in subs:
                    if j + n > truncation:
                        continue
                    for mu, m in weights:
                        param = ContinuedParameter(torus.label, wadd(mu, sigma), ps.id)
                        terms.append((sign * c * mult * m, param, j + n))
    return FormalStandardSum(terms)
