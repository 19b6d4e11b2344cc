"""Graded characters of the nilpotent cones in the Kostant form and its
Kostant-Rallis analogue: both are a symmetric algebra times one factor per
invariant degree of G.

Kostant's closed form (Amer. J. Math. 85, 1963) is ch_q C[N] = S(g) *
prod_i (1 - q^{d_i}), with d_i = e_i + 1 over the exponents and d = 1 for
each central torus direction. `nilcone_series` computes it on
highest-weight labels by the same two calls as the K side below: S(g) by
`charring.symmetric_irreps` (Newton's identity, each product by
Brauer-Klimyk), then `times_invariant_factors`, with no Weyl group, no
partition function and no torus character. Its independent check is
Lusztig's series (`kernels.lusztig_check`).

For a real form split modulo center, the paper computes the graded
K-character of functions on the theta-fixed part N_theta of the nilpotent
cone as the restriction of the full cone character times the signed graded
exterior algebra of k. Since S(k) * Lambda(k) = 1 (the Koszul identity),
that product equals

    ch_q C[N_theta] = S(p) * prod_i (1 - q^{d_i}),

the Kostant-Rallis description of N_theta as the zero fibre of p -> p//K
(Amer. J. Math. 93, 1971). This module computes the right-hand side with
the invariant degrees d_i of G, in two forms: on the K-torus, on packed
weights (`theta_cone_character`), and on K's highest-weight labels
(`theta_cone_ktypes`: S(p) by `symmetric_irreps`, as for C[N]). Every cone
takes its factors from the one loop `times_invariant_factors`. Every
product with an exterior class is packed too (`exterior_products`): the
Koszul identity S(k) * Lambda(k) = 1 and `langlands.graded_branching_sum`.
Alongside are the real form, whose involution decides the hypothesis, the
Iwasawa count that ties its k weights to the involution, and two checks:
the trivial K-type occurs in degree 0 only, and each torus layer read off
K's Weyl denominator (`labels_off_torus`) is that degree's K-types.
"""

from collections import Counter
from itertools import chain, islice

from .charring import (
    GradedCharacter, IrrepSeries, format_terms, packed_symmetric_series, symmetric_irreps, weight_codec,
)
from .rootdata import InvolutionData, Record, RootDatum, Weight, classify_roots, int_vector, mat_apply, wneg, wsub


class SplitHypothesisError(ValueError):
    """Raised when a computation is only valid for forms split modulo center."""


class CheckResult(Record):
    __slots__ = ("passed", "lines")

    passed: bool
    lines: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.passed


class RealFormConfig(Record):
    """The (G, K) package: ambient root datum, the involution theta on a
    maximally split Cartan, torus-level restriction to K, the weights of k,
    and K's root datum when known.

    `k_weights` is kept sorted, as a multiset; None derives them from
    `k_datum`. Four fields are derived: `k_torus_rank`, the number of rows
    of `restriction`; `p_weights`, the adjoint weights of G under
    `restriction` less the k weights, as a sorted multiset; `rank_split`,
    the dimension of a, rank less the rank fixed by theta; and
    `split_mod_center`, whether theta is -1 on the whole lattice
    (`rank_split` is the rank), which also puts any centre in p. So dim k and
    dim p are the numbers of k and p weights, and dim g = 2|Phi+| + rank is
    their sum (`dimension_check`). Every invalid (G, theta, K) is refused
    here, with a ValueError that begins with the document field at fault:
    a theta with a noncompact imaginary root, so not on a maximally split
    Cartan; k weights that g's restricted weights do not cover, or other
    than the adjoint weights of `k_datum`; p weights that K's Weyl group
    does not preserve."""

    __slots__ = ("label", "g_datum", "involution", "restriction", "k_weights", "k_datum",
                 "k_torus_rank", "p_weights", "rank_split", "split_mod_center")
    _derived = ("k_torus_rank", "p_weights", "rank_split", "split_mod_center")

    label: str
    g_datum: RootDatum
    involution: InvolutionData
    restriction: tuple[tuple[int, ...], ...]
    k_weights: tuple[Weight, ...]
    k_datum: RootDatum | None
    k_torus_rank: int
    p_weights: tuple[Weight, ...]
    rank_split: int
    split_mod_center: bool

    def __post_init__(self):
        rank = self.g_datum.rank
        if self.involution.rank != rank:
            raise ValueError(f"involution: must be a {rank} x {rank} matrix")
        try:
            noncompact = classify_roots(self.g_datum, self.involution).imaginary_noncompact
        except ValueError as exc:
            raise ValueError(f"involution: {exc}") from None
        if noncompact:
            raise ValueError(
                f"involution: root {list(noncompact[0])} is noncompact imaginary, so the involution is not on a "
                "maximally split Cartan (mark it in involution.compact_roots if it is compact)"
            )
        object.__setattr__(self, "rank_split", rank - self.involution.fixed_rank())
        object.__setattr__(self, "split_mod_center", self.rank_split == rank)
        rows = tuple(int_vector(row, f"k.restriction[{i}]") for i, row in enumerate(self.restriction))
        object.__setattr__(self, "restriction", rows)
        object.__setattr__(self, "k_torus_rank", len(rows))
        if any(len(r) != rank for r in rows):
            raise ValueError(f"k.restriction: must be a {len(rows)} x {rank} integer matrix")
        if self.k_datum is not None and self.k_datum.rank != len(rows):
            raise ValueError(
                f"k.datum: rank {self.k_datum.rank} is not the K-torus rank {len(rows)}, the rows of k.restriction"
            )
        adjoint = None if self.k_datum is None else tuple(sorted(self.k_datum.adjoint_weights))
        if self.k_weights is None and adjoint is None:
            raise ValueError("k.weights: missing, and there is no k.datum to derive them from")
        if self.k_weights is None:  # derived, so a weight that g does not cover shows a wrong restriction
            kw, field = adjoint, "k.restriction"
        else:
            field = "k.weights"
            kw = tuple(sorted(int_vector(w, f"{field}[{i}]") for i, w in enumerate(self.k_weights)))
            if any(len(w) != len(rows) for w in kw):
                raise ValueError("k.weights: must live on the K-torus lattice")
            if Counter(kw) != Counter(map(wneg, kw)):
                raise ValueError("k.weights: must be symmetric under negation")
            if adjoint is not None and kw != adjoint:
                raise ValueError(f"k.datum: its adjoint weights {list(adjoint)} are not the k weights {list(kw)}")
        object.__setattr__(self, "k_weights", kw)
        object.__setattr__(self, "p_weights", _p_weights(self.g_datum, rows, kw, field))
        if self.k_datum is not None:
            # p is a K-module: its weights are invariant under every simple
            # reflection of K, as `theta_cone_ktypes` needs.
            p = Counter(self.p_weights)
            for i in range(self.k_datum.nsimple):
                if Counter(self.k_datum.reflect(i, w) for w in self.p_weights) != p:
                    raise ValueError(
                        f"k.datum: the p weights {sorted(p)} are not invariant under its simple reflection {i}, "
                        "so p is not a K-module"
                    )


def _p_weights(g_datum: RootDatum, restriction, k_weights, field: str) -> tuple[Weight, ...]:
    """The restricted adjoint weights of G less the weights of k, as a sorted
    multiset; a k weight they do not cover is a ValueError naming `field`."""
    counts = Counter(mat_apply(restriction, w) for w in g_datum.adjoint_weights)
    for w, c in sorted(Counter(k_weights).items()):
        if c > counts.get(w, 0):
            raise ValueError(
                f"{field}: weight {list(w)} occurs {c} times in k but "
                f"{counts.get(w, 0)} times in the restricted weights of g, so p would "
                "have a negative multiplicity"
            )
        counts[w] -= c
    return tuple(w for w, c in sorted(counts.items()) for _ in range(c))


def exterior_products(weights, exteriors, truncation: int, rank: int) -> list[list[dict[Weight, int]]]:
    """For each weight multiset b in `exteriors`, the torus layers of
    S(weights) times the signed exterior class of b. One `weight_codec` is
    built on every weight the products add, `weights` and each b, so no
    coordinate of a degree-n sum exceeds its bound; S(weights) is taken
    once, and each class multiplies a copy of it (`times_exterior`)."""
    packed, unpack = weight_codec([*weights, *chain.from_iterable(exteriors)], truncation, rank)
    ints = iter(packed)
    base = packed_symmetric_series(list(islice(ints, len(weights))), truncation)
    return [unpack(times_exterior(list(islice(ints, len(b))), [dict(layer) for layer in base])) for b in exteriors]


def koszul_check(k_weights, truncation: int, rank: int) -> CheckResult:
    """Verify that functions on k* times the signed exterior class of k is the
    trivial class through the given degree (`exterior_products`)."""
    product = exterior_products(k_weights, [k_weights], truncation, rank)[0]
    trivial = [{(0,) * rank: 1}] + [{}] * truncation
    for n, (got, expected) in enumerate(zip(product, trivial)):
        if got != expected:
            got, expected = format_terms(got), format_terms(expected)
            return CheckResult(False, (f"Koszul identity fails first at degree {n}: got {got}, expected {expected}",))
    return CheckResult(True, (f"Koszul identity holds through degree {truncation}",))


def theta_cone_character(config: RealFormConfig, truncation: int, force: bool = False) -> GradedCharacter:
    """Graded K-torus character of functions on the K-nilpotent cone, in the
    Kostant-Rallis form S(p) * prod_i (1 - q^{d_i}): the symmetric algebra on
    the p weights times one factor per invariant degree of G, on packed
    weights (`charring.packed_symmetric_series`), unpacked once at the end.
    By the Koszul identity this equals the paper's restriction of C[N] times
    the signed exterior class of k; it never builds the G-torus character."""
    require_split(config, force)
    rank = config.k_torus_rank
    packed, unpack = weight_codec(config.p_weights, truncation, rank)
    layers = times_invariant_factors(config.g_datum, packed_symmetric_series(packed, truncation))
    return GradedCharacter(rank, truncation, unpack(layers))


def theta_cone_ktypes(config: RealFormConfig, truncation: int, force: bool = False) -> IrrepSeries:
    """The same Kostant-Rallis form on K-irreducible labels: S(p) by
    `symmetric_irreps` on the K root datum (p is a K-module, so its weights
    are invariant under the Weyl group of K), times the same factors;
    requires the K root datum. No torus character is built."""
    if config.k_datum is None:
        raise ValueError(f"config {config.label!r} carries no K root datum")
    require_split(config, force)
    layers = symmetric_irreps(config.k_datum, config.p_weights, truncation)
    return IrrepSeries(config.k_datum.rank, truncation, times_invariant_factors(config.g_datum, layers))


def nilcone_series(datum: RootDatum, truncation: int) -> IrrepSeries:
    """Highest-weight decomposition of the graded cone functions, by degree,
    in Kostant's form S(g) * prod_i (1 - q^{d_i}) on labels: the two calls
    of `theta_cone_ktypes`, with g's weights and G in place of p and K."""
    layers = symmetric_irreps(datum, datum.adjoint_weights, truncation)
    return IrrepSeries(datum.rank, truncation, times_invariant_factors(datum, layers))


def k_invariant_check(ktypes: IrrepSeries) -> CheckResult:
    """The trivial K-type occurs in C[N_theta] in degree 0 only, once.

    K has finitely many orbits on N_theta, each with 0 in its closure
    (Kostant-Rallis), so a K-invariant function on N_theta is constant;
    equivalently S(p)^K is a polynomial ring with generators in the degrees
    d_i. The product formula does not make this true: the check holds the
    invariant degrees of G against p, on K's labels: `ktypes` is
    `theta_cone_ktypes`."""
    zero = (0,) * ktypes.rank
    for n, layer in enumerate(ktypes.layers):
        m = layer.get(zero, 0)
        if m != (n == 0):
            return CheckResult(
                False, (f"trivial K-type has multiplicity {m} in degree {n}, expected {int(n == 0)}",)
            )
    return CheckResult(True, (f"trivial K-type occurs once, in degree 0, through degree {ktypes.truncation}",))


def labels_off_torus(datum: RootDatum, terms) -> dict[Weight, int]:
    """The highest-weight labels of a Weyl-invariant virtual torus character
    (weight -> multiplicity), read off the Weyl denominator: in ch(V_lam) *
    prod_{alpha>0} (1 - e^{-alpha}) = sum_w sign(w) e^{w(lam+rho)-rho} only
    w = 1 gives a dominant weight, so the multiplicity of V_lam is the
    coefficient of e^lam in the whole product, also where the character has
    no term. A character that a simple reflection does not preserve is a
    ValueError naming a weight where it is not."""
    for w, c in terms.items():
        if len(w) != datum.rank:
            raise ValueError(f"torus rank mismatch: weight {w} against rank {datum.rank}")
        for i in range(datum.nsimple):
            image = datum.reflect(i, w)
            if terms.get(image, 0) != c:
                raise ValueError(
                    f"character is not Weyl-invariant: e{list(w)} has multiplicity {c}, "
                    f"its image e{list(image)} under simple reflection {i} has {terms.get(image, 0)}"
                )
    acc = dict(terms)
    for alpha in datum.positive_roots:
        shifted = dict(acc)
        for w, c in acc.items():
            key = wsub(w, alpha)
            shifted[key] = shifted.get(key, 0) - c
        acc = {w: c for w, c in shifted.items() if c}
    return {w: c for w, c in acc.items() if c and datum.is_dominant(w)}


def ktypes_vs_torus_check(k_datum: RootDatum, ktypes: IrrepSeries, torus: GradedCharacter) -> CheckResult:
    """The K-types (`theta_cone_ktypes`, on K's labels) and the K-torus
    series (`theta_cone_character`, packed) are one character: each torus
    layer read off K's Weyl denominator (`labels_off_torus`) is that
    degree's K-types."""
    for n, (labels, layer) in enumerate(zip(ktypes.layers, torus.layers)):
        try:
            read = labels_off_torus(k_datum, layer)
        except ValueError as exc:
            return CheckResult(False, (f"degree {n}: the torus layer cannot be read as K-types: {exc}",))
        if read != labels:
            line = f"degree {n}: K-types {format_terms(labels)}, but the torus layer reads {format_terms(read)}"
            return CheckResult(False, (line,))
    line = f"K-types equal the torus series read off K's Weyl denominator through degree {ktypes.truncation}"
    return CheckResult(True, (line,))


def require_split(config: RealFormConfig, force: bool) -> None:
    """Refuse a config that is not split modulo center, unless `force`."""
    if not config.split_mod_center and not force:
        raise SplitHypothesisError(
            f"config {config.label!r} is not split modulo center; the product formula is proved only under that "
            "hypothesis (pass --force where the command takes it, or force=True, to compute it anyway)"
        )


def times_invariant_factors(g: RootDatum, layers: list[dict]) -> list[dict]:
    """`layers` (torus weights, packed or not, or labels, each mapped to its
    multiplicity) times prod_i (1 - q^{d_i}) over the invariant degrees of G, in place:
    d_i = e_i + 1 over the exponents and d = 1 for each central direction."""
    truncation = len(layers) - 1
    degrees = [e + 1 for e in g.exponents] + [1] * (g.rank - len(g.exponents))
    for d in degrees:
        # From the top down, so that layer n - d still holds the factor's
        # input when layer n subtracts it.
        for n in range(truncation, d - 1, -1):
            layer = layers[n]
            for w, c in layers[n - d].items():
                layer[w] = layer.get(w, 0) - c
    return layers


def times_exterior(packed, layers: list[dict[int, int]]) -> list[dict[int, int]]:
    """`layers` (keyed by the ints of `charring.weight_codec`) times the
    signed exterior class of the packed weights, the product over them of
    (1 - e^w q), in place; the library's one loop for the exterior algebra."""
    truncation = len(layers) - 1
    for w in packed:
        # From the top down, so that layer n - 1 still holds the factor's
        # input when layer n subtracts it.
        for n in range(truncation, 0, -1):
            layer = layers[n]
            for v, c in layers[n - 1].items():
                key = v + w
                layer[key] = layer.get(key, 0) - c
    return layers


def dimension_check(config: RealFormConfig) -> CheckResult:
    """The Iwasawa count g = k + a + n of a form split modulo center, from
    the weights: dim k and dim p are their numbers, dim g = 2|Phi+| + rank
    is their sum, and dim a is `rank_split`, derived from the involution.
    So the count holds exactly when dim p = dim k + `rank_split`, which
    ties the k weights to the involution. It is skipped for a form that is
    not split modulo center."""
    if not config.split_mod_center:
        return CheckResult(True, ("skip: Iwasawa count (config is not split modulo center)",))
    dim_k, dim_p = len(config.k_weights), len(config.p_weights)
    dim_g = dim_k + dim_p
    rank = config.rank_split
    nil, odd = divmod(dim_g - rank, 2)
    iwasawa = not odd and dim_g == dim_k + rank + nil
    line = (f"{'ok' if iwasawa else 'FAIL'}: Iwasawa count dim g = dim k + rank + dim n  "
            f"({dim_g} vs {dim_k} + {rank} + {nil})")
    return CheckResult(iwasawa, (line,))
