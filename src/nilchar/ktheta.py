"""Graded characters of the nilpotent cones in the Kostant form and its
Kostant-Rallis analogue: both are a symmetric algebra times one factor per
invariant degree of G.

Kostant's closed form (Amer. J. Math. 85, 1963) is ch_q C[N] = S(g) *
prod_i (1 - q^{d_i}). The rank zero weights of g give 1 / (1 - q)^rank, and
grouping them with the invariant degrees d_i = e_i + 1 leaves prod_i (1 + q
+ ... + q^{e_i}) over the exponents; central torus directions have d = 1
and cancel exactly. So C[N] is the symmetric algebra on the roots times
those q-strings, which `nilcone_series` computes on highest-weight labels
(`charring.symmetric_irreps`: Newton's identity, each product by
Brauer-Klimyk), with no Weyl group, no partition function and no torus
character; the q-strings only add layers. Its independent check is
Lusztig's series (`kernels.lusztig_check`).

For a real form split modulo center, the paper computes the graded
K-character of functions on the theta-fixed part N_theta of the nilpotent
cone as the restriction of the full cone character times the signed graded
exterior algebra of k. Since S(k) * Lambda(k) = 1 (the Koszul identity),
that product equals

    ch_q C[N_theta] = S(p) * prod_i (1 - q^{d_i}),

the Kostant-Rallis description of N_theta as the zero fibre of p -> p//K
(Amer. J. Math. 93, 1971). This module computes the right-hand side with
the invariant degrees d_i of G, in two forms that share one factor loop: on
the K-torus alone (`theta_cone_character`), and on K's highest-weight labels
(`theta_cone_ktypes`: S(p) by Newton's identity with Brauer-Klimyk
straightening, as for C[N]), which builds no torus character. The torus
form is `cone_torus_character`, which also gives C[N] on the torus of G
for `langlands.graded_branching_sum`. Alongside are the Koszul sanity
identity, the dimension bookkeeping that the hypothesis rests on, and the
check that the trivial K-type occurs in degree 0 only.
"""

from .charring import (
    GradedCharacter,
    IrrepSeries,
    graded_mul,
    packed_symmetric_series,
    symmetric_irreps,
    symmetric_series,
)
from .rootdata import InvolutionData, Record, RootDatum, Weight, classify_roots, int_vector, mat_apply, wneg


class SplitHypothesisError(ValueError):
    """Raised when a computation is only valid for forms split modulo center."""


class CheckResult(Record):
    __slots__ = ("passed", "lines")

    passed: bool
    lines: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.passed


class Dims(Record):
    __slots__ = ("dim_g", "dim_k", "dim_p", "rank_split")

    dim_g: int
    dim_k: int
    dim_p: int
    rank_split: int


class RealFormConfig(Record):
    """The (G, theta, K) package: ambient root datum, involution, torus-level
    restriction to K, the weights of k, and the dimension table.

    `p_weights` is derived: the restricted weights of g (both signs of every
    root, and `rank` zero weights) less the weights of k, as multisets. A k
    weight that the restricted weights of g do not cover is refused, and so
    are k weights other than the adjoint weights of `k_datum` when given, and
    p weights that the Weyl group of `k_datum` does not preserve."""

    __slots__ = ("label", "g_datum", "involution", "k_torus_rank", "restriction", "k_weights", "dims",
                 "split_mod_center", "k_datum", "p_weights")
    _derived = ("p_weights",)

    label: str
    g_datum: RootDatum
    involution: InvolutionData
    k_torus_rank: int
    restriction: tuple[tuple[int, ...], ...]
    k_weights: tuple[Weight, ...]
    dims: Dims
    split_mod_center: bool
    k_datum: RootDatum | None
    p_weights: tuple[Weight, ...]

    def __post_init__(self):
        classify_roots(self.g_datum, self.involution)
        rows = tuple(int_vector(row, f"restriction[{i}]") for i, row in enumerate(self.restriction))
        object.__setattr__(self, "restriction", rows)
        if len(rows) != self.k_torus_rank or any(len(r) != self.g_datum.rank for r in rows):
            raise ValueError(
                f"restriction must be a {self.k_torus_rank} x {self.g_datum.rank} integer matrix"
            )
        kw = tuple(int_vector(w, f"k_weights[{i}]") for i, w in enumerate(self.k_weights))
        object.__setattr__(self, "k_weights", kw)
        if any(len(w) != self.k_torus_rank for w in kw):
            raise ValueError("k weights must live on the K-torus lattice")
        if len(kw) != self.dims.dim_k:
            raise ValueError(f"|k_weights| = {len(kw)} but dim k = {self.dims.dim_k}")
        if self.dims.dim_g != self.dims.dim_k + self.dims.dim_p:
            raise ValueError("dimension table violates dim g = dim k + dim p")
        if _multiset(kw) != _multiset(map(wneg, kw)):
            raise ValueError("k weights must be symmetric under negation")
        object.__setattr__(self, "p_weights", _p_weights(self.g_datum, rows, kw))
        if self.k_datum is not None:
            if self.k_datum.rank != self.k_torus_rank:
                raise ValueError("K root datum rank must equal the K-torus rank")
            roots = self.k_datum.positive_roots
            zeros = [(0,) * self.k_torus_rank] * self.k_torus_rank
            adjoint = list(roots) + [wneg(r) for r in roots] + zeros
            if _multiset(kw) != _multiset(adjoint):
                raise ValueError(
                    f"k.datum: its adjoint weights {sorted(adjoint)} are not the k weights {sorted(kw)}"
                )
            # p is a K-module: its weights are invariant under every simple
            # reflection of K, as `theta_cone_ktypes` needs.
            p = _multiset(self.p_weights)
            for i in range(self.k_datum.nsimple):
                if _multiset(self.k_datum.reflect(i, w) for w in self.p_weights) != p:
                    raise ValueError(
                        f"k.datum: the p weights {sorted(p)} are not invariant under its simple reflection {i}, "
                        "so p is not a K-module"
                    )


def _multiset(items):
    out: dict = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


def _p_weights(g_datum: RootDatum, restriction, k_weights) -> tuple[Weight, ...]:
    """The restricted weights of g less the weights of k, as a sorted
    multiset; a k weight they do not cover is a ValueError naming k.weights."""
    roots = [mat_apply(restriction, r) for r in g_datum.positive_roots]
    zeros = [(0,) * len(restriction)] * g_datum.rank
    counts = _multiset(roots + [wneg(w) for w in roots] + zeros)
    for w, c in sorted(_multiset(k_weights).items()):
        if c > counts.get(w, 0):
            raise ValueError(
                f"k.weights: weight {list(w)} occurs {c} times in k but "
                f"{counts.get(w, 0)} times in the restricted weights of g, so p would "
                "have a negative multiplicity"
            )
        counts[w] -= c
    return tuple(w for w, c in sorted(counts.items()) for _ in range(c))


def wedge_class(k_weights, truncation: int, rank: int) -> GradedCharacter:
    """Signed graded exterior algebra of a weight multiset: the expansion of
    the product over weights w of (1 - e^w q). Layer n carries sign (-1)^n."""
    out = GradedCharacter.trivial(rank, truncation)
    for w in k_weights:
        out = graded_mul(out, GradedCharacter(rank, truncation, [{(0,) * rank: 1}, {tuple(w): -1}]))
    return out


def koszul_check(k_weights, truncation: int, rank: int) -> CheckResult:
    """Verify that functions on k* times the signed exterior class of k is the
    trivial class through the given degree."""
    layers = symmetric_series(k_weights, truncation, rank)
    product = graded_mul(GradedCharacter(rank, truncation, layers), wedge_class(k_weights, truncation, rank))
    trivial = GradedCharacter.trivial(rank, truncation)
    for n in range(truncation + 1):
        if product.layers[n] != trivial.layers[n]:
            return CheckResult(
                False,
                (
                    f"Koszul identity fails first at degree {n}: "
                    f"got {product.layer(n)!r}, expected {trivial.layer(n)!r}",
                ),
            )
    return CheckResult(True, (f"Koszul identity holds through degree {truncation}",))


def cone_torus_character(g: RootDatum, weights, truncation: int, rank: int) -> GradedCharacter:
    """Graded torus character of S(weights) * prod_i (1 - q^{d_i}) over the
    invariant degrees of G: the symmetric algebra on the weight multiset
    and the factors run on packed weights
    (`charring.packed_symmetric_series`), unpacked once at the end. On g's
    weights it is C[N] on the torus of G, on p's weights C[N_theta]."""
    layers, unpack = packed_symmetric_series(weights, truncation, rank)
    return GradedCharacter(rank, truncation, unpack(_times_invariant_factors(g, layers)))


def theta_cone_character(config: RealFormConfig, truncation: int, force: bool = False) -> GradedCharacter:
    """Graded K-torus character of functions on the K-nilpotent cone, in the
    Kostant-Rallis form S(p) * prod_i (1 - q^{d_i}): the symmetric algebra on
    the p weights times one factor per invariant degree of G
    (`cone_torus_character`). By the Koszul identity this equals the paper's
    restriction of C[N] times the signed exterior class of k; it never
    builds the G-torus character."""
    require_split(config, force)
    return cone_torus_character(config.g_datum, config.p_weights, truncation, config.k_torus_rank)


def theta_cone_ktypes(config: RealFormConfig, truncation: int, force: bool = False) -> IrrepSeries:
    """The same Kostant-Rallis form on K-irreducible labels: S(p) by
    `symmetric_irreps` on the K root datum (p is a K-module, so its weights
    are invariant under the Weyl group of K), times the same factors;
    requires the K root datum. No torus character is built."""
    if config.k_datum is None:
        raise ValueError(f"config {config.label!r} carries no K root datum")
    require_split(config, force)
    layers = symmetric_irreps(config.k_datum, config.p_weights, truncation)
    return IrrepSeries(config.k_datum.rank, truncation, _times_invariant_factors(config.g_datum, layers))


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


def k_invariant_check(config: RealFormConfig, truncation: int, force: bool) -> CheckResult:
    """The trivial K-type occurs in C[N_theta] in degree 0 only, once.

    K has finitely many orbits on N_theta, each with 0 in its closure
    (Kostant-Rallis), so a K-invariant function on N_theta is constant;
    equivalently S(p)^K is a polynomial ring with generators in the degrees
    d_i. The product formula does not make this true: the check holds the
    invariant degrees of G against p, on K's labels (`theta_cone_ktypes`)."""
    series = theta_cone_ktypes(config, truncation, force)
    zero = (0,) * series.rank
    for n, layer in enumerate(series.layers):
        m = layer.get(zero, 0)
        if m != (n == 0):
            return CheckResult(
                False, (f"trivial K-type has multiplicity {m} in degree {n}, expected {int(n == 0)}",)
            )
    return CheckResult(True, (f"trivial K-type occurs once, in degree 0, through degree {truncation}",))


def require_split(config: RealFormConfig, force: bool) -> None:
    """Refuse a config that is not split modulo center, unless `force`."""
    if not config.split_mod_center and not force:
        raise SplitHypothesisError(
            f"config {config.label!r} is not split modulo center; the product formula is "
            "proved only under that hypothesis (pass --force, or force=True, to compute it anyway)"
        )


def _times_invariant_factors(g: RootDatum, layers: list[dict]) -> list[dict]:
    """`layers` (packed torus weights or labels, each mapped to its
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


def dimension_check(config: RealFormConfig) -> CheckResult:
    """Dimension bookkeeping: (when split) the cone-restriction identity with
    dim N = 2|Phi+| taken from the root datum, consistency of dim g with the
    root datum, and (when split) the Iwasawa count. The Cartan decomposition
    dim g = dim k + dim p is enforced when the config is built."""
    d = config.dims
    dim_n = 2 * len(config.g_datum.positive_roots)
    lines = []
    ok = True

    if config.split_mod_center:
        lhs = d.dim_p - d.rank_split
        rhs = dim_n + d.dim_p - d.dim_g
        good = lhs == rhs
        ok &= good
        lines.append(
            f"{'ok' if good else 'FAIL'}: dim N_theta = dim N + dim p - dim g  ({lhs} vs {rhs})"
        )
    else:
        lines.append("skip: dim N_theta = dim N + dim p - dim g (config is not split modulo center)")

    datum_dim = dim_n + config.g_datum.rank
    good = d.dim_g == datum_dim
    ok &= good
    lines.append(f"{'ok' if good else 'FAIL'}: dim g matches the root datum  ({d.dim_g} vs {datum_dim})")

    if config.split_mod_center:
        good = (d.dim_g - d.rank_split) % 2 == 0
        nil = (d.dim_g - d.rank_split) // 2
        good = good and d.dim_g == d.dim_k + d.rank_split + nil
        ok &= good
        lines.append(
            f"{'ok' if good else 'FAIL'}: Iwasawa count dim g = dim k + rank + dim n  "
            f"({d.dim_g} vs {d.dim_k} + {d.rank_split} + {nil})"
        )
        good = d.rank_split == config.g_datum.rank
        ok &= good
        lines.append(
            f"{'ok' if good else 'FAIL'}: split rank equals the lattice rank  "
            f"({d.rank_split} vs {config.g_datum.rank})"
        )
    else:
        lines.append("skip: Iwasawa count (config is not split modulo center)")

    return CheckResult(bool(ok), tuple(lines))
