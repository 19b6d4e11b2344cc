"""Formal bookkeeping for standard-module combinations: continued parameters
on theta-stable tori, the weights of k on each torus, and the graded
branching sum for the K-nilpotent cone, whose degree-0 part is the Zuckerman
expansion of the trivial representation.

The branching sum is the paper's product (C[N]|K) * Lambda_{-1}(k) taken
on each torus with the library's ring operations: ch_q C[N] on the torus of
G once, times `ktheta.wedge_class` of that torus's k weights by one
`graded_mul`, then emitted with sign (-1)^ell for each positive system.
Torus conjugacy classes, their positive systems of imaginary roots, and the
orbit codimensions are input data; this module materializes sums over them
without attempting any orbit geometry.
"""

from .charring import GradedCharacter, graded_mul, irreducible_character
from .ktheta import RealFormConfig, wedge_class
from .nilcone import nilcone_series
from .rootdata import (
    InvolutionData,
    Record,
    RootDatum,
    Weight,
    classify_roots,
    int_vector,
    wadd,
    wneg,
)


class PositiveSystem(Record):
    """A positive system of imaginary roots with its orbit codimension."""

    __slots__ = ("id", "imaginary_roots", "ell")

    id: str
    imaginary_roots: tuple[Weight, ...]
    ell: int

    def __post_init__(self):
        roots = tuple(int_vector(r, f"imaginary_roots[{i}]") for i, r in enumerate(self.imaginary_roots))
        object.__setattr__(self, "imaginary_roots", roots)
        if self.ell < 0:
            raise ValueError("orbit codimension must be non-negative")


class TorusDatum(Record):
    """A theta-stable maximal torus: its involution on the weight lattice and
    the supplied positive systems of imaginary roots."""

    __slots__ = ("label", "theta", "positive_systems")

    label: str
    theta: InvolutionData
    positive_systems: tuple[PositiveSystem, ...]

    def validate(self, datum: RootDatum) -> None:
        cls = classify_roots(datum, self.theta)
        imaginary = set(cls.imaginary)
        for ps in self.positive_systems:
            pos = set(ps.imaginary_roots)
            if len(pos) != len(ps.imaginary_roots):
                raise ValueError(f"positive system {ps.id!r} lists a root twice")
            if pos & {wneg(r) for r in pos}:
                raise ValueError(f"positive system {ps.id!r} contains a root and its negative")
            if pos | {wneg(r) for r in pos} != imaginary:
                raise ValueError(
                    f"positive system {ps.id!r} does not partition the imaginary roots of torus {self.label!r}"
                )
            for a in pos:
                for b in pos:
                    s = wadd(a, b)
                    if s in imaginary and s not in pos:
                        raise ValueError(f"positive system {ps.id!r} is not closed under addition")


class ContinuedParameter(Record):
    """(torus, gamma, positive system) with gamma = rho_im + gamma0: a
    lattice part plus the half-sum of the positive imaginary roots, kept
    symbolic."""

    __slots__ = ("torus", "gamma0", "positive_system")

    torus: str
    gamma0: Weight
    positive_system: str

    def describe(self) -> str:
        if not any(self.gamma0):
            return "rho_im"
        return "rho_im+[" + ",".join(str(v) for v in self.gamma0) + "]"


class FormalStandardSum:
    """Integer combination of continued parameters with q-powers; terms with
    equal (parameter, q-power) are merged and zeros dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple[ContinuedParameter, int], int] = {}
        for coeff, param, q_power in terms:
            if q_power < 0:
                raise ValueError("q-power must be non-negative")
            key = (param, q_power)
            merged[key] = merged.get(key, 0) + coeff
        self.terms = {k: v for k, v in merged.items() if v}

    def items(self) -> list[tuple[int, ContinuedParameter, int]]:
        """Terms sorted by (q-power, torus, positive system, gamma), each with
        the parameter it holds."""
        keys = sorted(self.terms, key=lambda k: (k[1], k[0].torus, k[0].positive_system, k[0].gamma0))
        return [(self.terms[k], *k) for k in keys]

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalStandardSum) and self.terms == other.terms

    def __add__(self, other: "FormalStandardSum") -> "FormalStandardSum":
        return FormalStandardSum(
            [(c, p, q) for (p, q), c in self.terms.items()]
            + [(c, p, q) for (p, q), c in other.terms.items()]
        )

    def to_records(self) -> list[dict]:
        return [
            {
                "coefficient": c,
                "torus": p.torus,
                "gamma": p.describe(),
                "positive_system": p.positive_system,
                "q_power": q,
            }
            for c, p, q in self.items()
        ]

    def __repr__(self) -> str:
        return " + ".join(f"{c}*I({p.torus},{p.describe()},{p.positive_system})q^{q}" for c, p, q in self.items()) or "0"


def k_weight_multiset(datum: RootDatum, torus: TorusDatum, dim_k: int) -> tuple[Weight, ...]:
    """Weights of k as recorded on a theta-stable torus, sorted: one per
    compact imaginary root, one per complex theta-pair (lexicographically
    smaller member), one zero per positive real root, and one zero per
    theta-fixed torus direction. Validated against dim k."""
    cls = classify_roots(datum, torus.theta)
    pairs = {frozenset((alpha, torus.theta.act(alpha))) for alpha in cls.complex_}
    zeros = len(cls.real) // 2 + torus.theta.fixed_rank()
    weights = list(cls.imaginary_compact) + [min(pair) for pair in pairs] + [(0,) * datum.rank] * zeros
    if len(weights) != dim_k:
        raise ValueError(
            f"k weight multiset on torus {torus.label!r} has size {len(weights)}, expected dim k = {dim_k}"
        )
    return tuple(sorted(weights))


def graded_branching_sum(config: RealFormConfig, tori, truncation: int) -> FormalStandardSum:
    """The graded K-character of the K-nilpotent cone written as standard
    classes: on each torus, ch_q C[N] times the signed exterior class of the
    k weights there, emitted once per positive system with sign (-1)^ell and
    truncated in total q-power."""
    tori = list(tori)
    if not tori:
        raise ValueError("the torus table is empty")
    if not config.split_mod_center:
        raise ValueError(f"config {config.label!r} is not split modulo center")
    datum = config.g_datum
    for torus in tori:
        torus.validate(datum)

    # ch_q C[N] on the torus of G, with each contributor's irreducible built
    # once, however many degrees hold it.
    irreps: dict[Weight, dict[Weight, int]] = {}
    layers = []
    for labels in nilcone_series(datum, truncation).layers:
        layer: dict[Weight, int] = {}
        for lam, c in labels.items():
            if lam not in irreps:
                irreps[lam] = irreducible_character(datum, lam).terms
            for mu, m in irreps[lam].items():
                layer[mu] = layer.get(mu, 0) + c * m
        layers.append(layer)
    cone = GradedCharacter(datum.rank, truncation, layers)

    terms = []
    for torus in tori:
        k_weights = k_weight_multiset(datum, torus, config.dims.dim_k)
        product = graded_mul(cone, wedge_class(k_weights, truncation, datum.rank))
        for ps in torus.positive_systems:
            sign = -1 if ps.ell % 2 else 1
            for q, layer in enumerate(product.layers):
                for gamma0, c in layer.items():
                    terms.append((sign * c, ContinuedParameter(torus.label, gamma0, ps.id), q))
    return FormalStandardSum(terms)
