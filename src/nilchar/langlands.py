"""Formal bookkeeping for standard-module combinations: continued parameters
on theta-stable tori, the weights of k on each torus, and the graded
branching sum for the K-nilpotent cone, whose degree-0 part is the Zuckerman
expansion of the trivial representation.

The branching sum is the paper's product (C[N]|K) * Lambda_{-1}(k) taken
on each torus, with ch_q C[N] on the torus of G in Kostant's form
S(g) * prod_i (1 - q^{d_i}): `ktheta.exterior_products` takes S(g) once on
packed weights and multiplies a copy by the signed exterior class of each
torus's k weights, under one codec built on g's weights and every torus's
k weights; each product, unpacked once, takes the invariant-degree factors
and is emitted with sign (-1)^ell for each positive system.
Torus conjugacy classes, their positive systems of imaginary roots (the
records `config.TorusDatum` and `config.PositiveSystem`), and the orbit
codimensions are input data; this module materializes sums over them
without attempting any orbit geometry.
"""

from .config import TorusDatum
from .ktheta import RealFormConfig, exterior_products, require_split, times_invariant_factors
from .rootdata import Record, RootDatum, Weight, classify_roots


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
    truncated in total q-power. A config that is not split modulo center is
    refused (`ktheta.require_split`)."""
    tori = list(tori)
    if not tori:
        raise ValueError("the torus table is empty")
    require_split(config, False)
    datum = config.g_datum
    for torus in tori:
        torus.validate(datum)

    # S(g) times the exterior class of each torus's k weights, then the
    # invariant-degree factors that make S(g) into ch_q C[N].
    k_sets = [k_weight_multiset(datum, torus, len(config.k_weights)) for torus in tori]

    terms = []
    for torus, product in zip(tori, exterior_products(datum.adjoint_weights, k_sets, truncation, datum.rank)):
        times_invariant_factors(datum, product)
        for ps in torus.positive_systems:
            sign = -1 if ps.ell % 2 else 1
            for q, layer in enumerate(product):
                for gamma0, c in layer.items():
                    if c:  # the factors can cancel a term
                        terms.append((sign * c, ContinuedParameter(torus.label, gamma0, ps.id), q))
    return FormalStandardSum(terms)
