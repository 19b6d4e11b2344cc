"""Formal bookkeeping for standard-module combinations: continued parameters
on theta-stable tori, weight multisets for tensoring, and the graded
branching sum for the K-nilpotent cone, whose degree-0 part is the Zuckerman
expansion of the trivial representation.

Torus conjugacy classes, their positive systems of imaginary roots, and the
orbit codimensions are input data; this module materializes sums over them
without attempting any orbit geometry.
"""

from __future__ import annotations

from .charring import irreducible_character
from .ktheta import RealFormConfig
from .nilcone import nilcone_series
from .rootdata import (
    InvolutionData,
    Record,
    RootDatum,
    Weight,
    classify_roots,
    int_vector,
    is_int,
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
    """(torus, gamma, positive system) with gamma stored as a lattice part
    plus a symbolic half-sum-of-imaginary-roots summand."""

    __slots__ = ("torus", "gamma0", "rho_imaginary", "positive_system")

    torus: str
    gamma0: Weight
    rho_imaginary: bool
    positive_system: str

    def describe(self) -> str:
        body = "[" + ",".join(str(v) for v in self.gamma0) + "]"
        if self.rho_imaginary:
            return f"rho_im+{body}" if any(self.gamma0) else "rho_im"
        return body


class WeightMultiset:
    """Finite multiset of lattice weights."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        cleaned: dict[Weight, int] = {}
        if entries:
            for w, m in dict(entries).items():
                if not is_int(m):
                    raise ValueError(f"multiplicity of {w} = {m!r} is not an integer")
                if m < 0:
                    raise ValueError("multiset multiplicities must be non-negative")
                if m:
                    cleaned[int_vector(w, "weight")] = m
        self.entries = cleaned

    def total(self) -> int:
        return sum(self.entries.values())

    def items(self):
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightMultiset) and self.entries == other.entries

    def __repr__(self) -> str:
        return "{" + ", ".join(f"{list(w)}: {m}" for w, m in self.items()) + "}"


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
        keys = sorted(self.terms, key=lambda k: (k[1], k[0].torus, k[0].positive_system, k[0].gamma0, k[0].rho_imaginary))
        return [(self.terms[k], *k) for k in keys]

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalStandardSum) and self.terms == other.terms

    def __add__(self, other: FormalStandardSum) -> FormalStandardSum:
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


def k_weight_multiset(datum: RootDatum, torus: TorusDatum, dim_k: int) -> WeightMultiset:
    """Weights of k as recorded on a theta-stable torus: one entry per compact
    imaginary root, one per complex theta-pair (lexicographically smaller
    member), one zero per positive real root, and one zero per theta-fixed
    torus direction. Validated against dim k."""
    cls = classify_roots(datum, torus.theta)
    entries: dict[Weight, int] = {}

    def bump(w: Weight, m: int = 1) -> None:
        if m:
            entries[w] = entries.get(w, 0) + m

    for alpha in cls.imaginary_compact:
        bump(alpha)
    seen = set()
    for alpha in cls.complex_:
        pair = (alpha, torus.theta.act(alpha))
        key = frozenset(pair)
        if key in seen:
            continue
        seen.add(key)
        bump(min(pair))
    zero = (0,) * datum.rank
    bump(zero, len(cls.real) // 2)
    bump(zero, torus.theta.fixed_rank())

    ms = WeightMultiset(entries)
    if ms.total() != dim_k:
        raise ValueError(
            f"k weight multiset on torus {torus.label!r} has size {ms.total()}, expected dim k = {dim_k}"
        )
    return ms


def wedge_weight_multiset(s: WeightMultiset, n: int) -> WeightMultiset:
    """Sums over all size-n sub-multisets of s, counted with multiplicity."""
    if n < 0:
        raise ValueError("subset size must be non-negative")
    items = s.items()
    acc: dict[tuple[int, Weight], int] = {}

    def rec(idx: int, left: int, weight: Weight, mult: int) -> None:
        if left == 0:
            key = weight
            acc[key] = acc.get(key, 0) + mult
            return
        if idx == len(items):
            return
        w, m = items[idx]
        take_max = min(m, left)
        c = 1
        for k in range(0, take_max + 1):
            if k > 0:
                c = c * (m - k + 1) // k
            shifted = weight
            for _ in range(k):
                shifted = wadd(shifted, w)
            rec(idx + 1, left - k, shifted, mult * c)

    rank = len(items[0][0]) if items else 0
    rec(0, n, (0,) * rank, 1)
    return WeightMultiset(acc)


def irrep_weight_multiset(datum: RootDatum, lam: Weight) -> WeightMultiset:
    """All torus weights of the irreducible with highest weight `lam`."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    return WeightMultiset(irreducible_character(datum, lam).terms)


def graded_branching_sum(config: RealFormConfig, tori, truncation: int) -> FormalStandardSum:
    """The graded K-character of the K-nilpotent cone written as standard
    classes: the quintuple sum over (torus, positive system, highest weight,
    weight, sub-multiset), truncated in total q-power."""
    tori = list(tori)
    if not tori:
        raise ValueError("the torus table is empty")
    if not config.split_mod_center:
        raise ValueError(f"config {config.label!r} is not split modulo center")
    datum = config.g_datum
    for torus in tori:
        torus.validate(datum)

    # C[N] as label -> {degree: multiplicity}. Each irreducible is built
    # once, before the torus and positive-system loops that read its weights.
    degrees_of: dict[Weight, dict[int, int]] = {}
    for j, layer in enumerate(nilcone_series(datum, truncation).layers):
        for lam, c in layer.items():
            degrees_of.setdefault(lam, {})[j] = c
    contributors = [(degrees, irrep_weight_multiset(datum, lam).items()) for lam, degrees in degrees_of.items()]
    # Coefficients are summed under plain keys, so that one parameter is
    # built per distinct non-zero term, not one per product term.
    sums: dict[tuple[str, Weight, str, int], int] = {}
    for torus in tori:
        s_k = k_weight_multiset(datum, torus, config.dims.dim_k)
        subs = []
        for n in range(0, min(s_k.total(), truncation) + 1):
            sign = -1 if n % 2 else 1
            for sigma, mult in wedge_weight_multiset(s_k, n).items():
                subs.append((n, sign, sigma, mult))
        for ps in torus.positive_systems:
            base_sign = -1 if ps.ell % 2 else 1
            for degrees, tau_weights in contributors:
                for j, cj in degrees.items():
                    for n, sign, sigma, mult_r in subs:
                        q_total = j + n
                        if q_total > truncation:
                            continue
                        coeff = base_sign * sign * cj * mult_r
                        for mu, m_mu in tau_weights:
                            key = (torus.label, wadd(mu, sigma), ps.id, q_total)
                            sums[key] = sums.get(key, 0) + coeff * m_mu
    return FormalStandardSum(
        (c, ContinuedParameter(label, gamma0, True, ps_id), q)
        for (label, gamma0, ps_id, q), c in sums.items()
        if c
    )
