"""Independent brute-force oracle: graded dimensions and torus characters of
explicit affine cone models by fraction-free sparse integer elimination.

A model is a polynomial ring with weighted degree-one variables and a list of
homogeneous generators. Degree slices of the quotient are computed one at a
time: the span of (monomial times generator) products is intersected with the
degree-n monomial basis and its rank subtracted. No Groebner machinery, no
floating point.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd, lcm
from operator import add

from .charring import GradedCharacter
from .ktheta import CheckResult, RealFormConfig, theta_cone_character
from .rootdata import Record, Weight, int_vector, is_int


class ConeVariable(Record):
    __slots__ = ("name", "weight")

    name: str
    weight: Weight

    def __post_init__(self):
        object.__setattr__(self, "weight", int_vector(self.weight, f"variable {self.name!r}: weight"))


class AffineConeModel(Record):
    """Weighted polynomial ring modulo the ideal of the listed generators.

    Generators map exponent tuples to rational coefficients (`int` or
    `Fraction`) and must be homogeneous in total degree (and in weight for
    character computations).
    """

    __slots__ = ("variables", "generators")

    variables: tuple[ConeVariable, ...]
    generators: tuple

    def __post_init__(self):
        variables = tuple(self.variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        ranks = {len(v.weight) for v in variables}
        if len(ranks) > 1:
            raise ValueError("variable weights must share one torus rank")
        gens = []
        for i, g in enumerate(self.generators):
            terms = {}
            for exps, c in dict(g).items():
                exps = tuple(exps)
                term = f"generator {i} term {exps!r}"
                if len(exps) != len(variables):
                    raise ValueError("generator exponent vector length mismatch")
                if not all(is_int(e) for e in exps):
                    raise ValueError(f"{term}: exponents must be integers")
                if any(e < 0 for e in exps):
                    raise ValueError("generator exponents must be non-negative")
                # An int or a Fraction, told by its integer denominator without
                # importing `fractions`; a float or Decimal has none, and a bool
                # (an int) is refused by name.
                if isinstance(c, bool) or not is_int(getattr(c, "denominator", None)):
                    raise ValueError(f"{term}: coefficient {c!r} must be an int or a Fraction")
                if c:
                    terms[exps] = c
            if not terms:
                raise ValueError("zero generator")
            gens.append(terms)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def torus_rank(self) -> int:
        return len(self.variables[0].weight) if self.variables else 0

    def generator_degree(self, g) -> int:
        degrees = {sum(exps) for exps in g}
        if len(degrees) != 1:
            raise ValueError(f"generator is not degree-homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def generator_weight(self, g) -> Weight:
        weights = {self.monomial_weight(exps) for exps in g}
        if len(weights) != 1:
            raise ValueError(f"generator is not weight-homogeneous: weights {sorted(weights)}")
        return weights.pop()

    def monomial_weight(self, exps) -> Weight:
        acc = [0] * self.torus_rank
        for e, v in zip(exps, self.variables):
            for i, w in enumerate(v.weight):
                acc[i] += e * w
        return tuple(acc)


def _monomials(nvars: int, degree: int, order: str = "lex"):
    """Exponent vectors of total degree `degree`, in a deterministic order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for head in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in head:
            exps[i] += 1
        out.append(tuple(exps))
    if order == "lex":
        out.sort()
    elif order == "revlex":
        out.sort(reverse=True)
    else:
        raise ValueError(f"unknown monomial order {order!r}")
    return out


def _integer_terms(g) -> list[tuple[tuple[int, ...], int]]:
    """The generator's terms scaled to integers by the lcm of its denominators."""
    denom = lcm(*(c.denominator for c in g.values()))
    return [(exps, c.numerator * (denom // c.denominator)) for exps, c in g.items()]


def _insert_row(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Reduce the sparse integer row `row` against `pivots`, which are keyed by
    their leading (least) column, with fraction-free steps `row*p - pivot*f`;
    what is left, divided by its gcd, becomes a new pivot. `row` is consumed.
    The rank of the rows inserted so far is `len(pivots)`."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*row.values())
            pivots[lead] = {c: v // g for c, v in row.items()} if g > 1 else row
            return
        f, p = row[lead], pivot[lead]
        g = gcd(f, p)
        f, p = f // g, p // g
        if p != 1:
            row = {c: v * p for c, v in row.items()}
        for c, v in pivot.items():
            x = row.get(c, 0) - v * f
            if x:
                row[c] = x
            else:
                del row[c]


def _quotient_layers(model: AffineConeModel, truncation: int, order: str, split: bool) -> list[dict]:
    """Dimension of each block of each degree slice of the quotient ring.

    With `split` the blocks are the weights and the generators must be
    weight-homogeneous, so each ideal row lies in one weight block and is
    reduced against that block's pivots only; without it each degree is one
    block keyed `()`."""
    nvars = len(model.variables)
    weight = model.monomial_weight if split else (lambda m: ())
    gens = [
        (model.generator_degree(g), model.generator_weight(g) if split else (), _integer_terms(g))
        for g in model.generators
    ]
    graded = []  # graded[d]: the degree-d monomials in order, each with its block
    layers = []
    for n in range(truncation + 1):
        graded.append([(m, weight(m)) for m in _monomials(nvars, n, order)])
        index = {m: i for i, (m, _) in enumerate(graded[n])}
        sizes = Counter(w for _, w in graded[n])
        pivots: dict = {w: {} for w in sizes}
        for dg, gw, terms in gens:
            if dg > n:
                continue
            for m, w in graded[n - dg]:
                row = {index[tuple(map(add, m, exps))]: c for exps, c in terms}
                _insert_row(pivots[tuple(map(add, w, gw))], row)
        layers.append({w: size - len(pivots[w]) for w, size in sizes.items() if size > len(pivots[w])})
    return layers


def hilbert_by_degree(model: AffineConeModel, truncation: int, order: str = "lex") -> list[int]:
    """Dimension of each degree slice of the quotient ring, exactly."""
    return [layer.get((), 0) for layer in _quotient_layers(model, truncation, order, split=False)]


def graded_character_by_degree(
    model: AffineConeModel, truncation: int, order: str = "lex"
) -> GradedCharacter:
    """Torus character of each degree slice of the quotient ring; generators
    must be weight-homogeneous so the ideal splits along weights."""
    layers = _quotient_layers(model, truncation, order, split=True)
    return GradedCharacter(model.torus_rank, truncation, layers)


def compare_with_formula(
    config: RealFormConfig,
    model: AffineConeModel,
    truncation: int,
    force: bool = False,
    actual: GradedCharacter | None = None,
) -> CheckResult:
    """Layer-by-layer comparison of the product-formula character against the
    model's brute-force character; `actual` is that character when the caller
    has already computed it with `graded_character_by_degree`."""
    if model.torus_rank != config.k_torus_rank:
        raise ValueError(
            f"model torus rank {model.torus_rank} does not match config rank {config.k_torus_rank}"
        )
    formula = theta_cone_character(config, truncation, force=force)
    if actual is None:
        actual = graded_character_by_degree(model, truncation)
    lines = []
    ok = True
    for n in range(truncation + 1):
        if formula.layers[n] == actual.layers[n]:
            lines.append(f"ok: degree {n} agrees (mass {actual.mass(n)})")
        else:
            ok = False
            lines.append(
                f"FAIL: degree {n} disagrees: formula {formula.layer(n)!r}, model {actual.layer(n)!r}"
            )
            break
    return CheckResult(ok, tuple(lines))
