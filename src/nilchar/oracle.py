"""Independent brute-force oracle: graded dimensions and torus characters of
explicit affine cone models by fraction-free sparse integer elimination.

A model is a polynomial ring with weighted degree-one variables and a list of
homogeneous generators. Degree slices of the quotient are computed one at a
time: the span of (monomial times generator) products is intersected with the
degree-n monomial basis and its rank subtracted. No Groebner machinery, no
floating point.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, mul

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


def _quotient_layers(model: AffineConeModel, truncation: int, order: str) -> list[dict]:
    """Dimension of each weight block of each degree slice of the quotient
    ring; the generators must be weight-homogeneous, so each ideal row lies in
    one weight block and is reduced against that block's pivots only.

    A monomial of degree at most `truncation` is one int: its exponents are
    the digits in base `truncation + 1`, the first variable the most
    significant. No digit exceeds the truncation, so a product of monomials
    is the sum of their ints with no carry, and int order is lex order; the
    int, negated for `revlex`, is the monomial's elimination column. The
    degree-n monomials are grown from the degree-(n-1) ones block by block:
    each is kept with the first variable it may still be multiplied by, so
    that every monomial is made once, and a block's weight is its parent's
    plus the variable's."""
    if order not in ("lex", "revlex"):
        raise ValueError(f"unknown monomial order {order!r}")
    sign = 1 if order == "lex" else -1
    nvars = len(model.variables)
    base = truncation + 1
    steps = [sign * base ** (nvars - 1 - i) for i in range(nvars)]
    gens = []
    for g in model.generators:
        dg, gw = model.generator_degree(g), model.generator_weight(g)
        if dg <= truncation:
            terms = [(sum(map(mul, exps, steps)), c) for exps, c in _integer_terms(g)]
            gens.append((dg, gw, terms))
    variables = list(enumerate(zip(steps, (v.weight for v in model.variables))))
    graded = [{(0,) * model.torus_rank: [(0, 0)]}]  # graded[d]: weight -> [(monomial, first)]
    for _ in range(truncation):
        grown: dict = {}
        for w, block in graded[-1].items():
            for i, (step, vw) in variables:
                new = [(m + step, i) for m, first in block if first <= i]
                if new:
                    grown.setdefault(tuple(map(add, w, vw)), []).extend(new)
        graded.append(grown)
    layers = []
    for n, blocks in enumerate(graded):
        pivots: dict = {w: {} for w in blocks}
        for dg, gw, terms in gens:
            if dg > n:
                continue
            for w, block in graded[n - dg].items():
                target = pivots[tuple(map(add, w, gw))]
                for m, _ in block:
                    _insert_row(target, {m + t: c for t, c in terms})
        layers.append({w: len(b) - len(pivots[w]) for w, b in blocks.items() if len(b) > len(pivots[w])})
    return layers


def graded_character_by_degree(
    model: AffineConeModel, truncation: int, order: str = "lex"
) -> GradedCharacter:
    """Torus character of each degree slice of the quotient ring; its masses
    are the Hilbert function. Generators must be weight-homogeneous so the
    ideal splits along weights."""
    return GradedCharacter(model.torus_rank, truncation, _quotient_layers(model, truncation, order))


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
