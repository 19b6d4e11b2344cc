"""Independent brute-force oracle: graded dimensions and torus characters of
explicit affine cone models by exact rank computations over the rationals.

A model is a polynomial ring with weighted degree-one variables and a list of
homogeneous generators. Degree slices of the quotient are computed one at a
time: the span of (monomial times generator) products is intersected with the
degree-n monomial basis and its rank subtracted. No Groebner machinery, no
floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .charring import GradedCharacter
from .ktheta import CheckResult, RealFormConfig, theta_cone_character
from .rootdata import Weight


@dataclass(frozen=True)
class ConeVariable:
    name: str
    weight: Weight

    def __post_init__(self):
        object.__setattr__(self, "weight", tuple(int(v) for v in self.weight))


@dataclass(frozen=True)
class AffineConeModel:
    """Weighted polynomial ring modulo the ideal of the listed generators.

    Generators map exponent tuples to rational coefficients and must be
    homogeneous in total degree (and in weight for character computations).
    """

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
        for g in self.generators:
            terms = {}
            for exps, c in dict(g).items():
                if len(exps) != len(variables):
                    raise ValueError("generator exponent vector length mismatch")
                if any(e < 0 for e in exps):
                    raise ValueError("generator exponents must be non-negative")
                c = Fraction(c)
                if c:
                    terms[tuple(int(e) for e in exps)] = c
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


def _integer_rank(rows) -> int:
    """Rank of integer rows by fraction-free elimination with gcd control."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot = work[rank]
        pv = pivot[col]
        for r in range(rank + 1, len(work)):
            row = work[r]
            if not row[col]:
                continue
            f = row[col]
            for c in range(col, ncols):
                row[c] = row[c] * pv - pivot[c] * f
            g = 0
            for c in range(col, ncols):
                g = gcd(g, row[c])
                if g == 1:
                    break
            if g > 1:
                for c in range(col, ncols):
                    row[c] //= g
        rank += 1
        if rank == len(work):
            break
    return rank


def _scale_to_int(row) -> list[int]:
    denom = 1
    for v in row:
        if v:
            denom = lcm(denom, v.denominator)
    return [int(v * denom) for v in row]


def _ideal_rows(model: AffineConeModel, degree: int, index: dict, order: str):
    """Rows spanning the degree slice of the ideal, over the monomial basis."""
    nvars = len(model.variables)
    rows = []
    for g in model.generators:
        dg = model.generator_degree(g)
        if dg > degree:
            continue
        for m in _monomials(nvars, degree - dg, order):
            row = [Fraction(0)] * len(index)
            for exps, c in g.items():
                key = tuple(a + b for a, b in zip(m, exps))
                row[index[key]] += c
            rows.append(_scale_to_int(row))
    return rows


def hilbert_by_degree(model: AffineConeModel, truncation: int, order: str = "lex") -> list[int]:
    """Dimension of each degree slice of the quotient ring, exactly."""
    nvars = len(model.variables)
    out = []
    for n in range(truncation + 1):
        mons = _monomials(nvars, n, order)
        index = {m: i for i, m in enumerate(mons)}
        rank = _integer_rank(_ideal_rows(model, n, index, order))
        out.append(len(mons) - rank)
    return out


def graded_character_by_degree(
    model: AffineConeModel, truncation: int, order: str = "lex"
) -> GradedCharacter:
    """Torus character of each degree slice of the quotient ring; generators
    must be weight-homogeneous so the ideal splits along weights."""
    gen_weights = [model.generator_weight(g) for g in model.generators]
    gen_degrees = [model.generator_degree(g) for g in model.generators]
    nvars = len(model.variables)
    layers = []
    for n in range(truncation + 1):
        by_weight: dict[Weight, list] = {}
        for m in _monomials(nvars, n, order):
            by_weight.setdefault(model.monomial_weight(m), []).append(m)
        rows_by_weight: dict[Weight, list] = {w: [] for w in by_weight}
        index_by_weight = {w: {m: i for i, m in enumerate(ms)} for w, ms in by_weight.items()}
        for g, gw, gd in zip(model.generators, gen_weights, gen_degrees):
            if gd > n:
                continue
            for m in _monomials(nvars, n - gd, order):
                target = tuple(a + b for a, b in zip(model.monomial_weight(m), gw))
                index = index_by_weight[target]
                row = [Fraction(0)] * len(index)
                for exps, c in g.items():
                    key = tuple(a + b for a, b in zip(m, exps))
                    row[index[key]] += c
                rows_by_weight[target].append(_scale_to_int(row))
        layer = {}
        for w, ms in by_weight.items():
            dim = len(ms) - _integer_rank(rows_by_weight[w])
            if dim:
                layer[w] = dim
        layers.append(layer)
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
