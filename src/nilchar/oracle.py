"""Independent brute-force oracle: graded dimensions and torus characters of
explicit affine cone models by fraction-free sparse integer elimination.

A model (`config.AffineConeModel`) is a polynomial ring with weighted
degree-one variables and a list of homogeneous generators. Degree slices of the quotient are computed one at a
time: the rows (monomial times generator) of degree n are eliminated over the
degree-n monomials, and their rank is subtracted from the slice's size. A
monomial is one int that holds its weight above its exponents, so rows of
different weights share no column and one pivot table per degree splits
along weights by itself. Rows that Faugere's F5 criterion shows to lie in the
span of the others are skipped. No Groebner basis, no floating point.
"""

from collections import Counter
from math import gcd, lcm
from operator import mul

from .charring import GradedCharacter, format_terms, weight_codec
from .config import AffineConeModel
from .ktheta import CheckResult


def _integer_terms(g) -> list[tuple[tuple[int, ...], int]]:
    """The generator's terms scaled to integers by the lcm of its denominators."""
    denom = lcm(*(c.denominator for c in g.values()))
    return [(exps, c.numerator * (denom // c.denominator)) for exps, c in g.items()]


def _insert_row(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> int | None:
    """Reduce the sparse integer row `row` against `pivots`, which are keyed by
    their leading (least) column, with fraction-free steps `row*p - pivot*f`;
    what is left, divided by its gcd, becomes a new pivot, and its lead is
    returned. A row that reduces to zero returns `None`. `row` is consumed.
    The rank of the rows inserted so far is `len(pivots)`."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            g = gcd(*row.values())
            pivots[lead] = {c: v // g for c, v in row.items()} if g > 1 else row
            return lead
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
    return None


def _quotient_layers(model: AffineConeModel, truncation: int, order: str) -> list[dict]:
    """Dimension of each weight block of each degree slice of the quotient
    ring; the generators must be weight-homogeneous.

    A monomial of degree at most N = `truncation` is one int, its column.
    The low digits are its exponents in base `N + 1`, the first variable the
    most significant, negated for `revlex`; their value lies within `half`
    of 0. Above them, in units of `2*half`, sits its weight's int from
    `charring.weight_codec`: signed digits in base `2*N*max|w| + 1`. No digit of a degree-N monomial
    exceeds its bound, so a product of monomials is the sum of their ints
    with no carry, and a column's weight block is `(col + half) // (2*half)`.
    Different weights never share a column, so one pivot table per degree
    splits along weights by itself; the sizes and ranks of the weight
    blocks are counted at the end.

    The degree-n monomials are grown from the degree-(n-1) ones in one list
    per last variable: those ending in variable i are the degree-(n-1) ones
    ending in a variable up to i, times variable i, so each is made once.

    Two shortcuts leave the rank exact. The sum of ints keeps column order
    under multiplication by a monomial, so the rows `m*f_1` of the first
    generator have the distinct leads `m + lead(f_1)` and go in as pivots
    unreduced. A later row `m*f_j` is skipped when `m` is the lead of a
    pivot `g` that the rows of `f_1 ... f_{j-1}` made in degree `n - d_j`
    (Faugere's F5 criterion): `g` lies in `(f_1, ..., f_{j-1})`, so
    `g*f_j` is in the span of the earlier generators' rows, and `m - g/c`,
    where `c` is `g`'s lead coefficient, holds only columns above `m`. So
    `m*f_j` is in that span plus the rows `m'*f_j` with `m' > m`, and by
    downward induction on `m` every skipped row is in the span of kept
    rows, whatever the generators are. `owners[d]` maps each lead of a
    degree-d pivot to the generator whose row made it."""
    if order not in ("lex", "revlex"):
        raise ValueError(f"unknown monomial order {order!r}")
    sign = 1 if order == "lex" else -1
    nvars = len(model.variables)
    base = truncation + 1
    half = base**nvars
    width = 2 * half
    packed, unpack = weight_codec([v.weight for v in model.variables], truncation, model.torus_rank)
    steps = [w * width + sign * base ** (nvars - 1 - i) for i, w in enumerate(packed)]
    gens = []
    for g in model.generators:
        dg = model.generator_degree(g)
        model.generator_weight(g)  # refuses a weight-inhomogeneous generator
        if dg <= truncation:
            gens.append((dg, sorted((sum(map(mul, exps, steps)), c) for exps, c in _integer_terms(g))))
    # ends[i]: the monomials whose last variable is i; 1 may take any, so it is in ends[0]
    ends = [[0]] + [[] for _ in steps[1:]]
    graded = [[0]]
    for _ in range(truncation):
        lower, grown = [], []
        for step, block in zip(steps, ends):
            lower += block
            grown.append([m + step for m in lower])
        ends = grown
        graded.append([m for block in ends for m in block])

    owners: list[dict[int, int]] = []
    layers = []
    for n, monomials in enumerate(graded):
        pivots: dict = {}
        owners.append({})
        for j, (dg, terms) in enumerate(gens):
            if dg > n:
                continue
            if j == 0:
                lead = terms[0][0]
                pivots = {m + lead: {m + t: c for t, c in terms} for m in graded[n - dg]}
                owners[n] = dict.fromkeys(pivots, 0)
                continue
            earlier = owners[n - dg]
            for m in graded[n - dg]:
                if earlier.get(m, j) < j:
                    continue
                lead = _insert_row(pivots, {m + t: c for t, c in terms})
                if lead is not None:
                    owners[n][lead] = j
        sizes = Counter((m + half) // width for m in monomials)
        sizes.subtract((lead + half) // width for lead in pivots)
        layers.append(sizes)
    return unpack(layers)


def graded_character_by_degree(
    model: AffineConeModel, truncation: int, order: str = "lex"
) -> GradedCharacter:
    """Torus character of each degree slice of the quotient ring; its masses
    are the Hilbert function. Generators must be weight-homogeneous so the
    ideal splits along weights."""
    return GradedCharacter(model.torus_rank, truncation, _quotient_layers(model, truncation, order))


def compare_with_formula(formula: GradedCharacter, actual: GradedCharacter) -> CheckResult:
    """Layer-by-layer comparison of the product-formula character (`formula`,
    from `ktheta.theta_cone_character`) against the model's brute-force
    character (`actual`, from `graded_character_by_degree`), through the
    lower truncation of the two, up to the first layer that differs."""
    if actual.rank != formula.rank:
        raise ValueError(f"model torus rank {actual.rank} does not match config rank {formula.rank}")
    lines = []
    ok = True
    for n, (want, got) in enumerate(zip(formula.layers, actual.layers)):
        if want == got:
            lines.append(f"ok: degree {n} agrees (mass {actual.mass(n)})")
        else:
            ok = False
            lines.append(f"FAIL: degree {n} disagrees: formula {format_terms(want)}, model {format_terms(got)}")
            break
    return CheckResult(ok, tuple(lines))
