"""Closed forms the output checks compare against, computed without nilchar.

* Hilbert series of the cones (Kostant 1963, Kostant-Rallis 1971):
  ``prod_i (1 - q^{d_i}) / (1 - q)^{dim}``, with the fundamental degrees
  ``d_i`` taken from a table and ``dim`` = dim g for C[N], dim p for
  C[N_theta].
* Weyl's dimension formula from the positive coroots and 2*rho, which are
  generated here from the simple roots and coroots alone.

Roots and coroots are integer vectors on one lattice and its dual; the
pairing is the dot product.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# Fundamental degrees of the simple types the workloads use.
DEGREES = {
    "A1": (2,),
    "A2": (2, 3),
    "C2": (2, 4),
    "A4": (2, 3, 4, 5),
}


def hilbert_coefficients(degrees, dim: int, truncation: int) -> list[int]:
    """Coefficients of q^0..q^truncation in prod_i (1 - q^{d_i}) / (1 - q)^dim."""
    coeffs = [comb(n + dim - 1, dim - 1) for n in range(truncation + 1)]
    for d in degrees:
        coeffs = [c - (coeffs[n - d] if n >= d else 0) for n, c in enumerate(coeffs)]
    return coeffs


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _combine(coeffs, basis, rank: int) -> tuple[int, ...]:
    out = [0] * rank
    for c, v in zip(coeffs, basis):
        for i, x in enumerate(v):
            out[i] += c * x
    return tuple(out)


def positive_roots_and_coroots(simple_roots, simple_coroots):
    """Pairs (root, coroot) for every positive root, as simple-basis
    coefficient vectors, by closing the simple pairs under simple reflections.

    s_j sends a root with coefficients c to c - <root, a_j^vee> e_j and its
    coroot with coefficients d to d - <a_j, coroot> e_j; a pair is kept when
    the new root coefficients are non-negative.
    """
    n = len(simple_roots)
    pair = [[_dot(simple_roots[i], simple_coroots[j]) for j in range(n)] for i in range(n)]
    start = [(tuple(int(i == k) for k in range(n)),) * 2 for i in range(n)]
    seen = set(start)
    frontier = list(start)
    while frontier:
        nxt = []
        for c, d in frontier:
            for j in range(n):
                root_on_j = sum(c[k] * pair[k][j] for k in range(n))
                j_on_coroot = sum(d[k] * pair[j][k] for k in range(n))
                c2 = tuple(c[k] - (root_on_j if k == j else 0) for k in range(n))
                d2 = tuple(d[k] - (j_on_coroot if k == j else 0) for k in range(n))
                if min(c2) >= 0 and any(c2) and (c2, d2) not in seen:
                    seen.add((c2, d2))
                    nxt.append((c2, d2))
        frontier = nxt
    return sorted(seen)


class WeylDimension:
    """dim V(lam) = prod over positive coroots of <lam + rho, a^vee> / <rho, a^vee>."""

    def __init__(self, simple_roots, simple_coroots):
        rank = len(simple_roots[0])
        pairs = positive_roots_and_coroots(simple_roots, simple_coroots)
        self.heights = [sum(c) for c, _ in pairs]
        self.positive_roots = [_combine(c, simple_roots, rank) for c, _ in pairs]
        self.positive_coroots = [_combine(d, simple_coroots, rank) for _, d in pairs]
        self.two_rho = _combine([1] * len(pairs), self.positive_roots, rank)

    def __call__(self, lam) -> int:
        out = Fraction(1)
        for cov in self.positive_coroots:
            two_rho_cov = _dot(self.two_rho, cov)
            out *= Fraction(2 * _dot(lam, cov) + two_rho_cov, two_rho_cov)
        if out.denominator != 1:
            raise ValueError(f"{lam} is not an integral dominant weight")
        return int(out)

    def highest_root(self) -> tuple[int, ...]:
        """The positive root of greatest height (simple-root coefficient sum)."""
        return max(zip(self.heights, self.positive_roots))[1]


def fundamental_weight_datum(cartan):
    """Simple roots and coroots of build_root_datum's realization of a Cartan
    matrix: root j is column j, coroot i is the unit vector e_i."""
    n = len(cartan)
    roots = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]
    coroots = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    return roots, coroots
