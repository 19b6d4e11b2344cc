"""Partition-function kernel: a height-bounded, q-truncated dynamic program.

The table covers the simplex of lattice points m >= 0 (in simple-root
coordinates) with height sum(m) <= `height_bound`, not a box: a weight of
height h is a sum of positive roots of height <= h only. Counts are
arbitrary-precision integers, so the table never overflows.
"""

from __future__ import annotations


def active_backend() -> str:
    """Name of the partition kernel, as the benchmark harness reports it."""
    return "python"


def _layer(height: int, rank: int):
    """Every non-negative integer `rank`-tuple with coordinate sum `height`."""
    if rank == 1:
        yield (height,)
        return
    for first in range(height, -1, -1):
        for rest in _layer(height - first, rank - 1):
            yield (first,) + rest


def partition_table(roots, height_bound: int, degree_bound: int | None = None):
    """q-graded vector partition counts over the simplex of height <= `height_bound`.

    `roots`: non-zero, non-negative integer tuples of one length (positive
    roots in simple-root coordinates). Returns a dict mapping each reachable
    lattice point m with sum(m) <= height_bound to the tuple of coefficients
    of its counting polynomial (index = number of parts), cut after
    q^degree_bound. `degree_bound=None` keeps every degree; since each root
    has height >= 1, a point of height h has at most h parts, so a
    `degree_bound` of at least h leaves its polynomial exact.
    """
    if height_bound < 0 or (degree_bound is not None and degree_bound < 0):
        raise ValueError("height and degree bounds must be non-negative")
    roots = [tuple(r) for r in roots]
    if not roots:
        raise ValueError("at least one root is needed")
    rank = len(roots[0])
    for r in roots:
        if len(r) != rank or any(v < 0 for v in r) or not any(r):
            raise ValueError(f"invalid root coordinates {r}")
    top = height_bound if degree_bound is None else min(degree_bound, height_bound)

    # Ascending height: m - root is lower, so it is final for this root by the
    # time m is visited (an unbounded knapsack per root).
    cells: list[tuple[int, ...]] = []
    first = []  # first[h]: index of the first cell of height h
    for h in range(height_bound + 1):
        first.append(len(cells))
        cells.extend(_layer(h, rank))
    index = {m: i for i, m in enumerate(cells)}
    table: list[list[int] | None] = [None] * len(cells)
    table[0] = [1]

    for root in roots:
        if sum(root) > height_bound:
            continue
        for i in range(first[sum(root)], len(cells)):
            m = cells[i]
            lower = tuple(a - b for a, b in zip(m, root))
            if min(lower) < 0:
                continue
            src = table[index[lower]]
            if src is None:
                continue
            dst = table[i]
            if dst is None:
                dst = []
                table[i] = dst
            need = min(len(src) + 1, top + 1)
            if len(dst) < need:
                dst.extend([0] * (need - len(dst)))
            for d in range(need - 1):
                dst[d + 1] += src[d]

    out = {}
    for m, coeffs in zip(cells, table):
        if coeffs is None:
            continue
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs:
            out[m] = tuple(coeffs)
    return out
