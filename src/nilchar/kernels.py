"""Partition-function kernel: a height-bounded, q-truncated dynamic program
over the reached lattice points only.

The table holds the lattice points m >= 0 (in simple-root coordinates) of
height sum(m) <= `height_bound` that are sums of the given roots. Each root is
added as an unbounded knapsack that pushes from the points reached so far, in
ascending height buckets; a point whose polynomial lies wholly above the
degree bound is not pushed, since one more part would put it past the cut. So
a degree bound also bounds the points held: only those that are sums of at
most `degree_bound` roots appear. Counts are arbitrary-precision integers, so
the table never overflows.
"""


def active_backend() -> str:
    """Name of the partition kernel, as the benchmark harness reports it."""
    return "python"


def partition_table(roots, height_bound: int, degree_bound: int):
    """q-graded vector partition counts over the points of height <= `height_bound`.

    `roots`: non-zero, non-negative integer tuples of one length (positive
    roots in simple-root coordinates). Returns a dict mapping each reachable
    lattice point m with sum(m) <= height_bound to the tuple of coefficients
    of its counting polynomial (index = number of parts), cut after
    q^degree_bound. Since each root has height >= 1, a point of height h has
    at most h parts, so a `degree_bound` of at least h leaves its polynomial
    exact.
    """
    if height_bound < 0 or degree_bound < 0:
        raise ValueError("height and degree bounds must be non-negative")
    roots = [tuple(r) for r in roots]
    if not roots:
        raise ValueError("at least one root is needed")
    rank = len(roots[0])
    for r in roots:
        if len(r) != rank or any(v < 0 for v in r) or not any(r):
            raise ValueError(f"invalid root coordinates {r}")
    top = min(degree_bound, height_bound)

    zero = (0,) * rank
    table: dict[tuple[int, ...], list[int]] = {zero: [1]}
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(height_bound + 1)]
    buckets[0].append(zero)

    # Ascending height: a point pushed to m + root lands in a higher bucket,
    # which this root visits later, so repeated parts are counted (an
    # unbounded knapsack per root). Bucket h only grows from lower buckets.
    for root in roots:
        step = sum(root)
        for h in range(height_bound - step + 1):
            upper = buckets[h + step]
            for m in buckets[h]:
                src = table[m]
                if not any(src[:top]):
                    continue
                target = tuple(a + b for a, b in zip(m, root))
                dst = table.get(target)
                if dst is None:
                    dst = table[target] = []
                    upper.append(target)
                need = min(len(src) + 1, top + 1)
                if len(dst) < need:
                    dst.extend([0] * (need - len(dst)))
                for d in range(need - 1):
                    dst[d + 1] += src[d]

    out = {}
    for m, coeffs in table.items():
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs:
            out[m] = tuple(coeffs)
    return out
