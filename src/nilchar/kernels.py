"""The route of the `lusztig-vs-harmonics` check: Lusztig's q-analogs of
the cone's labels, from Kostant's partition function.

`lusztig_series` assigns to each dominant root-lattice weight, in degree n,
the q^n coefficient of its q-analog multiplicity against the zero weight:
the alternating Weyl-group sum of the partition polynomial (at q = 1,
Kostant's multiplicity formula). Only sums of at most n positive roots
contribute in degree n, which bounds the scan domain by height
(`dominant_weights_up_to_height`). The scan builds one `LusztigSum`, so one
partition table cut at q^n, and spends one lattice solve and one pruned
Weyl-orbit walk per weight; `lusztig_check` holds the result against
`ktheta.nilcone_series` label by label.

The partition table counts the expressions of each lattice point m >= 0 (in
simple-root coordinates, of height sum(m) <= `height_bound`) as a sum of
positive roots, graded by the number of parts. Each root is added as an
unbounded knapsack over the points reached so far, in ascending height
buckets; a point whose polynomial lies wholly above the degree bound is not
pushed, so only sums of at most `degree_bound` roots are held. Counts are
arbitrary-precision integers, so the table never overflows.

Nothing is kept between calls. Single queries, and the multiplicity
formula that the tests hold Demazure's irreducible characters to, are in
the test helper `lusztig_reference`. The module keeps the name `kernels`
because the benchmark harness imports it for `active_backend()`.
"""

from .charring import IrrepSeries
from .ktheta import CheckResult, nilcone_series
from .rootdata import RootDatum, Weight, wadd, wscale, wsub


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


def dominant_weights_up_to_height(datum: RootDatum, bound: int) -> list[Weight]:
    """Dominant root-lattice weights of height <= bound, sorted by (height, lex).

    The weight sum_j m_j alpha_j has Dynkin labels C.m (C the Cartan matrix),
    so dominance is tested on the composition m, and a weight is built only
    for a dominant m. The coordinates of m are chosen in turn; off the
    diagonal C is <= 0, so once label i is negative with m_0..m_k fixed
    (i <= k), no choice of the later coordinates makes it non-negative, and
    that branch is cut. Distinct m give distinct weights, the simple roots
    being independent, so no weight repeats.
    """
    n = datum.nsimple
    columns = [tuple(row[k] for row in datum.cartan_matrix) for k in range(n)]
    found: list[tuple[int, Weight]] = []

    def extend(k: int, m: tuple[int, ...], labels: tuple[int, ...], left: int) -> None:
        if k == n:
            w = (0,) * datum.rank
            for mj, alpha in zip(m, datum.simple_roots):
                if mj:
                    w = wadd(w, wscale(mj, alpha))
            found.append((bound - left, w))
            return
        column = columns[k]
        for mk in range(left + 1):
            now = tuple(v + mk * c for v, c in zip(labels, column))
            if any(v < 0 for v in now[:k]):
                break  # labels before k only fall as m_k grows
            if now[k] >= 0:
                extend(k + 1, m + (mk,), now, left - mk)

    if bound >= 0:
        extend(0, (), (0,) * n, bound)
    return [w for _, w in sorted(found)]


class LusztigSum:
    """Lusztig's signed Weyl-group sum for one datum, for every lam - mu of
    height <= `height`, exact through q^truncation (through every degree when
    `truncation` >= `height`, since a weight of height h has at most h parts).

    Holds one partition table, built here, so that a caller querying many
    weights builds it once.
    """

    __slots__ = ("datum", "height", "table")

    def __init__(self, datum: RootDatum, height: int, truncation: int):
        self.datum = datum
        self.height = height
        self.table = partition_table(datum.positive_root_coords, height, truncation) if datum.nsimple else {}

    def coeffs(self, lam: Weight, mu: Weight) -> list[int]:
        """Coefficients of sum_w sign(w) P_q(w(lam + rho) - (mu + rho)), cut
        after q^truncation of the constructor.

        A breadth-first walk over the orbit of x = lam + rho, from the labels
        of x (labels(lam) + 1) and the argument rc(lam - mu). A step by s_i
        where the label m = <w(x), alpha_i^vee> is positive is a
        length-increasing left multiplication: it takes m times column i of
        the Cartan matrix (the labels of alpha_i) off the labels and m off
        coordinate i of the argument, and flips the sign. No step raises a
        coordinate, so one that makes coordinate i negative is dropped with
        every element above it; each element is reached, and counted once,
        by its labels. Every argument lies below lam - mu, so the table
        covers them all when ht(lam - mu) <= `height`; a higher query is a
        ValueError. A negative coordinate of lam - mu leaves no term.
        """
        datum = self.datum
        labels = datum.labels(lam)
        if any(v < 0 for v in labels):
            raise ValueError(f"{lam} is not dominant")
        rc = datum.root_coords_int(wsub(lam, mu))
        if rc is None or any(v < 0 for v in rc):
            return []
        if sum(rc) > self.height:
            raise ValueError(f"{lam} - {mu} has height {sum(rc)}, above this table's {self.height}")
        if datum.nsimple == 0:
            return [1]
        columns = tuple(enumerate(zip(*datum.cartan_matrix)))
        start = tuple(v + 1 for v in labels)
        seen = {start}
        frontier = [(start, rc)]
        sign = 1
        acc: list[int] = []
        while frontier:
            nxt = []
            for x, arg in frontier:
                coeffs = self.table.get(arg)
                if coeffs is not None:
                    if len(acc) < len(coeffs):
                        acc.extend([0] * (len(coeffs) - len(acc)))
                    for k, c in enumerate(coeffs):
                        acc[k] += sign * c
                for i, column in columns:
                    m = x[i]
                    if 0 < m <= arg[i]:
                        y = tuple([a - m * c for a, c in zip(x, column)])
                        if y not in seen:
                            seen.add(y)
                            nxt.append((y, arg[:i] + (arg[i] - m,) + arg[i + 1:]))
            frontier = nxt
            sign = -sign
        return acc


def lusztig_series(datum: RootDatum, truncation: int) -> IrrepSeries:
    """Highest-weight decomposition of the graded cone functions, by degree,
    from Lusztig's q-analogs M_q(lam, 0) of every dominant root-lattice
    weight that can contribute a q-power <= truncation: the independent
    check on `nilcone_series`."""
    height_bound = truncation * datum.max_root_height
    # One table for the whole scan: for dominant lam, every argument
    # w(lam + rho) - rho of the Weyl-group sum lies below lam, so its height
    # is at most ht(lam) <= height_bound.
    lusztig = LusztigSum(datum, height_bound, truncation)
    zero = (0,) * datum.rank
    layers: list[dict] = [dict() for _ in range(truncation + 1)]
    for lam in dominant_weights_up_to_height(datum, height_bound):
        for deg, coeff in enumerate(lusztig.coeffs(lam, zero)):
            layers[deg][lam] = coeff
    return IrrepSeries(datum.rank, truncation, layers)


def lusztig_check(datum: RootDatum, truncation: int) -> CheckResult:
    """Compare Lusztig's highest-weight series with the harmonic closed form,
    label by label. The two are independent: one is Lusztig's signed
    Weyl-group sum over the partition function (`lusztig_series`), the other
    Newton's identity on g's weights with Brauer-Klimyk straightening
    (`nilcone_series`). Both describe the complex group alone, so no
    real-form hypothesis is needed. A closed-form coefficient that Newton's
    identity cannot divide fails the check, naming the weight."""
    lusztig = lusztig_series(datum, truncation)
    try:
        harmonic = nilcone_series(datum, truncation)
    except ValueError as exc:
        return CheckResult(False, (f"harmonic closed form fails: {exc}",))
    for n in range(truncation + 1):
        a, b = lusztig.layers[n], harmonic.layers[n]
        if a != b:
            lam = min(v for v in a.keys() | b.keys() if a.get(v, 0) != b.get(v, 0))
            return CheckResult(
                False,
                (
                    f"Lusztig series and harmonic closed form differ first at degree {n}: "
                    f"highest weight {list(lam)} has multiplicity {a.get(lam, 0)} vs {b.get(lam, 0)}",
                ),
            )
    return CheckResult(
        True, (f"Lusztig expansion equals the harmonic closed form through degree {truncation}",)
    )
