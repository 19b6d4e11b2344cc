"""Lusztig's q-analog of weight multiplicity, from Kostant's partition
function, for the `lusztig-vs-harmonics` check.

The partition polynomial counts expressions of a root-lattice weight as sums
of positive roots, graded by the number of summands (`kernels`). Its
alternating Weyl-group sum gives the q-analog of a weight multiplicity; at
q = 1 it is Kostant's multiplicity formula. Single queries, and the
multiplicity formula that tests hold the Demazure-built irreducible
characters (`charring.irreducible_character`) against, live in the test
helper `lusztig_reference`.

The Weyl-group sum is a walk over the orbit of x = lam + rho in Dynkin
labels, one simple reflection per step, in integer simple-root coordinates:
a query solves for the coordinates of lam - mu once and reads every
partition polynomial from one table, with no solve per element. Since the
argument only falls along the walk, a step that makes it negative ends that
branch, and the Weyl elements whose terms are all zero are never visited. A
`LusztigSum` holds that table for one datum, built once: a scan builds one
and queries it for every weight. Nothing is kept between calls.
"""

from . import kernels
from .rootdata import RootDatum, Weight, wsub


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
        self.table = kernels.partition_table(datum.positive_root_coords, height, truncation) if datum.nsimple else {}

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
