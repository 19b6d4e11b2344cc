"""Lusztig's q-analog of weight multiplicity, from Kostant's partition
function, for the `lusztig-vs-harmonics` check.

The partition polynomial counts expressions of a root-lattice weight as sums
of positive roots, graded by the number of summands (`kernels`). Its
alternating Weyl-group sum gives the q-analog of a weight multiplicity; at
q = 1 it is Kostant's multiplicity formula. Single queries, and the
multiplicity formula that tests hold the Demazure-built irreducible
characters (`charring.irreducible_character`) against, live in the test
helper `lusztig_reference`.

The Weyl-group sum runs in integer simple-root coordinates: each Weyl element,
taken as a reduced word from `RootDatum.weyl_words`, acts on Dynkin labels
through one integer matrix (`weyl_on_labels`), so a query solves for the
coordinates of lam - mu once and reads every partition polynomial from one
table, with no solve per element. A `LusztigSum` holds that table and those
matrices for one datum, built once: a scan builds one and queries it for
every weight. Nothing is kept between calls.
"""

from __future__ import annotations

from operator import mul

from . import kernels
from .rootdata import Matrix, RootDatum, Weight, wdot, wsub


def weyl_on_labels(datum: RootDatum) -> tuple[tuple[int, Matrix], ...]:
    """(sign(w), D_w) for every Weyl element w, in `weyl_words()` order,
    where sign(w) = (-1)^len(word) and x - w(x) = D_w . labels(x) in
    simple-root coordinates for every weight x.

    Built along the reduced words: s_i(v) = v - <v, alpha_i^vee> alpha_i
    gives, for w = w' s_i, D_w = D_w' + (e_i - D_w' . C e_i) e_i^T, where
    C e_i (column i of the Cartan matrix) holds the labels of alpha_i. Each
    word less its last letter is an earlier word of the list, since the
    words are grown breadth-first by appending letters.
    """
    n = datum.nsimple
    cartan = datum.cartan_matrix
    by_word: dict[tuple[int, ...], Matrix] = {(): tuple((0,) * n for _ in range(n))}
    out = []
    for word in datum.weyl_words():
        if word:
            prefix, i = by_word[word[:-1]], word[-1]
            column = [cartan[j][i] for j in range(n)]
            by_word[word] = tuple(
                row[:i] + (row[i] + (k == i) - wdot(row, column),) + row[i + 1:]
                for k, row in enumerate(prefix)
            )
        out.append((-1 if len(word) % 2 else 1, by_word[word]))
    return tuple(out)


class LusztigSum:
    """Lusztig's signed Weyl-group sum for one datum, for every lam - mu of
    height <= `height`, exact through q^truncation (every degree when None).

    Holds one partition table and the `weyl_on_labels` matrices, both built
    here, so that a caller querying many weights builds each once.
    """

    __slots__ = ("datum", "height", "table", "on_labels")

    def __init__(self, datum: RootDatum, height: int, truncation: int | None = None):
        self.datum = datum
        self.height = height
        degree = height if truncation is None else min(height, truncation)
        self.table = kernels.partition_table(datum.positive_root_coords, height, degree) if datum.nsimple else {}
        self.on_labels = weyl_on_labels(datum)

    def coeffs(self, lam: Weight, mu: Weight) -> list[int]:
        """Coefficients of sum_w sign(w) P_q(w(lam + rho) - (mu + rho)), cut
        after q^truncation of the constructor.

        In simple-root coordinates the argument is rc(lam - mu) - D_w .
        (labels(lam) + 1), since labels(rho) = 1: one lattice solve per
        query, none per element. Every argument lies below lam - mu, so the
        table covers them all when ht(lam - mu) <= `height`; a higher query
        is a ValueError. A negative coordinate of lam - mu leaves no term.
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
        shifted = tuple(v + 1 for v in labels)
        acc: list[int] = []
        for sign, d in self.on_labels:
            coeffs = self.table.get(tuple([r - sum(map(mul, row, shifted)) for r, row in zip(rc, d)]))
            if coeffs is None:
                continue
            if len(acc) < len(coeffs):
                acc.extend([0] * (len(coeffs) - len(acc)))
            for k, c in enumerate(coeffs):
                acc[k] += sign * c
        return acc
