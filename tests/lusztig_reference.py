"""Single queries of Kostant's partition function and Lusztig's q-analog,
kept on the test side as references: `kostant_partition_q` reads one
polynomial from a table of its own, `lusztig_mq` and `weyl_multiplicity`
run the library's `LusztigSum` sized to one query, and `brute_weyl_sum`
adds up the Weyl-group sum one element at a time, without `LusztigSum`, as
the reference for its pruned orbit walk. Kostant's multiplicity formula
(`weyl_multiplicity`) is what the Demazure-built irreducible characters are
held to. `QPolynomial` is the exact integer polynomial in q these answers
are written in; the library itself reads coefficient lists."""

from __future__ import annotations

from nilchar import kernels
from nilchar.kernels import LusztigSum
from nilchar.rootdata import RootDatum, Weight, is_int, wsub
from weyl_action import act, sign, two_rho, weyl_words


class QPolynomial:
    """Sparse integer polynomial in q with non-negative exponents.

    Zero coefficients are never stored. Instances are treated as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned: dict[int, int] = {}
        if coeffs:
            for deg, c in dict(coeffs).items():
                if not (is_int(deg) and is_int(c)):
                    raise ValueError(f"q^{deg!r} with coefficient {c!r}: both must be integers")
                if deg < 0:
                    raise ValueError("negative q-degree")
                if c:
                    cleaned[deg] = c
        self.coeffs = cleaned

    @classmethod
    def from_list(cls, coeff_list) -> QPolynomial:
        return cls({d: c for d, c in enumerate(coeff_list) if c})

    @classmethod
    def zero(cls) -> QPolynomial:
        return cls()

    @classmethod
    def one(cls) -> QPolynomial:
        return cls({0: 1})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: QPolynomial) -> QPolynomial:
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return QPolynomial(out)

    def __sub__(self, other: QPolynomial) -> QPolynomial:
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) - c
        return QPolynomial(out)

    def __neg__(self) -> QPolynomial:
        return QPolynomial({d: -c for d, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial({d: c * other for d, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return QPolynomial(out)

    __rmul__ = __mul__

    def truncate(self, max_deg: int) -> QPolynomial:
        return QPolynomial({d: c for d, c in self.coeffs.items() if d <= max_deg})

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def items(self):
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in self.items():
            if d == 0:
                parts.append(str(c))
            else:
                q = "q" if d == 1 else f"q^{d}"
                if c == 1:
                    parts.append(q)
                elif c == -1:
                    parts.append(f"-{q}")
                else:
                    parts.append(f"{c}*{q}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def kostant_partition_q(datum: RootDatum, lam: Weight, truncation: int | None = None) -> QPolynomial:
    """Counting polynomial of `lam` as graded sums of positive roots, cut
    after q^truncation (whole when None); zero when `lam` is not a
    non-negative root-lattice combination."""
    rc = datum.root_coords_int(lam)
    if rc is None or any(v < 0 for v in rc):
        return QPolynomial.zero()
    if datum.nsimple == 0:
        return QPolynomial.one()
    height = sum(rc)
    degree = height if truncation is None else min(height, truncation)
    return QPolynomial.from_list(kernels.partition_table(datum.positive_root_coords, height, degree).get(rc, ()))


def brute_weyl_sum(datum: RootDatum, lam: Weight, mu: Weight) -> QPolynomial:
    """sum_w sign(w) P_q(w(lam + rho) - (mu + rho)) term by term, over every
    word of `weyl_action.weyl_words`, each acting by simple reflections
    (`weyl_action.act`); the polynomials come from one `kernels.partition_table`
    as high as the highest argument. rho may be a half-integral weight, so
    w(rho) - rho is taken as (w(2 rho) - 2 rho) / 2, a sum of negative roots."""
    rho2 = two_rho(datum)
    terms = []
    for word in weyl_words(datum):
        arg = tuple(
            a + (r - t) // 2 - m
            for a, r, t, m in zip(act(datum, word, lam), act(datum, word, rho2), rho2, mu)
        )
        rc = datum.root_coords_int(arg)
        if rc is not None and all(v >= 0 for v in rc):
            terms.append((sign(word), rc))
    height = max((sum(rc) for _, rc in terms), default=0)
    table = kernels.partition_table(datum.positive_root_coords, height, height)
    total = QPolynomial.zero()
    for s, rc in terms:
        total += QPolynomial.from_list(table.get(rc, ())) * s
    return total


def _weyl_sum(datum: RootDatum, lam: Weight, mu: Weight, truncation: int | None) -> list[int]:
    """One query, on a `LusztigSum` sized to ht(lam - mu)."""
    rc = datum.root_coords_int(wsub(lam, mu))
    height = sum(rc) if rc is not None and all(v >= 0 for v in rc) else 0
    return LusztigSum(datum, height, height if truncation is None else truncation).coeffs(lam, mu)


def lusztig_mq(datum: RootDatum, lam: Weight, mu: Weight, truncation: int | None = None) -> QPolynomial:
    """q-analog of the weight multiplicity of `mu` in the irreducible of
    highest weight `lam`: the signed Weyl-group sum of partition polynomials,
    cut after q^truncation (whole when None)."""
    return QPolynomial.from_list(_weyl_sum(datum, lam, mu, truncation))


def weyl_multiplicity(datum: RootDatum, lam: Weight, mu: Weight) -> int:
    """Multiplicity of the weight `mu` in the irreducible of highest weight
    `lam`, by the signed Weyl-group sum over plain partition counts."""
    return sum(_weyl_sum(datum, lam, mu, None))
