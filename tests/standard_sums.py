"""Bookkeeping on `FormalStandardSum` that only the tests read."""

from nilchar.langlands import FormalStandardSum


def mass_by_degree(total: FormalStandardSum) -> dict[int, int]:
    """Sum of the coefficients in each q-power."""
    out: dict[int, int] = {}
    for (_, q), c in total.terms.items():
        out[q] = out.get(q, 0) + c
    return out
