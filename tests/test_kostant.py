"""Partition function, q-multiplicities, Freudenthal; kernel backends.

Expected values for the partition polynomials come from the exhaustive
enumeration oracle below, which never touches the dynamic program.
"""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchar import charring, kernels, kostant
from nilchar.charring import irreducible_character
from nilchar.kostant import (
    clear_caches,
    freudenthal_multiplicity,
    freudenthal_table,
    kostant_partition,
    kostant_partition_q,
    lusztig_mq,
    warm_partition_table,
    weyl_multiplicity,
)
from nilchar.qpoly import QPolynomial
from nilchar.rootdata import build_root_datum

A1 = build_root_datum([[2]])
A2 = build_root_datum([[2, -1], [-1, 2]])
B2 = build_root_datum([[2, -2], [-1, 2]])


def brute_partition_q(datum, lam):
    """Enumerate every m: positive roots -> non-negative integers directly."""
    rc = datum.root_coords_int(lam)
    if rc is None or any(v < 0 for v in rc):
        return QPolynomial.zero()
    roots = [datum.root_coords_int(r) for r in datum.positive_roots]
    height = sum(rc)
    counts: dict[int, int] = {}
    ranges = [range(0, height + 1) for _ in roots]
    for combo in itertools.product(*ranges):
        if sum(combo) > height:
            continue
        total = [0] * len(rc)
        for mult, root in zip(combo, roots):
            for i, v in enumerate(root):
                total[i] += mult * v
        if tuple(total) == rc:
            counts[sum(combo)] = counts.get(sum(combo), 0) + 1
    return QPolynomial(counts)


def test_partition_zero_weight():
    for datum in (A1, A2, B2):
        assert kostant_partition_q(datum, (0,) * datum.rank) == QPolynomial.one()


def test_partition_simple_cases():
    assert kostant_partition_q(A1, (2,)) == QPolynomial({1: 1})
    assert kostant_partition_q(A2, (1, 1)) == QPolynomial({1: 1, 2: 1})
    assert kostant_partition(A2, (1, 1)) == 2
    assert kostant_partition(A1, (-2,)) == 0
    assert kostant_partition_q(A1, (1,)) == QPolynomial.zero()  # not in the root lattice


@pytest.mark.parametrize("datum", [A2, B2], ids=["A2", "B2"])
def test_partition_matches_brute_force(datum):
    for m in itertools.product(range(5), repeat=2):
        lam = tuple(
            sum(m[j] * datum.simple_roots[j][k] for j in range(2)) for k in range(2)
        )
        assert kostant_partition_q(datum, lam) == brute_partition_q(datum, lam), m


def test_partition_degree_bounds():
    # lowest degree = minimal number of parts, top degree <= height
    for m in itertools.product(range(4), repeat=2):
        if not any(m):
            continue
        lam = tuple(sum(m[j] * B2.simple_roots[j][k] for j in range(2)) for k in range(2))
        p = kostant_partition_q(B2, lam)
        if not p:
            continue
        assert p.degree <= B2.height(lam)
        brute = brute_partition_q(B2, lam)
        assert p.min_degree == brute.min_degree


def test_mq_diagonal_is_one():
    assert lusztig_mq(A2, (1, 1), (1, 1)) == QPolynomial.one()
    assert lusztig_mq(B2, (2, 1), (2, 1)) == QPolynomial.one()


def test_mq_a1_powers():
    for m in range(5):
        assert lusztig_mq(A1, (2 * m,), (0,)) == QPolynomial({m: 1} if m else {0: 1})


def test_mq_a2_adjoint():
    assert lusztig_mq(A2, (1, 1), (0, 0)) == QPolynomial({1: 1, 2: 1})


def test_mq_rejects_non_dominant():
    with pytest.raises(ValueError):
        lusztig_mq(A2, (-1, 0), (0, 0))
    with pytest.raises(ValueError):
        weyl_multiplicity(A2, (-1, 0), (0, 0))
    with pytest.raises(ValueError):
        freudenthal_multiplicity(A2, (-1, 0), (0, 0))


def test_weyl_multiplicity_examples():
    assert weyl_multiplicity(A1, (2,), (0,)) == 1
    assert weyl_multiplicity(A2, (1, 1), (0, 0)) == 2
    assert weyl_multiplicity(A2, (1, 1), (1, 1)) == 1


def test_freudenthal_examples():
    assert freudenthal_multiplicity(A1, (4,), (0,)) == 1
    assert freudenthal_multiplicity(A2, (1, 1), (2, -1)) == 1
    assert freudenthal_multiplicity(A2, (1, 1), (0, 0)) == 2
    assert freudenthal_multiplicity(A2, (1, 1), (5, 5)) == 0


def test_freudenthal_total_dimension():
    for lam in [(1, 1), (2, 0), (2, 2)]:
        table = freudenthal_table(A2, lam)
        total = sum(m * len(A2.weyl_orbit(mu)) for mu, m in table.items())
        assert total == A2.weyl_dimension(lam)


@pytest.mark.parametrize("datum", [A2, B2], ids=["A2", "B2"])
def test_three_way_multiplicity_agreement(datum):
    from nilchar.rootdata import dominant_weights_up_to_height

    for lam in dominant_weights_up_to_height(datum, 4):
        for mu in freudenthal_table(datum, lam):
            mq = lusztig_mq(datum, lam, mu)
            assert mq.eval_at_one() == weyl_multiplicity(datum, lam, mu)
            assert mq.eval_at_one() == freudenthal_multiplicity(datum, lam, mu)


def test_cache_transparency(tmp_path, monkeypatch):
    lam = (2, 2)
    clear_caches()
    cold = lusztig_mq(B2, lam, (0, 0))
    warm = lusztig_mq(B2, lam, (0, 0))
    assert cold == warm
    # disk cache round trip
    monkeypatch.setenv("NILCHAR_CACHE_DIR", str(tmp_path))
    clear_caches()
    first = lusztig_mq(B2, lam, (0, 0))
    assert list(tmp_path.glob("ptable-*.json"))
    clear_caches()
    second = lusztig_mq(B2, lam, (0, 0))
    assert first == second == cold
    monkeypatch.delenv("NILCHAR_CACHE_DIR")
    clear_caches()


def test_clear_caches_empties_irrep_cache():
    irreducible_character(A2, (2, 1))
    freudenthal_table(A2, (2, 1))
    assert A2 in charring._irrep_cache
    clear_caches()
    assert A2 not in charring._irrep_cache
    assert A2 not in kostant._freudenthal_cache


@pytest.mark.parametrize("memoized", [freudenthal_table, irreducible_character])
def test_memo_is_safe_under_concurrent_use(memoized):
    """Threads racing on a cold cache all get the one stored object; a lost
    update (a later writer replacing an earlier one) would break that."""
    datum = build_root_datum([[2, -1], [-2, 2]])  # fresh: shares no cache entry
    lam = (3, 2)
    results = []
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=10)
        results.append(memoized(datum, lam))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 8
    assert all(r is results[0] for r in results)
    assert memoized(datum, lam) is results[0]


def test_warm_partition_table():
    clear_caches()
    warm_partition_table(B2, (6, 6))
    assert kostant_partition_q(B2, (0, 1)) == brute_partition_q(B2, (0, 1))


# -- kernel backends ---------------------------------------------------------

B2_ROOT_COORDS = [(1, 0), (0, 1), (1, 1), (2, 1)]


def test_pure_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        kernels.partition_table([(0, 0)], (2, 2))
    with pytest.raises(ValueError):
        kernels.partition_table([(1, -1)], (2, 2))
    with pytest.raises(ValueError):
        kernels.partition_table([(1, 0)], (2, -1))


@pytest.mark.skipif(not kernels.HAVE_COMPILED, reason="compiled kernel not built")
def test_backend_parity():
    for roots in (B2_ROOT_COORDS, [(1,), (2,)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]):
        rank = len(roots[0])
        bounds = (6,) * rank
        pure = kernels.partition_table(roots, bounds, backend="python")
        fast = kernels.partition_table(roots, bounds, backend="compiled")
        assert pure == fast


@pytest.mark.skipif(not kernels.HAVE_COMPILED, reason="compiled kernel not built")
def test_compiled_kernel_rejects_oversized_tables():
    with pytest.raises(OverflowError):
        kernels._kernels.partition_table([(1, 0), (0, 1)], (4000, 4000))


def test_dispatch_falls_back_on_overflow(monkeypatch):
    class Stub:
        @staticmethod
        def partition_table(roots, bounds):
            raise OverflowError("forced")

    monkeypatch.setattr(kernels, "_kernels", Stub())
    monkeypatch.setattr(kernels, "HAVE_COMPILED", True)
    result = kernels.partition_table([(1,)], (3,), backend="compiled")
    assert result == kernels.partition_table([(1,)], (3,), backend="python")


def test_backend_env_override(monkeypatch):
    monkeypatch.setenv("NILCHAR_BACKEND", "python")
    assert kernels.active_backend() == "python"
    monkeypatch.setenv("NILCHAR_BACKEND", "bogus")
    with pytest.raises(ValueError):
        kernels.active_backend()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_kernel_total_count_property(roots):
    """Summing the table over the box against direct enumeration of tuples."""
    bounds = (4, 4)
    table = kernels.partition_table(roots, bounds, backend="python")
    target = (3, 3)
    expected: dict[int, int] = {}
    for combo in itertools.product(range(0, 8), repeat=len(roots)):
        tot = [0, 0]
        for mult, root in zip(combo, roots):
            tot[0] += mult * root[0]
            tot[1] += mult * root[1]
        if tuple(tot) == target:
            expected[sum(combo)] = expected.get(sum(combo), 0) + 1
    got = dict(enumerate(table.get(target, ())))
    got = {d: c for d, c in got.items() if c}
    assert got == expected
