"""The independent references, pinned to values worked out by hand."""

from reference import DEGREES, WeylDimension, fundamental_weight_datum, hilbert_coefficients


def weyl_dimension(cartan):
    return WeylDimension(*fundamental_weight_datum(cartan))


def test_sl2_cone_layer_n_has_dimension_2n_plus_1():
    assert hilbert_coefficients(DEGREES["A1"], 3, 8) == [2 * n + 1 for n in range(9)]


def test_low_degree_layers_by_hand():
    # C[N] for sl3: S^1(g*) = 8, S^2 = 36 minus the quadratic invariant.
    assert hilbert_coefficients(DEGREES["A2"], 8, 2) == [1, 8, 35]
    # C[N_theta] for split SL3: p has dimension 5; S^2(p) = 15 minus one invariant.
    assert hilbert_coefficients(DEGREES["A2"], 5, 2) == [1, 5, 14]
    # C[N_theta] for split Sp4: p has dimension 6; the quartic invariant starts at q^4.
    assert hilbert_coefficients(DEGREES["C2"], 6, 4) == [1, 6, 20, 50, 104]
    # C[N] for A4: S^2(sl5) = 300 minus the quadratic invariant.
    assert hilbert_coefficients(DEGREES["A4"], 24, 2) == [1, 24, 299]


def test_weyl_dimension_sl2_and_sl3():
    sl2 = weyl_dimension([[2]])
    assert [sl2((a,)) for a in range(5)] == [1, 2, 3, 4, 5]
    sl3 = weyl_dimension([[2, -1], [-1, 2]])
    assert sl3((1, 0)) == sl3((0, 1)) == 3
    assert sl3((2, 0)) == 6
    assert sl3((1, 1)) == 8
    assert sl3((3, 0)) == 10


def test_weyl_dimension_c2_and_a4():
    sp4 = weyl_dimension([[2, -2], [-1, 2]])
    assert len(sp4.positive_roots) == 4
    assert (sp4((1, 0)), sp4((0, 1)), sp4((2, 0))) == (4, 5, 10)
    a4 = weyl_dimension([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    assert len(a4.positive_roots) == 10
    assert [a4(w) for w in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]] == [5, 10, 10]
    assert a4.highest_root() == (1, 0, 0, 1)
    assert a4((1, 0, 0, 1)) == 24


def test_weyl_dimension_gl2_with_a_central_direction():
    gl2 = WeylDimension([(1, -1)], [(1, -1)])
    assert gl2((0, 0)) == 1
    assert gl2((2, 2)) == 1  # a power of the determinant
    assert gl2((3, -2)) == 6
