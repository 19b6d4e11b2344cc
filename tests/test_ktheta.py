"""Wedge class, Koszul identity, the Kostant-Rallis form against the paper's
product formula, dimension checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchar import charring, kernels, ktheta
from nilchar.charring import irreducible_character, symmetric_series
from nilchar.cli import main
from nilchar.config import catalog_names, load_catalog_config
from nilchar.ktheta import (
    Dims,
    RealFormConfig,
    SplitHypothesisError,
    dimension_check,
    k_invariant_check,
    koszul_check,
    theta_cone_character,
    theta_cone_ktypes,
    wedge_class,
)
from nilchar.kernels import lusztig_check
from nilchar.rootdata import InvolutionData, RootDatum, build_root_datum
from paper_formula import restrict_times_wedge
from weyl_action import decompose_into_irreducibles, weyl_dimension


def test_wedge_single_zero_weight():
    w = wedge_class([(0,)], 4, rank=1)
    assert w.layers == [{(0,): 1}, {(0,): -1}, {}, {}, {}]


def test_wedge_empty_is_trivial():
    w = wedge_class([], 3, rank=1)
    assert w.layers == [{(0,): 1}, {}, {}, {}]


def test_wedge_three_weights():
    w = wedge_class([(-2,), (0,), (2,)], 4, rank=1)
    assert w.layers[0] == {(0,): 1}
    assert w.layers[1] == {(-2,): -1, (0,): -1, (2,): -1}
    assert w.layers[2] == {(-2,): 1, (0,): 1, (2,): 1}
    assert w.layers[3] == {(0,): -1}
    assert w.layers[4] == {}


def test_wedge_vanishes_above_dimension():
    w = wedge_class([(1,), (-1,)], 5, rank=1)
    assert all(not w.layers[n] for n in range(3, 6))


def test_symmetric_series_geometric():
    assert symmetric_series([(2,)], 3, rank=1) == [{(0,): 1}, {(2,): 1}, {(4,): 1}, {(6,): 1}]


def test_koszul_examples():
    assert koszul_check([(0,)], 10, rank=1).passed
    assert koszul_check([], 5, rank=1).passed
    assert koszul_check([(-2,), (0,), (2,)], 8, rank=1).passed


def test_koszul_catalog_k_weights():
    for name in ("sl2-split", "sl3-split", "sp4-split", "sl2xsl2-swap"):
        cfg = load_catalog_config(name).real_form
        assert koszul_check(cfg.k_weights, 8, rank=cfg.k_torus_rank).passed, name


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-2, 2)), min_size=0, max_size=4),
    st.integers(0, 5),
)
def test_koszul_identity_any_multiset(weights, truncation):
    assert koszul_check(weights, truncation, rank=1).passed


def test_koszul_failure_reported():
    # A wrong symmetric factor shows up as a clean first-failure report.
    from nilchar.charring import GradedCharacter, graded_mul

    sym = GradedCharacter(1, 4, symmetric_series([(2,)], 4, rank=1))
    wedge = wedge_class([(1,)], 4, rank=1)
    product = graded_mul(sym, wedge)
    trivial = GradedCharacter.trivial(1, 4)
    assert product != trivial  # mismatched multisets break the identity


SL2 = load_catalog_config("sl2-split").real_form


def test_theta_character_sl2():
    gc = theta_cone_character(SL2, 5)
    assert gc.layers[0] == {(0,): 1}
    for m in range(1, 6):
        assert gc.layers[m] == {(2 * m,): 1, (-2 * m,): 1}
    assert gc.masses() == [1, 2, 2, 2, 2, 2]


def test_theta_character_refuses_non_split():
    swap = load_catalog_config("sl2xsl2-swap").real_form
    with pytest.raises(SplitHypothesisError):
        theta_cone_character(swap, 3)
    gc = theta_cone_character(swap, 2, force=True)
    assert gc.layers[0] == {(0,): 1}


def test_theta_ktypes_sl2():
    series = theta_cone_ktypes(SL2, 3)
    assert series.layers[0] == {(0,): 1}
    assert series.layers[1] == {(2,): 1, (-2,): 1}


def test_theta_ktypes_sl3_dimensions():
    cfg = load_catalog_config("sl3-split").real_form
    series = theta_cone_ktypes(cfg, 4)
    gc = theta_cone_character(cfg, 4)
    for n in range(5):
        total = sum(c * weyl_dimension(cfg.k_datum, lam) for lam, c in series.layers[n].items())
        assert total == gc.mass(n)
        assert all(c > 0 for c in series.layers[n].values())


def test_kostant_rallis_multiplicity_one_sl2():
    N = 10
    gc = theta_cone_character(SL2, N)
    totals: dict = {}
    for layer in gc.layers:
        for w, c in layer.items():
            totals[w] = totals.get(w, 0) + c
    assert totals == {(2 * k,): 1 for k in range(-N, N + 1)}


SPLIT = [name for name in catalog_names() if load_catalog_config(name).real_form.split_mod_center]

# Split GL2: K = O(2), whose torus SO(2) is conjugate to {diag(z, 1/z)}, so a
# G-torus weight (a, b) restricts to a - b. The centre of gl2 lies in p.
GL2_SPLIT = RealFormConfig(
    label="gl2-split",
    g_datum=RootDatum(2, [(1, -1)], [(1, -1)]),
    involution=InvolutionData([[-1, 0], [0, -1]]),
    k_torus_rank=1,
    restriction=[[1, -1]],
    k_weights=[(0,)],
    dims=Dims(dim_g=4, dim_k=1, dim_p=3, rank_split=2),
    split_mod_center=True,
    k_datum=None,
)
# A one-dimensional compact torus: its only (central) direction lies in k.
COMPACT_TORUS = RealFormConfig(
    label="u1",
    g_datum=RootDatum(1, (), ()),
    involution=InvolutionData([[1]]),
    k_torus_rank=1,
    restriction=[[1]],
    k_weights=[(0,)],
    dims=Dims(dim_g=1, dim_k=1, dim_p=0, rank_split=0),
    split_mod_center=False,
    k_datum=None,
)


@pytest.mark.parametrize("name", SPLIT)
def test_kostant_rallis_form_is_paper_product(name):
    cfg = load_catalog_config(name).real_form
    assert theta_cone_character(cfg, 20) == restrict_times_wedge(cfg, 20)


def test_kostant_rallis_form_is_paper_product_forced():
    swap = load_catalog_config("sl2xsl2-swap").real_form
    assert theta_cone_character(swap, 12, force=True) == restrict_times_wedge(swap, 12)


def test_kostant_rallis_form_central_torus():
    """A central direction of G counts as an invariant of degree 1, whether
    it lies in p (split GL2) or in k (a compact torus)."""
    assert dimension_check(GL2_SPLIT).passed
    assert GL2_SPLIT.g_datum.exponents == (1,)
    assert GL2_SPLIT.p_weights == ((-2,), (0,), (2,))
    gc = theta_cone_character(GL2_SPLIT, 12)
    assert gc == restrict_times_wedge(GL2_SPLIT, 12)
    assert gc == theta_cone_character(SL2, 12)
    assert COMPACT_TORUS.p_weights == ()
    gc = theta_cone_character(COMPACT_TORUS, 4, force=True)
    assert gc == restrict_times_wedge(COMPACT_TORUS, 4)
    assert gc.layers == [{(0,): 1}, {(0,): -1}, {}, {}, {}]


def test_p_weights_catalog():
    assert load_catalog_config("sl3-split").real_form.p_weights == ((-4,), (-2,), (0,), (2,), (4,))
    sp4 = load_catalog_config("sp4-split").real_form
    assert sp4.p_weights == ((-2, 0), (-1, -1), (0, -2), (0, 2), (1, 1), (2, 0))
    for name in catalog_names():
        cfg = load_catalog_config(name).real_form
        assert len(cfg.p_weights) == cfg.dims.dim_p, name


def test_theta_cone_builds_no_g_torus_character(monkeypatch):
    """The K side never builds C[N] of G or multiplies by the exterior class
    of k. The torus character of C[N] and its restriction to the K-torus
    exist only in the test helper `paper_formula`."""
    rf = load_catalog_config("sp4-split").real_form
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ktheta, "nilcone_series", counted("nilcone_series", ktheta.nilcone_series))
    monkeypatch.setattr(kernels, "lusztig_series", counted("lusztig_series", kernels.lusztig_series))
    monkeypatch.setattr(ktheta, "wedge_class", counted("wedge", ktheta.wedge_class))
    monkeypatch.setattr(ktheta, "graded_mul", counted("graded_mul", ktheta.graded_mul))
    gc = theta_cone_character(rf, 8)
    ktypes = theta_cone_ktypes(rf, 8)
    assert calls == []
    assert gc.masses()[8] > 0 and all(ktypes.layers)


# Every catalog entry carries a K root datum.
KTYPE_ENTRIES = ["sl2-split", "sl3-split", "sp4-split", "sl2xsl2-swap"]


@pytest.mark.parametrize("name", KTYPE_ENTRIES)
def test_ktypes_equal_the_decomposed_torus_character(name):
    """The K-types on labels (Newton's identity on K) equal the
    Kostant-Rallis torus character decomposed off K's Weyl denominator,
    layer by layer; the non-split entry is forced."""
    assert sorted(KTYPE_ENTRIES) == sorted(catalog_names())
    rf = load_catalog_config(name).real_form
    force = not rf.split_mod_center
    N = 16
    gc = theta_cone_character(rf, N, force=force)
    series = theta_cone_ktypes(rf, N, force=force)
    assert series.truncation == N
    for n in range(N + 1):
        assert series.layers[n] == decompose_into_irreducibles(rf.k_datum, gc.layer(n)), n
    assert all(series.layers)


def test_ktypes_build_no_torus_symmetric_algebra(monkeypatch):
    """`theta_cone_ktypes` never builds S(p) on the K-torus; the counter
    does see `theta_cone_character` build it."""
    calls = []
    real = charring.packed_symmetric_series

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ktheta, "packed_symmetric_series", counted)
    monkeypatch.setattr(charring, "packed_symmetric_series", counted)
    for name in KTYPE_ENTRIES:
        assert theta_cone_ktypes(load_catalog_config(name).real_form, 8, force=True).layers[8]
    assert calls == []
    theta_cone_character(SL2, 8)
    assert len(calls) == 1


def test_theta_character_checks_its_layers_once(monkeypatch):
    """S(p) comes back as plain layers: the one `GradedCharacter` that
    `theta_cone_character` returns is the only one it checks, and it still
    drops the zeros that the factors leave (sl2: 1 - q^2 cancels the zero
    weight of degree 2)."""
    checks = []
    real = charring._checked_layers

    def counted(*args):
        checks.append(args[:2])
        return real(*args)

    monkeypatch.setattr(charring, "_checked_layers", counted)
    gc = theta_cone_character(SL2, 8)
    assert checks == [(1, 8)]
    assert gc.layers[2] == {(-4,): 1, (4,): 1}
    assert all(all(layer.values()) for layer in gc.layers)


def _totals(series) -> dict:
    """Multiplicity of each label summed over all degrees."""
    out: dict = {}
    for layer in series.layers:
        for lam, c in layer.items():
            out[lam] = out.get(lam, 0) + c
    return out


# Kostant-Rallis: ungraded, C[N_theta] = Ind_M^K(1) with M = Z_K(a), so the
# total of each K-type mu over all degrees is dim mu^M. The expected totals
# below use no Newton's identity. A K-type's total is complete only once N
# passes its top degree; each test stays well inside the top degrees seen.


def test_ktype_totals_are_dim_mu_m_sl2():
    """K = SO(2) and M = {+-1}: every even weight once, no odd weight."""
    totals = _totals(theta_cone_ktypes(SL2, 24))
    assert {k: totals.get((k,), 0) for k in range(-16, 17)} == {k: 1 - k % 2 for k in range(-16, 17)}
    assert all(lam[0] % 2 == 0 for lam in totals)


def test_ktype_totals_are_dim_mu_m_sl3():
    """K = SO(3) and M = (Z/2)^2, whose three non-trivial elements are
    rotations by pi: label 2j (spin j) has total (2j + 1 + 3(-1)^j) / 4."""
    rf = load_catalog_config("sl3-split").real_form
    totals = _totals(theta_cone_ktypes(rf, 24))
    assert {j: totals.get((2 * j,), 0) for j in range(9)} == {j: (2 * j + 1 + 3 * (-1) ** j) // 4 for j in range(9)}
    assert all(lam[0] % 2 == 0 for lam in totals)


def test_ktype_totals_are_dim_mu_m_sp4():
    """K = GL2 and M = {diag(+-1, +-1)} lies in the K-torus, so dim mu^M is
    the number of weights of V_mu with both entries even, read off the
    Demazure-built character. Every K-type (a, b) with
    (a - b) + |a + b| / 2 <= 10 (its observed top degree) is complete at
    N = 24; no label of non-zero total may be missing."""
    rf = load_catalog_config("sp4-split").real_form
    totals = _totals(theta_cone_ktypes(rf, 24))
    region = [(a, b) for a in range(-20, 21) for b in range(-20, a + 1) if 2 * (a - b) + abs(a + b) <= 20]
    expected = {
        mu: sum(c for w, c in irreducible_character(rf.k_datum, mu).terms.items() if w[0] % 2 == 0 == w[1] % 2)
        for mu in region
    }
    assert {mu: totals.get(mu, 0) for mu in region} == expected
    assert sum(1 for c in expected.values() if c) == 56


def test_dimension_check_catalog():
    for name in ("sl2-split", "sl3-split", "sp4-split"):
        assert dimension_check(load_catalog_config(name).real_form).passed, name


def test_dimension_check_degenerate_torus():
    cfg = RealFormConfig(
        label="torus",
        g_datum=RootDatum(1, (), ()),
        involution=InvolutionData([[-1]]),
        k_torus_rank=1,
        restriction=[[1]],
        k_weights=(),
        dims=Dims(dim_g=1, dim_k=0, dim_p=1, rank_split=1),
        split_mod_center=True,
        k_datum=None,
    )
    assert dimension_check(cfg).passed
    gc = theta_cone_character(cfg, 3)
    assert gc.masses() == [1, 0, 0, 0]


def test_dimension_check_rejects_bad_table():
    a1 = build_root_datum([[2]])
    bad = RealFormConfig(
        label="bad",
        g_datum=a1,
        involution=InvolutionData([[-1]]),
        k_torus_rank=1,
        restriction=[[1]],
        k_weights=[(0,), (2,), (-2,)],
        dims=Dims(dim_g=5, dim_k=3, dim_p=2, rank_split=1),
        split_mod_center=True,
        k_datum=None,
    )
    result = dimension_check(bad)
    assert not result.passed
    assert "FAIL" in "\n".join(result.lines)


def test_dimension_check_cone_line_can_fail():
    """dim N comes from the root datum, so a wrong real rank shows on the
    cone-restriction line itself. Built directly: the config loader refuses
    a split document whose dimensions fail."""
    sl3 = load_catalog_config("sl3-split").real_form
    d = sl3.dims
    bad = RealFormConfig(
        label=sl3.label,
        g_datum=sl3.g_datum,
        involution=sl3.involution,
        k_torus_rank=sl3.k_torus_rank,
        restriction=sl3.restriction,
        k_weights=sl3.k_weights,
        dims=Dims(dim_g=d.dim_g, dim_k=d.dim_k, dim_p=d.dim_p, rank_split=1),
        split_mod_center=sl3.split_mod_center,
        k_datum=sl3.k_datum,
    )
    result = dimension_check(bad)
    assert not result.passed
    assert result.lines[0] == "FAIL: dim N_theta = dim N + dim p - dim g  (4 vs 3)"


def test_dimension_check_cone_line_skipped_when_not_split():
    result = dimension_check(load_catalog_config("sl2xsl2-swap").real_form)
    assert result.passed
    assert result.lines[0].startswith("skip: dim N_theta")


def test_lusztig_check_catalog():
    for name in catalog_names():
        result = lusztig_check(load_catalog_config(name).real_form.g_datum, 6)
        assert result.passed, (name, result.lines)


@pytest.mark.parametrize("side", ["lusztig_series", "nilcone_series"])
def test_lusztig_check_fails_on_one_changed_multiplicity(monkeypatch, capsys, side):
    real = getattr(kernels, side)

    def bumped(datum, truncation):
        out = real(datum, truncation)
        key = min(out.layers[2])
        out.layers[2][key] += 1
        return out

    monkeypatch.setattr(kernels, side, bumped)
    result = lusztig_check(load_catalog_config("sl3-split").real_form.g_datum, 4)
    assert not result.passed
    assert "differ first at degree 2" in "\n".join(result.lines)
    code = main(["checks", "--group", "sl3-split", "--degree", "3"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] lusztig-vs-harmonics" in out


def test_lusztig_check_fails_on_straightening_without_the_sign(monkeypatch, capsys):
    """A Brauer-Klimyk straightening that forgets to flip the sign at each
    dot reflection breaks Newton's divisibility on sl3 at degree 3; the
    check reports it as a failure (exit 2), not as an error."""
    real = charring._straighten

    def unsigned(datum, v):
        mu, sign = real(datum, v)
        return mu, abs(sign)

    monkeypatch.setattr(charring, "_straighten", unsigned)
    result = lusztig_check(load_catalog_config("sl3-split").real_form.g_datum, 3)
    assert not result.passed
    assert result.lines[0].startswith("harmonic closed form fails: highest weight")
    code = main(["checks", "--group", "sl3-split", "--degree", "3"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] lusztig-vs-harmonics" in out


@pytest.mark.parametrize("name", ["sl2-split", "sl3-split", "sp4-split"])
def test_k_invariant_check_catalog(name):
    result = k_invariant_check(load_catalog_config(name).real_form, 12, False)
    assert result.passed and result.lines == ("trivial K-type occurs once, in degree 0, through degree 12",)


def test_k_invariant_check_fails_on_the_forced_swap():
    """On sl2 x sl2 with the swap, p is the adjoint module of K = SL2, so
    S(p)^K has one generator, of degree 2, but G has two invariants of
    degree 2: the forced formula gives the trivial K-type multiplicity -1 in
    degree 2. Unforced, the check refuses the config."""
    swap = load_catalog_config("sl2xsl2-swap").real_form
    result = k_invariant_check(swap, 6, True)
    assert not result.passed
    assert result.lines == ("trivial K-type has multiplicity -1 in degree 2, expected 0",)
    with pytest.raises(SplitHypothesisError):
        k_invariant_check(swap, 6, False)


@pytest.mark.parametrize("degree", [0, 3])
def test_k_invariant_check_fails_on_one_changed_multiplicity(monkeypatch, capsys, degree):
    real = ktheta.theta_cone_ktypes

    def bumped(config, truncation, force):
        out = real(config, truncation, force)
        zero = (0,) * out.rank
        out.layers[degree][zero] = out.layers[degree].get(zero, 0) + 1
        return out

    monkeypatch.setattr(ktheta, "theta_cone_ktypes", bumped)
    result = k_invariant_check(load_catalog_config("sp4-split").real_form, 5, False)
    expected = 2 if degree == 0 else 1
    assert result.lines == (f"trivial K-type has multiplicity {expected} in degree {degree}, expected {int(degree == 0)}",)
    code = main(["checks", "--group", "sp4-split", "--degree", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] k-invariants" in out and out.count("[FAIL]") == 1


def test_config_validation_errors():
    a1 = build_root_datum([[2]])
    with pytest.raises(ValueError, match="dim k"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            k_torus_rank=1, restriction=[[1]], k_weights=[(0,), (0,)],
            dims=Dims(3, 1, 2, 1), split_mod_center=True, k_datum=None,
        )
    with pytest.raises(ValueError, match="negation"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            k_torus_rank=1, restriction=[[1]], k_weights=[(2,)],
            dims=Dims(3, 1, 2, 1), split_mod_center=True, k_datum=None,
        )
    with pytest.raises(ValueError, match="matrix"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            k_torus_rank=2, restriction=[[1]], k_weights=[(0, 0), (1, 1), (-1, -1)],
            dims=Dims(3, 3, 0, 1), split_mod_center=True, k_datum=None,
        )


@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_config_refuses_non_integer_entries(bad):
    """A float (even 2.0) or a bool in `restriction` or `k_weights` is
    refused and named, not rounded."""
    a1 = build_root_datum([[2]])
    with pytest.raises(ValueError, match=r"restriction\[0\]\[0\]"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            k_torus_rank=1, restriction=[[bad]], k_weights=[(0,)],
            dims=Dims(3, 1, 2, 1), split_mod_center=True, k_datum=None,
        )
    with pytest.raises(ValueError, match=r"k_weights\[0\]\[0\]"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            k_torus_rank=1, restriction=[[1]], k_weights=[(bad,)],
            dims=Dims(3, 1, 2, 1), split_mod_center=True, k_datum=None,
        )
