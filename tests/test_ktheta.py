"""Wedge class, Koszul identity, the Kostant-Rallis form against the paper's
product formula, dimension checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilchar import charring, cli, kernels, ktheta
from nilchar.charring import irreducible_character
from nilchar.cli import main
from nilchar.config import ConfigError, catalog_names, config_from_dict, load_catalog_config
from nilchar.ktheta import (
    RealFormConfig,
    SplitHypothesisError,
    dimension_check,
    exterior_products,
    k_invariant_check,
    koszul_check,
    ktypes_vs_torus_check,
    labels_off_torus,
    theta_cone_character,
    theta_cone_ktypes,
)
from nilchar.kernels import lusztig_check
from nilchar.rootdata import InvolutionData, RootDatum, build_root_datum
from catalog_documents import catalog_document
from paper_formula import restrict_times_wedge
from weyl_action import weyl_dimension


def test_wedge_single_zero_weight():
    assert exterior_products([], [[(0,)]], 4, rank=1)[0] == [{(0,): 1}, {(0,): -1}, {}, {}, {}]


def test_wedge_empty_is_trivial():
    assert exterior_products([], [[]], 3, rank=1)[0] == [{(0,): 1}, {}, {}, {}]


def test_wedge_three_weights():
    w = exterior_products([], [[(-2,), (0,), (2,)]], 4, rank=1)[0]
    assert w[0] == {(0,): 1}
    assert w[1] == {(-2,): -1, (0,): -1, (2,): -1}
    assert w[2] == {(-2,): 1, (0,): 1, (2,): 1}
    assert w[3] == {(0,): -1}
    assert w[4] == {}


def test_wedge_vanishes_above_dimension():
    w = exterior_products([], [[(1,), (-1,)]], 5, rank=1)[0]
    assert all(not w[n] for n in range(3, 6))


def test_symmetric_series_geometric():
    assert exterior_products([(2,)], [()], 3, rank=1) == [[{(0,): 1}, {(2,): 1}, {(4,): 1}, {(6,): 1}]]


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


def test_koszul_failure_reported(monkeypatch, capsys):
    """An exterior factor with one sign flipped, 1 + e^w q for sl3's first k
    weight w = -2, breaks the Koszul identity: the report names the first
    failing degree with both layers, and `checks` fails that entry alone
    (exit 2)."""
    real = ktheta.times_exterior

    def flipped(packed, layers):
        w = packed[0]
        for n in range(len(layers) - 1, 0, -1):
            for v, c in layers[n - 1].items():
                layers[n][v + w] = layers[n].get(v + w, 0) + c
        return real(packed[1:], layers)

    monkeypatch.setattr(ktheta, "times_exterior", flipped)
    line = "Koszul identity fails first at degree 1: got 2*e[-2], expected 0"
    sl3 = load_catalog_config("sl3-split").real_form
    assert koszul_check(sl3.k_weights, 4, rank=1).lines == (line,)
    code = main(["checks", "--group", "sl3-split", "--degree", "3"])
    out = capsys.readouterr().out
    assert code == 2
    assert f"[FAIL] koszul\n    {line}\n" in out and out.count("[FAIL]") == 1


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
    restriction=[[1, -1]],
    k_weights=[(0,)],
    k_datum=None,
)
# A one-dimensional compact torus: its only (central) direction lies in k.
COMPACT_TORUS = RealFormConfig(
    label="u1",
    g_datum=RootDatum(1, (), ()),
    involution=InvolutionData([[1]]),
    restriction=[[1]],
    k_weights=[(0,)],
    k_datum=None,
)
# Split SL2 times a compact centre: theta fixes the central direction, so
# the form is not split modulo center.
SL2_COMPACT_CENTRE = RealFormConfig(
    label="sl2-u1",
    g_datum=RootDatum(2, [(2, 0)], [(1, 0)]),
    involution=InvolutionData([[-1, 0], [0, 1]]),
    restriction=[[1, 0], [0, 1]],
    k_weights=[(0, 0), (0, 0)],
    k_datum=None,
)


@pytest.mark.parametrize(
    "config, rank_split, split",
    [(GL2_SPLIT, 2, True), (COMPACT_TORUS, 0, False), (SL2_COMPACT_CENTRE, 1, False)],
    ids=["gl2-minus-identity", "u1-identity", "sl2-compact-centre"],
)
def test_split_hypothesis_is_read_off_the_involution(config, rank_split, split):
    """`rank_split` is the rank less the rank that theta fixes, and the form
    is split modulo center exactly when theta is -1 on the whole lattice,
    its centre included: a central direction in k is a compact factor."""
    assert (config.rank_split, config.split_mod_center) == (rank_split, split)
    assert "rank_split" not in repr(config) and "split_mod_center" not in repr(config)
    if not split:
        with pytest.raises(SplitHypothesisError):
            theta_cone_character(config, 2)


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


@pytest.mark.parametrize(
    "name, dims",
    [
        ("sl2-split", (3, 1, 2, 1)),
        ("sl2xsl2-swap", (6, 3, 3, 1)),
        ("sl3-split", (8, 3, 5, 2)),
        ("sp4-split", (10, 4, 6, 2)),
    ],
)
def test_catalog_dimensions_are_derived(name, dims):
    """(dim g, dim k, dim p, rank_split) of each catalog group: dim k and
    dim p are the numbers of k and p weights, dim g = 2|Phi+| + rank is their
    sum, and the K-torus rank is the number of rows of the restriction."""
    cfg = load_catalog_config(name).real_form
    dim_k, dim_p = len(cfg.k_weights), len(cfg.p_weights)
    assert (dim_k + dim_p, dim_k, dim_p, cfg.rank_split) == dims
    assert dim_k + dim_p == 2 * len(cfg.g_datum.positive_roots) + cfg.g_datum.rank
    assert cfg.k_torus_rank == len(cfg.restriction) == cfg.k_datum.rank


def test_theta_cone_builds_no_g_torus_character(monkeypatch):
    """The K side never builds C[N] of G or multiplies by an exterior class
    (`exterior_products`, `times_exterior`). The torus character of C[N]
    and its restriction to the K-torus exist only in the test helper
    `paper_formula`."""
    rf = load_catalog_config("sp4-split").real_form
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ktheta, "nilcone_series", counted("nilcone_series", ktheta.nilcone_series))
    monkeypatch.setattr(kernels, "lusztig_series", counted("lusztig_series", kernels.lusztig_series))
    monkeypatch.setattr(ktheta, "exterior_products", counted("exterior_products", ktheta.exterior_products))
    monkeypatch.setattr(ktheta, "times_exterior", counted("times_exterior", ktheta.times_exterior))
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
        assert series.layers[n] == labels_off_torus(rf.k_datum, gc.layers[n]), n
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
        mu: sum(c for w, c in irreducible_character(rf.k_datum, mu).items() if w[0] % 2 == 0 == w[1] % 2)
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
        restriction=[[1]],
        k_weights=(),
        k_datum=None,
    )
    assert dimension_check(cfg).passed
    gc = theta_cone_character(cfg, 3)
    assert gc.masses() == [1, 0, 0, 0]


def test_dimension_check_rejects_bad_table():
    """The k weights of compact SL2 under the split involution: every
    weight of g lies in k, so p is empty and the Iwasawa count fails."""
    a1 = build_root_datum([[2]])
    bad = RealFormConfig(
        label="bad",
        g_datum=a1,
        involution=InvolutionData([[-1]]),
        restriction=[[1]],
        k_weights=[(0,), (2,), (-2,)],
        k_datum=None,
    )
    result = dimension_check(bad)
    assert not result.passed
    assert result.lines == ("FAIL: Iwasawa count dim g = dim k + rank + dim n  (3 vs 3 + 1 + 1)",)


def test_dimension_check_iwasawa_line_can_fail():
    """sl3-split with k.weights [[0]] and no K datum: dim k = 1 and dim p = 7,
    so the Iwasawa count fails. `checks` loads such a document and reports
    the line."""
    doc = catalog_document("sl3-split")
    del doc["k"]["datum"]
    doc["k"]["weights"] = [[0]]
    result = dimension_check(config_from_dict(doc, require_split=False).real_form)
    assert not result.passed
    assert result.lines == ("FAIL: Iwasawa count dim g = dim k + rank + dim n  (8 vs 1 + 2 + 3)",)
    with pytest.raises(ConfigError, match=r"split_mod_center: .*Iwasawa count"):
        config_from_dict(doc)


def test_dimension_check_skipped_when_not_split():
    result = dimension_check(load_catalog_config("sl2xsl2-swap").real_form)
    assert result.passed
    assert result.lines == ("skip: Iwasawa count (config is not split modulo center)",)


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
    result = k_invariant_check(theta_cone_ktypes(load_catalog_config(name).real_form, 12))
    assert result.passed and result.lines == ("trivial K-type occurs once, in degree 0, through degree 12",)


def test_k_invariant_check_fails_on_the_forced_swap():
    """On sl2 x sl2 with the swap, p is the adjoint module of K = SL2, so
    S(p)^K has one generator, of degree 2, but G has two invariants of
    degree 2: the forced formula gives the trivial K-type multiplicity -1 in
    degree 2. Unforced, the K-types it reads are refused."""
    swap = load_catalog_config("sl2xsl2-swap").real_form
    result = k_invariant_check(theta_cone_ktypes(swap, 6, True))
    assert not result.passed
    assert result.lines == ("trivial K-type has multiplicity -1 in degree 2, expected 0",)
    with pytest.raises(SplitHypothesisError):
        theta_cone_ktypes(swap, 6, False)


def _bump(real, degree, label):
    """`real` (a cone form's builder) with the multiplicity of `label` in
    `degree` raised by one; `label` None is the zero weight."""

    def bumped(config, truncation, force=False):
        out = real(config, truncation, force)
        key = (0,) * out.rank if label is None else label
        out.layers[degree][key] = out.layers[degree].get(key, 0) + 1
        return out

    return bumped


@pytest.mark.parametrize("degree", [0, 3])
def test_k_invariant_check_fails_on_one_changed_multiplicity(monkeypatch, capsys, degree):
    """A trivial K-type bumped by one fails `k-invariants`, and
    `ktypes-vs-torus` too: the torus series does not hold it."""
    bumped = _bump(ktheta.theta_cone_ktypes, degree, None)
    result = k_invariant_check(bumped(load_catalog_config("sp4-split").real_form, 5, False))
    expected = 2 if degree == 0 else 1
    assert result.lines == (f"trivial K-type has multiplicity {expected} in degree {degree}, expected {int(degree == 0)}",)
    monkeypatch.setattr(cli, "theta_cone_ktypes", bumped)
    code = main(["checks", "--group", "sp4-split", "--degree", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] k-invariants" in out and "[FAIL] ktypes-vs-torus" in out and out.count("[FAIL]") == 2


@pytest.mark.parametrize("name", sorted(catalog_names()))
def test_ktypes_vs_torus_passes_on_the_catalog(capsys, name):
    """Every catalog entry, the non-split one forced, at degree 16."""
    code = main(["checks", "--group", name, "--degree", "16", "--force"])
    out = capsys.readouterr().out
    assert code == (2 if name == "sl2xsl2-swap" else 0)
    assert ("[PASS] ktypes-vs-torus\n    K-types equal the torus series read off K's Weyl denominator "
            "through degree 16\n") in out


def test_ktypes_vs_torus_reads_a_label_where_the_layer_has_no_weight():
    """Forced sl2xsl2-swap in degree 2 is V_4 - V_0, whose torus layer holds
    no zero weight; V_0's multiplicity -1 is read off the denominator there,
    so the read-back scans the product, not the layer's dominant weights."""
    swap = load_catalog_config("sl2xsl2-swap").real_form
    layer = theta_cone_character(swap, 2, force=True).layers[2]
    assert (0,) not in layer
    assert labels_off_torus(swap.k_datum, layer) == {(4,): 1, (0,): -1}
    assert ktypes_vs_torus_check(swap.k_datum, theta_cone_ktypes(swap, 2, True), theta_cone_character(swap, 2, True))


@pytest.mark.parametrize("side, label", [("ktypes", (2, 0)), ("torus", (1, 1))])
def test_ktypes_vs_torus_fails_on_one_bumped_multiplicity(monkeypatch, capsys, side, label):
    """A non-trivial K-type, or a torus weight that K's Weyl group fixes,
    bumped by one in degree 3 of sp4-split fails the entry with exit 2. The
    K-types' bump fails it alone; the torus's also fails the oracle, which
    reads the same series."""
    name = "theta_cone_ktypes" if side == "ktypes" else "theta_cone_character"
    monkeypatch.setattr(cli, name, _bump(getattr(ktheta, name), 3, label))
    code = main(["checks", "--group", "sp4-split", "--degree", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] ktypes-vs-torus\n    degree 3: K-types " in out
    failed = {line[len("[FAIL] "):] for line in out.splitlines() if line.startswith("[FAIL]")}
    assert failed == ({"ktypes-vs-torus"} if side == "ktypes" else {"ktypes-vs-torus", "oracle"})


def test_ktypes_vs_torus_reports_a_layer_that_is_not_weyl_invariant():
    rf = load_catalog_config("sp4-split").real_form
    torus = theta_cone_character(rf, 2)
    torus.layers[2][(4, 0)] += 1
    result = ktypes_vs_torus_check(rf.k_datum, theta_cone_ktypes(rf, 2), torus)
    assert not result.passed
    assert result.lines[0].startswith("degree 2: the torus layer cannot be read as K-types: character is not Weyl-invariant")


def test_config_validation_errors():
    a1 = build_root_datum([[2]])
    with pytest.raises(ValueError, match=r"k\.weights: weight \[0\] occurs 2 times in k but 1"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            restriction=[[1]], k_weights=[(0,), (0,)],
            k_datum=None,
        )
    with pytest.raises(ValueError, match="negation"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            restriction=[[1]], k_weights=[(2,)],
            k_datum=None,
        )
    with pytest.raises(ValueError, match=r"involution must be a 1 x 1 matrix"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1, 0], [0, -1]]),
            restriction=[[1]], k_weights=[(0,)],
            k_datum=None,
        )
    with pytest.raises(ValueError, match="matrix"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            restriction=[[1, 0]], k_weights=[(0,)],
            k_datum=None,
        )


@pytest.mark.parametrize("bad", [1.5, True, 2.0])
def test_config_refuses_non_integer_entries(bad):
    """A float (even 2.0) or a bool in `restriction` or `k_weights` is
    refused and named, not rounded."""
    a1 = build_root_datum([[2]])
    with pytest.raises(ValueError, match=r"restriction\[0\]\[0\]"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            restriction=[[bad]], k_weights=[(0,)],
            k_datum=None,
        )
    with pytest.raises(ValueError, match=r"k_weights\[0\]\[0\]"):
        RealFormConfig(
            label="x", g_datum=a1, involution=InvolutionData([[-1]]),
            restriction=[[1]], k_weights=[(bad,)],
            k_datum=None,
        )
