"""The compiled partition kernel, its backend switch, the on-disk table
cache, the matrix-closed Weyl group, the general lattice solver, the
invariant form, the records generated by `dataclasses`, the library
copies of three test-only helpers, the process-wide registry of per-datum
caches, `QPolynomial.eval_at_one`, the torus character of C[N] in the
library (now `tests/paper_formula.py`), five methods that only tests
called, the oracle's unsplit tuple route (now `tests/oracle_reference.py`),
the decomposition of torus characters into irreducibles with its Weyl-orbit
check (now `tests/weyl_action.py`), the Lusztig scan's contributor list
(folded into `lusztig_series`), the single-query partition and Weyl-sum
functions with `QPolynomial` (now `tests/lusztig_reference.py`) and the
tensoring and Zuckerman sums (now `tests/standard_sums.py`), and the
branching sum's own weight-multiset type, exterior algebra and irreducible
weight multiset (the sum is one graded product per torus, with
`ktheta.exterior_products`), and the Lusztig sum's per-element `D_w` matrices
with `weyl_on_labels`, which built them (the sum is one pruned walk over
the Weyl orbit), and the defaults and aliases that only tests used (the
`RootDatum` aliases `reductive_root_datum` and `torus_datum`, `Record`'s
per-class defaults, the rank inferred from a weight multiset,
`CheckResult.details` and the catalog's raw-document copy, now
`tests/catalog_documents.py`), and the catalog module (its documents and
names are in `config`, with the cone-model records), the `__future__`
imports (annotations evaluate as written from Python 3.10 on) and
`RootDatum.weyl_words` with its `_weyl_words` memo, the library's last
cache (the listing is now `tests/weyl_action.py`'s, and
`irreducible_character` reads w0's word off rho), and the check of weight
entries alone (`_refuse_non_int_entries`; a weight's length is checked with
its entries, so no symmetric algebra cuts a weight to the rank) and the
`--json` pass-through of `to_records()` rows (`_weight_rows`; series rows
are written from the layers), and the `nilcone` and `kostant` modules (the
production cones are in `ktheta`, and the Lusztig check with its scan
domain, orbit walk and partition table in `kernels`), and `ktheta._multiset`
(now `collections.Counter`) and `cli._print_json` (its callers print
`_json_text` directly), and `graded_mul` with the ring operators of
`TorusCharacter` and their rank check `_check` (every torus product is
taken on packed weights, `ktheta.exterior_products`; the tests' reference
product is `tests/paper_formula.py`'s `tuple_product`), and the
`TorusCharacter` class (a character is a weight -> multiplicity dict,
written by `charring.format_terms`; the read-back off the Weyl denominator
is `ktheta.labels_off_torus`), and the `Dims` record with the two
`dimensions` lines that could no longer fail (the dimensions are derived
from the weights, and the cone line tests the split rank), and
`RootDatum.two_rho` and `RootDatum.positive_coroots`, which no library
code read (the tests take both from `tests/weyl_action.py`), and
`ktheta.wedge_class`, which no command called (its tests call
`exterior_products`), and the cone line `dim N_theta = dim N + dim p - dim
g`, which only restated `rank_split == rank`, now the definition of split
(both are derived from the involution), and the oracle's own clearing of
denominators (`_integer_terms`; `AffineConeModel` holds integer
generators), its revlex monomial order (the tests' reference keeps it) and
`RootDatum`'s hand-written equality with its cached `self._hash` (a datum
is a `Record`), and C[N]'s own product over the exponents' q-strings
`1 + q + ... + q^e` (C[N] takes the invariant-degree factors from
`ktheta.times_invariant_factors`, as the K side does; the tests' torus
reference `tests/paper_formula.py` keeps the q-strings), and the loader's
own judgement of the real form (its noncompact-root test, its `k.datum`
rank check and its `config '<label>': ` prefix; `RealFormConfig` judges
every (G, theta, K), with messages that begin with the field) and the
record's old field names (`restriction`, `k_weights`), the branching sum's
and `oracle-check`'s own split tests (`ktheta.require_split` is the one
guard), torus errors named by label (now `tori[i]`), the cone model's own
clearing of `Fraction` denominators (the loader clears a document's; the
record takes integers), and `charring.irreducible_character` with
`_w0_word` and `_demazure` (Demazure's formula is
`tests/weyl_action.py`'s), are gone; no source file, README line or build
setting may point back to them."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STALE = (
    "NILCHAR_BACKEND",
    "NILCHAR_CACHE_DIR",
    "_kernels.",
    "Cython",
    "WeylElement",
    "weyl_group(",
    "longest_element",
    "k_norm_squared",
    "_LatticeSolver",
    "_SquareSolver",
    "wsub_frac",
    "_inner_slow",
    "dataclass",
    "weyl_dimension",
    "restrict_character",
    "kostant_partition(",
    "clear_caches",
    "warm_partition_table",
    "new_memo",
    "memo_get",
    "_irrep_cache",
    "import threading",
    "eval_at_one",
    "nilcone_character",
    "def shift",
    "min_degree",
    "from_weight",
    "def union",
    "coefficient_mass_by_degree",
    "hilbert_by_degree",
    "_monomials",
    "decompose_into_irreducibles",
    "_validate_weyl_invariance",
    "def weyl_orbit",
    "contributor_polynomials",
    "lusztig_mq(",
    "weyl_multiplicity",
    "kostant_partition_q",
    "_weyl_sum",
    "tensor_standard",
    "zuckerman_expansion",
    "QPolynomial",
    "WeightMultiset",
    "wedge_weight_multiset",
    "irrep_weight_multiset",
    "weyl_on_labels",
    "D_w",
    "reductive_root_datum",
    "torus_datum",
    "cls._defaults",
    "rank is required for an empty weight multiset",
    "def details",
    "def catalog_document",
    "nilchar.catalog",
    "from .catalog",
    "catalog.py",
    "from __future__",
    "weyl_words",
    "_weyl_words",
    "_refuse_non_int_entries",
    "_weight_rows",
    "from .nilcone",
    "from .kostant",
    "nilchar.kostant",
    "kostant.py",
    "nilcone.py",
    "def _multiset",
    "_print_json",
    "graded_mul",
    "def _check(",
    "class TorusCharacter",
    "class Dims",
    "dim g matches the root datum",
    "split rank equals the lattice rank",
    "two_rho",
    "positive_coroots",
    "wedge_class",
    "dim N_theta = dim N + dim p - dim g",
    "_integer_terms",
    "revlex",
    "self._hash",
    "1 + q + ... + q^",
    "config {name!r}: {exc}",
    "classify_roots(g_datum, involution)",
    "K root datum rank must equal",
    "involution must be a",
    'f"restriction[{i}]"',
    "k_weights[{i}]",
    "split_mod_center: config",
    'raise ValueError(f"config {config.label!r} is not split modulo center")',
    "require_split(cfg.real_form",
    "tori[{torus.label!r}]",
    "must be an int or a Fraction",
    "c.denominator",
    "irreducible_character",
    "_w0_word",
    "_demazure",
)


def test_no_reference_to_removed_backend_or_cache():
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    files += [ROOT / "README.md", ROOT / "pyproject.toml"]
    assert len(files) > 3
    hits = [
        f"{path.relative_to(ROOT)}: {pattern}"
        for path in files
        for pattern in STALE
        if pattern in path.name or pattern in path.read_text(errors="replace")
    ]
    assert not hits


def test_readme_layout_lists_exactly_the_modules():
    """The README's "Library layout" table has one row per module of the
    package other than `__init__`, so a module that leaves or arrives
    cannot leave the table stale."""
    text = (ROOT / "README.md").read_text()
    table = text.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
    modules = {p.stem for p in (ROOT / "src" / "nilchar").glob("*.py")} - {"__init__"}
    assert len(rows) == len(set(rows)) and set(rows) == modules
