"""The compiled partition kernel, its backend switch, the on-disk table
cache, the matrix-closed Weyl group, the general lattice solver and the
invariant form are gone; no source file, README line or build setting may
point back to them."""

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
