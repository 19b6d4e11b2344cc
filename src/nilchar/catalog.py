"""Built-in group configurations.

Entries are stored as plain configuration documents and loaded through the
same path as user-supplied JSON files, so the catalog also exercises the
loader. Torus tables for the branching command ship only with `sl2-split`.
"""

from __future__ import annotations

from .config import LoadedConfig, config_from_dict

_SL2_SPLIT = {
    "label": "sl2-split",
    "group": {"cartan_matrix": [[2]]},
    "involution": {"matrix": [[-1]]},
    "k": {
        "torus_rank": 1,
        "restriction": [[1]],
        "weights": [[0]],
        "datum": {"rank": 1, "simple_roots": [], "simple_coroots": []},
    },
    "dims": {"g": 3, "k": 1, "p": 2, "rank_split": 1},
    "split_mod_center": True,
    "tori": [
        {
            "label": "split",
            "theta": [[-1]],
            "positive_systems": [{"id": "pos", "imaginary_roots": [], "ell": 0}],
        },
        {
            "label": "compact",
            "theta": [[1]],
            "positive_systems": [
                {"id": "plus", "imaginary_roots": [[2]], "ell": 1},
                {"id": "minus", "imaginary_roots": [[-2]], "ell": 1},
            ],
        },
    ],
    "oracle_model": {
        "variables": [{"name": "x", "weight": [2]}, {"name": "y", "weight": [-2]}],
        "generators": [[{"num": 1, "exponents": [1, 1]}]],
    },
}

# Complex SL2 viewed as a real group: theta swaps the factors, K is the
# diagonal copy. Not split modulo center; exploration only (use --force).
_SL2XSL2_SWAP = {
    "label": "sl2xsl2-swap",
    "group": {"cartan_matrix": [[2, 0], [0, 2]]},
    "involution": {"matrix": [[0, 1], [1, 0]]},
    "k": {
        "torus_rank": 1,
        "restriction": [[1, 1]],
        "weights": [[-2], [0], [2]],
        "datum": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    },
    "dims": {"g": 6, "k": 3, "p": 3, "rank_split": 1},
    "split_mod_center": False,
}

# Split SL3: K = SO(3). The K-torus coordinate is doubled so that every
# lattice map stays integral; k has weights {-2, 0, 2} and p is the
# five-dimensional piece {-4, -2, 0, 2, 4}. The cone model presents the
# nilpotent symmetric traceless matrices via the quadratic and cubic trace
# invariants in that weight basis.
_SL3_SPLIT = {
    "label": "sl3-split",
    "group": {"cartan_matrix": [[2, -1], [-1, 2]]},
    "involution": {"matrix": [[-1, 0], [0, -1]]},
    "k": {
        "torus_rank": 1,
        "restriction": [[2, 0]],
        "weights": [[-2], [0], [2]],
        "datum": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    },
    "dims": {"g": 8, "k": 3, "p": 5, "rank_split": 2},
    "split_mod_center": True,
    "oracle_model": {
        "variables": [
            {"name": "v4", "weight": [4]},
            {"name": "v2", "weight": [2]},
            {"name": "v0", "weight": [0]},
            {"name": "w2", "weight": [-2]},
            {"name": "w4", "weight": [-4]},
        ],
        "generators": [
            [
                {"num": 4, "exponents": [1, 0, 0, 0, 1]},
                {"num": 4, "exponents": [0, 1, 0, 1, 0]},
                {"num": 3, "exponents": [0, 0, 2, 0, 0]},
            ],
            [
                {"num": 2, "exponents": [0, 2, 0, 0, 1]},
                {"num": -4, "exponents": [1, 0, 1, 0, 1]},
                {"num": 2, "exponents": [1, 0, 0, 2, 0]},
                {"num": 2, "exponents": [0, 1, 1, 1, 0]},
                {"num": 1, "exponents": [0, 0, 3, 0, 0]},
            ],
        ],
    },
}

# Split Sp4: K = GL2 (the Siegel Levi); the K-torus is a maximal torus of G,
# so restriction is the change to epsilon coordinates. The cone model is a
# pair (A, B) in S^2 plus its dual with tr(AB) and det(A)det(B) as the basic
# invariants.
_SP4_SPLIT = {
    "label": "sp4-split",
    "group": {"cartan_matrix": [[2, -2], [-1, 2]]},
    "involution": {"matrix": [[-1, 0], [0, -1]]},
    "k": {
        "torus_rank": 2,
        "restriction": [[1, 1], [0, 1]],
        "weights": [[1, -1], [-1, 1], [0, 0], [0, 0]],
        "datum": {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]]},
    },
    "dims": {"g": 10, "k": 4, "p": 6, "rank_split": 2},
    "split_mod_center": True,
    "oracle_model": {
        "variables": [
            {"name": "a20", "weight": [2, 0]},
            {"name": "a02", "weight": [0, 2]},
            {"name": "a11", "weight": [1, 1]},
            {"name": "b20", "weight": [-2, 0]},
            {"name": "b02", "weight": [0, -2]},
            {"name": "b11", "weight": [-1, -1]},
        ],
        "generators": [
            [
                {"num": 1, "exponents": [1, 0, 0, 1, 0, 0]},
                {"num": 1, "exponents": [0, 1, 0, 0, 1, 0]},
                {"num": 2, "exponents": [0, 0, 1, 0, 0, 1]},
            ],
            [
                {"num": 1, "exponents": [1, 1, 0, 1, 1, 0]},
                {"num": -1, "exponents": [1, 1, 0, 0, 0, 2]},
                {"num": -1, "exponents": [0, 0, 2, 1, 1, 0]},
                {"num": 1, "exponents": [0, 0, 2, 0, 0, 2]},
            ],
        ],
    },
}

_CATALOG: dict[str, dict] = {
    "sl2-split": _SL2_SPLIT,
    "sl2xsl2-swap": _SL2XSL2_SWAP,
    "sl3-split": _SL3_SPLIT,
    "sp4-split": _SP4_SPLIT,
}

_DESCRIPTIONS = {
    "sl2-split": "split SL2, K = SO(2); torus table and cone model included",
    "sl2xsl2-swap": "complex SL2 as a real group (factor swap); not split, exploration only",
    "sl3-split": "split SL3, K = SO(3); cone model included",
    "sp4-split": "split Sp4, K = GL2; cone model included",
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


def catalog_description(name: str) -> str:
    return _DESCRIPTIONS[name]


def load_catalog_config(name: str) -> LoadedConfig:
    if name not in _CATALOG:
        raise KeyError(name)
    return config_from_dict(_CATALOG[name])

