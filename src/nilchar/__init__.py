"""Graded characters of K-nilpotent cones for real forms split modulo center.

The main entry points: `build_root_datum` for the ambient combinatorics,
`nilcone_series` for C[N] by highest weight (Kostant's closed form
S(g) * prod_i (1 - q^{d_i}), checked against Lusztig's q-analogs,
`kernels.lusztig_series`), `theta_cone_character` and `theta_cone_ktypes`
for C[N_theta] in the Kostant-Rallis form S(p) * prod_i (1 - q^{d_i}) on
the K-torus and by K-type (by the Koszul identity, the paper's restriction
of C[N] times the signed exterior class of k), `graded_branching_sum` for
the standard-module bookkeeping, and the `oracle` module for independent
brute-force verification. The cone forms and the exterior class live in
`ktheta`; every answer by highest weight comes from one algorithm,
`charring.symmetric_irreps`.

The public names below are looked up in their home modules on first use
(PEP 562), so importing the package, or `nilchar.cli` for one command,
loads only the modules that are used.
"""

# public name: the module that defines it
_HOMES = {
    "GradedCharacter": "charring",
    "IrrepSeries": "charring",
    "irreducible_character": "charring",
    "AffineConeModel": "config",
    "ConeVariable": "config",
    "ConfigError": "config",
    "LoadedConfig": "config",
    "PositiveSystem": "config",
    "TorusDatum": "config",
    "catalog_names": "config",
    "config_from_dict": "config",
    "load_catalog_config": "config",
    "load_config_file": "config",
    "dominant_weights_up_to_height": "kernels",
    "lusztig_check": "kernels",
    "lusztig_series": "kernels",
    "CheckResult": "ktheta",
    "RealFormConfig": "ktheta",
    "SplitHypothesisError": "ktheta",
    "dimension_check": "ktheta",
    "k_invariant_check": "ktheta",
    "koszul_check": "ktheta",
    "nilcone_series": "ktheta",
    "theta_cone_character": "ktheta",
    "theta_cone_ktypes": "ktheta",
    "ContinuedParameter": "langlands",
    "FormalStandardSum": "langlands",
    "graded_branching_sum": "langlands",
    "k_weight_multiset": "langlands",
    "compare_with_formula": "oracle",
    "graded_character_by_degree": "oracle",
    "InvolutionData": "rootdata",
    "RootDatum": "rootdata",
    "build_root_datum": "rootdata",
    "classify_roots": "rootdata",
}
__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
