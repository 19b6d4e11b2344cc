"""Graded characters of K-nilpotent cones for real forms split modulo center.

The main entry points: `build_root_datum` for the ambient combinatorics,
`nilcone_series` for the graded functions on the full nilpotent cone by
highest weight (Kostant's closed form S(g) * prod_i (1 - q^{d_i}) on
labels, checked against Lusztig's q-analogs in `lusztig_series`, whose
route is all in `kernels`), `theta_cone_character` for the K-side in the
Kostant-Rallis form S(p) * prod_i (1 - q^{d_i}) (by the Koszul identity,
the paper's restriction of C[N] times the signed exterior class of k) and
`theta_cone_ktypes` for the same form by K-type, `graded_branching_sum`
for the standard-module bookkeeping (Kostant's form of C[N] on the torus
of G times `wedge_class` of k, one graded product per torus), and the
`oracle` module for independent brute-force verification. The cone forms
live together in `ktheta`. Every answer by highest weight comes from one
algorithm, `charring.symmetric_irreps`.

The public names below are looked up in their home modules on first use
(PEP 562), so importing the package, or `nilchar.cli` for one command,
loads only the modules that are used.
"""

# public name: the module that defines it
_HOMES = {
    "GradedCharacter": "charring",
    "IrrepSeries": "charring",
    "TorusCharacter": "charring",
    "graded_mul": "charring",
    "irreducible_character": "charring",
    "AffineConeModel": "config",
    "ConeVariable": "config",
    "ConfigError": "config",
    "LoadedConfig": "config",
    "catalog_names": "config",
    "config_from_dict": "config",
    "load_catalog_config": "config",
    "load_config_file": "config",
    "dominant_weights_up_to_height": "kernels",
    "lusztig_check": "kernels",
    "lusztig_series": "kernels",
    "CheckResult": "ktheta",
    "Dims": "ktheta",
    "RealFormConfig": "ktheta",
    "SplitHypothesisError": "ktheta",
    "dimension_check": "ktheta",
    "k_invariant_check": "ktheta",
    "koszul_check": "ktheta",
    "nilcone_series": "ktheta",
    "theta_cone_character": "ktheta",
    "theta_cone_ktypes": "ktheta",
    "wedge_class": "ktheta",
    "ContinuedParameter": "langlands",
    "FormalStandardSum": "langlands",
    "PositiveSystem": "langlands",
    "TorusDatum": "langlands",
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
