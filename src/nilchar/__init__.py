"""Graded characters of K-nilpotent cones for real forms split modulo center.

The main entry points: `build_root_datum` for the ambient combinatorics,
`nilcone_series` for the graded functions on the full nilpotent cone by
highest weight (Kostant's closed form on labels, checked against Lusztig's
q-analogs in `lusztig_series`), `theta_cone_character` for the K-side in
the Kostant-Rallis form S(p) * prod_i (1 - q^{d_i}) (by the Koszul
identity, the paper's restriction of C[N] times the signed exterior class
of k) and `theta_cone_ktypes` for the same form by K-type,
`graded_branching_sum` for the standard-module bookkeeping (C[N] on the
torus of G times `wedge_class` of k, one graded product per torus), and the
`oracle` module for independent brute-force verification. Every answer by
highest weight comes from one algorithm, `charring.symmetric_irreps`.
"""

from .charring import (
    GradedCharacter,
    IrrepSeries,
    TorusCharacter,
    graded_mul,
    irreducible_character,
)
from .config import ConfigError, LoadedConfig, config_from_dict, load_config_file
from .catalog import catalog_names, load_catalog_config
from .ktheta import (
    CheckResult,
    Dims,
    RealFormConfig,
    SplitHypothesisError,
    dimension_check,
    koszul_check,
    lusztig_check,
    theta_cone_character,
    theta_cone_ktypes,
    wedge_class,
)
from .langlands import (
    ContinuedParameter,
    FormalStandardSum,
    PositiveSystem,
    TorusDatum,
    graded_branching_sum,
    k_weight_multiset,
)
from .nilcone import lusztig_series, nilcone_series
from .oracle import (
    AffineConeModel,
    ConeVariable,
    compare_with_formula,
    graded_character_by_degree,
)
from .rootdata import (
    InvolutionData,
    RootDatum,
    build_root_datum,
    classify_roots,
    dominant_weights_up_to_height,
    reductive_root_datum,
    torus_datum,
)

__version__ = "0.1.0"
