"""Configuration loading: a JSON object model describing the group, the
involution, the K-side data, dimensions, optional torus tables, and an
optional affine cone model. Validation failures name the offending field."""

from __future__ import annotations

from math import lcm

from .ktheta import Dims, RealFormConfig, dimension_check
from .oracle import AffineConeModel, ConeVariable
from .rootdata import (
    InvolutionData,
    Record,
    RootDatum,
    build_root_datum,
    reductive_root_datum,
)


class ConfigError(ValueError):
    """A malformed or inconsistent configuration document."""


class LoadedConfig(Record):
    __slots__ = ("label", "real_form", "tori", "oracle_model")

    label: str
    real_form: RealFormConfig
    tori: tuple[TorusDatum, ...] | None
    oracle_model: AffineConeModel | None


def _object(value, path) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _get(obj, key, path, required=True, default=None):
    if key not in _object(obj, path):
        if required:
            raise ConfigError(f"{path}.{key}: missing")
        return default
    return obj[key]


def _int(value, path) -> int:
    """A JSON integer, taken as it is: a bool, a float (even 2.0) or a
    string is refused instead of being converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _str(value, path) -> str:
    """A JSON string, taken as it is: 5 or null is refused instead of being
    turned into "5" or "None"."""
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _bool(value, path) -> bool:
    """A JSON boolean, taken as it is: "false", 0 or null is refused instead
    of being read by its truth value."""
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _int_vector(value, path) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of integers")
    return tuple(_int(v, f"{path}[{i}]") for i, v in enumerate(value))


def _int_matrix(value, path):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ConfigError(f"{path}: expected a matrix (list of integer lists)")
    return tuple(_int_vector(row, f"{path}[{i}]") for i, row in enumerate(value))


def _weight_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of integer vectors")
    return tuple(_int_vector(w, f"{path}[{i}]") for i, w in enumerate(value))


def _load_group(obj, path) -> RootDatum:
    _object(obj, path)
    try:
        if "cartan_matrix" in obj:
            return build_root_datum(_int_matrix(obj["cartan_matrix"], f"{path}.cartan_matrix"))
        rank = _int(_get(obj, "rank", path), f"{path}.rank")
        roots = _weight_list(_get(obj, "simple_roots", path), f"{path}.simple_roots")
        coroots = _weight_list(_get(obj, "simple_coroots", path), f"{path}.simple_coroots")
        return reductive_root_datum(rank, roots, coroots)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_involution(obj, path) -> InvolutionData:
    matrix = _int_matrix(_get(obj, "matrix", path), f"{path}.matrix")
    compact = _weight_list(_get(obj, "compact_roots", path, required=False, default=[]), f"{path}.compact_roots")
    try:
        return InvolutionData(matrix, compact)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_tori(value, path) -> tuple[TorusDatum, ...]:
    from .langlands import PositiveSystem, TorusDatum  # here, so that a config without tori never loads it

    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of torus tables")
    out = []
    for i, entry in enumerate(value):
        tpath = f"{path}[{i}]"
        label = _str(_get(entry, "label", tpath), f"{tpath}.label")
        if any(other.label == label for other in out):
            raise ConfigError(f"{tpath}.label: duplicate torus label {label!r}")
        theta = _load_involution(
            {"matrix": _get(entry, "theta", tpath), "compact_roots": entry.get("compact_roots", [])},
            tpath,
        )
        systems = []
        raw_systems = _get(entry, "positive_systems", tpath)
        if not isinstance(raw_systems, list) or not raw_systems:
            raise ConfigError(f"{tpath}.positive_systems: expected a non-empty list")
        for j, ps in enumerate(raw_systems):
            spath = f"{tpath}.positive_systems[{j}]"
            ps_id = _str(_get(ps, "id", spath), f"{spath}.id")
            if any(other.id == ps_id for other in systems):
                raise ConfigError(f"{spath}.id: duplicate positive-system id {ps_id!r}")
            imaginary = _weight_list(
                _get(ps, "imaginary_roots", spath, required=False, default=[]),
                f"{spath}.imaginary_roots",
            )
            ell = _int(_get(ps, "ell", spath), f"{spath}.ell")
            try:
                systems.append(PositiveSystem(id=ps_id, imaginary_roots=imaginary, ell=ell))
            except ValueError as exc:
                raise ConfigError(f"{spath}: {exc}") from None
        out.append(TorusDatum(label, theta, tuple(systems)))
    return tuple(out)


def _load_model(obj, path) -> AffineConeModel:
    raw_vars = _get(obj, "variables", path)
    if not isinstance(raw_vars, list) or not raw_vars:
        raise ConfigError(f"{path}.variables: expected a non-empty list")
    variables = []
    for i, v in enumerate(raw_vars):
        vpath = f"{path}.variables[{i}]"
        name = _str(_get(v, "name", vpath), f"{vpath}.name")
        weight = _int_vector(_get(v, "weight", vpath), f"{vpath}.weight")
        variables.append(ConeVariable(name, weight))
    raw_gens = _get(obj, "generators", path)
    if not isinstance(raw_gens, list):
        raise ConfigError(f"{path}.generators: expected a list")
    generators = []
    for i, g in enumerate(raw_gens):
        gpath = f"{path}.generators[{i}]"
        if not isinstance(g, list) or not g:
            raise ConfigError(f"{gpath}: expected a non-empty list of terms")
        raw_terms = []
        for j, term in enumerate(g):
            tpath = f"{gpath}[{j}]"
            num = _int(_get(term, "num", tpath), f"{tpath}.num")
            den = _int(_get(term, "den", tpath, required=False, default=1), f"{tpath}.den")
            if den == 0:
                raise ConfigError(f"{tpath}.den: zero denominator")
            exps = _int_vector(_get(term, "exponents", tpath), f"{tpath}.exponents")
            raw_terms.append((exps, num, den))
        # The generator times the lcm of its denominators: the same ideal,
        # with integer coefficients.
        scale = lcm(*(den for _, _, den in raw_terms))
        terms = {}
        for exps, num, den in raw_terms:
            terms[exps] = terms.get(exps, 0) + num * (scale // den)
        generators.append(terms)
    try:
        model = AffineConeModel(tuple(variables), tuple(generators))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    # The oracle splits its ideal along degrees and weights, so a generator
    # must be homogeneous in both; it is refused here, where it can be named.
    for i, g in enumerate(model.generators):
        try:
            model.generator_degree(g)
            model.generator_weight(g)
        except ValueError as exc:
            raise ConfigError(f"{path}.generators[{i}]: {exc}") from None
    return model


def config_from_dict(doc: dict, label: str | None = None, require_split: bool = True) -> LoadedConfig:
    """Build and cross-validate a configuration from its object model.

    A document that declares `split_mod_center` must pass the split lines of
    `dimension_check`, since every split-only result rests on them.
    `require_split=False` loads it anyway, for a caller that reports those
    lines itself (the `checks` command)."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    name = label or _str(doc.get("label", "unnamed"), "label")
    g_datum = _load_group(_get(doc, "group", "group"), "group")
    involution = _load_involution(_get(doc, "involution", "involution"), "involution")

    kobj = _object(_get(doc, "k", "k"), "k")
    torus_rank = _int(_get(kobj, "torus_rank", "k"), "k.torus_rank")
    restriction = _int_matrix(_get(kobj, "restriction", "k"), "k.restriction")
    k_weights = _weight_list(_get(kobj, "weights", "k"), "k.weights")
    k_datum = None
    if kobj.get("datum") is not None:
        k_datum = _load_group(kobj["datum"], "k.datum")

    dobj = _get(doc, "dims", "dims")
    dims = Dims(
        dim_g=_int(_get(dobj, "g", "dims"), "dims.g"),
        dim_k=_int(_get(dobj, "k", "dims"), "dims.k"),
        dim_p=_int(_get(dobj, "p", "dims"), "dims.p"),
        rank_split=_int(_get(dobj, "rank_split", "dims"), "dims.rank_split"),
    )
    split = _bool(_get(doc, "split_mod_center", "split_mod_center"), "split_mod_center")

    try:
        real_form = RealFormConfig(
            label=name,
            g_datum=g_datum,
            involution=involution,
            k_torus_rank=torus_rank,
            restriction=restriction,
            k_weights=k_weights,
            dims=dims,
            split_mod_center=split,
            k_datum=k_datum,
        )
    except ValueError as exc:
        raise ConfigError(f"config {name!r}: {exc}") from None
    if split and require_split:
        failing = [line[len("FAIL: "):] for line in dimension_check(real_form).lines if line.startswith("FAIL")]
        if failing:
            raise ConfigError(
                f"split_mod_center: config {name!r} is declared split modulo center, "
                f"but its dimensions fail {'; '.join(failing)}"
            )

    tori = None
    if doc.get("tori") is not None:
        tori = _load_tori(doc["tori"], "tori")
        for torus in tori:
            try:
                torus.validate(g_datum)
            except ValueError as exc:
                raise ConfigError(f"tori[{torus.label!r}]: {exc}") from None

    model = None
    if doc.get("oracle_model") is not None:
        model = _load_model(doc["oracle_model"], "oracle_model")
        if model.torus_rank != torus_rank:
            raise ConfigError(
                f"oracle_model: torus rank {model.torus_rank} does not match k.torus_rank {torus_rank}"
            )

    return LoadedConfig(name, real_form, tori, model)


def load_config_file(path: str, require_split: bool = True) -> LoadedConfig:
    """The config in the JSON file `path`, read as UTF-8 (RFC 8259) whatever
    the locale. An object with a repeated key is refused, not resolved to
    its last value."""
    import json  # here, so that a catalog query never loads it

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config file {path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config file {path} is nested too deeply to read") from None
    return config_from_dict(doc, require_split=require_split)
