"""Configuration documents: a JSON object model describing the group, the
involution, the K-side data, optional torus tables, and an optional affine
cone model. Validation failures name the offending field. A field that the
loader derives (the dimensions, the split rank, whether the form is split
modulo center, the K-torus rank, and the k weights when `k.datum` is
given) may still be stated, as a cross-check.

This module owns the format: it loads documents into records, defines the
records the loader builds for torus tables (`PositiveSystem`, `TorusDatum`)
and cone models (`ConeVariable`, `AffineConeModel`), and holds the built-in
groups (the catalog) as documents of the same kind."""

from math import lcm

from .ktheta import RealFormConfig, dimension_check
from .rootdata import (
    InvolutionData, Record, RootDatum, Weight, build_root_datum, classify_roots, int_vector, is_int, wadd, wneg,
)


class ConfigError(ValueError):
    """A malformed or inconsistent configuration document."""


class PositiveSystem(Record):
    """A positive system of imaginary roots with its orbit codimension."""

    __slots__ = ("id", "imaginary_roots", "ell")

    id: str
    imaginary_roots: tuple[Weight, ...]
    ell: int

    def __post_init__(self):
        roots = tuple(int_vector(r, f"imaginary_roots[{i}]") for i, r in enumerate(self.imaginary_roots))
        object.__setattr__(self, "imaginary_roots", roots)
        if self.ell < 0:
            raise ValueError("orbit codimension must be non-negative")


class TorusDatum(Record):
    """A theta-stable maximal torus: its involution on the weight lattice and
    the supplied positive systems of imaginary roots."""

    __slots__ = ("label", "theta", "positive_systems")

    label: str
    theta: InvolutionData
    positive_systems: tuple[PositiveSystem, ...]

    def validate(self, datum: RootDatum) -> None:
        cls = classify_roots(datum, self.theta)
        imaginary = set(cls.imaginary)
        for ps in self.positive_systems:
            pos = set(ps.imaginary_roots)
            if len(pos) != len(ps.imaginary_roots):
                raise ValueError(f"positive system {ps.id!r} lists a root twice")
            if pos & {wneg(r) for r in pos}:
                raise ValueError(f"positive system {ps.id!r} contains a root and its negative")
            if pos | {wneg(r) for r in pos} != imaginary:
                raise ValueError(
                    f"positive system {ps.id!r} does not partition the imaginary roots of torus {self.label!r}"
                )
            for a in pos:
                for b in pos:
                    s = wadd(a, b)
                    if s in imaginary and s not in pos:
                        raise ValueError(f"positive system {ps.id!r} is not closed under addition")


class ConeVariable(Record):
    __slots__ = ("name", "weight")

    name: str
    weight: Weight

    def __post_init__(self):
        object.__setattr__(self, "weight", int_vector(self.weight, f"variable {self.name!r}: weight"))


class AffineConeModel(Record):
    """Weighted polynomial ring modulo the ideal of the listed generators.

    Generators map exponent tuples to rational coefficients (`int` or
    `Fraction`) and must be homogeneous in total degree (and in weight for
    character computations).
    """

    __slots__ = ("variables", "generators")

    variables: tuple[ConeVariable, ...]
    generators: tuple

    def __post_init__(self):
        variables = tuple(self.variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        ranks = {len(v.weight) for v in variables}
        if len(ranks) > 1:
            raise ValueError("variable weights must share one torus rank")
        gens = []
        for i, g in enumerate(self.generators):
            terms = {}
            for exps, c in dict(g).items():
                exps = tuple(exps)
                term = f"generator {i} term {exps!r}"
                if len(exps) != len(variables):
                    raise ValueError("generator exponent vector length mismatch")
                if not all(is_int(e) for e in exps):
                    raise ValueError(f"{term}: exponents must be integers")
                if any(e < 0 for e in exps):
                    raise ValueError("generator exponents must be non-negative")
                # An int or a Fraction, told by its integer denominator without
                # importing `fractions`; a float or Decimal has none, and a bool
                # (an int) is refused by name.
                if isinstance(c, bool) or not is_int(getattr(c, "denominator", None)):
                    raise ValueError(f"{term}: coefficient {c!r} must be an int or a Fraction")
                if c:
                    terms[exps] = c
            if not terms:
                raise ValueError("zero generator")
            gens.append(terms)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def torus_rank(self) -> int:
        return len(self.variables[0].weight) if self.variables else 0

    def generator_degree(self, g) -> int:
        degrees = {sum(exps) for exps in g}
        if len(degrees) != 1:
            raise ValueError(f"generator is not degree-homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def generator_weight(self, g) -> Weight:
        weights = {self.monomial_weight(exps) for exps in g}
        if len(weights) != 1:
            raise ValueError(f"generator is not weight-homogeneous: weights {sorted(weights)}")
        return weights.pop()

    def monomial_weight(self, exps) -> Weight:
        acc = [0] * self.torus_rank
        for e, v in zip(exps, self.variables):
            for i, w in enumerate(v.weight):
                acc[i] += e * w
        return tuple(acc)


class LoadedConfig(Record):
    __slots__ = ("real_form", "tori", "oracle_model")

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
        return RootDatum(rank, roots, coroots)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_involution(obj, path, key="matrix") -> InvolutionData:
    """The involution that `obj`, at `path`, states as the matrix `key`, with
    the roots it marks compact in `compact_roots`; a matrix that is not an
    involution is a ConfigError naming `path.key`."""
    matrix = _int_matrix(_get(obj, key, path), f"{path}.{key}")
    compact = _weight_list(_get(obj, "compact_roots", path, required=False, default=[]), f"{path}.compact_roots")
    try:
        return InvolutionData(matrix, compact)
    except ValueError as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None


def _load_tori(value, path) -> tuple[TorusDatum, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of torus tables")
    out = []
    for i, entry in enumerate(value):
        tpath = f"{path}[{i}]"
        label = _str(_get(entry, "label", tpath), f"{tpath}.label")
        if any(other.label == label for other in out):
            raise ConfigError(f"{tpath}.label: duplicate torus label {label!r}")
        theta = _load_involution(entry, tpath, "theta")
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


def _cross_check(obj, field, derived, source, read=_int) -> None:
    """A derived field that the document states anyway in `obj` must state
    the value derived from `source`, as `read` reads it; otherwise it is a
    ConfigError naming the field (its path, such as `k.torus_rank`)."""
    key = field.rpartition(".")[2]
    if key in obj and read(obj[key], field) != derived:
        raise ConfigError(f"{field}: the document states {obj[key]}, but it is {derived}, derived from {source}")


def _weight_multiset(value, path) -> list[list[int]]:
    """A list of weights read as a multiset: sorted, each weight a list."""
    return sorted(map(list, _weight_list(value, path)))


def config_from_dict(doc: dict, require_split: bool = True) -> LoadedConfig:
    """Build and cross-validate a configuration from its object model.

    The document states G, the involution theta on a maximally split
    Cartan, the restriction to the K-torus, and either `k.weights` or
    `k.datum`. The rest is derived: `dims.rank_split` (rank less the rank
    theta fixes) and `split_mod_center` (theta = -1 on the whole lattice),
    `k.torus_rank` (the rows of `k.restriction`), `k.weights` (the adjoint
    weights of `k.datum`, when given) and `dims.g`, `dims.k` and `dims.p`
    (from the k and p weights). A document may state a derived field too,
    and then it must state the derived value. A theta with a noncompact
    imaginary root is not on a maximally split Cartan and is refused.

    A form split modulo center must pass the Iwasawa count of
    `dimension_check`, since every split-only result rests on it.
    `require_split=False` loads it anyway, for a caller that reports that
    line itself (the `checks` command)."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    name = _str(doc.get("label", "unnamed"), "label")
    g_datum = _load_group(_get(doc, "group", "group"), "group")
    involution = _load_involution(_get(doc, "involution", "involution"), "involution")

    kobj = _object(_get(doc, "k", "k"), "k")
    restriction = _int_matrix(_get(kobj, "restriction", "k"), "k.restriction")
    _cross_check(kobj, "k.torus_rank", len(restriction), "the rows of k.restriction")
    k_datum = None
    if kobj.get("datum") is not None:
        k_datum = _load_group(kobj["datum"], "k.datum")
        k_weights = k_datum.adjoint_weights
        _cross_check(kobj, "k.weights", sorted(map(list, k_weights)), "the adjoint weights of k.datum",
                     _weight_multiset)
    else:
        k_weights = _weight_list(_get(kobj, "weights", "k"), "k.weights")

    try:
        noncompact = classify_roots(g_datum, involution).imaginary_noncompact
    except ValueError as exc:
        raise ConfigError(f"involution: {exc}") from None
    if noncompact:
        raise ConfigError(
            f"involution: root {list(noncompact[0])} is noncompact imaginary, so the involution is not on a "
            "maximally split Cartan (mark it in involution.compact_roots if it is compact)"
        )
    try:
        real_form = RealFormConfig(
            label=name,
            g_datum=g_datum,
            involution=involution,
            restriction=restriction,
            k_weights=k_weights,
            k_datum=k_datum,
        )
    except ValueError as exc:
        raise ConfigError(f"config {name!r}: {exc}") from None
    dobj = _object(doc.get("dims", {}), "dims")
    dim_k, dim_p = len(real_form.k_weights), len(real_form.p_weights)
    _cross_check(dobj, "dims.g", dim_k + dim_p, "the k and p weights")
    _cross_check(dobj, "dims.k", dim_k, "the k weights")
    _cross_check(dobj, "dims.p", dim_p, "the p weights")
    _cross_check(dobj, "dims.rank_split", real_form.rank_split, "the involution")
    _cross_check(doc, "split_mod_center", real_form.split_mod_center, "the involution", _bool)
    if real_form.split_mod_center and require_split:
        failing = [line[len("FAIL: "):] for line in dimension_check(real_form).lines if line.startswith("FAIL")]
        if failing:
            raise ConfigError(
                f"split_mod_center: config {name!r} is split modulo center by its involution, "
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
        if model.torus_rank != real_form.k_torus_rank:
            raise ConfigError(
                f"oracle_model: torus rank {model.torus_rank} does not match k.torus_rank {real_form.k_torus_rank}"
            )

    return LoadedConfig(real_form, tori, model)


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


# The catalog. Entries are plain configuration documents, loaded through the
# same path as user-supplied JSON files, so the catalog also exercises the
# loader. Torus tables for the branching command ship only with `sl2-split`.

_SL2_SPLIT = {
    "label": "sl2-split",
    "group": {"cartan_matrix": [[2]]},
    "involution": {"matrix": [[-1]]},
    "k": {
        "restriction": [[1]],
        "datum": {"rank": 1, "simple_roots": [], "simple_coroots": []},
    },
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
        "restriction": [[1, 1]],
        "datum": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    },
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
        "restriction": [[2, 0]],
        "datum": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    },
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
        "restriction": [[1, 1], [0, 1]],
        "datum": {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]]},
    },
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
        raise ConfigError(f"unknown catalog group {name!r}; expected one of {', '.join(_CATALOG)}")
    return config_from_dict(_CATALOG[name])

