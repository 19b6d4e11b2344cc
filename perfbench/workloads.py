"""The four workloads and the checks of their outputs.

Every input is fixed: catalog groups and the A4 Cartan matrix. A check
returns a list of problems (empty when the output is right). The checks
compare against `reference.py`, which does not use nilchar, or test
properties the answer must have.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from reference import DEGREES, WeylDimension, fundamental_weight_datum, hilbert_coefficients

A4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
# K = GL2 for split Sp4, as the sp4-split catalog entry realizes it: one
# simple root and coroot on the rank-2 K-torus lattice.
SP4_K_ROOTS = ([(1, -1)], [(1, -1)])


class Workload(NamedTuple):
    name: str
    why: str
    kind: str  # "cli": `python -m nilchar.cli <args>`; "cn": the library call in child.py
    degree: int
    args: Callable[[int], list[str]]
    check: Callable[[dict, int], list[str]]


def _layers(doc: dict, degree: int, key: str) -> tuple[list[dict], list[str]]:
    """Rows of a `--json` document as one {weight: multiplicity} map per degree."""
    problems = []
    if doc.get("degree") != degree:
        problems.append(f"document degree {doc.get('degree')!r}, expected {degree}")
    layers: list[dict] = [{} for _ in range(degree + 1)]
    for row in doc.get("rows", []):
        n, w, m = row["degree"], tuple(row[key]), row["multiplicity"]
        if not 0 <= n <= degree:
            problems.append(f"row outside degrees 0..{degree}: {row}")
        elif w in layers[n]:
            problems.append(f"degree {n}: {key} {list(w)} listed twice")
        else:
            layers[n][w] = m
    return layers, problems


def _check_dimensions(layers, expected, dim, label) -> list[str]:
    problems = []
    for n, layer in enumerate(layers):
        total = sum(m * dim(w) for w, m in layer.items())
        if total != expected[n]:
            problems.append(f"degree {n}: sum of multiplicity x dim is {total}, {label} gives {expected[n]}")
    return problems


def check_cntheta_sl3(doc: dict, degree: int) -> list[str]:
    """Layer masses of C[N_theta] for split SL3 (dim p = 5) are the
    coefficients of (1-q^2)(1-q^3)/(1-q)^5; each layer is symmetric under
    w -> -w."""
    layers, problems = _layers(doc, degree, "weight")
    expected = hilbert_coefficients(DEGREES["A2"], 5, degree)
    for n, layer in enumerate(layers):
        mass = sum(layer.values())
        if mass != expected[n]:
            problems.append(f"degree {n}: layer mass {mass}, Kostant-Rallis gives {expected[n]}")
        for w, m in layer.items():
            opposite = layer.get(tuple(-x for x in w), 0)
            if opposite != m:
                problems.append(f"degree {n}: weight {list(w)} has multiplicity {m}, its negative {opposite}")
    return problems


def check_ktypes_sp4(doc: dict, degree: int) -> list[str]:
    """K-types of C[N_theta] for split Sp4 (K = GL2, dim p = 6): positive
    multiplicities, dimensions summing to (1-q^2)(1-q^4)/(1-q)^6, and the
    trivial K-type once in degree 0 and nowhere else."""
    layers, problems = _layers(doc, degree, "highest_weight")
    dim = WeylDimension(*SP4_K_ROOTS)
    expected = hilbert_coefficients(DEGREES["C2"], 6, degree)
    problems += _check_dimensions(layers, expected, dim, "Kostant-Rallis")
    for n, layer in enumerate(layers):
        problems += [f"degree {n}: K-type {list(w)} has multiplicity {m}" for w, m in layer.items() if m <= 0]
        trivial = layer.get((0, 0), 0)
        if trivial != (1 if n == 0 else 0):
            problems.append(f"degree {n}: trivial K-type has multiplicity {trivial}")
    return problems


def check_cn_a4(doc: dict, degree: int) -> list[str]:
    """C[N] for A4 (dim g = 24): dimensions summing to
    prod_{d=2..5}(1-q^d)/(1-q)^24, the trivial weight once in degree 0 and
    nowhere else, and the highest root (the adjoint representation) once in
    each degree 1..N."""
    layers, problems = _layers(doc, degree, "highest_weight")
    dim = WeylDimension(*fundamental_weight_datum(A4_CARTAN))
    expected = hilbert_coefficients(DEGREES["A4"], 24, degree)
    problems += _check_dimensions(layers, expected, dim, "Kostant")
    theta = dim.highest_root()
    for n, layer in enumerate(layers):
        problems += [f"degree {n}: weight {list(w)} has multiplicity {m}" for w, m in layer.items() if m <= 0]
        trivial = layer.get((0, 0, 0, 0), 0)
        if trivial != (1 if n == 0 else 0):
            problems.append(f"degree {n}: trivial weight has multiplicity {trivial}")
        if n >= 1 and layer.get(theta, 0) != 1:
            problems.append(f"degree {n}: highest root {list(theta)} has multiplicity {layer.get(theta, 0)}")
    return problems


def check_oracle_sp4(doc: dict, degree: int) -> list[str]:
    """The brute-force model agrees with the formula, and its Hilbert function
    is (1-q^2)(1-q^4)/(1-q)^6."""
    problems = []
    if doc.get("passed") is not True:
        problems.append(f"oracle-check reports passed={doc.get('passed')!r}")
    expected = hilbert_coefficients(DEGREES["C2"], 6, degree)
    if doc.get("hilbert") != expected:
        problems.append(f"hilbert {doc.get('hilbert')}, Kostant-Rallis gives {expected}")
    return problems


def check_output(workload: Workload, stdout: bytes, degree: int) -> list[str]:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return workload.check(doc, degree)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"output does not have the expected layout: {exc!r}"]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "cntheta-sl3",
            "the paper's product formula end to end; loads the G-side irreducible expansion (Freudenthal, Weyl sums)",
            "cli",
            15,
            lambda n: ["cntheta", "--group", "sl3-split", "--degree", str(n), "--json"],
            check_cntheta_sl3,
        ),
        Workload(
            "ktypes-sp4",
            "the K-type answer; loads the decomposition into many small K = GL2 irreducibles",
            "cli",
            8,
            lambda n: ["cntheta", "--group", "sp4-split", "--degree", str(n), "--decompose-k", "--json"],
            check_ktypes_sp4,
        ),
        Workload(
            "cn-a4",
            "rank 4 through the library; loads the box partition DP (few lookups into a large box)",
            "cn",
            3,
            lambda n: [json.dumps(A4_CARTAN), str(n)],
            check_cn_a4,
        ),
        Workload(
            "oracle-sp4",
            "the brute-force cone model; loads the oracle's exact rank computations and little else",
            "cli",
            7,
            lambda n: ["oracle-check", "--group", "sp4-split", "--degree", str(n), "--json"],
            check_oracle_sp4,
        ),
    ]
}
