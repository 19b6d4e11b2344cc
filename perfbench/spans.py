"""Span recording at nilchar's layer boundaries, for the traced run.

The program is not edited: `install` replaces public functions, by name, in
the modules that call them with wrappers that time each call. Spans are
aggregated in memory per layer (calls, total and self time; self time is a
span's duration minus the part its child spans cover) and written out once,
when the traced process ends. Counters are taken at the same boundaries from
the arguments and results.

A boundary the program no longer has (module or attribute gone) is skipped
and listed under "unbound" in the trace file, so a refactor of the program
shows up as lost coverage instead of a crash.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from math import comb, prod


class Recorder:
    def __init__(self):
        self.layers: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.dp_bounds: list[list[int]] = []
        self.top_s = 0.0  # time covered by spans with no parent span
        self.unbound: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._child_time: list[float] = []

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter: str, value: int) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def wrap(self, name: str, fn, count=None, timed: bool = True):
        """A stand-in for `fn` that records a span called `name` (unless
        `timed` is false) and calls `count(recorder, args, kwargs, result)`."""
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timed:
                result = fn(*args, **kwargs)
            else:
                stack.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    covered = stack.pop()
                    entry = self.layers.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - covered
                    if stack:
                        stack[-1] += elapsed
                    else:
                        self.top_s += elapsed
            if count is not None:
                try:
                    count(self, args, kwargs, result)
                except Exception as exc:  # a counter must never break the traced run
                    self.counter_errors.setdefault(name, repr(exc))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        record = {
            "layers": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.layers.items()},
            "counters": self.counters,
            "dp_bounds": self.dp_bounds,
            "top_s": self.top_s,
            "unbound": self.unbound,
            "counter_errors": self.counter_errors,
        }
        with open(path, "w") as fh:
            json.dump(record, fh, sort_keys=True)


# -- counters taken at the boundaries ---------------------------------------


def _count_weyl(rec, args, kwargs, result):
    rec.maximum("rootdata.weyl_order", len(result))


def _count_dp(rec, args, kwargs, result):
    bounds = [int(b) for b in args[1]]
    rec.add("kostant.dp_builds", 1)
    rec.maximum("kostant.dp_cells", prod(b + 1 for b in bounds))
    rec.dp_bounds.append(bounds)


def _count_calls(counter):
    def count(rec, args, kwargs, result):
        rec.add(counter, 1)

    return count


def _count_len(counter):
    def count(rec, args, kwargs, result):
        rec.add(counter, len(result))

    return count


def _count_expand(rec, args, kwargs, result):
    rec.add("charring.irreps", sum(len(layer) for layer in args[1].layers))
    rec.add("charring.torus_terms", sum(len(layer) for layer in result.layers))


def _count_oracle(rec, args, kwargs, result):
    """Monomials of each degree slice and the ideal rows spanning it, from the
    model's variable count and generator degrees."""
    model, truncation = args[0], args[1]
    nvars = len(model.variables)
    gen_degrees = [model.generator_degree(g) for g in model.generators]
    for n in range(truncation + 1):
        rec.add("oracle.monomials", comb(nvars + n - 1, n))
        rec.add("oracle.ideal_rows", sum(comb(nvars + n - d - 1, n - d) for d in gen_degrees if d <= n))


# (module, attribute, layer, counter, timed). The module is the one whose
# code calls the function, so that the replaced name is the one it looks up.
BOUNDARIES = [
    ("nilchar.cli", "main", "cli", None, True),
    ("nilchar.cli", "load_catalog_config", "config.load", None, True),
    ("nilchar.rootdata", "RootDatum.weyl_group", "rootdata.weyl_group", _count_weyl, True),
    ("nilchar.kernels", "partition_table", "kostant.partition_dp", _count_dp, True),
    ("nilchar.kostant", "kostant_partition_q", "kostant.lookup", _count_calls("kostant.partition_lookups"), False),
    ("nilchar.nilcone", "lusztig_mq", "kostant.lusztig", _count_calls("kostant.lusztig_calls"), True),
    ("nilchar.charring", "freudenthal_table", "kostant.freudenthal", _count_calls("kostant.freudenthal_calls"), True),
    ("nilchar.charring", "weyl_multiplicity", "kostant.weyl_sum", _count_calls("kostant.weyl_sum_calls"), True),
    ("nilchar.nilcone", "contributor_polynomials", "nilcone.scan", _count_len("nilcone.contributors"), True),
    ("nilchar.nilcone", "dominant_weights_up_to_height", "nilcone.enumerate", _count_len("nilcone.weights_scanned"), False),
    ("nilchar.nilcone", "expand_irrep_series", "charring.expand", _count_expand, True),
    ("nilchar.ktheta", "decompose_into_irreducibles", "charring.decompose", _count_len("charring.ktypes"), True),
    ("nilchar.ktheta", "restrict_graded", "charring.restrict", None, True),
    ("nilchar.ktheta", "graded_mul", "charring.graded_mul", None, True),
    ("nilchar.ktheta", "wedge_class", "ktheta.wedge", None, True),
    ("nilchar.cli", "hilbert_by_degree", "oracle.hilbert", _count_oracle, True),
    ("nilchar.oracle", "graded_character_by_degree", "oracle.character", None, True),
]


def install(rec: Recorder, boundaries=BOUNDARIES) -> None:
    """Replace every boundary with a recording wrapper; record the ones that
    cannot be found."""
    for module_name, attr, layer, count, timed in boundaries:
        label = f"{module_name}.{attr}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            rec.unbound.append(label)
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            rec.unbound.append(label)
            continue
        setattr(owner, leaf, rec.wrap(layer, fn, count, timed))
