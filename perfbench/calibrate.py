"""A fixed pure-Python computation that measures how fast the machine runs
right now.

The benchmark's machine is a share of a host whose speed drifts by a third
or more within a minute, for every process alike. The harness times this
calibration in its own process between the workload processes and scales
each workload time by CAL_NOMINAL_S / (calibration time around it): the
result is the time the workload would take on the machine at the speed at
which the calibration takes CAL_NOMINAL_S. The calibration does not use
nilchar, so a change to the program moves the scaled time as much as the
raw one.

The three parts mirror what the workloads do: interpreter arithmetic,
fraction-free elimination of a big-integer matrix (the oracle's rank
computation) and accumulation into dicts keyed by weight tuples (the
character arithmetic and the partition tables).
"""

from __future__ import annotations

import random
import time
from math import gcd

# The calibration's median time on the machine the reference figures in
# README.md were taken on; it only sets the scale of the reported times.
CAL_NOMINAL_S = 0.32


def _arithmetic(n: int = 800_000) -> int:
    s = 0
    for i in range(n):
        s = (s + i * i) % 1_000_003
    return s


def _integer_rank(n: int = 70) -> int:
    rng = random.Random(1)
    work = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot = work[rank]
        pv = pivot[col]
        for r in range(rank + 1, n):
            row = work[r]
            f = row[col]
            if not f:
                continue
            for c in range(col, n):
                row[c] = row[c] * pv - pivot[c] * f
            g = 0
            for c in range(col, n):
                g = gcd(g, row[c])
                if g == 1:
                    break
            if g > 1:
                for c in range(col, n):
                    row[c] //= g
        rank += 1
    return rank


def _weight_dicts(steps: int = 22) -> int:
    moves = [(1, 0, -1), (0, 1, 1), (-1, 1, 0), (1, 1, 1), (2, -1, 0)]
    layer = {(0, 0, 0): 1}
    for _ in range(steps):
        nxt: dict = {}
        for (a, b, c), m in layer.items():
            for x, y, z in moves:
                key = (a + x, b + y, c + z)
                nxt[key] = nxt.get(key, 0) + m
        layer = nxt
    return len(layer)


def calibration_s() -> float:
    """Seconds this process takes for the fixed calibration work."""
    start = time.perf_counter()
    _arithmetic()
    _integer_rank()
    _weight_dicts()
    return time.perf_counter() - start
