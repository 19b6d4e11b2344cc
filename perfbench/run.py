"""Benchmark harness for nilchar: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`
of that checkout, with no build step. The harness starts one workload
process at a time and repeats whole rounds until the next round would end
after S seconds (at least one round):

* `--trace 0`: a round is one cold workload process plus SETUP_PER_ROUND
  degree-0 invocations of the same command, with the calibration of
  `calibrate.py` timed before the workload, after it and after the last
  round. Prints the end-to-end metrics: medians over the round samples,
  each scaled to the nominal machine speed by the calibrations on either
  side of it.
* `--trace 1`: a round is one untraced workload process plus one traced
  process (`child.py --trace`). Prints the per-layer metrics.

Every output is checked against the independent references in
`workloads.py`. Informational lines (environment, output digest) come first;
the last line of stdout is the JSON result. Full samples and the trace files
go to `.perfbench/` in the checkout. The seed is recorded but changes
nothing: every input is fixed catalog data or the A4 Cartan matrix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import CAL_NOMINAL_S, calibration_s
from workloads import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PER_ROUND = 3
TIME_LIMIT_S = 170  # the whole invocation must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics. A name ending in `_s` (other than the trace.* pair) is
# the self time of the layer it names; the rest are counters or ratios.
PER_LAYER = {
    "config.load_s": "s",
    "rootdata.weyl_group_s": "s",
    "rootdata.weyl_order": "count",
    "kostant.partition_dp_s": "s",
    "kostant.dp_cells": "count",
    "kostant.dp_builds": "count",
    "kostant.partition_lookups": "count",
    "kostant.lookups_per_cell": "ratio",
    "kostant.lusztig_s": "s",
    "kostant.lusztig_calls": "count",
    "kostant.freudenthal_s": "s",
    "kostant.freudenthal_calls": "count",
    "kostant.weyl_sum_s": "s",
    "kostant.weyl_sum_calls": "count",
    "nilcone.scan_s": "s",
    "nilcone.weights_scanned": "count",
    "nilcone.contributors": "count",
    "nilcone.yield": "ratio",
    "charring.expand_s": "s",
    "charring.irreps": "count",
    "charring.torus_terms": "count",
    "charring.decompose_s": "s",
    "charring.ktypes": "count",
    "charring.restrict_s": "s",
    "charring.graded_mul_s": "s",
    "ktheta.wedge_s": "s",
    "oracle.hilbert_s": "s",
    "oracle.character_s": "s",
    "oracle.monomials": "count",
    "oracle.ideal_rows": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def clean_env() -> dict:
    """The caller's environment without NILCHAR_* and PYTHON* settings (a warm
    disk cache, a forced backend or disabled bytecode would change what is
    measured), importing nilchar from this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("NILCHAR_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    degree: int
    start_s: float
    trace: dict | None = None
    scale: float = 1.0  # CAL_NOMINAL_S over the calibration time around the sample


class Runner:
    def __init__(self, workload, log_path: Path):
        self.workload = workload
        self.env = clean_env()
        self.log_path = log_path
        self.started = time.perf_counter()

    def command(self, degree: int, trace_path: Path | None = None) -> list[str]:
        w = self.workload
        if w.kind == "cli" and trace_path is None:
            return [sys.executable, "-m", "nilchar.cli", *w.args(degree)]
        trace = ["--trace", str(trace_path)] if trace_path is not None else []
        return [sys.executable, str(HERE / "child.py"), *trace, w.kind, *w.args(degree)]

    def sample(self, kind: str, index: int) -> Sample:
        """One process of a round: "setup" (a degree-0 probe), "run" (the
        workload) or "traced" (the workload under span recording)."""
        degree = 0 if kind == "setup" else self.workload.degree
        trace_path = WORK / f"trace-{self.workload.name}-{index}.json" if kind == "traced" else None
        sample = self.run(self.command(degree, trace_path), degree)
        if trace_path is not None and sample.returncode == 0:
            sample.trace = json.loads(trace_path.read_text())
        return sample

    def run(self, argv: list[str], degree: int) -> Sample:
        """One cold process: wall time from its start to the end of its
        output, and the peak RSS of that process alone (from wait4)."""
        limit = TIME_LIMIT_S - (time.perf_counter() - self.started)
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(limit, 1.0), proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                raise
            finally:
                killer.cancel()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall, usage.ru_maxrss / 1024, proc.returncode, out, degree, start - self.started)


def probe_environment(runner: Runner) -> dict:
    """Untimed warm-up (compiles bytecode, fills the file cache) that also
    reports the active partition kernel."""
    code = "import nilchar.cli, nilchar.kernels as k; print(k.active_backend())"
    sample = runner.run([sys.executable, "-c", code], 0)
    if sample.returncode != 0:
        raise SystemExit(f"cannot import nilchar from {ROOT / 'src'}; see {runner.log_path}")
    return {
        "backend": sample.stdout.decode().strip(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(runner: Runner, seconds: int, trace: bool) -> tuple[dict[str, list], list[float]]:
    """Whole rounds until the next one would end after `seconds`. Without
    tracing, every sample is scaled by the mean of the calibrations timed
    just before and just after it."""
    if trace:
        ops = ["run", "traced"]
    else:
        ops = ["cal", "run", "cal"] + ["setup"] * SETUP_PER_ROUND
    samples: dict[str, list] = {"run": [], "setup": [], "traced": []}
    calibrations: list[float] = []
    pending: list[Sample] = []

    def calibrate():
        cal = calibration_s()
        for s in pending:
            s.scale = CAL_NOMINAL_S / ((calibrations[-1] + cal) / 2)
        pending.clear()
        calibrations.append(cal)

    start = time.perf_counter()
    longest = 0.0
    while not longest or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        for kind in ops:
            if kind == "cal":
                calibrate()
                continue
            sample = runner.sample(kind, len(samples[kind]))
            samples[kind].append(sample)
            if not trace:
                pending.append(sample)
        longest = max(longest, time.perf_counter() - round_start)
    if pending:
        calibrate()
    return samples, calibrations


def layer_metrics(traced: list[Sample], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics: self times are medians over the traced processes,
    counters come from the first (they repeat exactly)."""
    traces = [s.trace for s in traced]
    counters = traces[0]["counters"]
    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name.endswith("_s"):
            layer = "cli" if name == "cli.self_s" else name[: -len("_s")]
            out[name] = statistics.median(t["layers"].get(layer, {}).get("self_s", 0.0) for t in traces)
        else:
            out[name] = counters.get(name, 0)
    cells = counters.get("kostant.dp_cells", 0)
    out["kostant.lookups_per_cell"] = counters.get("kostant.partition_lookups", 0) / cells if cells else 0.0
    scanned = counters.get("nilcone.weights_scanned", 0)
    out["nilcone.yield"] = counters.get("nilcone.contributors", 0) / scanned if scanned else 0.0
    out["cli.output_bytes"] = len(traced[0].stdout)
    traced_wall = statistics.median(s.wall_s for s in traced)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.coverage"] = statistics.median(t["top_s"] / s.wall_s for t, s in zip(traces, traced))
    return out


def _terminate(signum, frame):
    # Unwinds through Runner.run, which kills and reaps the running child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilchar" / "cli.py").is_file():
        print(f"error: no nilchar sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    runner = Runner(workload, WORK / f"stderr-{tag}.log")
    env_info = probe_environment(runner)
    samples, calibrations = measure(runner, args.seconds, bool(args.trace))

    attempted = sum(len(v) for v in samples.values())
    ok = {k: [s for s in v if s.returncode == 0] for k, v in samples.items()}
    failed = attempted - sum(len(v) for v in ok.values())
    if not ok["run"] or (args.trace and not ok["traced"]) or (not args.trace and not ok["setup"]):
        print(f"error: every {workload.name} process failed; see {runner.log_path}", file=sys.stderr)
        return 1

    # Check every distinct output once; exit code 2 is the program's own check failing.
    problems = []
    checked = set()
    for s in (s for v in samples.values() for s in v):
        if s.returncode == 2:
            problems.append(f"exit code 2 (a check of the program failed) at degree {s.degree}")
        if s.returncode == 0 and (s.degree, s.stdout) not in checked:
            checked.add((s.degree, s.stdout))
            problems += [f"degree-{s.degree} run: {p}" for p in check_output(workload, s.stdout, s.degree)]
    digests = {hashlib.sha256(s.stdout).hexdigest() for s in ok["run"] + ok["traced"]}
    if len(digests) != 1:
        problems.append(f"outputs differ between repetitions (or under tracing): {len(digests)} digests")
    digest = hashlib.sha256(ok["run"][0].stdout).hexdigest()

    wall = statistics.median(s.wall_s for s in ok["run"])
    if args.trace:
        values = layer_metrics(ok["traced"], wall)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(s.wall_s * s.scale for s in ok["run"]),
            "setup_s": statistics.median(s.wall_s * s.scale for s in ok["setup"]),
            "peak_rss_mb": statistics.median(s.rss_mb for s in ok["run"]),
        }
        units = END_TO_END

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_info,
        "command": runner.command(workload.degree)[1:],
        "stdout_sha256": digest,
        "stdout_bytes": len(ok["run"][0].stdout),
        "problems": problems,
        "timeline": sorted(
            [s.start_s, k, s.wall_s, s.scale, s.rss_mb, s.returncode] for k, v in samples.items() for s in v
        ),
        "calibrations_s": calibrations,
        "traces": [s.trace for s in ok["traced"]],
    }
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    counts = ", ".join(f"{len(v)} {k}" for k, v in samples.items() if v)
    print(f"workload {workload.name}: {counts} (seed {args.seed}, trace {args.trace})")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"output sha256 {digest} ({len(ok['run'][0].stdout)} bytes)")
    if calibrations:
        print(
            f"unscaled median wall {wall:.4f} s; calibration median {statistics.median(calibrations):.4f} s"
            f" (nominal {CAL_NOMINAL_S} s) over {len(calibrations)} timings"
        )
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
