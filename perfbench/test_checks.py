"""The output checks accept the program's real output at a small degree and
reject it when any single multiplicity is changed by one."""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

SMALL_DEGREE = {"cntheta-sl3": 4, "ktypes-sp4": 4, "cn-a4": 2, "oracle-sp4": 4}
HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The `--json` document of each workload at its small degree, produced by
    the same command the harness times."""
    log = tmp_path_factory.mktemp("logs") / "stderr.log"
    docs = {}
    for name, degree in SMALL_DEGREE.items():
        runner = run.Runner(WORKLOADS[name], log)
        sample = runner.run(runner.command(degree), degree)
        assert sample.returncode == 0, log.read_text()
        docs[name] = json.loads(sample.stdout)
    return docs


def _mutations(doc):
    """Copies of `doc` with one multiplicity (or Hilbert entry) moved by +-1."""
    field, positions = ("rows", range(len(doc["rows"]))) if "rows" in doc else ("hilbert", range(len(doc["hilbert"])))
    for i in positions:
        for delta in (1, -1):
            bad = copy.deepcopy(doc)
            if field == "rows":
                bad["rows"][i]["multiplicity"] += delta
            else:
                bad["hilbert"][i] += delta
            yield i, delta, bad


@pytest.mark.parametrize("name", sorted(SMALL_DEGREE))
def test_check_accepts_real_output(outputs, name):
    assert WORKLOADS[name].check(outputs[name], SMALL_DEGREE[name]) == []


@pytest.mark.parametrize("name", sorted(SMALL_DEGREE))
def test_check_rejects_one_multiplicity_off_by_one(outputs, name):
    doc = outputs[name]
    tried = 0
    for i, delta, bad in _mutations(doc):
        tried += 1
        assert WORKLOADS[name].check(bad, SMALL_DEGREE[name]), f"entry {i} changed by {delta} was accepted"
    assert tried >= 2 * SMALL_DEGREE[name]


def test_oracle_check_rejects_a_failed_comparison(outputs):
    bad = dict(outputs["oracle-sp4"], passed=False)
    assert WORKLOADS["oracle-sp4"].check(bad, SMALL_DEGREE["oracle-sp4"])


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_spans_self_time_excludes_children():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: inner() + inner())
    outer()
    (oc, ot, os_), (ic, it, is_) = rec.layers["outer"], rec.layers["inner"]
    assert (oc, ic) == (1, 2)
    assert it == is_ and ot >= it
    assert os_ == pytest.approx(ot - it)
    assert rec.top_s == ot


def test_samples_are_scaled_by_the_calibrations_around_them(monkeypatch):
    class Runner:
        def sample(self, kind, index):
            time.sleep(0.2)
            return run.Sample(0.2, 1.0, 0, b"", 0, 0.0)

    calibrations = iter([0.2, 0.4, 0.8])
    monkeypatch.setattr(run, "calibration_s", lambda: next(calibrations))
    samples, timed = run.measure(Runner(), 1, trace=False)
    assert timed == [0.2, 0.4, 0.8]
    assert [s.scale for s in samples["run"]] == [pytest.approx(run.CAL_NOMINAL_S / 0.3)]
    assert [s.scale for s in samples["setup"]] == [pytest.approx(run.CAL_NOMINAL_S / 0.6)] * run.SETUP_PER_ROUND


def test_missing_boundary_is_reported_not_fatal():
    rec = spans.Recorder()
    spans.install(rec, [("json", "absent", "x", None, True), ("no_such_module", "f", "y", None, True)])
    assert rec.unbound == ["json.absent", "no_such_module.f"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cn-a4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
