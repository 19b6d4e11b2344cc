"""The CLI as whole processes: `python -m nilchar.cli` goes through
`cli.entry()`, which flushes stdout and stderr and leaves with `os._exit`,
skipping the interpreter's teardown. Every test here runs a child process;
none calls `entry()` in process, since that would end the test run."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from catalog_documents import catalog_document
from nilchar import build_root_datum, cli, nilcone_series

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
# Without it a piped stdout is block-buffered, so output still in the buffer
# reaches the reader only through the final flush in `entry`.
ENV.pop("PYTHONUNBUFFERED", None)


def run_process(args, cwd, unbuffered=False, **kwargs):
    env = dict(ENV, PYTHONUNBUFFERED="1") if unbuffered else ENV
    return subprocess.run(
        [sys.executable, "-m", "nilchar.cli", *args], env=env, cwd=cwd, stdin=subprocess.DEVNULL, **kwargs
    )


@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["catalog"],
        ["catalog", "--json"],
        ["cn", "--group", "sl3-split", "--degree", "10"],
        ["cntheta", "--group", "sl3-split", "--degree", "10", "--decompose-k"],
        ["checks", "--group", "sl2-split", "--degree", "4", "--json"],
        ["branching", "--group", "sl2-split", "--degree", "5"],
        ["oracle-check", "--group", "sl2-split", "--degree", "4"],
        # about 580 KiB, far above a 64 KiB pipe buffer: the final flush
        # must still hand all of it to the reader before the process ends
        ["cntheta", "--group", "sp4-split", "--degree", "24", "--json"],
    ],
    ids=lambda args: " ".join(args),
)
def test_process_stdout_is_the_in_process_output(args, tmp_path, capsys):
    assert cli.main(args) == 0
    expected = capsys.readouterr().out.encode()
    proc = run_process(args, tmp_path, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["cntheta", "--group", "sl3-split", "--degree", "15", "--json"],
            "eadbd1ae59ade319bab4deaa8dc84d48a9dd14dac2f27b4d1e95f990b8ea8853",
        ),
        (
            ["cntheta", "--group", "sp4-split", "--degree", "8", "--decompose-k", "--json"],
            "aca1f09753d9292f761c02d15d343ce730efa4e7dae9937ca0d808716f90d508",
        ),
        (
            ["oracle-check", "--group", "sp4-split", "--degree", "7", "--json"],
            "234bf338a80ac104cdc4b9bd269bc33126fd85fa4d198267c1393afee313dd74",
        ),
        (
            ["cn", "--group", "sp4-split", "--degree", "20", "--json"],
            "dff84b757c124d1904d7c53dc7e62521a16675c7848e3f4a0fa6c11ed2351040",
        ),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value[:8],
)
def test_process_stdout_digest_is_pinned(args, digest, tmp_path):
    """The stdout of these commands has kept the same sha256 through every
    change of how it is computed and written."""
    proc = run_process(args, tmp_path, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_library_cn_stdout_digest_is_pinned():
    """The benchmark's library `cn` output (A4, N=3), built as its child
    process builds it: JSON of the `IrrepSeries.to_records()` rows of
    `nilcone_series`, plus the newline of `print`."""
    a4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    rows = nilcone_series(build_root_datum(a4), 3).to_records()
    text = json.dumps({"command": "cn", "cartan_matrix": a4, "degree": 3, "rows": rows}, sort_keys=True) + "\n"
    digest = "eca9815f054f0bd0ecc8616d2b67974ec55e4850c84c075303f5fd7b806bbc98"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_process_unknown_group_is_exit_1_with_its_error_line(tmp_path):
    proc = run_process(["cn", "--group", "no-such-group", "--degree", "2"], tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: unknown group 'no-such-group': not a catalog name or readable file\n"


def test_process_reads_config_files_as_utf8_in_any_locale(tmp_path):
    """A UTF-8 config is read as UTF-8 under the C locale too, where the
    locale's encoding is ASCII."""
    doc = catalog_document("sl2-split")
    doc["label"] = "sl₂-split"
    path = tmp_path / "label.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    env = dict(ENV, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    proc = subprocess.run(
        [sys.executable, "-m", "nilchar.cli", "cntheta", "--group", str(path), "--degree", "1", "--json"],
        env=env, cwd=tmp_path, stdin=subprocess.DEVNULL, capture_output=True,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["group"] == "sl₂-split"


def test_process_failed_check_is_exit_2(tmp_path):
    """sl3-split with k.weights [[0]] and no K datum fails the Iwasawa count:
    `checks` reports the line and exits 2."""
    doc = catalog_document("sl3-split")
    del doc["k"]["datum"]
    doc["k"]["weights"] = [[0]]
    path = tmp_path / "bad-k.json"
    path.write_text(json.dumps(doc))
    proc = run_process(["checks", "--group", str(path), "--degree", "2"], tmp_path, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert "[FAIL] dimensions" in proc.stdout
    assert "FAIL: Iwasawa count dim g = dim k + rank + dim n  (8 vs 1 + 2 + 3)" in proc.stdout


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args",
    [["catalog"], ["cntheta", "--group", "sl3-split", "--degree", "3"]],
    ids=lambda args: args[0],
)
def test_process_with_no_reader_is_exit_141_and_silent(args, unbuffered, tmp_path):
    """stdout is a pipe whose read end is already closed, so the final flush
    (buffered) or the first write inside `main()` (unbuffered) meets EPIPE:
    status 128 + SIGPIPE, no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process(args, tmp_path, unbuffered, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_process_with_stdout_closed_at_start_is_exit_0(tmp_path):
    """With descriptor 1 closed, `sys.stdout` is None and `print` writes
    nothing; the final flush must skip it, as the normal exit does."""
    proc = run_process(["catalog"], tmp_path, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_console_script_runs_entry():
    """`nilchar` is installed from `[project.scripts]` (read as text: the
    TOML reader is not in the standard library before Python 3.11)."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^nilchar\s*=\s*(\S+)\s*$", scripts, re.M) == ['"nilchar.cli:entry"']


def test_main_block_runs_entry():
    tree = ast.parse((SRC / "nilchar" / "cli.py").read_text())
    blocks = [
        node.body
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [["entry()"]]


def test_nothing_relies_on_interpreter_teardown():
    """`entry` skips the teardown, so no exit hook or finalizer would run."""
    found = []
    for path in sorted((SRC / "nilchar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name == "atexit"]
            elif isinstance(node, ast.ImportFrom) and node.module == "atexit":
                found.append((path.name, "atexit"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__del__":
                found.append((path.name, "__del__"))
    assert found == []
