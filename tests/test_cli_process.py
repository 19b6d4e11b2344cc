"""The CLI as whole processes: `python -m nilchar.cli` goes through
`cli.entry()`, which flushes stdout and stderr and leaves with `os._exit`,
skipping the interpreter's teardown. Every test here runs a child process;
none calls `entry()` in process, since that would end the test run."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nilchar import cli
from nilchar.catalog import catalog_document

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
    doc = catalog_document("sl3-split")
    doc["dims"]["rank_split"] = 1
    path = tmp_path / "bad-rank.json"
    path.write_text(json.dumps(doc))
    proc = run_process(["checks", "--group", str(path), "--degree", "2"], tmp_path, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert "[FAIL] dimensions" in proc.stdout
    assert "FAIL: split rank equals the lattice rank  (1 vs 2)" in proc.stdout


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
