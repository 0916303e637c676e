"""The mutation harness (``tools/mutants.py``) on a throwaway module, and
the committed ``MUTANTS.json`` against the modules it reports on."""

import ast
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"

MODULE = '''\
def larger(a, b):
    return b if a < b else a


def double(x):
    return x + x
'''

TESTS = '''\
from tiny import double, larger


def test_larger():
    assert larger(1, 2) == 2
    assert larger(3, 1) == 3


def test_double():
    assert double(3) == 6
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROOT = TOOL.parents[1]
RECORDED = json.loads((ROOT / "MUTANTS.json").read_text())


@pytest.mark.parametrize("module", sorted(RECORDED))
def test_the_committed_report_matches_the_module(module):
    # A module changed since its report was made must be run again, so
    # that its survivors are those of the code as it stands.
    source = (ROOT / module).read_text()
    lines = source.splitlines()
    sites = [
        (lines[node.lineno - 1].strip(), edit)
        for node, _, edit in load_tool().sites(ast.parse(source))
    ]
    report = RECORDED[module]
    assert [(r["source"], r["edit"]) for r in report["results"]] == sites
    assert report["mutants"] == len(sites)
    # Every survivor says why no test kills it.
    assert all(r.get("note") for r in report["results"] if r["status"] == "survived")


def test_kills_known_mutants_and_keeps_the_tree(tmp_path, capsys):
    root = tmp_path / "project"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "tiny.py").write_text(MODULE)
    (root / "tests" / "test_tiny.py").write_text(TESTS)
    before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
    out = tmp_path / "MUTANTS.json"
    tool = load_tool()
    argv = ["src/tiny.py", "tests/test_tiny.py", "--root", str(root), "--out", str(out)]
    assert tool.main(argv) == 0
    report = json.loads(out.read_text())["src/tiny.py"]
    outcome = {(r["line"], r["edit"]): (r["status"], r.get("by")) for r in report["results"]}
    # a < b -> a <= b returns b where a == b, the same value: it survives.
    assert outcome == {
        (2, "< -> <="): ("survived", None),
        (6, "+ -> -"): ("killed", "tests/test_tiny.py::test_double"),
    }
    assert (report["mutants"], report["killed"], report["survived"]) == (2, 1, 1)
    # A survivor keeps its note in the next report; a killed mutant drops it.
    for entry in report["results"]:
        entry["note"] = "equivalent: a tie returns either"
    again = json.loads(json.dumps(report))
    for entry in again["results"]:
        del entry["note"]
    tool.keep_notes(again, report)
    assert [entry.get("note") for entry in again["results"]] == [
        "equivalent: a tie returns either" if entry["status"] == "survived" else None
        for entry in again["results"]
    ]
    after = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
    assert after == before
    capsys.readouterr()


def test_a_mutant_that_ends_pytest_early_with_status_0_is_killed(tmp_path, capsys):
    root = tmp_path / "project"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "tiny.py").write_text(
        "import os\n\n\n"
        "def leave(code):\n"
        "    if code > 1:\n"
        "        os._exit(0)\n"
        "    return code\n"
    )
    (root / "tests" / "test_tiny.py").write_text(
        "from tiny import leave\n\n\n"
        "def test_leave():\n"
        "    assert leave(1) == 1\n"
    )
    out = tmp_path / "MUTANTS.json"
    argv = ["src/tiny.py", "tests/test_tiny.py", "--root", str(root), "--out", str(out)]
    assert load_tool().main(argv) == 0
    report = json.loads(out.read_text())["src/tiny.py"]
    outcome = {(r["line"], r["edit"]): (r["status"], r.get("by")) for r in report["results"]}
    # code >= 1 makes leave(1) end pytest's process with status 0.
    assert outcome == {
        (5, "> -> >="): ("killed", "pytest exited with status 0 before its summary"),
        (5, "1 + 1"): ("survived", None),
        (6, "0 + 1"): ("survived", None),
    }
    capsys.readouterr()


def test_the_bound_is_a_multiple_of_the_unmutated_wall_with_a_floor():
    tool = load_tool()
    assert tool.timeout_for(0.5) == tool.TIMEOUT_FLOOR_S
    above = 2 * tool.TIMEOUT_FLOOR_S / tool.TIMEOUT_FACTOR
    assert tool.timeout_for(above) == 2 * tool.TIMEOUT_FLOOR_S
    assert tool.timeout_for(tool.TIMEOUT_FLOOR_S / tool.TIMEOUT_FACTOR) == (
        tool.TIMEOUT_FLOOR_S
    )


def test_a_mutant_that_outlasts_the_bound_is_a_timeout(tmp_path, capsys):
    root = tmp_path / "project"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    # n // n is 1 without a constant, so the step is the one mutation site.
    (root / "src" / "tiny.py").write_text(
        "def spin(n):\n"
        "    while n:\n"
        "        n -= n // n\n"
        "    return n\n"
    )
    (root / "tests" / "test_tiny.py").write_text(
        "from tiny import spin\n\n\n"
        "def test_spin():\n"
        "    assert spin(2) == 0\n"
    )
    out = tmp_path / "MUTANTS.json"
    tool = load_tool()
    # The one mutant never ends, so the bound may be as short as the
    # unmutated run: the whole check takes about two pytest runs.
    tool.TIMEOUT_FACTOR, tool.TIMEOUT_FLOOR_S = 1.0, 0.0
    argv = ["src/tiny.py", "tests/test_tiny.py", "--root", str(root), "--out", str(out)]
    started = time.monotonic()
    assert tool.main(argv) == 0
    elapsed = time.monotonic() - started
    report = json.loads(out.read_text())["src/tiny.py"]
    assert [(r["line"], r["edit"], r["status"]) for r in report["results"]] == [
        (3, "- -> +", "timeout")
    ]
    assert (report["mutants"], report["timeout"]) == (1, 1)
    assert report["timeout_s"] == tool.timeout_for(report["baseline_s"])
    assert 0.0 < report["baseline_s"] <= report["timeout_s"] < elapsed
    capsys.readouterr()


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_stopped_run_kills_its_pytest_and_removes_its_tree(tmp_path):
    root = tmp_path / "project"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "tiny.py").write_text(MODULE)
    pid_file = tmp_path / "pytest.pid"
    (root / "tests" / "test_tiny.py").write_text(
        "import os, time\n\n\n"
        "def test_sleeps():\n"
        f"    open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "    time.sleep(120)\n"
    )
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    argv = [sys.executable, str(TOOL), "src/tiny.py", "tests/test_tiny.py",
            "--root", str(root)]
    harness = subprocess.Popen(
        argv, env=dict(os.environ, TMPDIR=str(scratch)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pid = None
    try:
        # The sleeping test runs in the harness's copy of the root.
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text():
            assert harness.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        pid = int(pid_file.read_text())
        assert [path.name for path in scratch.glob("*/*")] == ["tree"]
        harness.send_signal(signal.SIGTERM)
        # It exits on its own, before the test's sleep is over.
        assert harness.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(scratch.iterdir()) == []
        assert not alive(pid)
    finally:
        if harness.poll() is None:
            harness.kill()
            harness.wait()
        if pid is not None and alive(pid):
            os.kill(pid, signal.SIGKILL)
