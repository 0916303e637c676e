"""The mutation harness (``tools/mutants.py``) on a throwaway module."""

import importlib.util
import json
from pathlib import Path

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
