"""Mutation testing with the standard library: which small edits do the tests miss?

    python3 tools/mutants.py MODULE TESTS... [--root DIR] [--out FILE]

``MODULE`` is a Python file under the root (by default the repository that
holds this script) and ``TESTS`` the pytest paths or node ids, relative to
the root, run against each mutant.  A mutant changes one operator or one
constant of the module, found with ``ast``: ``<`` and ``<=``, ``>`` and
``>=``, ``+`` and ``-``, ``*`` and ``/`` (each way, also in augmented
assignments), ``==`` and ``!=``, an int constant plus 1, or a nonzero
float constant times 1.01.

The root is copied once into a temporary directory.  Each mutant in turn is
written there over the module and pytest runs in the copy, with its ``src``
on ``PYTHONPATH``, stopping at the first failure; the unmutated module, as
``ast`` writes it back, runs first and must pass.  The working tree is
never written.  The report is JSON: the counts and, per mutant, its line,
its edit, the original source line and whether it was ``killed`` (with the
first failing test), ``timeout`` (after ``TIMEOUT_S`` seconds) or
``survived``.  A run survives only if pytest reports its passes: a mutant
that ends pytest's own process early with status 0 (a forked child's
``os._exit`` run by the parent) is killed.  It goes to stdout, or into ``--out`` under the module's
key, where a survivor keeps the ``note`` it had for the same edit of the
same source line.  Stopped by SIGTERM or SIGINT, the script kills the
running pytest, removes its copy of the root and exits with status
128 + the signal's number.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}
TIMEOUT_S = 300.0  # a mutant's run longer than this counts as a timeout
# A run's outcome as the mutant's status.
STATUS = {"passed": "survived", "failed": "killed", "timeout": "timeout"}
# pytest -q's closing line once the session has run, for example "5 passed in 1.02s".
SUMMARY = re.compile(r"^\d+ passed\b.* in [\d.]+s", re.MULTILINE)
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", "build"
)


def sites(tree: ast.AST) -> List[Tuple[ast.AST, int, str]]:
    """Every mutable spot of ``tree`` as ``(node, slot, edit)``, in walk order.

    ``slot`` is the index of the operator in a comparison, else 0.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, slot, _edit(op)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, 0, _edit(node.op)))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if node.value == 0.0 and type(node.value) is float:
                continue  # 0.0 * 1.01 is 0.0: no mutant
            change = "+ 1" if type(node.value) is int else "* 1.01"
            found.append((node, 0, f"{node.value!r} {change}"))
    return found


def _edit(op: ast.AST) -> str:
    return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def mutate(source: str, index: int) -> Tuple[str, ast.AST, str]:
    """The module with its ``index``-th site mutated: ``(text, node, edit)``."""
    tree = ast.parse(source)
    node, slot, edit = sites(tree)[index]
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value = node.value + 1 if type(node.value) is int else node.value * 1.01
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree) + "\n", node, edit


def run_tests(root: Path, tests: List[str]) -> Tuple[str, Optional[str]]:
    """Run pytest in ``root``: ``("passed" | "failed" | "timeout", first failure)``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-o", "addopts=",
            "-p", "no:cacheprovider", *tests]
    process = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=TIMEOUT_S)
    except BaseException as exc:  # a timeout, or this script being stopped
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return "timeout", None
    if process.returncode == 0:
        if SUMMARY.search(output):
            return "passed", None
        return "failed", "pytest exited with status 0 before its summary"
    failures = [line.split(" ", 1)[1] for line in output.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return "failed", failures[0].split(" - ")[0] if failures else output[-300:]


def mutation_report(root: Path, module: str, tests: List[str]) -> Dict:
    source = (root / module).read_text()
    lines = source.splitlines()
    count = len(sites(ast.parse(source)))
    results = []
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(root, copy, ignore=IGNORED)
        target = copy / module
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        status, failure = run_tests(copy, tests)
        if status != "passed":
            raise SystemExit(f"the unmutated module fails its tests: {failure}")
        for index in range(count):
            text, node, edit = mutate(source, index)
            target.write_text(text)
            started = time.perf_counter()
            status, failure = run_tests(copy, tests)
            entry = {
                "line": node.lineno,
                "edit": edit,
                "source": lines[node.lineno - 1].strip(),
                "status": STATUS[status],
            }
            if failure:
                entry["by"] = failure
            results.append(entry)
            print(f"{index + 1}/{count} {module}:{node.lineno} {edit}: {entry['status']}"
                  f" ({time.perf_counter() - started:.1f} s)", file=sys.stderr)
    statuses = [entry["status"] for entry in results]
    return {
        "tests": tests,
        "mutants": count,
        **{status: statuses.count(status) for status in STATUS.values()},
        "results": results,
    }


def keep_notes(report: Dict, previous: Optional[Dict]) -> None:
    """Carry each survivor's ``note`` over from the previous report of the module."""
    notes = {
        (entry["edit"], entry["source"]): entry["note"]
        for entry in (previous or {}).get("results", [])
        if "note" in entry
    }
    for entry in report["results"]:
        note = notes.get((entry["edit"], entry["source"]))
        if entry["status"] == "survived" and note:
            entry["note"] = note


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module file, relative to the root")
    parser.add_argument("tests", nargs="+", help="pytest paths, relative to the root")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--out", type=Path, help="JSON file to merge the report into")
    args = parser.parse_args(argv)
    report = mutation_report(args.root.resolve(), args.module, args.tests)
    if args.out is None:
        json.dump(report, sys.stdout, indent=1)
        print()
        return 0
    merged = json.loads(args.out.read_text()) if args.out.exists() else {}
    keep_notes(report, merged.get(args.module))
    merged[args.module] = report
    args.out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


def _stop(signum, frame) -> None:
    """Unwind on a stop signal, so that ``finally`` and ``with`` blocks clean up."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    sys.exit(main())
