"""Smoke test of the benchmark itself, at tiny size.

    python3 bench/smoke.py

Runs every workload untraced and traced through the generator, the
checks and the tracer; shows that a corrupted study CSV, curve or
estimate report counts as a failed operation; and that the tracer puts
every package binding back, also when the traced call raises.  Exits 0
when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run as bench
import tracer

SIZES = bench.Sizes(
    replicates=2, claims_rows=2000, setup_repeats=1, min_cycles=1, km_library_rows=10**6
)
SEED = 7
FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


@contextlib.contextmanager
def patched(name: str, replacement):
    original = getattr(bench, name)
    setattr(bench, name, replacement)
    try:
        yield
    finally:
        setattr(bench, name, original)


def corrupting(mutate):
    """``run_cli`` that runs the real command, then damages its output."""
    original = bench.run_cli

    def run_cli(run, label, argv):
        command = original(run, label, argv)
        mutate(run, label, argv)
        return command

    return run_cli


def scale_field(path: Path, row: int, column: int) -> None:
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = format(float(fields[column]) * (1 + 1e-6), ".12g")
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def out_path(argv) -> Path:
    return Path(argv[argv.index("--out") + 1])


def main() -> int:
    bench.import_package()

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    layer_map = json.loads((Path(__file__).parent / "layer_map.json").read_text())
    expect(set(layer_map["metrics"]) == set(units[True]), "layer_map.json maps every per-layer metric")
    before = tracer.snapshot_bindings()

    clean = {}
    for workload in bench.WORKLOADS:
        for trace in (False, True):
            run = bench.benchmark(workload, SEED, 0, trace, SIZES)
            result = bench.result(run)
            label = f"{workload} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: correct, nothing failed")
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(reported == units[trace], f"{label}: reports the metrics and units BENCHMARK.json lists")
            clean[workload, trace] = run
    expect(tracer.snapshot_bindings() == before, "tracer restored every binding")

    # A reference for the tiny study, taken from the clean run.
    reference = Path(clean["table1", False].info["study_csv"])
    with patched("reference_for", lambda seed, replicates: reference):
        run = bench.benchmark("table1", SEED, 0, False, SIZES)
        expect(run.correct, "table1: clean CSV matches its reference")

        def damage_study(run, label, argv):
            scale_field(out_path(argv), 1, 4)

        with patched("run_cli", corrupting(damage_study)):
            run = bench.benchmark("table1", SEED, 0, False, SIZES)
        expect(run.failed == 1 and not run.correct, "table1: corrupted CSV counts as failed")

    def damage_parallel(run, label, argv):
        if argv[-1] == "2":
            scale_field(out_path(argv), 3, 6)

    with patched("run_cli", corrupting(damage_parallel)):
        run = bench.benchmark("table1_w2", SEED, 0, False, SIZES)
    expect(run.failed == 1 and not run.correct, "table1_w2: CSV differing from serial counts as failed")

    def damage_curve(run, label, argv):
        if argv[0] == "km":
            path = out_path(argv)
            scale_field(path, len(path.read_text().splitlines()) // 2, 1)

    with patched("run_cli", corrupting(damage_curve)):
        run = bench.benchmark("claims_cli", SEED, 0, False, SIZES)
    expect(run.failed == 1 and not run.correct, "claims_cli: corrupted curve counts as failed")

    def damage_estimate(run, label, argv):
        if argv[0] == "estimate":
            path = run.work / f"{label}.stdout"
            path.write_text(path.read_text().replace("premium ", "premium 9"))

    with patched("run_cli", corrupting(damage_estimate)):
        run = bench.benchmark("claims_cli", SEED, 0, False, SIZES)
    expect(run.failed == 1 and not run.correct, "claims_cli: corrupted estimate counts as failed")

    from tailpremium import cli

    with contextlib.suppress(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        with tracer.Tracer():
            cli.main(["simulate"])
    expect(tracer.snapshot_bindings() == before, "tracer restored every binding after a raise")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
