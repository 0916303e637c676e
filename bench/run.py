"""Benchmark of the tailpremium package: the paper's Table-1 study and a claims CLI run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload table1 --seed 1 --seconds 35 --trace 0

Workloads (closed loop, one client: each command starts when the
previous one has ended; at most two busy processes at a time):

- ``table1``: ``tailpremium simulate`` on the Table-1 grid, ``--workers 1``;
- ``table1_w2``: the same study with ``--workers 2``; its CSV must equal
  the serial one byte for byte;
- ``claims_cli``: ``estimate --rho 1.1 --auto-k`` then ``km`` on a
  2e5-row claims file with ties.

The inputs are generated from ``--seed``.  With ``--trace 0`` the
commands run as subprocesses and the end-to-end metrics are reported:
``setup_s`` (a fresh ``import tailpremium.cli``), ``cycle_s`` (one
simulate, or estimate plus km), both scaled to a reference host speed
(see ``end_to_end``), and ``peak_rss_mb``.  With ``--trace 1`` the commands run
in-process through ``cli.main`` with every public function of the
package wrapped (see ``tracer.py``), and the per-layer metrics are
reported; ``layer_map.json`` says which end-to-end metric each should
move.  The last line of standard output is one JSON object; every
per-run value is also written under ``.bench_work/records/``.

``python3 bench/smoke.py`` tests the benchmark itself at tiny size.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks
import inputs
import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
# Median wall of calibrate.py on the host the benchmark was defined on:
# 2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17.
CALIBRATION_REFERENCE_S = 0.9

DEFAULT_SEED = 1
RHO = 1.1
WORKLOADS = ("table1", "table1_w2", "claims_cli")

# Per-layer metrics: self time booked to the nearest of these spans
# within the same layer (see tracer.attribute).
ROOTS = {
    "models.theoretical_premium": "exact_premium",
    "models.CensoringScheme.sample_arrays": "sample",
    "samples.SortedCensoredSample.from_unsorted": "sort_validate",
    "samples.build_sorted_sample": "sort_validate",
    "threshold.reiss_thomas_k": "select",
    "estimators.php_estimate": "premium",
    "estimators.km_survival_at_threshold": "km",
    "study.replicate_stream": "seed",
    "study.run_replicate": "replicate_self",
    "cli.read_claims": "read_claims",
    "cli.cmd_km": "km_export",
}
OBSERVE = {
    "threshold.reiss_thomas_k": lambda choice: choice.k_star,
    "study.run_replicate": lambda result: result.failed is not None,
}
ENTRY = "cli.main"


@dataclass(frozen=True)
class Sizes:
    """Work per command; the smoke test shrinks these."""

    replicates: int = 100
    claims_rows: int = 200_000
    setup_repeats: int = 5
    min_cycles: int = 2
    km_library_rows: int = 400


@dataclass
class Command:
    label: str
    wall_s: float
    exit_code: int
    rss_mb: Optional[float] = None
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


class Run:
    """Everything one benchmark run did, for the result and the record."""

    def __init__(self, workload: str, seed: int, trace: bool, work: Path) -> None:
        self.workload, self.seed, self.trace, self.work = workload, seed, trace, work
        self.commands: List[Command] = []
        self.problems: List[str] = []
        self.info: Dict[str, object] = {}

    def add(self, command: Command) -> Command:
        self.commands.append(command)
        return command

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.commands)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and bool(self.commands)


def package_env() -> Dict[str, str]:
    """Environment in which subprocesses import this checkout's package."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(run: Run, label: str, argv: List[str]) -> Command:
    """Run ``tailpremium <argv>`` as a subprocess; wall time and peak RSS."""
    out_path = run.work / f"{label}.stdout"
    with open(out_path, "wb") as out, open(run.work / f"{label}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tailpremium.cli", *argv],
            cwd=run.work, env=package_env(), stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and covers the command's own children.
    return run.add(Command(label, wall, proc.returncode, usage.ru_maxrss / 1024.0))


def run_inprocess(run: Run, label: str, argv: List[str], tracer=None) -> Command:
    """Run ``cli.main(argv)`` in this process, optionally traced."""
    from tailpremium import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), tracer or contextlib.nullcontext():
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    (run.work / f"{label}.stdout").write_text(stdout.getvalue())
    return run.add(Command(label, wall, code))


def measure_setup(run: Run, repeats: int) -> List[float]:
    """Wall times of a fresh ``import tailpremium.cli``, after one warm-up."""
    argv = [sys.executable, "-c", "import tailpremium.cli"]
    walls = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=run.work, env=package_env(), capture_output=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            run.problems.append(f"import failed: {proc.stderr.decode()[-300:]}")
            return []
        if i > 0:
            walls.append(wall)
    return walls


def calibrate(run: Run) -> float:
    """Wall time of the fixed reference work in ``calibrate.py``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CALIBRATE)], cwd=run.work, capture_output=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        run.problems.append(f"calibration failed: {proc.stderr.decode()[-300:]}")
    return wall


def cycles(seconds: float, min_cycles: int):
    """Yield cycle indices until the time is up (at least ``min_cycles``)."""
    start = time.perf_counter()
    index, longest = 0, 0.0
    while True:
        before = time.perf_counter()
        yield index
        index += 1
        longest = max(longest, time.perf_counter() - before)
        if index >= min_cycles and time.perf_counter() - start + longest > seconds:
            return


# --- inputs and checks -------------------------------------------------


def reference_for(seed: int, replicates: int) -> Optional[Path]:
    path = REFERENCE_DIR / f"table1_seed{seed}_r{replicates}.csv"
    return path if path.exists() else None


def prepare_study(run: Run, sizes: Sizes) -> Path:
    config = run.work / "table1.cfg"
    run.info["master_seed"] = inputs.write_study_config(config, run.seed, sizes.replicates)
    run.info["replicates"] = sizes.replicates
    return config


def check_study(run: Run, command: Command, csv_path: Path, sizes: Sizes) -> None:
    """First study CSV of a run: the reference, if any; later ones: same bytes."""
    if command.exit_code != 0:
        return
    if not csv_path.exists():
        command.problems.append(f"{csv_path.name} was not written")
        return
    first = run.info.get("study_csv")
    if first is None:
        run.info["study_csv"] = str(csv_path)
        run.info["study_sha256"] = checks.sha256(csv_path)
        reference = reference_for(run.seed, sizes.replicates)
        run.info["reference"] = reference.name if reference else None
        if reference is not None:
            command.problems.extend(checks.study_against_reference(csv_path, reference))
    else:
        command.problems.extend(checks.same_bytes(csv_path, Path(first)))


def simulate_argv(config: Path, label: str, workers: int) -> List[str]:
    out = config.parent / f"{label}.csv"
    return ["simulate", str(config), "--out", str(out), "--workers", str(workers)]


def prepare_claims(run: Run, sizes: Sizes):
    claims = run.work / "claims.csv"
    stats = inputs.write_claims(claims, run.seed, sizes.claims_rows)
    run.info["claims"] = asdict(stats)
    sample = checks.library_sample(claims)
    expected = checks.expected_estimate(sample, RHO)
    return claims, sample, expected


def check_claims(run: Run, estimate: Command, km: Command, sample, expected: str, sizes: Sizes) -> None:
    if estimate.exit_code == 0:
        stdout = (run.work / f"{estimate.label}.stdout").read_text()
        estimate.problems.extend(checks.estimate_output(stdout, expected))
    if km.exit_code == 0:
        curve = run.work / f"{km.label}.csv"
        first = run.info.get("curve_csv")
        if first is None:
            run.info["curve_csv"] = str(curve)
            km.problems.extend(checks.km_curve(curve, sample, sizes.km_library_rows))
        else:
            km.problems.extend(checks.same_bytes(curve, Path(first)))


def estimate_argv(claims: Path) -> List[str]:
    return ["estimate", str(claims), "--rho", str(RHO), "--auto-k"]


def km_argv(claims: Path, label: str) -> List[str]:
    return ["km", str(claims), "--out", str(claims.parent / f"{label}.csv")]


# --- untraced runs: end-to-end metrics ---------------------------------


def end_to_end(run: Run, seconds: float, sizes: Sizes) -> Dict[str, float]:
    """Set-up, cycle and memory figures of the untraced commands.

    The host's speed drifts by tens of percent over minutes, alike for
    every process.  Each cycle is therefore followed by ``calibrate.py``,
    and ``setup_s`` and ``cycle_s`` are median walls scaled by
    ``CALIBRATION_REFERENCE_S`` over the median calibration wall: seconds
    on a host as fast as the reference.  The raw walls are in the record.
    """
    walls = measure_setup(run, sizes.setup_repeats)
    run.info["setup_walls_s"] = walls
    cycle_walls: List[float] = []
    calibration_walls: List[float] = []
    if run.workload in ("table1", "table1_w2"):
        config = prepare_study(run, sizes)
        if run.workload == "table1_w2":
            # The serial CSV the parallel ones must equal; not timed.
            serial = run_cli(run, "serial", simulate_argv(config, "serial", 1))
            check_study(run, serial, run.work / "serial.csv", sizes)
        workers = 2 if run.workload == "table1_w2" else 1
        for i in cycles(seconds, sizes.min_cycles):
            label = f"simulate{i}"
            command = run_cli(run, label, simulate_argv(config, label, workers))
            check_study(run, command, run.work / f"{label}.csv", sizes)
            cycle_walls.append(command.wall_s)
            calibration_walls.append(calibrate(run))
    else:
        claims, sample, expected = prepare_claims(run, sizes)
        estimate_walls, km_walls = [], []
        for i in cycles(seconds, sizes.min_cycles):
            estimate = run_cli(run, f"estimate{i}", estimate_argv(claims))
            km = run_cli(run, f"km{i}", km_argv(claims, f"km{i}"))
            check_claims(run, estimate, km, sample, expected, sizes)
            estimate_walls.append(estimate.wall_s)
            km_walls.append(km.wall_s)
            cycle_walls.append(estimate.wall_s + km.wall_s)
            calibration_walls.append(calibrate(run))
        run.info["estimate_walls_s"] = estimate_walls
        run.info["km_walls_s"] = km_walls
        run.info["estimate_s"] = statistics.median(estimate_walls)
        run.info["km_s"] = statistics.median(km_walls)
    rss = [c.rss_mb for c in run.commands if c.rss_mb is not None]
    if not walls or not cycle_walls:
        run.problems.append("nothing was measured")
        return {}
    run.info.update(
        cycle_walls_s=cycle_walls,
        calibration_walls_s=calibration_walls,
        setup_raw_s=statistics.median(walls),
        cycle_raw_s=statistics.median(cycle_walls),
        calibration_s=statistics.median(calibration_walls),
    )
    speed = CALIBRATION_REFERENCE_S / statistics.median(calibration_walls)
    return {
        "setup_s": statistics.median(walls) * speed,
        "cycle_s": statistics.median(cycle_walls) * speed,
        "peak_rss_mb": max(rss),
    }


# --- traced runs: per-layer metrics ------------------------------------


def per_layer(run: Run, seconds: float, sizes: Sizes) -> Dict[str, float]:
    before = tracing.snapshot_bindings()
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    k_stars: List[int] = []
    failed_replicates = 0
    traced_walls, plain_walls, covered = [], [], 0.0
    serial_walls, parallel_walls = [], []

    def traced(label: str, argv: List[str]) -> Command:
        nonlocal failed_replicates, covered
        tracer = tracing.Tracer(OBSERVE)
        command = run_inprocess(run, label, argv, tracer)
        spans = tracer.spans
        for key, value in tracing.attribute(spans, ROOTS).items():
            totals[key] = totals.get(key, 0.0) + value
        for span in spans:
            counts[span.name] = counts.get(span.name, 0) + 1
            if span.name == "threshold.reiss_thomas_k" and not span.raised:
                k_stars.append(span.observed)
            elif span.name == "study.run_replicate" and span.observed:
                failed_replicates += 1
        entry = [s for s in spans if s.name == ENTRY]
        below = sum(
            s.end_ns - s.start_ns for s in spans if s.parent >= 0 and spans[s.parent].name == ENTRY
        )
        covered += below * 1e-9
        if len(entry) != 1:
            run.problems.append(f"{label}: {len(entry)} spans named {ENTRY}")
        return command

    if run.workload in ("table1", "table1_w2"):
        config = prepare_study(run, sizes)
        for i in cycles(seconds, sizes.min_cycles):
            if run.workload == "table1_w2":
                serial = run_cli(run, f"serial{i}", simulate_argv(config, f"serial{i}", 1))
                check_study(run, serial, run.work / f"serial{i}.csv", sizes)
                parallel = run_cli(run, f"parallel{i}", simulate_argv(config, f"parallel{i}", 2))
                check_study(run, parallel, run.work / f"parallel{i}.csv", sizes)
                serial_walls.append(serial.wall_s)
                parallel_walls.append(parallel.wall_s)
            plain = run_inprocess(run, f"plain{i}", simulate_argv(config, f"plain{i}", 1))
            check_study(run, plain, run.work / f"plain{i}.csv", sizes)
            plain_walls.append(plain.wall_s)
            command = traced(f"traced{i}", simulate_argv(config, f"traced{i}", 1))
            check_study(run, command, run.work / f"traced{i}.csv", sizes)
            traced_walls.append(command.wall_s)
    else:
        claims, sample, expected = prepare_claims(run, sizes)
        for i in cycles(seconds, sizes.min_cycles):
            estimate = run_inprocess(run, f"plain_estimate{i}", estimate_argv(claims))
            km = run_inprocess(run, f"plain_km{i}", km_argv(claims, f"plain_km{i}"))
            check_claims(run, estimate, km, sample, expected, sizes)
            plain_walls.append(estimate.wall_s + km.wall_s)
            estimate = traced(f"traced_estimate{i}", estimate_argv(claims))
            km = traced(f"traced_km{i}", km_argv(claims, f"traced_km{i}"))
            check_claims(run, estimate, km, sample, expected, sizes)
            traced_walls.append(estimate.wall_s + km.wall_s)

    if tracing.snapshot_bindings() != before:
        run.problems.append("tracer left package bindings changed")
    cycles_run = len(traced_walls)
    claims_cycles = cycles_run if run.workload == "claims_cli" else 0
    replicates = counts.get("study.run_replicate", 0)

    def per_replicate_us(key: str) -> float:
        return totals.get(key, 0.0) / replicates * 1e6 if replicates else 0.0

    def per_claims_cycle_s(key: str) -> float:
        return totals.get(key, 0.0) / claims_cycles if claims_cycles else 0.0

    def per_cycle(name: str) -> float:
        return counts.get(name, 0) / cycles_run

    traced_median = statistics.median(traced_walls)
    plain_median = statistics.median(plain_walls)
    run.info.update(
        traced_walls_s=traced_walls,
        plain_walls_s=plain_walls,
        serial_walls_s=serial_walls,
        parallel_walls_s=parallel_walls,
        self_s_totals=totals,
        span_counts=counts,
    )
    return {
        "models.exact_premium_us": per_replicate_us("exact_premium"),
        "models.exact_premium_calls": per_cycle("models.theoretical_premium"),
        "models.sample_us": per_replicate_us("sample"),
        "models.draws": per_cycle("models.CensoringScheme.sample_arrays"),
        "samples.sort_validate_us": per_replicate_us("sort_validate"),
        "samples.sorts": per_cycle("samples.SortedCensoredSample.from_unsorted"),
        "samples.claims_sort_validate_s": per_claims_cycle_s("sort_validate"),
        "threshold.select_us": per_replicate_us("select"),
        "threshold.calls": per_cycle("threshold.reiss_thomas_k"),
        "threshold.select_s": per_claims_cycle_s("select"),
        "threshold.k_star_le3_share": (
            sum(k <= 3 for k in k_stars) / len(k_stars) if k_stars else 0.0
        ),
        "estimators.premium_us": per_replicate_us("premium"),
        "estimators.km_us": per_replicate_us("km"),
        "study.seed_us": per_replicate_us("seed"),
        "study.replicate_self_us": per_replicate_us("replicate_self"),
        "study.replicates": replicates / cycles_run,
        "study.replicates_failed": failed_replicates / cycles_run,
        "study.parallel_efficiency": (
            statistics.median(serial_walls) / (2 * statistics.median(parallel_walls))
            if parallel_walls else 0.0
        ),
        "cli.read_claims_s": per_claims_cycle_s("read_claims"),
        "cli.km_export_s": per_claims_cycle_s("km_export"),
        "trace.overhead_share": (traced_median - plain_median) / plain_median,
        "trace.covered_share": covered / sum(traced_walls),
    }


# --- entry point -------------------------------------------------------

UNITS = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("efficiency"):
        return "ratio"
    return "count"


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailpremium").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def import_package() -> None:
    """Import tailpremium from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tailpremium" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'tailpremium'}")
    sys.path.insert(0, str(SRC))
    import tailpremium

    if Path(tailpremium.__file__).resolve().parent != (SRC / "tailpremium").resolve():
        raise SystemExit(f"error: tailpremium imported from {tailpremium.__file__}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Run:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{stamp}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(workload, seed, trace, work)
    load_before = os.getloadavg()
    measure = per_layer if trace else end_to_end
    metrics = measure(run, seconds, sizes)
    run.info["metrics"] = metrics
    run.info["load_before"] = load_before
    run.info["load_after"] = os.getloadavg()
    return run


def result(run: Run) -> Dict[str, object]:
    metrics = run.info.get("metrics", {})
    return {
        "correct": run.correct,
        "attempted": max(len(run.commands), 1),
        "failed": run.failed if run.commands else 1,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }


def write_record(run: Run, args: argparse.Namespace) -> Path:
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": args.seconds,
        "trace": run.trace,
        "environment": environment(),
        "info": run.info,
        "problems": run.problems,
        "commands": [asdict(c) for c in run.commands],
        "result": result(run),
    }
    path = WORK / "records" / f"{run.work.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    run = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    record = write_record(run, args)
    info = run.info
    print(f"# workload {run.workload} seed {run.seed} trace {int(run.trace)}; record {record.relative_to(ROOT)}")
    for key in ("master_seed", "study_sha256", "reference", "claims", "estimate_s", "km_s", "setup_raw_s", "cycle_raw_s", "calibration_s"):
        if key in info:
            print(f"# {key}: {info[key]}")
    for problem in run.problems + [p for c in run.commands for p in c.problems][:20]:
        print(f"# problem: {problem}")
    print(json.dumps(result(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
