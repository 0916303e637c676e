"""Output checks.  Each returns a list of problems; empty means correct.

The claims checks compare the CLI with the library on the same file, so
they hold whatever tie convention the library follows.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import List

import numpy as np

STUDY_HEADER = ["p", "rho", "n", "pi_true", "pi_hat", "abs_bias", "rmse", "failures"]
STUDY_EXACT = ("p", "rho", "n", "failures")

# Relative tolerance for the study's float fields against the reference.
# Swapping the quadrature premium for a closed form moves pi_true by at
# most ~1e-12 relative, which reaches abs_bias scaled up by at most
# pi_true / abs_bias (50 in the committed reference); a different sample
# or threshold in a single replicate moves a cell mean by ~1e-3.
STUDY_RTOL = 1e-8

# Relative tolerance of each exported survival value against the library.
KM_RTOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> List[List[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def study_against_reference(out: Path, reference: Path) -> List[str]:
    got, want = _read_csv(out), _read_csv(reference)
    if not got or got[0] != STUDY_HEADER:
        return [f"study header is {got[:1]!r}"]
    if len(got) != len(want):
        return [f"study has {len(got) - 1} rows, reference {len(want) - 1}"]
    problems = []
    for line, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        if len(row) != len(STUDY_HEADER):
            problems.append(f"line {line}: {len(row)} fields")
            continue
        for key, value, expected in zip(STUDY_HEADER, row, ref):
            if key in STUDY_EXACT:
                ok = value == expected
            else:
                ok = math.isclose(float(value), float(expected), rel_tol=STUDY_RTOL)
            if not ok:
                problems.append(f"line {line}: {key} {value} != reference {expected}")
    return problems


def same_bytes(path: Path, other: Path) -> List[str]:
    if path.read_bytes() != other.read_bytes():
        return [f"{path.name} differs from {other.name}"]
    return []


def read_claims_file(path: Path):
    """The claims file's columns in file order, parsed independently."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = list(reader)
    z = np.array([float(r[0]) for r in rows], dtype=np.float64)
    delta = np.array([int(r[1]) for r in rows], dtype=np.int64)
    return z, delta


def library_sample(claims: Path):
    from tailpremium import SortedCensoredSample

    return SortedCensoredSample.from_unsorted(*read_claims_file(claims))


def expected_estimate(sample, rho: float) -> str:
    """What ``estimate --auto-k`` must print, from the library chain."""
    from tailpremium import (
        EstimationSettings,
        censored_hill,
        php_estimate,
        reiss_thomas_k,
    )

    k = reiss_thomas_k(sample).k_star
    premium = php_estimate(sample, EstimationSettings(k=k, rho=rho))
    tail = censored_hill(sample, k)
    values = [
        ("p_hat", tail.p_hat),
        ("gamma_hill", tail.gamma_hill),
        ("gamma1_hat", tail.gamma1_hat),
        ("retention", premium.retention),
        ("premium", premium.value),
    ]
    lines = [f"n {sample.n}", f"k {k}"] + [f"{key} {float(v):.12g}" for key, v in values]
    return "".join(line + "\n" for line in lines)


def estimate_output(stdout: str, expected: str) -> List[str]:
    got, want = stdout.splitlines(), expected.splitlines()
    problems = [
        f"estimate line {i + 1}: {g!r} != library {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if g != w
    ]
    if len(got) != len(want):
        problems.append(f"estimate printed {len(got)} lines, library {len(want)}")
    return problems


def km_curve(curve: Path, sample, library_rows: int) -> List[str]:
    """The exported curve against the sample it was computed from.

    Every row is checked for its x, order and range; ``library_rows``
    evenly spaced rows are also compared with kaplan_meier_survival,
    which costs O(n) per call.
    """
    from tailpremium import kaplan_meier_survival

    rows = _read_csv(curve)
    if not rows or rows[0] != ["x", "survival"]:
        return [f"curve header is {rows[:1]!r}"]
    try:
        x = np.array([float(r[0]) for r in rows[1:]])
        s = np.array([float(r[1]) for r in rows[1:]])
    except (ValueError, IndexError) as exc:
        return [f"curve does not parse: {exc}"]
    distinct = np.unique(sample.z_sorted)[:-1]
    expected_x = np.array([float(format(v, ".12g")) for v in distinct])
    if x.size != expected_x.size:
        return [f"curve has {x.size} rows, sample {expected_x.size} distinct values below max"]
    problems = []
    if not np.array_equal(x, expected_x):
        problems.append("curve x differs from the distinct claim values")
    if x.size and not np.all(np.diff(x) > 0):
        problems.append("curve x is not increasing")
    if x.size and not np.all(np.diff(s) <= 0):
        problems.append("curve survival is not non-increasing")
    if x.size and not (np.all(s > 0) and np.all(s <= 1)):
        problems.append("curve survival leaves (0, 1]")
    picks = np.unique(np.linspace(0, x.size - 1, min(x.size, library_rows)).astype(int))
    for i in picks:
        want = kaplan_meier_survival(sample, distinct[i])
        if not math.isclose(s[i], want, rel_tol=KM_RTOL):
            problems.append(f"curve row {i + 2}: survival {s[i]!r} != library {want!r}")
    return problems
