"""Command-line interface.

Four subcommands: ``estimate`` runs the full premium chain on a claims
CSV, ``km`` exports the product-limit survival curve, ``asymptotics``
evaluates the normal-limit mean and variance, and ``simulate`` runs a
replicated study from a config file.

Each command imports numpy and the package modules it uses when it runs,
so ``import tailpremium.cli``, ``--help`` and usage errors load only
``cli`` and ``errors``, and only ``simulate`` loads ``study``, ``models``
and ``logging``.  :func:`entrypoint` runs numpy with one OpenBLAS thread;
set ``OPENBLAS_NUM_THREADS`` to choose another count.  :func:`main` changes
no environment.

Exit codes: 0 success, 2 malformed input (bad flags, bad CSV or config),
3 violated mathematical precondition, 4 input/output failure.  Numbers are
serialized with 12 significant digits, so emitted files reparse to full
printed precision.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING, List, Optional, Sequence

from .errors import DomainError, FileFormatError, ValidationError

if TYPE_CHECKING:
    from .samples import SortedCensoredSample
    from .study import StudyConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# Every emitted number that is not a count: 12 significant digits.
_FLOAT = "%.12g"
_STUDY_HEADER = "p,rho,n,pi_true,pi_hat,abs_bias,rmse,failures"
# One study line, over the fields of a ``StudyRow`` in order.
_STUDY_LINE = ",".join([_FLOAT, _FLOAT, "%d", _FLOAT, _FLOAT, _FLOAT, _FLOAT, "%d"])
# Study config keys in parse order: key -> (caster, is_list).  Every key
# but ``beta`` is required.
_CONFIG_KEYS = {
    "gamma1": (float, False),
    "eta": (float, False),
    "p_values": (float, True),
    "rho_values": (float, True),
    "n_values": (int, True),
    "replicates": (int, False),
    "master_seed": (int, False),
    "beta": (float, False),
}


def _fmt(value: float) -> str:
    """12-significant-digit shortest decimal form."""
    return _FLOAT % value


def read_claims(path: str) -> SortedCensoredSample:
    """Parse a claims CSV with exact header ``z,delta``.

    The file is read and decoded whole.  Then ``np.loadtxt`` reads it a
    second time, by its absolute path, so numpy parses it in C chunks, into
    ``(z, delta)`` records that :meth:`SortedCensoredSample.from_unsorted`
    sorts and checks.  numpy opens a path through ``DataSource``, which
    never takes an absolute path for a URL but would decompress a name
    ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``, and reads with
    universal newlines, which would split a row at a lone ``\\r``; such
    names and bodies skip that pass.  When the pass is skipped or rejects
    the file (it fails or warns, or the records do not match the body's
    lines one to one, as with a blank line, which ``loadtxt`` would skip),
    or the sample rejects a value or flag with a :class:`ValidationError`,
    the text read first is parsed row by row.  That loop names the line of
    the first offending row, or accepts what only Python's ``float`` and
    ``int`` parse, such as ``1_5``.  ``loadtxt`` converts floats with the
    routine behind ``float``, so both passes read the same values.  A file
    that does not decode fails at the line of its first undecodable byte.
    """
    import numpy as np

    from .samples import SortedCensoredSample

    try:
        with open(path, newline="") as handle:
            encoding = handle.encoding
            text = handle.read()
    except UnicodeDecodeError as exc:
        # A whole-file read decodes all bytes in one call, so the offset
        # is the file's.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(
            f"{path}:{line}: cannot decode byte "
            f"0x{exc.object[exc.start]:02x} as {exc.encoding}"
        ) from exc
    header, _, body = text.partition("\n")
    # Left to the row loop: any other header form, an empty body, the
    # separators \x1c-\x1f, which loadtxt strips as whitespace and float
    # and int reject, a lone \r and a name numpy would decompress.
    if (
        header not in ("z,delta", "z,delta\r")
        or not body
        or any(sep in body for sep in "\x1c\x1d\x1e\x1f")
        or ("\r" in body and body.count("\r") != body.count("\r\n"))
        or path.endswith((".gz", ".bz2", ".xz", ".lzma"))
    ):
        return _read_claims_rows(path, text)
    try:
        with warnings.catch_warnings():
            # loadtxt warns rather than fails on a body of blank lines.
            warnings.simplefilter("error")
            records = np.loadtxt(
                os.path.abspath(path),
                dtype=[("z", np.float64), ("delta", np.int64)],
                delimiter=",",
                comments=None,
                skiprows=1,
                quotechar='"',
                ndmin=1,
                encoding=encoding,
            )
    except (OSError, ValueError, Warning):
        return _read_claims_rows(path, text)
    if records.size != body.count("\n") + (not body.endswith("\n")):
        return _read_claims_rows(path, text)
    try:
        return SortedCensoredSample.from_unsorted(records["z"], records["delta"])
    except ValidationError:
        return _read_claims_rows(path, text)


def _read_claims_rows(path: str, text: str) -> SortedCensoredSample:
    """Parse the ``text`` of a claims CSV row by row, checking each row.

    Every failure carries the line number of the first offending row.
    """
    # Imported here: a file that numpy parses never reaches this loop.
    import csv
    import io

    from .samples import SortedCensoredSample

    z: List[float] = []
    delta: List[int] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != ["z", "delta"]:
        got = ",".join(header) if header else "<empty file>"
        raise FileFormatError(
            f"{path}:1: expected header 'z,delta', got '{got}'"
        )
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise FileFormatError(
                f"{path}:{lineno}: expected 2 fields, got {len(row)}"
            )
        try:
            value = float(row[0])
            flag = int(row[1])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        if not 0.0 <= value < math.inf:
            raise FileFormatError(
                f"{path}:{lineno}: observed value must be finite and >= 0, "
                f"got {value!r}"
            )
        if flag not in (0, 1):
            raise FileFormatError(
                f"{path}:{lineno}: censoring indicator must be 0 or 1, "
                f"got {flag!r}"
            )
        z.append(value)
        delta.append(flag)
    if not z:
        raise FileFormatError(f"{path}: no data rows")
    return SortedCensoredSample.from_unsorted(z, delta)


def _parse_scalar(caster, path: str, lineno: int, key: str, raw: str):
    try:
        return caster(raw)
    except ValueError as exc:
        raise FileFormatError(
            f"{path}:{lineno}: key '{key}': cannot parse {raw!r}"
        ) from exc


def _parse_list(caster, path: str, lineno: int, key: str, raw: str) -> tuple:
    items = [part.strip() for part in raw.split(",")]
    if any(not part for part in items):
        raise FileFormatError(
            f"{path}:{lineno}: key '{key}': empty list element in {raw!r}"
        )
    return tuple(_parse_scalar(caster, path, lineno, key, part) for part in items)


def read_study_config(path: str) -> StudyConfig:
    """Parse a flat ``key = value`` study configuration file.

    Lists are comma-separated.  Unknown and duplicate keys are rejected;
    ``beta`` is optional and defaults to the package default of 0.3.
    """
    from .study import StudyConfig

    raw: dict = {}
    lines: dict = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise FileFormatError(
                    f"{path}:{lineno}: expected 'key = value', got {stripped!r}"
                )
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise FileFormatError(f"{path}:{lineno}: unknown key '{key}'")
            if key in raw:
                raise FileFormatError(
                    f"{path}:{lineno}: duplicate key '{key}' "
                    f"(first seen on line {lines[key]})"
                )
            raw[key] = value
            lines[key] = lineno
    missing = [key for key in _CONFIG_KEYS if key != "beta" and key not in raw]
    if missing:
        raise FileFormatError(
            f"{path}: missing required keys: {', '.join(missing)}"
        )
    kwargs = {
        key: (_parse_list if is_list else _parse_scalar)(
            caster, path, lines[key], key, raw[key]
        )
        for key, (caster, is_list) in _CONFIG_KEYS.items()
        if key in raw
    }
    try:
        return StudyConfig(**kwargs)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _retention_flag(value: str) -> Optional[float]:
    """A retention level, or None for 'threshold': the k-th upper order statistic."""
    if value == "threshold":
        return None
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"retention must be a number or 'threshold', got {value!r}"
        ) from None


def _write_text(path: str, header: str, body: str) -> None:
    """Write the ``header`` line, then ``body``, a run of unquoted lines."""
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        handle.write(body)


def cmd_estimate(args: argparse.Namespace) -> int:
    import numpy as np

    from .estimators import PremiumEstimate, _fit_rows, _raise_failure
    from .samples import THRESHOLD, EstimationSettings, validate_settings
    from .threshold import _chain_rows

    sample = read_claims(args.input)
    z, delta = sample.z_sorted[None], sample.delta_concomitant[None]
    asked = args.retention  # None: the k-th upper order statistic

    def settings(k: int) -> int:
        retention = THRESHOLD if asked is None else asked
        given = EstimationSettings(k=k, rho=args.rho, retention=retention)
        return validate_settings(given, sample.n).k

    # The rule's failures come first, then the settings' bounds, then the fit's.
    if args.auto_k:
        chain = _chain_rows(z, delta, (args.rho,), retention=asked)
        if chain.k[0] == 0:
            _raise_failure(chain, args.rho)
        k = settings(int(chain.k[0]))
    else:
        k = settings(args.k)
        chain = _fit_rows(z, delta, np.array([k]), (args.rho,), asked)
    _raise_failure(chain, args.rho)
    row = (chain.gamma1, chain.p_hat, chain.retention, chain.pi_hat[:, 0], chain.anchor)
    gamma1, p_hat, retention, premium, anchor = (float(v[0]) for v in row)
    report = {
        "n": str(sample.n),
        "k": str(k),
        "p_hat": _fmt(p_hat),
        "gamma_hill": _fmt(chain.gamma_hill[0]),
        "gamma1_hat": _fmt(gamma1),
        "retention": _fmt(retention),
        "premium": _fmt(premium),
    }
    if args.tau1 is not None or args.lambda1 is not None:
        from .asymptotics import (
            AsymptoticParams,
            NormalLimit,
            asym_mean,
            asym_variance,
            confidence_interval,
            normalization_factor,
        )

        tau1 = args.tau1 if args.tau1 is not None else 0.0
        lambda1 = args.lambda1 if args.lambda1 is not None else 0.0
        params = AsymptoticParams(
            gamma1=gamma1,
            p=p_hat,
            rho=args.rho,
            tau1=tau1,
            lambda1=lambda1,
        )
        sigma2 = asym_variance(gamma1, p_hat, args.rho)
        if sigma2 <= 0.0:
            print(
                "warning: asymptotic variance is non-positive "
                f"({_fmt(sigma2)}); confidence interval omitted",
                file=sys.stderr,
            )
        else:
            limit = NormalLimit(
                mu=asym_mean(params),
                sigma2=sigma2,
                normalization=normalization_factor(
                    retention, float(chain.threshold[0]), anchor, gamma1, args.rho
                ),
            )
            estimate = PremiumEstimate(premium, args.rho, retention, k, anchor)
            lo, hi = confidence_interval(estimate, limit, k, args.level)
            report.update(ci_level=_fmt(args.level), ci_low=_fmt(lo), ci_high=_fmt(hi))
    for key, value in report.items():
        print(f"{key} {value}")
    if args.out is not None:
        _write_text(args.out, ",".join(report), ",".join(report.values()) + "\n")
    return EXIT_OK


def cmd_km(args: argparse.Namespace) -> int:
    import numpy as np

    from .estimators import kaplan_meier_survival

    sample = read_claims(args.input)
    # The distinct values below the maximum are the run ends of the sorted
    # column (np.unique would import numpy.ma and sort again); adding 0.0
    # prints a zero run as 0 whatever the sign of its last entry.
    z = sample.z_sorted
    x = z[:-1][z[1:] != z[:-1]] + 0.0
    # One format call over the interleaved (x, S(x)) pairs.
    curve = np.column_stack((x, kaplan_meier_survival(sample, x))).ravel().tolist()
    _write_text(args.out, "x,survival", f"{_FLOAT},{_FLOAT}\n" * x.size % tuple(curve))
    return EXIT_OK


def cmd_asymptotics(args: argparse.Namespace) -> int:
    from .asymptotics import AsymptoticParams, asym_mean, asym_variance

    params = AsymptoticParams(
        gamma1=args.gamma1,
        p=args.p,
        rho=args.rho,
        tau1=args.tau1,
        lambda1=args.lambda1,
    )
    mu = asym_mean(params)
    sigma2 = asym_variance(args.gamma1, args.p, args.rho)
    print(f"mu {_fmt(mu)}")
    print(f"sigma2 {_fmt(sigma2)}")
    if sigma2 <= 0.0:
        print(
            "warning asymptotic variance is non-positive for these "
            "parameters; no confidence interval available"
        )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    import dataclasses
    # The study reports dropped replicates through logging.
    import logging

    from .study import run_study

    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    config = read_study_config(args.config)
    if args.seed is not None:
        try:
            config = dataclasses.replace(config, master_seed=args.seed)
        except ValidationError as exc:
            raise ValidationError(f"--seed: {exc}") from exc
    rows = run_study(config, workers=args.workers)
    _write_text(
        args.out,
        _STUDY_HEADER,
        "".join(_STUDY_LINE % dataclasses.astuple(row) + "\n" for row in rows),
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailpremium",
        description=(
            "Excess-of-loss premium estimation from right-censored claims"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser(
        "estimate", help="estimate the layer premium from a claims CSV"
    )
    estimate.add_argument("input", help="claims CSV with header z,delta")
    estimate.add_argument("--rho", type=float, required=True, help="distortion parameter (>= 1)")
    group = estimate.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="number of top order statistics")
    group.add_argument(
        "--auto-k",
        action="store_true",
        help="select k by the path-stability rule",
    )
    estimate.add_argument(
        "--retention",
        type=_retention_flag,
        default=None,
        help="retention level, or 'threshold' for the k-th upper order statistic",
    )
    estimate.add_argument(
        "--tau1", type=float, default=None, help="second-order parameter (<= 0)"
    )
    estimate.add_argument(
        "--lambda1",
        type=float,
        default=None,
        help="limit of sqrt(k) times the second-order rate",
    )
    estimate.add_argument(
        "--level", type=float, default=0.95, help="confidence level (default 0.95)"
    )
    estimate.add_argument("--out", default=None, help="also write the report as CSV")
    estimate.set_defaults(func=cmd_estimate)

    km = sub.add_parser("km", help="export the product-limit survival curve")
    km.add_argument("input", help="claims CSV with header z,delta")
    km.add_argument("--out", required=True, help="output CSV path")
    km.set_defaults(func=cmd_km)

    asymptotics = sub.add_parser(
        "asymptotics", help="normal-limit mean and variance"
    )
    asymptotics.add_argument("--gamma1", type=float, required=True)
    asymptotics.add_argument("--p", type=float, required=True)
    asymptotics.add_argument("--rho", type=float, required=True)
    asymptotics.add_argument("--tau1", type=float, default=0.0)
    asymptotics.add_argument("--lambda1", type=float, default=0.0)
    asymptotics.set_defaults(func=cmd_asymptotics)

    simulate = sub.add_parser("simulate", help="run a replicated study")
    simulate.add_argument("config", help="flat key = value study configuration")
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "processes that compute the study, this one included; the rest "
            "are forked, and without os.fork all run here (default 1)"
        ),
    )
    simulate.add_argument(
        "--seed", type=int, default=None, help="override the config master_seed"
    )
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    """Pin OpenBLAS to one thread unless the caller set a count, run
    :func:`main`, then freeze the collector so that finalization's full
    collections skip the import heap (about 30 ms a command), and exit.

    No command calls BLAS, and an idle OpenBLAS worker spins on a core for
    about 0.1 s after numpy loads.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
