"""Command-line interface.

Four subcommands: ``estimate`` runs the full premium chain on a claims
CSV, ``km`` exports the product-limit survival curve, ``asymptotics``
evaluates the normal-limit mean and variance, and ``simulate`` runs a
replicated study from a config file.

Exit codes: 0 success, 2 malformed input (bad flags, bad CSV or config),
3 violated mathematical precondition, 4 input/output failure.  Numbers are
serialized with 12 significant digits so emitted files round-trip exactly
through reparsing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import math
import sys
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .asymptotics import (
    AsymptoticParams,
    NormalLimit,
    asym_mean,
    asym_variance,
    confidence_interval,
    normalization_factor,
)
from .errors import DomainError, FileFormatError, ValidationError
from .estimators import censored_hill, kaplan_meier_survival, php_estimate
from .samples import THRESHOLD, EstimationSettings, SortedCensoredSample
from .study import StudyConfig, StudyRow, run_study
from .threshold import reiss_thomas_k

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

_CLAIMS_HEADER = ["z", "delta"]
_STUDY_HEADER = ["p", "rho", "n", "pi_true", "pi_hat", "abs_bias", "rmse", "failures"]
_CONFIG_REQUIRED = (
    "gamma1",
    "eta",
    "p_values",
    "rho_values",
    "n_values",
    "replicates",
    "master_seed",
)
_CONFIG_OPTIONAL = ("beta",)


def _fmt(value: float) -> str:
    """12-significant-digit shortest decimal form."""
    return format(float(value), ".12g")


def read_claims(path: str) -> SortedCensoredSample:
    """Parse a claims CSV with exact header ``z,delta``.

    The two columns are streamed into lists and validated in bulk by
    :class:`SortedCensoredSample`; every parse failure carries the line
    number of the first offending row.
    """
    z: List[float] = []
    delta: List[int] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _CLAIMS_HEADER:
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
                z.append(float(row[0]))
                delta.append(int(row[1]))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    if not z:
        raise FileFormatError(f"{path}: no data rows")
    try:
        return SortedCensoredSample.from_unsorted(z, delta)
    except ValidationError:
        # Only the failure path walks the rows, to name the first bad one.
        for lineno, (value, flag) in enumerate(zip(z, delta), start=2):
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
        raise


def _parse_scalar(caster, path: str, lineno: int, key: str, raw: str):
    try:
        return caster(raw)
    except ValueError as exc:
        raise FileFormatError(
            f"{path}:{lineno}: key '{key}': cannot parse {raw!r}"
        ) from exc


def _parse_list(caster, path: str, lineno: int, key: str, raw: str) -> list:
    items = [part.strip() for part in raw.split(",")]
    if any(not part for part in items):
        raise FileFormatError(
            f"{path}:{lineno}: key '{key}': empty list element in {raw!r}"
        )
    return [_parse_scalar(caster, path, lineno, key, part) for part in items]


def read_study_config(path: str) -> StudyConfig:
    """Parse a flat ``key = value`` study configuration file.

    Lists are comma-separated.  Unknown and duplicate keys are rejected;
    ``beta`` is optional and defaults to the package default of 0.3.
    """
    known = set(_CONFIG_REQUIRED) | set(_CONFIG_OPTIONAL)
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
            if key not in known:
                raise FileFormatError(f"{path}:{lineno}: unknown key '{key}'")
            if key in raw:
                raise FileFormatError(
                    f"{path}:{lineno}: duplicate key '{key}' "
                    f"(first seen on line {lines[key]})"
                )
            raw[key] = value
            lines[key] = lineno
    missing = [key for key in _CONFIG_REQUIRED if key not in raw]
    if missing:
        raise FileFormatError(
            f"{path}: missing required keys: {', '.join(missing)}"
        )
    kwargs = {
        "gamma1": _parse_scalar(float, path, lines["gamma1"], "gamma1", raw["gamma1"]),
        "eta": _parse_scalar(float, path, lines["eta"], "eta", raw["eta"]),
        "p_values": tuple(
            _parse_list(float, path, lines["p_values"], "p_values", raw["p_values"])
        ),
        "rho_values": tuple(
            _parse_list(float, path, lines["rho_values"], "rho_values", raw["rho_values"])
        ),
        "n_values": tuple(
            _parse_list(int, path, lines["n_values"], "n_values", raw["n_values"])
        ),
        "replicates": _parse_scalar(
            int, path, lines["replicates"], "replicates", raw["replicates"]
        ),
        "master_seed": _parse_scalar(
            int, path, lines["master_seed"], "master_seed", raw["master_seed"]
        ),
    }
    if "beta" in raw:
        kwargs["beta"] = _parse_scalar(float, path, lines["beta"], "beta", raw["beta"])
    try:
        return StudyConfig(**kwargs)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _retention_flag(value: str) -> Union[float, str]:
    if value == THRESHOLD:
        return THRESHOLD
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"retention must be a number or '{THRESHOLD}', got {value!r}"
        ) from None


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_estimate(args: argparse.Namespace) -> int:
    sample = read_claims(args.input)
    if args.auto_k:
        k = reiss_thomas_k(sample).k_star
    else:
        k = args.k
    settings = EstimationSettings(k=k, rho=args.rho, retention=args.retention)
    estimate = php_estimate(sample, settings)
    estimates = censored_hill(sample, k)

    pairs: List[Tuple[str, str]] = [
        ("n", str(sample.n)),
        ("k", str(k)),
        ("p_hat", _fmt(estimates.p_hat)),
        ("gamma_hill", _fmt(estimates.gamma_hill)),
        ("gamma1_hat", _fmt(estimates.gamma1_hat)),
        ("retention", _fmt(estimate.retention)),
        ("premium", _fmt(estimate.value)),
    ]
    if args.tau1 is not None or args.lambda1 is not None:
        tau1 = args.tau1 if args.tau1 is not None else 0.0
        lambda1 = args.lambda1 if args.lambda1 is not None else 0.0
        params = AsymptoticParams(
            gamma1=estimates.gamma1_hat,
            p=estimates.p_hat,
            rho=args.rho,
            tau1=tau1,
            lambda1=lambda1,
        )
        sigma2 = asym_variance(estimates.gamma1_hat, estimates.p_hat, args.rho)
        if sigma2 <= 0.0:
            print(
                "warning: asymptotic variance is non-positive "
                f"({_fmt(sigma2)}); confidence interval omitted",
                file=sys.stderr,
            )
        else:
            threshold_stat = float(sample.z_sorted[sample.n - k - 1])
            limit = NormalLimit(
                mu=asym_mean(params),
                sigma2=sigma2,
                normalization=normalization_factor(
                    estimate.retention,
                    threshold_stat,
                    estimate.km_at_threshold,
                    estimates.gamma1_hat,
                    args.rho,
                ),
            )
            lo, hi = confidence_interval(estimate, limit, k, args.level)
            pairs.append(("ci_level", _fmt(args.level)))
            pairs.append(("ci_low", _fmt(lo)))
            pairs.append(("ci_high", _fmt(hi)))
    for key, value in pairs:
        print(f"{key} {value}")
    if args.out is not None:
        _write_csv(
            args.out, [key for key, _ in pairs], [[value for _, value in pairs]]
        )
    return EXIT_OK


def cmd_km(args: argparse.Namespace) -> int:
    sample = read_claims(args.input)
    x = np.unique(sample.z_sorted)[:-1]
    survival = kaplan_meier_survival(sample, x)
    rows = [[_fmt(a), _fmt(b)] for a, b in zip(x.tolist(), survival.tolist())]
    _write_csv(args.out, ["x", "survival"], rows)
    return EXIT_OK


def cmd_asymptotics(args: argparse.Namespace) -> int:
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
    config = read_study_config(args.config)
    if args.seed is not None:
        try:
            config = dataclasses.replace(config, master_seed=args.seed)
        except ValidationError as exc:
            raise ValidationError(f"--seed: {exc}") from exc
    rows = run_study(config, workers=args.workers)
    _write_csv(args.out, _STUDY_HEADER, [_row_to_csv(row) for row in rows])
    return EXIT_OK


def _row_to_csv(row: StudyRow) -> List[str]:
    return [
        _fmt(row.p),
        _fmt(row.rho),
        str(row.n),
        _fmt(row.mean_pi_true),
        _fmt(row.mean_pi_hat),
        _fmt(row.abs_bias),
        _fmt(row.rmse),
        str(row.failure_count),
    ]


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
        default=THRESHOLD,
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
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    simulate.add_argument(
        "--seed", type=int, default=None, help="override the config master_seed"
    )
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
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
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
