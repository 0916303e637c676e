"""Replicated Monte Carlo study of the premium estimator under censoring.

For every cell of a parameter grid (uncensored share, distortion
parameter, sample size) the engine draws censored Burr samples, picks the
number of top order statistics per replicate, estimates the premium of the
layer above the selected order statistic, and compares it with the exact
premium at the same retention, which the Burr model gives in closed form.
Each (uncensored share, sample size, replicate) sample is drawn, sorted
and threshold-selected once and evaluated at every distortion parameter
of the grid.  Cell aggregates are the empirical means, the absolute
difference of those means, and the root mean squared per-replicate error.

Reproducibility contract: each replicate owns a private PCG64 stream whose
seed is a pure function of the master seed, the cell parameters, and the
replicate index, so results are bitwise identical no matter how replicates
are scheduled across processes.  The distortion parameter is deliberately
left out of the stream key: premium variants with different distortions
are evaluated on the same simulated samples, which makes their comparison
a matched-pairs one.
"""

from __future__ import annotations

import logging
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .estimators import php_estimate
from .models import burr_scheme, theoretical_premium
from .samples import THRESHOLD, EstimationSettings, SortedCensoredSample
from .threshold import reiss_thomas_k

logger = logging.getLogger(__name__)

# Replicates are dispatched to workers in chunks of this many; the chunk
# size only affects scheduling granularity, never results.
_BLOCK = 50

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class StudyCell:
    """One point of the study grid."""

    gamma1: float
    p: float
    rho: float
    n: int
    eta: float


@dataclass(frozen=True)
class StudyConfig:
    """Everything a replicated study run needs.

    ``beta`` is the weighting exponent of the threshold selection rule;
    the grid is the cartesian product of ``p_values``, ``rho_values`` and
    ``n_values`` at fixed ``gamma1`` and ``eta``.
    """

    gamma1: float
    p_values: Tuple[float, ...]
    rho_values: Tuple[float, ...]
    n_values: Tuple[int, ...]
    eta: float
    replicates: int
    master_seed: int
    beta: float = 0.3

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        object.__setattr__(self, "rho_values", tuple(float(r) for r in self.rho_values))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if not (np.isfinite(self.gamma1) and self.gamma1 > 0.0):
            raise ValidationError(f"gamma1 must be > 0, got {self.gamma1!r}")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValidationError(f"eta must be > 0, got {self.eta!r}")
        if not self.p_values or any(not 0.0 < p < 1.0 for p in self.p_values):
            raise ValidationError(
                f"every p must lie strictly in (0, 1), got {self.p_values!r}"
            )
        if not self.rho_values or any(
            not 1.0 <= r < np.inf for r in self.rho_values
        ):
            raise ValidationError(
                f"every rho must be >= 1, got {self.rho_values!r}"
            )
        if not self.n_values or any(n < 100 for n in self.n_values):
            raise ValidationError(
                f"every n must be >= 100, got {self.n_values!r}"
            )
        if not isinstance(self.replicates, (int, np.integer)) or self.replicates < 1:
            raise ValidationError(
                f"replicates must be an integer >= 1, got {self.replicates!r}"
            )
        if not isinstance(self.master_seed, (int, np.integer)) or not (
            0 <= self.master_seed <= _UINT64_MASK
        ):
            raise ValidationError(
                f"master_seed must be a 64-bit unsigned integer, "
                f"got {self.master_seed!r}"
            )
        if not 0.0 <= self.beta <= 0.5:
            raise ValidationError(f"beta must lie in [0, 0.5], got {self.beta!r}")
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "master_seed", int(self.master_seed))


@dataclass(frozen=True)
class ReplicateResult:
    """Outcome of one replicate: either all values or a failure reason."""

    pi_true: Optional[float] = None
    pi_hat: Optional[float] = None
    k_star: Optional[int] = None
    retention: Optional[float] = None
    failed: Optional[str] = None

    def __post_init__(self) -> None:
        values = (self.pi_true, self.pi_hat, self.k_star, self.retention)
        if self.failed is None:
            if any(v is None for v in values):
                raise ValidationError(
                    "a successful replicate must carry pi_true, pi_hat, "
                    "k_star and retention"
                )
        elif any(v is not None for v in values):
            raise ValidationError(
                "a failed replicate must not carry estimate values"
            )


@dataclass(frozen=True)
class StudyRow:
    """Aggregated cell result."""

    p: float
    rho: float
    n: int
    mean_pi_true: float
    mean_pi_hat: float
    abs_bias: float
    rmse: float
    failure_count: int


def _float_key(x: float) -> int:
    """Bit pattern of a float, for building exact stream keys."""
    return int.from_bytes(struct.pack("<d", float(x)), "little")


def replicate_stream(
    master_seed: int, cell: StudyCell, replicate_index: int
) -> np.random.SeedSequence:
    """Seed sequence owned by one replicate.

    The entropy is the exact bit patterns of (master seed, gamma1, p, n,
    eta, replicate index).  The distortion parameter is intentionally
    absent, see the module docstring.
    """
    if replicate_index < 0:
        raise ValidationError(
            f"replicate_index must be >= 0, got {replicate_index!r}"
        )
    return np.random.SeedSequence(
        [
            int(master_seed) & _UINT64_MASK,
            _float_key(cell.gamma1),
            _float_key(cell.p),
            int(cell.n),
            _float_key(cell.eta),
            int(replicate_index),
        ]
    )


def run_matched_replicates(
    cell: StudyCell,
    rho_values: Sequence[float],
    replicate_index: int,
    master_seed: int,
    beta: float = 0.3,
) -> Tuple[ReplicateResult, ...]:
    """Draw one censored sample and estimate the premium on it at every rho.

    The sample, its sort and the threshold choice depend only on the
    stream, which leaves out ``cell.rho`` (see the module docstring), so
    they are computed once; ``cell.rho`` is not read.  The retention is
    the order statistic selected by the threshold rule; the exact premium
    is evaluated in closed form at that same (random) retention.  Returns
    one result per entry of ``rho_values``, in order.  Estimation failures
    are recorded in the results, never raised: a failed threshold choice
    fails every rho alike, while an estimate failure (for example a tail
    estimate too heavy for a finite premium at that rho) fails its rho only.
    """
    scheme = burr_scheme(cell.gamma1, cell.p, cell.eta)
    rng = np.random.default_rng(
        replicate_stream(master_seed, cell, replicate_index)
    )
    z, delta = scheme.sample_arrays(cell.n, rng)
    sample = SortedCensoredSample.from_unsorted(z, delta)
    try:
        choice = reiss_thomas_k(sample, beta)
    except (DomainError, ValidationError) as exc:
        return (ReplicateResult(failed=str(exc)),) * len(rho_values)
    results = []
    for rho in rho_values:
        try:
            settings = EstimationSettings(
                k=choice.k_star, rho=rho, retention=THRESHOLD
            )
            estimate = php_estimate(sample, settings)
            pi_true = theoretical_premium(
                scheme.loss_model, rho, estimate.retention
            )
        except (DomainError, ValidationError) as exc:
            results.append(ReplicateResult(failed=str(exc)))
        else:
            results.append(
                ReplicateResult(
                    pi_true=float(pi_true),
                    pi_hat=float(estimate.value),
                    k_star=int(choice.k_star),
                    retention=float(estimate.retention),
                )
            )
    return tuple(results)


def run_replicate(
    cell: StudyCell, replicate_index: int, master_seed: int, beta: float = 0.3
) -> ReplicateResult:
    """One replicate of one cell: :func:`run_matched_replicates` at ``cell.rho``."""
    return run_matched_replicates(
        cell, (cell.rho,), replicate_index, master_seed, beta
    )[0]


def aggregate(
    results: Sequence[ReplicateResult], *, p: float, rho: float, n: int
) -> StudyRow:
    """Fold replicate results into a study row.

    Means run over successful replicates only; failures are counted.
    ``abs_bias`` is the absolute difference of the two means, ``rmse`` the
    root of the mean squared per-replicate error.
    """
    successes = [r for r in results if r.failed is None]
    if not successes:
        reasons = {r.failed for r in results}
        raise DomainError(
            f"every replicate failed for cell (p={p:g}, rho={rho:g}, "
            f"n={n}); reasons: {sorted(reasons)}"
        )
    pi_true = np.array([r.pi_true for r in successes], dtype=np.float64)
    pi_hat = np.array([r.pi_hat for r in successes], dtype=np.float64)
    mean_true = float(np.mean(pi_true))
    mean_hat = float(np.mean(pi_hat))
    return StudyRow(
        p=float(p),
        rho=float(rho),
        n=int(n),
        mean_pi_true=mean_true,
        mean_pi_hat=mean_hat,
        abs_bias=abs(mean_hat - mean_true),
        rmse=float(np.sqrt(np.mean((pi_hat - pi_true) ** 2))),
        failure_count=len(results) - len(successes),
    )


def study_cells(config: StudyConfig) -> List[StudyCell]:
    """Grid cells in output order: p-major, then rho, then n."""
    return [
        StudyCell(gamma1=config.gamma1, p=p, rho=rho, n=n, eta=config.eta)
        for p in config.p_values
        for rho in config.rho_values
        for n in config.n_values
    ]


def run_study(config: StudyConfig, workers: int = 1) -> List[StudyRow]:
    """Run the full grid and aggregate each cell.

    The unit of work is a replicate of a distinct (p, n) group: it is drawn
    and threshold-selected once and evaluated at every distinct rho, and
    each cell of :func:`study_cells` reads its results by value, so
    repeated grid values give repeated rows computed once.  ``workers``
    only controls process-level parallelism; outputs are bitwise identical
    for any worker count.  A cell whose replicates all failed is logged
    and dropped; the run only errors out when every cell is in that state.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers!r}")
    rhos = tuple(dict.fromkeys(config.rho_values))
    groups = {
        (p, n): StudyCell(config.gamma1, p, rhos[0], n, config.eta)
        for p in config.p_values
        for n in config.n_values
    }
    count = config.replicates
    args = (
        [cell for cell in groups.values() for _ in range(count)],
        repeat(rhos),
        [i for _ in groups for i in range(count)],
        repeat(config.master_seed),
        repeat(config.beta),
    )
    if workers == 1:
        outcomes = list(map(run_matched_replicates, *args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(run_matched_replicates, *args, chunksize=_BLOCK)
            )
    matched = {
        group: outcomes[g * count : (g + 1) * count]
        for g, group in enumerate(groups)
    }

    rows: List[StudyRow] = []
    drop_reasons: List[str] = []
    for cell in study_cells(config):
        rho_index = rhos.index(cell.rho)
        results = [m[rho_index] for m in matched[cell.p, cell.n]]
        try:
            row = aggregate(results, p=cell.p, rho=cell.rho, n=cell.n)
        except DomainError as exc:
            logger.warning("dropping cell: %s", exc)
            drop_reasons.append(str(exc))
            continue
        if row.failure_count > 0:
            logger.warning(
                "cell (p=%g, rho=%g, n=%d): %d of %d replicates failed",
                cell.p,
                cell.rho,
                cell.n,
                row.failure_count,
                config.replicates,
            )
        if logger.isEnabledFor(logging.DEBUG):
            errors = np.array(
                [
                    r.pi_hat - r.pi_true
                    for r in results
                    if r.failed is None
                ]
            )
            quantiles = np.percentile(errors, [1, 25, 50, 75, 99])
            logger.debug(
                "cell (p=%g, rho=%g, n=%d) error quantiles "
                "(1/25/50/75/99%%): %s",
                cell.p,
                cell.rho,
                cell.n,
                np.array2string(quantiles, precision=4),
            )
        rows.append(row)
    if not rows:
        raise DomainError(
            "every cell of the study failed; " + "; ".join(drop_reasons)
        )
    return rows
