"""Data-driven choice of the number of top order statistics.

The selection rule scores each candidate k by the weighted dispersion of
the censoring-corrected tail-index path over the half-window ending at k
and keeps the k with the smallest score: a stable stretch of the path
signals that the power-law regime has been reached without drifting into
the bulk of the distribution.  Candidates whose window leaves the
finite-variance regime, or where censoring erases the path, are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .estimators import _tail_path
from .samples import SortedCensoredSample

_MIN_SAMPLE = 10

# Candidate ceiling grows like 2 * n**(1/3): slow enough to keep every
# candidate threshold in the far tail, fast enough that the window below
# has room to average out path noise.
_CANDIDATE_SCALE = 2.0

# Admissibility bound on the corrected index.  At or above 1/2 the
# estimated loss leaves the finite-variance regime and the premium factor
# gamma/(1 - rho*gamma) turns hypersensitive for every distortion
# parameter >= 1, so such stretches of the path are never trusted.
_INDEX_CAP = 0.5


@dataclass(frozen=True)
class ThresholdChoice:
    """Selected number of top order statistics and its diagnostics.

    ``retention`` is the order statistic sitting just below the selected
    top segment; ``objective_curve`` holds one ``(k, score)`` pair per
    evaluated candidate, in increasing k order.
    """

    k_star: int
    retention: float
    objective_curve: Tuple[Tuple[int, float], ...]


def tail_index_path(
    sample: SortedCensoredSample, k_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Censoring-corrected tail index for every k in 1..k_max.

    Returns ``(gamma1, p_hat)`` arrays indexed by ``k - 1``.  Where the
    top-k flags are all zero the corrected index is undefined and the
    entry is NaN.
    """
    n = sample.n
    if not 1 <= k_max < n:
        raise ValidationError(
            f"k_max must satisfy 1 <= k_max < n, got k_max={k_max} with n={n}"
        )
    if sample.z_sorted[n - k_max - 1] <= 0.0:
        raise DomainError(
            "threshold selection needs strictly positive order statistics "
            "over the whole candidate range"
        )
    hill, p_hat = _tail_path(sample, k_max)
    return hill / np.where(p_hat > 0.0, p_hat, np.nan), p_hat


def _window_scores(gamma1: np.ndarray, ks: np.ndarray, beta: float) -> np.ndarray:
    """Weighted dispersion of the path over the half-window ending at each k.

    Window ``j`` covers path entries ``ceil(k_j/2)..k_j``.  All windows are
    scored in one pass, one row per candidate, padded with +inf so that the
    padding sorts past every entry and the lower median of a window of
    width ``w`` sits at column ``(w - 1) // 2``.
    """
    lo = (ks + 1) // 2
    width = ks - lo + 1
    columns = np.arange(width.max())
    inside = columns < width[:, None]
    index = np.where(inside, lo[:, None] - 1 + columns, 0)
    values = np.where(inside, gamma1[index], np.inf)
    med = np.sort(values, axis=1)[np.arange(ks.size), (width - 1) // 2]
    weights = (index + 1.0) ** beta
    deviations = np.where(inside, weights * np.abs(values - med[:, None]), 0.0)
    return deviations.sum(axis=1) / ks


def reiss_thomas_k(sample: SortedCensoredSample, beta: float = 0.3) -> ThresholdChoice:
    """Pick the number of top order statistics by path-stability scoring.

    Each candidate ``k`` is scored by the weighted dispersion of the
    corrected tail-index path over the half-window ``ceil(k/2)..k``:

    ``(1/k) * sum_i i**beta * |gamma1(i) - median{gamma1(ceil(k/2)..k)}|``

    A candidate is admissible only when the path is defined (at least one
    uncensored record in the top ``i``) and stays below 1/2 across its
    whole window; the window slides with ``k``, so an erratic start of the
    path blocks small candidates without contaminating larger ones.  The
    smallest score over the admissible candidates in ``2..ceiling`` wins,
    with ``ceiling ~ 2 * n**(1/3)``; ties go to the smallest ``k``.
    Medians of even-length windows take the lower of the two central
    values, so tail-index estimates are never averaged.

    When the whole primary range is blocked — a heavily censored or
    erratic top — the search widens and returns the smallest admissible
    candidate up to ``floor(n/2)``, trading optimality for a defined
    answer on samples whose far tail alone is unusable.

    Raises
    ------
    ValidationError
        If ``n < 10`` or ``beta`` is outside [0, 0.5].
    DomainError
        If fewer than two candidate thresholds are strictly positive, or
        no candidate up to ``floor(n/2)`` has an admissible window.
    """
    n = sample.n
    if n < _MIN_SAMPLE:
        raise ValidationError(
            f"threshold selection needs n >= {_MIN_SAMPLE}, got n={n}"
        )
    if not 0.0 <= beta <= 0.5:
        raise ValidationError(f"beta must lie in [0, 0.5], got {beta!r}")
    # Candidate k needs the k+1 largest order statistics positive, so the
    # threshold (and everything above it) has a logarithm.
    positive = int(np.count_nonzero(sample.z_sorted > 0.0))
    k_limit = min(n // 2, positive - 1)
    if k_limit < 2:
        raise DomainError(
            "threshold selection needs at least 3 strictly positive "
            f"order statistics, got {positive}"
        )
    gamma1, _ = tail_index_path(sample, k_limit)
    # blocked[j] counts the undefined (NaN) or out-of-cap entries among the
    # first j of the path; a window is open when it holds none of them.
    blocked = np.concatenate(([0], np.cumsum(~(gamma1 < _INDEX_CAP))))
    ks = np.arange(2, k_limit + 1)
    ks = ks[blocked[ks] == blocked[(ks + 1) // 2 - 1]]
    if ks.size == 0:
        raise DomainError(
            "no admissible k: every candidate window up to "
            f"{k_limit} contains an undefined or out-of-range "
            "corrected tail index"
        )
    ceiling = min(k_limit, round(_CANDIDATE_SCALE * n ** (1.0 / 3.0)))
    candidates = ks[ks <= ceiling] if ks[0] <= ceiling else ks[:1]
    scores = _window_scores(gamma1, candidates, beta)
    k_star = int(candidates[np.argmin(scores)])
    return ThresholdChoice(
        k_star=k_star,
        retention=float(sample.z_sorted[n - k_star - 1]),
        objective_curve=tuple(zip(candidates.tolist(), scores.tolist())),
    )
