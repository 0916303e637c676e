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

from .errors import _CODE, DomainError, ValidationError, _failure
from .estimators import _corrected_path
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
    return _corrected_path(sample.z_sorted, sample.delta_concomitant, k_max)


def _open_windows(
    z_sorted: np.ndarray, delta: np.ndarray, k_limit: np.ndarray, k_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's corrected path up to ``k_max`` and which windows are open.

    Returns ``(gamma1, opened)``: ``opened[:, j]`` says whether the window of
    candidate ``k = j + 2`` holds only defined entries below the cap and
    within the row's limit ``k_limit``.
    """
    gamma1, _ = _corrected_path(z_sorted, delta, k_max)
    # blocked[:, j] counts the undefined (NaN), out-of-cap or out-of-limit
    # entries among the first j of the path; a window is open when it
    # holds none of them.
    bad = ~(gamma1 < _INDEX_CAP) | (np.arange(1, k_max + 1) > k_limit[:, None])
    blocked = np.concatenate(
        (np.zeros((len(bad), 1), np.int64), np.cumsum(bad, axis=-1)), axis=-1
    )
    ks = np.arange(2, k_max + 1)
    return gamma1, blocked[:, ks] == blocked[:, (ks + 1) // 2 - 1]


def _window_scores(
    gamma1: np.ndarray, ks: np.ndarray, valid: np.ndarray, beta: float
) -> np.ndarray:
    """Weighted dispersion of each row's path over the half-window ending at k.

    ``gamma1`` holds one path per row, ``ks`` (rows x candidates) the
    candidate k of each row and ``valid`` which of them are scored; the
    others get NaN.  Window ``(r, j)`` covers the ``w = k_rj // 2 + 1``
    path entries ``ceil(k_rj/2)..k_rj``.  The valid windows of one width
    are gathered as one ``(m, w)`` array, whose lower medians sit at column
    ``(w - 1) // 2`` of its row-wise sort.  No entry outside a scored
    window is read: each score is numpy's sum over exactly its own window,
    so it depends neither on the other candidates of its row nor on the
    other rows.
    """
    width = ks // 2 + 1
    scores = np.full(ks.shape, np.nan)
    # bincount, not np.unique, which imports numpy.ma on its first call.
    for w in np.flatnonzero(np.bincount(width[valid])).tolist():
        rows, cols = np.nonzero(valid & (width == w))
        k = ks[rows, cols]
        index = (k - w)[:, None] + np.arange(w)
        values = gamma1[rows[:, None], index]
        med = np.sort(values, axis=-1)[:, (w - 1) // 2, None]
        weights = (index + 1.0) ** beta
        scores[rows, cols] = (weights * np.abs(values - med)).sum(axis=-1) / k
    return scores


@dataclass(frozen=True)
class _RowChoices:
    """The threshold rule applied to each row of a block of samples.

    ``code[r]`` is the code in ``errors.REASONS`` of the reason row ``r``
    has no choice, else -1; ``k_star`` is 0 there.  ``k_limit[r]`` is the
    row's largest candidate, ``min(n // 2, positive count - 1)``.
    ``gamma1`` holds each row's corrected path up to the candidate ceiling
    (or the block's largest limit, if smaller); a widened row's path runs
    on to its own limit, and the other rows are NaN past the ceiling, so
    the entry at ``k_star`` is always the path's.  ``candidates`` and
    ``scores`` hold the objective curve, NaN-scored where a column is not
    a candidate of its row.  Each score reads its own window only, so it
    is bitwise the score of that window scored alone.
    """

    k_star: np.ndarray
    gamma1: np.ndarray
    code: np.ndarray
    k_limit: np.ndarray
    candidates: np.ndarray
    scores: np.ndarray


def _choose_rows(
    z_sorted: np.ndarray, delta: np.ndarray, beta: float
) -> _RowChoices:
    """The rule of :func:`reiss_thomas_k` on every row of ``(rows, n)`` arrays.

    Rows are sorted samples of one size.  Every step is an array pass over
    the block, so each row's choice, curve and failure code are those
    of :func:`reiss_thomas_k` on that row alone.  The path is built up to
    the candidate ceiling for every row, and on to the row's limit only for
    the rows that widen: most rows never read past the ceiling.
    """
    n = z_sorted.shape[-1]
    if n < _MIN_SAMPLE:
        raise ValidationError(
            f"threshold selection needs n >= {_MIN_SAMPLE}, got n={n}"
        )
    if not 0.0 <= beta <= 0.5:
        raise ValidationError(f"beta must lie in [0, 0.5], got {beta!r}")
    # Candidate k needs the k+1 largest order statistics positive, so the
    # threshold (and everything above it) has a logarithm.
    positive = np.count_nonzero(z_sorted > 0.0, axis=-1)
    k_limit = np.minimum(n // 2, positive - 1)
    ceiling = round(_CANDIDATE_SCALE * n ** (1.0 / 3.0))
    gamma1, valid = _open_windows(
        z_sorted, delta, k_limit, min(max(int(k_limit.max()), 2), ceiling)
    )
    primary = np.arange(2, gamma1.shape[-1] + 1)
    candidates = np.repeat(primary[None], len(valid), axis=0)
    any_open = valid.any(axis=-1)
    # A row whose whole primary range is blocked, with its limit past the
    # ceiling, widens the search: only its path is extended, to its limit,
    # and its one candidate, the smallest admissible k, is held in every
    # column and scored in column 0.
    wide = np.flatnonzero(~any_open & (k_limit > ceiling))
    if wide.size:
        path, opened = _open_windows(
            z_sorted[wide], delta[wide], k_limit[wide], int(k_limit[wide].max())
        )
        reach = opened.any(axis=-1)
        wide = wide[reach]
        short = gamma1
        gamma1 = np.full((len(short), path.shape[-1]), np.nan)
        gamma1[:, : short.shape[-1]] = short
        gamma1[wide] = path[reach]
        candidates[wide] = 2 + np.argmax(opened[reach], axis=-1)[:, None]
        valid[wide, 0] = True
        any_open[wide] = True
    scores = _window_scores(gamma1, candidates, valid, beta)
    best = np.argmin(np.where(valid, scores, np.inf), axis=-1)
    k_star = np.take_along_axis(candidates, best[:, None], -1)[:, 0]
    code = np.where(any_open, -1, _CODE["no_admissible_k"])
    code[k_limit < 2] = _CODE["too_few_positive"]
    k_star[~any_open] = 0
    return _RowChoices(k_star, gamma1, code, k_limit, candidates, scores)


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
    rows = _choose_rows(sample.z_sorted[None], sample.delta_concomitant[None], beta)
    if rows.code[0] >= 0:
        limit = int(rows.k_limit[0])  # positives less one where < 2: n // 2 >= 5
        raise _failure(rows.code[0], count=limit + 1, k_limit=limit)
    k_star = int(rows.k_star[0])
    curve = ~np.isnan(rows.scores[0])
    return ThresholdChoice(
        k_star=k_star,
        retention=float(sample.z_sorted[sample.n - k_star - 1]),
        objective_curve=tuple(
            zip(rows.candidates[0][curve].tolist(), rows.scores[0][curve].tolist())
        ),
    )
