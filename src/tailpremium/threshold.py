"""Data-driven choice of the number of top order statistics.

The selection rule scores each candidate k by the weighted dispersion of
the censoring-corrected tail-index path over the half-window ending at k
and keeps the k with the smallest score: a stable stretch of the path
signals that the power-law regime has been reached without drifting into
the bulk of the distribution.  Candidates whose window leaves the
finite-variance regime, or where censoring erases the path, are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from .errors import _CODE, ValidationError
from .estimators import _Chain, _fit_rows, _path_to, _raise_failure, _tail_path
from .samples import SortedCensoredSample, _check_k

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

_BETA = 0.3  # the default weight exponent of the dispersion score


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
    entry is NaN.  A ``z_(n-k_max)`` that is not positive raises the
    ``nonpositive_threshold`` failure.
    """
    _check_k(k_max, sample.n, "k_max")
    return _path_to(sample, k_max)[:2]


def _open_windows(
    z_sorted: np.ndarray, delta: np.ndarray, k_limit: np.ndarray, k_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's :func:`_tail_path` up to ``k_max`` and which windows are open.

    ``opened[:, j]`` says whether the window of candidate ``k = j + 2``
    holds only defined entries below the cap and within ``k_limit``.
    """
    path = _tail_path(z_sorted, delta, k_max)
    # blocked[:, j] counts the undefined (NaN), out-of-cap or out-of-limit
    # entries among the first j of the path; a window is open when it
    # holds none of them.
    bad = ~(path[0] < _INDEX_CAP) | (np.arange(1, k_max + 1) > k_limit[:, None])
    blocked = np.concatenate(
        (np.zeros((len(bad), 1), np.int64), np.cumsum(bad, axis=-1)), axis=-1
    )
    ks = np.arange(2, k_max + 1)
    return path, blocked[:, ks] == blocked[:, (ks + 1) // 2 - 1]


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


def _chain_rows(
    z_sorted: np.ndarray, delta: np.ndarray, rhos: Sequence[float], *,
    beta: float = _BETA, retention=None, scratch=None, lap=None,
) -> _Chain:
    """The chain on every row of sorted samples ``(B, n)``: rule, then fit.

    :func:`reiss_thomas_k`'s rule picks each row's k on a path up to the
    candidate ceiling, or on its own path if it widens; then
    ``lap("rule")`` is called, if given, and :func:`estimators._fit_rows`
    reads the row's entries there.  Each row's values, curve and codes are
    bitwise those of the row alone.
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
    path, valid = _open_windows(
        z_sorted, delta, k_limit, min(max(int(k_limit.max()), 2), ceiling)
    )
    paths = [(slice(None), path)]
    candidates = np.repeat(np.arange(2, valid.shape[-1] + 2)[None], len(valid), axis=0)
    scores = _window_scores(path[0], candidates, valid, beta)
    best = np.argmin(np.where(valid, scores, np.inf), axis=-1)
    k_star = np.where(valid.any(axis=-1), best + 2, 0)
    # A row whose whole primary range is blocked, with its limit past the
    # ceiling, widens the search on a path of its own, to its limit: its
    # one candidate is the smallest admissible k there.
    widen = (k_star == 0) & (k_limit > ceiling)
    if widen.any():
        wide, narrow = np.flatnonzero(widen), np.flatnonzero(~widen)
        wide_path, opened = _open_windows(
            z_sorted[wide], delta[wide], k_limit[wide], int(k_limit[wide].max())
        )
        path = [values[narrow] for values in path]  # frees the block's path
        paths = [(narrow, path), (wide, wide_path)]
        first = 2 + np.argmax(opened, axis=-1, keepdims=True)
        reach = opened.any(axis=-1, keepdims=True)
        k_star[wide] = np.where(reach, first, 0)[:, 0]
        candidates[wide, 0] = first[:, 0]
        scores[wide, :1] = _window_scores(wide_path[0], first, reach, beta)
    failed = k_star == 0
    rule_code = np.where(failed, _CODE["no_admissible_k"], -1)
    rule_code[k_limit < 2] = _CODE["too_few_positive"]
    if lap is not None:
        lap("rule")
    # Rows the rule failed are fitted at the top, then given its code.
    chain = _fit_rows(z_sorted, delta, k_star, rhos, retention, scratch, paths)
    rows = (chain.gamma1, chain.p_hat, chain.gamma_hill, chain.threshold, chain.anchor)
    for values in (*rows, chain.retention, chain.pi_hat):
        values[failed] = np.nan
    chain.code[failed] = rule_code[failed, None]
    curve = dict(candidates=candidates, scores=scores, rule_code=rule_code)
    return replace(chain, k_limit=k_limit, **curve)


def reiss_thomas_k(
    sample: SortedCensoredSample, beta: float = _BETA
) -> ThresholdChoice:
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
    # With no rho the fit only reads the path at k and the threshold.
    chain = _chain_rows(
        sample.z_sorted[None], sample.delta_concomitant[None], (), beta=beta
    )
    _raise_failure(chain, 0.0)
    curve = ~np.isnan(chain.scores[0])
    return ThresholdChoice(
        k_star=int(chain.k[0]),
        retention=float(chain.threshold[0]),
        objective_curve=tuple(
            zip(chain.candidates[0][curve].tolist(), chain.scores[0][curve].tolist())
        ),
    )
