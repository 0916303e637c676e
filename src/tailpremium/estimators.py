"""Point estimators for heavy tails under random right censoring.

The chain implemented here: the Hill estimator of the observed sample's
tail index, the fraction of uncensored records among the top order
statistics, their ratio as the tail index of the underlying loss, the
Kaplan-Meier product-limit survival function, a power-law extrapolation of
that survival beyond the data, and finally the proportional hazard premium
of an excess-of-loss layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import DomainError
from .samples import (
    EstimationSettings,
    SortedCensoredSample,
    validate_settings,
)


@dataclass(frozen=True)
class TailEstimates:
    """Tail index estimates at a fixed number of upper order statistics.

    ``gamma_hill`` estimates the tail index of the observed (censored)
    values, ``p_hat`` the share of uncensored records among the top ``k``,
    and ``gamma1_hat = gamma_hill / p_hat`` the tail index of the
    underlying loss distribution.
    """

    k: int
    gamma_hill: float
    p_hat: float
    gamma1_hat: float


@dataclass(frozen=True)
class PremiumEstimate:
    """A proportional hazard premium estimate and the inputs that shaped it."""

    value: float
    rho: float
    retention: float
    k: int
    km_at_threshold: float


# Why a fit at k fails, one entry per check in the order the chain runs
# them; ``_fit_rows`` reports the index of an entry's first failure.
_FIT_FAILURES = (
    "the k-th upper order statistic must be > 0, got {threshold:g}",
    "all of the top k={k} observations are censored; the "
    "censoring-corrected tail index is undefined",
    "tail index estimate is not positive; the top k observations are degenerate",
    "estimated tail is too heavy for a finite premium: "
    "rho * gamma1 = {rho_gamma1:g} >= 1 (gamma1={gamma1:g}, rho={rho:g})",
    "premium overflows the float range: (R / h) ** (-1 / (rho * gamma1)) "
    "with R={retention:g}, h={threshold:g}, rho * gamma1={rho_gamma1:g}",
)


def _check_k(k: int, n: int) -> None:
    if not 1 <= k < n:
        raise DomainError(f"k must satisfy 1 <= k < n, got k={k} with n={n}")


def _km_products(delta: np.ndarray) -> np.ndarray:
    """Product-limit survival after each order statistic.

    ``delta`` holds the sorted flags of one sample, or of one sample per
    row ``(..., n)``.  ``products[..., m - 1] = prod_{i=1}^{m} (1 - delta_[i]
    / (n - i + 1))``.  Because ties list uncensored records first, the
    value at the end of a run of ties equals the grouped factor
    ``1 - d_t / r_t`` of Kaplan and Meier.  Every product with ``m < n`` is
    at least ``(n - m) / n``, so no underflow guard is needed.
    """
    n = delta.shape[-1]
    return np.cumprod(1.0 - delta / (n - np.arange(n, dtype=np.float64)), axis=-1)


def _km_anchor(delta: np.ndarray, k: Union[int, np.ndarray]) -> np.ndarray:
    """Product-limit survival just below the k-th upper order statistic.

    One ``k`` per row of ``delta`` ``(..., n)``; the caller checks
    ``1 <= k < n``, so index ``n - k - 1`` of the products is at least 0.
    """
    at = delta.shape[-1] - np.asarray(k) - 1
    return np.take_along_axis(_km_products(delta), at[..., None], -1)[..., 0]


def kaplan_meier_survival(
    sample: SortedCensoredSample, x: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Product-limit estimate of the survival function at ``x``.

    Parameters
    ----------
    sample : SortedCensoredSample
        The censored sample.
    x : float or array
        Evaluation points.  Each must lie strictly below the largest
        observation; the product-limit curve is undefined from there on.

    Returns
    -------
    float or array
        ``prod_{i: z_(i) <= x} (1 - delta_[i] / (n - i + 1))``, a
        right-continuous step function equal to 1 below the smallest
        observation; a float for scalar ``x``, an array otherwise.

    Raises
    ------
    DomainError
        If any ``x`` is NaN or ``>= max(z)``.
    """
    z = sample.z_sorted
    xs = np.asarray(x, dtype=np.float64)
    if not np.all(xs < z[-1]):
        raise DomainError(
            "product-limit survival is undefined at or above the largest "
            f"observation ({z[-1]:g}), got x={float(np.max(xs)):g}"
        )
    curve = np.append(1.0, _km_products(sample.delta_concomitant))
    out = curve[np.searchsorted(z, xs, side="right")]
    return float(out) if np.ndim(x) == 0 else out


def km_survival_at_threshold(sample: SortedCensoredSample, k: int) -> float:
    """Product-limit survival just below the k-th upper order statistic.

    Equals the Kaplan-Meier product over the lowest ``n - k`` order
    statistics, the anchor value used by the tail extrapolation.
    """
    _check_k(k, sample.n)
    return float(_km_anchor(sample.delta_concomitant, k))


def _tail_path(
    z_sorted: np.ndarray, delta: np.ndarray, k_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Hill estimate and uncensored share for every k in 1..k_max.

    The one kernel behind every read of the corrected index.  Takes the
    sorted values and flags of one sample, or of one sample per row
    ``(..., n)``, and returns ``(hill, p_hat)`` indexed by ``k - 1`` along
    the last axis, from running sums over the top order statistics, so the
    entry for ``k`` is bitwise the same for any ``k_max`` and any number of
    rows.  The logarithm runs on the ascending top slice, laid out alike
    in one sample and in a block row: numpy picks its ``log`` routine by
    memory layout, and a reversed view gets one that can differ in the
    last bit.  The caller checks ``1 <= k_max < n``.  The Hill entry for ``k``
    is defined only where ``z_(n-k) > 0``; past that it is NaN or
    infinite, without a warning.
    """
    n = z_sorted.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_top = np.log(z_sorted[..., n - k_max - 1 :])[..., ::-1]
        counts = np.arange(1, k_max + 1, dtype=np.float64)
        # hill[k-1] = mean of log(z_(n-i+1)) over i <= k, minus log(z_(n-k))
        hill = np.cumsum(log_top[..., :k_max], axis=-1) / counts - log_top[..., 1:]
    p_hat = np.cumsum(delta[..., n - k_max :][..., ::-1], axis=-1) / counts
    return hill, p_hat


def _corrected_path(
    z_sorted: np.ndarray, delta: np.ndarray, k_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(gamma1, p_hat)`` of :func:`_tail_path`, NaN where p_hat is 0."""
    hill, p_hat = _tail_path(z_sorted, delta, k_max)
    return hill / np.where(p_hat > 0.0, p_hat, np.nan), p_hat


def _path_at(sample: SortedCensoredSample, k: int) -> Tuple[float, float]:
    """Guarded read of :func:`_tail_path` at one ``k``: ``(hill, p_hat)``."""
    _check_k(k, sample.n)
    threshold = sample.z_sorted[sample.n - k - 1]
    if threshold <= 0.0:
        raise DomainError(_FIT_FAILURES[0].format(threshold=threshold))
    hill, p_hat = _tail_path(sample.z_sorted, sample.delta_concomitant, k)
    return float(hill[-1]), float(p_hat[-1])


def hill_estimator(sample: SortedCensoredSample, k: int) -> float:
    """Hill estimate of the observed sample's tail index from the top ``k``.

    Mean of ``log(z_(n-i+1) / z_(n-k))`` over ``i = 1..k``.  Requires the
    k-th upper order statistic to be strictly positive.
    """
    return _path_at(sample, k)[0]


def uncensored_proportion(sample: SortedCensoredSample, k: int) -> float:
    """Share of uncensored records among the top ``k`` order statistics.

    The path's entry at ``k``; unlike the Hill estimate it needs no
    positive threshold.
    """
    _check_k(k, sample.n)
    return float(_tail_path(sample.z_sorted, sample.delta_concomitant, k)[1][-1])


def censored_hill(sample: SortedCensoredSample, k: int) -> TailEstimates:
    """Censoring-corrected Hill estimate of the loss tail index.

    Divides the Hill estimate of the observed values by the uncensored
    share among the top ``k``; under random right censoring both tails are
    power laws and the ratio undoes the thinning of the observed tail.
    Both values are bitwise those of the threshold rule's path at ``k``.

    Raises
    ------
    DomainError
        If every one of the top ``k`` records is censored, in which case
        the correction is undefined.
    """
    gamma_hill, p_hat = _path_at(sample, k)
    if p_hat == 0.0:
        raise DomainError(_FIT_FAILURES[1].format(k=k))
    return TailEstimates(
        k=k,
        gamma_hill=gamma_hill,
        p_hat=p_hat,
        gamma1_hat=gamma_hill / p_hat,
    )


def _fit_rows(
    z_sorted: np.ndarray,
    delta: np.ndarray,
    k: np.ndarray,
    gamma1: np.ndarray,
    rhos: Sequence[float],
    retention=None,
) -> Tuple[np.ndarray, ...]:
    """The fit at one ``k`` per row of sorted samples ``(B, n)``.

    ``gamma1`` is each row's corrected index at its ``1 <= k < n``, NaN
    where the top ``k`` are all censored (as :func:`_corrected_path` has
    it); ``retention`` defaults to the threshold ``z_(n-k)``.  Returns
    ``(threshold, anchor, retention)``, each ``(B,)``, and ``(pi_hat,
    stage)``, each ``(B, len(rhos))``: the premium of :func:`php_estimate`
    and the index in ``_FIT_FAILURES`` of the first check the entry fails
    (-1 where it fits, else ``pi_hat`` is NaN).  At ``rho = 0`` only the
    index's sign is checked and ``pi_hat`` is NaN.  Every value is computed
    entry by entry, so a row's results are bitwise those of the row alone.
    """
    threshold = z_sorted[np.arange(len(k)), z_sorted.shape[-1] - k - 1]
    anchor = _km_anchor(delta, k)
    retention = np.full(len(k), threshold if retention is None else retention)
    stage = np.full((len(k), len(rhos)), -1)
    # The row checks, last first, so that a row keeps its first failure.
    stage[gamma1 <= 0.0] = 2
    stage[np.isnan(gamma1)] = 1
    stage[threshold <= 0.0] = 0
    pi_hat = np.full(stage.shape, np.nan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j, rho in enumerate(rhos):
            if rho == 0.0:
                continue
            rho_gamma1 = rho * gamma1
            value = (
                rho_gamma1 / (1.0 - rho_gamma1)
                * retention
                * (retention / threshold) ** (-1.0 / rho_gamma1)
                * anchor ** (1.0 / rho)
            )
            column = stage[:, j]
            column[(column < 0) & (rho_gamma1 >= 1.0)] = 3
            column[(column < 0) & ~np.isfinite(value)] = 4
            pi_hat[:, j] = np.where(column < 0, value, np.nan)
    return threshold, anchor, retention, pi_hat, stage


def _fit_message(stage: int, k, threshold, gamma1, rho, retention) -> str:
    """``_FIT_FAILURES[stage]`` filled in with one entry's values."""
    return _FIT_FAILURES[stage].format(
        k=k, threshold=threshold, gamma1=gamma1, rho=rho,
        rho_gamma1=rho * float(gamma1), retention=retention,
    )


def _fit_sample(sample: SortedCensoredSample, k: int, rho: float, retention=None):
    """:func:`_fit_rows` on one sample, its failure raised as a DomainError.

    Returns ``(gamma1, threshold, anchor, retention, pi_hat)``.
    """
    _check_k(k, sample.n)
    z, delta = sample.z_sorted, sample.delta_concomitant
    gamma1 = _corrected_path(z, delta, k)[0][-1:]
    fit = _fit_rows(z[None], delta[None], np.array([k]), gamma1, (rho,), retention)
    threshold, anchor, retention, pi_hat, stage = (column[0] for column in fit)
    if stage[0] >= 0:
        message = _fit_message(stage[0], k, threshold, gamma1[0], rho, retention)
        raise DomainError(message)
    return gamma1[0], threshold, anchor, retention, pi_hat[0]


def weissman_tail(sample: SortedCensoredSample, k: int, x: float) -> float:
    """Power-law extrapolation of the loss survival function beyond the data.

    Anchors the product-limit survival at the k-th upper order statistic
    and continues it as ``(x / z_(n-k)) ** (-1 / gamma1)`` with the
    censoring-corrected tail index.

    Parameters
    ----------
    sample : SortedCensoredSample
    k : int
        Number of upper order statistics behind the tail index estimate.
    x : float
        Evaluation point, at or above the k-th upper order statistic.
    """
    gamma1, z_threshold, anchor, _, _ = _fit_sample(sample, k, 0.0)
    x = float(x)
    if not x >= z_threshold:
        raise DomainError(
            "tail extrapolation is only valid at or above the k-th upper "
            f"order statistic ({z_threshold:g}), got x={x:g}"
        )
    return float((x / z_threshold) ** (-1.0 / gamma1) * anchor)


def php_estimate(
    sample: SortedCensoredSample, settings: EstimationSettings
) -> PremiumEstimate:
    """Proportional hazard premium of the layer above the retention.

    Plugs the extrapolated survival into the distorted expectation
    ``integral_R^inf survival(x)^(1/rho) dx``, which has the closed form

    ``rho * gamma1 / (1 - rho * gamma1) * R
    * (R / z_(n-k)) ** (-1 / (rho * gamma1)) * anchor ** (1 / rho)``

    where ``anchor`` is the product-limit survival at the k-th upper order
    statistic.

    Raises
    ------
    ValidationError
        If the settings violate their bounds for this sample size.
    DomainError
        If the threshold or the tail estimate is not positive, the
        censoring correction is undefined, ``rho * gamma1 >= 1`` so the
        premium integral diverges, or the premium overflows the float range.
    """
    settings = validate_settings(settings, sample.n)
    retention = None if settings.retention_is_threshold else settings.retention
    _, _, anchor, retention, value = _fit_sample(
        sample, settings.k, settings.rho, retention
    )
    return PremiumEstimate(
        value=float(value),
        rho=settings.rho,
        retention=float(retention),
        k=settings.k,
        km_at_threshold=float(anchor),
    )
