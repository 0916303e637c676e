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
from typing import Tuple, Union

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


def _check_k(k: int, n: int) -> None:
    if not 1 <= k < n:
        raise DomainError(f"k must satisfy 1 <= k < n, got k={k} with n={n}")


def _km_curve(delta: np.ndarray) -> np.ndarray:
    """Product-limit survival after each prefix of the order statistics.

    ``delta`` holds the sorted flags of one sample, or of one sample per
    row ``(..., n)``.  ``curve[..., m] = prod_{i=1}^{m} (1 - delta_[i] /
    (n - i + 1))``, so ``curve[..., 0] = 1``.  Because ties list uncensored
    records first, the value at the end of a run of ties equals the
    grouped factor ``1 - d_t / r_t`` of Kaplan and Meier.  Every prefix
    with ``m < n`` is at least ``(n - m) / n``, so no underflow guard is
    needed.
    """
    ones = np.ones(delta.shape[:-1] + (1,))
    return np.concatenate((ones, _km_products(delta)), axis=-1)


def _km_products(delta: np.ndarray) -> np.ndarray:
    """``_km_curve(delta)[..., 1:]``, built without the copy."""
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
    out = _km_curve(sample.delta_concomitant)[np.searchsorted(z, xs, side="right")]
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


def _path_at(sample: SortedCensoredSample, k: int) -> Tuple[float, float]:
    """Guarded read of :func:`_tail_path` at one ``k``: ``(hill, p_hat)``."""
    _check_k(k, sample.n)
    threshold = sample.z_sorted[sample.n - k - 1]
    if threshold <= 0.0:
        raise DomainError(
            f"the k-th upper order statistic must be > 0, got {threshold:g}"
        )
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
        raise DomainError(
            f"all of the top k={k} observations are censored; the "
            "censoring-corrected tail index is undefined"
        )
    return TailEstimates(
        k=k,
        gamma_hill=gamma_hill,
        p_hat=p_hat,
        gamma1_hat=gamma_hill / p_hat,
    )


def _php_failures(gamma1: np.ndarray, rho: float) -> np.ndarray:
    """Why the closed form of :func:`php_estimate` fails at each index.

    ``gamma1`` is a 1-D array of corrected indices.  Returns an object
    array of its shape: the reason where an index is not positive or
    ``rho * gamma1 >= 1`` (the premium integral diverges), else None.
    At ``rho = 0`` only the sign is checked.
    """
    reasons = np.full(gamma1.shape, None, dtype=object)
    reasons[gamma1 <= 0.0] = (
        "tail index estimate is not positive; the top k observations "
        "are degenerate"
    )
    for i in np.flatnonzero(rho * gamma1 >= 1.0):
        reasons[i] = (
            "estimated tail is too heavy for a finite premium: "
            f"rho * gamma1 = {rho * gamma1[i]:g} >= 1 "
            f"(gamma1={gamma1[i]:g}, rho={rho:g})"
        )
    return reasons


def _anchored_fit(
    sample: SortedCensoredSample, k: int, rho: float
) -> Tuple[float, float, float]:
    """Corrected index, threshold ``z_(n-k)`` and its product-limit anchor.

    Raises the reason :func:`_php_failures` gives the index at ``rho``.
    """
    gamma1 = censored_hill(sample, k).gamma1_hat
    reason = _php_failures(np.array([gamma1]), rho)[0]
    if reason is not None:
        raise DomainError(reason)
    z_threshold = sample.z_sorted[sample.n - k - 1]
    return gamma1, z_threshold, float(_km_anchor(sample.delta_concomitant, k))


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
    gamma1, z_threshold, anchor = _anchored_fit(sample, k, 0.0)
    x = float(x)
    if not x >= z_threshold:
        raise DomainError(
            "tail extrapolation is only valid at or above the k-th upper "
            f"order statistic ({z_threshold:g}), got x={x:g}"
        )
    return float((x / z_threshold) ** (-1.0 / gamma1) * anchor)


def _finite_scale(value: float, retention: float, h: float, rho_gamma1: float) -> float:
    """``value``, unless ``(R / h) ** (-1 / (rho * gamma1))`` overflowed it."""
    if not np.isfinite(value):
        raise DomainError(
            "premium overflows the float range: (R / h) ** (-1 / (rho * gamma1)) "
            f"with R={retention:g}, h={h:g}, rho * gamma1={rho_gamma1:g}"
        )
    return value


def _php_value(
    gamma1: np.ndarray,
    rho: float,
    retention: np.ndarray,
    z_threshold: np.ndarray,
    anchor: np.ndarray,
) -> np.ndarray:
    """The closed form of :func:`php_estimate`, entry by entry.

    Every entry needs ``gamma1 > 0`` and ``rho * gamma1 < 1`` (see
    :func:`_php_failures`).  numpy's ``power`` gives an entry the same
    bits whatever the array's length, so a study block and the one-sample
    API, which reads this on 1-element arrays, agree bit for bit.
    """
    return (
        rho * gamma1 / (1.0 - rho * gamma1)
        * retention
        * (retention / z_threshold) ** (-1.0 / (rho * gamma1))
        * anchor ** (1.0 / rho)
    )


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
        If the censoring correction is undefined, the tail estimate is not
        positive, ``rho * gamma1 >= 1`` so the premium integral diverges,
        or the premium overflows the float range.
    """
    settings = validate_settings(settings, sample.n)
    k = settings.k
    rho = settings.rho
    gamma1, z_threshold, anchor = _anchored_fit(sample, k, rho)
    if settings.retention_is_threshold:
        retention = float(z_threshold)
    else:
        retention = float(settings.retention)
    fit = np.array([[gamma1], [retention], [z_threshold], [anchor]])
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(_php_value(fit[0], rho, *fit[1:])[0])
    return PremiumEstimate(
        value=_finite_scale(value, retention, z_threshold, rho * gamma1),
        rho=rho,
        retention=retention,
        k=k,
        km_at_threshold=anchor,
    )
