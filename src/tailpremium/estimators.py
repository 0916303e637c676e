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
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import _CODE, DomainError, _failure
from .samples import (
    EstimationSettings,
    SortedCensoredSample,
    _check_k,
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


def _km_products(delta: np.ndarray, out=None) -> np.ndarray:
    """Product-limit survival after each order statistic.

    ``delta`` holds the sorted flags of one sample, or of one sample per
    row ``(..., n)``.  ``products[..., m - 1] = prod_{i=1}^{m} (1 - delta_[i]
    / (n - i + 1))``.  Because ties list uncensored records first, the
    value at the end of a run of ties equals the grouped factor
    ``1 - d_t / r_t`` of Kaplan and Meier.  Every product with ``m < n`` is
    at least ``(n - m) / n``, so no underflow guard is needed.  The
    products are worked in place, with the plain expression's bits, in
    ``out`` (a float64 array shaped like ``delta``) or in a new array;
    ``delta`` is never written.
    """
    n = delta.shape[-1]
    factors = np.divide(delta, n - np.arange(n, dtype=np.float64), out=out)
    np.subtract(1.0, factors, out=factors)
    return np.cumprod(factors, axis=-1, out=factors)


def _km_anchor(
    delta: np.ndarray, k: Union[int, np.ndarray], scratch=None
) -> np.ndarray:
    """Product-limit survival just below the k-th upper order statistic.

    One ``k`` per row of ``delta`` ``(..., n)``; the caller checks
    ``1 <= k < n``, so index ``n - k - 1`` of the products is at least 0.
    The products are worked in ``scratch``, if given (:func:`_km_products`).
    """
    at = delta.shape[-1] - np.asarray(k) - 1
    products = _km_products(delta, scratch)
    return np.take_along_axis(products, at[..., None], -1)[..., 0]


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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gamma1, p_hat, hill)`` for every k in 1..k_max: the tail path.

    The one kernel behind every read of the tail index, for one sample or
    one per row ``(..., n)``, indexed by ``k - 1`` along the last axis.
    Running sums over the top order statistics make the entry for ``k``
    bitwise the same for any ``k_max`` and any number of rows.  The
    logarithm runs on the ascending top slice, laid out alike in one
    sample and in a block row: numpy picks its ``log`` routine by memory
    layout, and a reversed view gets one that can differ in the last bit.
    The caller checks ``1 <= k_max < n``.  The Hill entry is defined only
    where ``z_(n-k) > 0``, else NaN or infinite, without a warning; the
    corrected index ``gamma1 = hill / p_hat`` is NaN where p_hat is 0.
    """
    n = z_sorted.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_top = np.log(z_sorted[..., n - k_max - 1 :])[..., ::-1]
        counts = np.arange(1, k_max + 1, dtype=np.float64)
        # hill[k-1] = mean of log(z_(n-i+1)) over i <= k, minus log(z_(n-k))
        hill = np.cumsum(log_top[..., :k_max], axis=-1) / counts - log_top[..., 1:]
    p_hat = np.cumsum(delta[..., n - k_max :][..., ::-1], axis=-1) / counts
    return hill / np.where(p_hat > 0.0, p_hat, np.nan), p_hat, hill


def _path_to(sample: SortedCensoredSample, k: int) -> Tuple[np.ndarray, ...]:
    """:func:`_tail_path` up to ``k``, once ``k`` and the threshold pass."""
    _check_k(k, sample.n)
    threshold = sample.z_sorted[sample.n - k - 1]
    if threshold <= 0.0:
        raise _failure(_CODE["nonpositive_threshold"], threshold=threshold)
    return _tail_path(sample.z_sorted, sample.delta_concomitant, k)


def hill_estimator(sample: SortedCensoredSample, k: int) -> float:
    """Hill estimate of the observed sample's tail index from the top ``k``.

    Mean of ``log(z_(n-i+1) / z_(n-k))`` over ``i = 1..k``.  Requires the
    k-th upper order statistic to be strictly positive.
    """
    return float(_path_to(sample, k)[2][-1])


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
    gamma1, p_hat, gamma_hill = (float(values[-1]) for values in _path_to(sample, k))
    if p_hat == 0.0:
        raise _failure(_CODE["all_censored"], k=k)
    return TailEstimates(
        k=k,
        gamma_hill=gamma_hill,
        p_hat=p_hat,
        gamma1_hat=gamma1,
    )


@dataclass(frozen=True)
class _Chain:
    """The chain on each row of sorted samples ``(B, n)``: ``k`` and, at it,
    the path's entries, ``z_(n-k)``, the product-limit ``anchor`` (NaN if
    no rho is asked) and the retention, each ``(B,)``; per rho ``(B, R)``,
    ``pi_hat`` and ``code``, the first failure in ``errors.REASONS`` (-1
    for none, else ``pi_hat`` is NaN).  Where the rule ran, also its curve
    (NaN-scored off a row's candidates), ``k_limit``, each row's largest
    candidate, and ``rule_code``, the rule's failure; a row the rule failed
    has ``k = 0``, NaN values and the rule's code at every rho.
    """

    k: np.ndarray
    gamma1: np.ndarray
    p_hat: np.ndarray
    gamma_hill: np.ndarray
    threshold: np.ndarray
    anchor: np.ndarray
    retention: np.ndarray
    pi_hat: np.ndarray
    code: np.ndarray
    k_limit: Optional[np.ndarray] = None
    candidates: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None
    rule_code: Optional[np.ndarray] = None


def _fit_rows(
    z_sorted: np.ndarray, delta: np.ndarray, k: np.ndarray, rhos: Sequence[float],
    retention=None, scratch=None, paths=None,
) -> _Chain:
    """The fit at one ``1 <= k < n`` per row of sorted samples ``(B, n)``.

    ``paths`` lists ``(rows, path)`` pairs whose ``rows`` split the block:
    the :func:`_tail_path` of the rows ``rows`` indexes, reaching each of
    their ``k``; if None, one path to the largest ``k``.  ``retention``
    defaults to ``z_(n-k)``; at ``rho = 0`` only the row checks run, and
    with no rho the anchor is not computed.  Values are computed entry by
    entry, so each row's are bitwise the row's alone.  ``scratch``, a
    float64 array shaped like ``z_sorted``, may take the product-limit
    factors, and no result shares it.
    """
    if paths is None:
        paths = ((slice(None), _tail_path(z_sorted, delta, int(k.max()))),)
    at_k = np.empty((3, len(k)))
    for rows, path in paths:
        at = (np.arange(len(path[0])), k[rows] - 1)
        for out, values in zip(at_k, path):
            out[rows] = values[at]
    gamma1 = at_k[0]
    threshold = z_sorted[np.arange(len(k)), z_sorted.shape[-1] - k - 1]
    anchor = _km_anchor(delta, k, scratch) if len(rhos) else np.full(len(k), np.nan)
    retention = np.full(len(k), threshold if retention is None else retention)
    code = np.full((len(k), len(rhos)), -1)
    # The row checks, last first, so that a row keeps its first failure.
    code[gamma1 <= 0.0] = _CODE["nonpositive_index"]
    code[np.isnan(gamma1)] = _CODE["all_censored"]
    code[threshold <= 0.0] = _CODE["nonpositive_threshold"]
    pi_hat = np.full(code.shape, np.nan)
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
            column = code[:, j]
            column[(column < 0) & (rho_gamma1 >= 1.0)] = _CODE["heavy_tail"]
            column[(column < 0) & ~np.isfinite(value)] = _CODE["premium_overflow"]
            pi_hat[:, j] = np.where(column < 0, value, np.nan)
    return _Chain(k, *at_k, threshold, anchor, retention, pi_hat, code)


def _raise_failure(chain: _Chain, rho: float) -> None:
    """Raise the first row's failure, if any: at its first rho, else the rule's."""
    code = chain.code[0, 0] if chain.code.size else chain.rule_code[0]
    if code >= 0:
        # The rule's limit is its positives less one where < 2: n // 2 >= 5.
        limit = -1 if chain.k_limit is None else int(chain.k_limit[0])
        raise _failure(
            code, count=limit + 1, k_limit=limit, k=int(chain.k[0]),
            threshold=chain.threshold[0], gamma1=chain.gamma1[0], rho=rho,
            rho_gamma1=rho * float(chain.gamma1[0]), retention=chain.retention[0],
        )


def _fit_sample(sample: SortedCensoredSample, k: int, rho: float, retention=None):
    """:func:`_fit_rows` on one sample, its failure raised as a DomainError."""
    _check_k(k, sample.n)
    z, delta = sample.z_sorted[None], sample.delta_concomitant[None]
    chain = _fit_rows(z, delta, np.array([k]), (rho,), retention)
    _raise_failure(chain, rho)
    return chain


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
    chain = _fit_sample(sample, k, 0.0)
    z_threshold, x = chain.threshold[0], float(x)
    if not x >= z_threshold:
        raise DomainError(
            "tail extrapolation is only valid at or above the k-th upper "
            f"order statistic ({z_threshold:g}), got x={x:g}"
        )
    return float((x / z_threshold) ** (-1.0 / chain.gamma1[0]) * chain.anchor[0])


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
    chain = _fit_sample(sample, settings.k, settings.rho, retention)
    return PremiumEstimate(
        value=float(chain.pi_hat[0, 0]),
        rho=settings.rho,
        retention=float(chain.retention[0]),
        k=settings.k,
        km_at_threshold=float(chain.anchor[0]),
    )
