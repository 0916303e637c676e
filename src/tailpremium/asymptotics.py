"""Normal limit of the premium estimator and Gaussian confidence intervals.

After centering and scaling, the premium estimator is asymptotically
normal.  This module evaluates the limiting mean and variance as printed
formulas of the tail index, the uncensored share, the distortion
parameter, and two second-order quantities, plus the deterministic
normalization that converts the limit back to premium units.

The printed variance formula is negative for some parameter combinations
(for instance an uncensored share of 0.8 with tail index 0.1 and no
distortion).  It is implemented verbatim: callers that need an actual
variance must check the sign, and the confidence interval refuses to build
when it is not positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .estimators import PremiumEstimate, _fit_message


def _check_index_and_rho(gamma1: float, rho: float) -> None:
    if not (np.isfinite(gamma1) and gamma1 > 0.0):
        raise ValidationError(f"gamma1 must be > 0, got {gamma1!r}")
    if not 1.0 <= rho < np.inf:
        raise ValidationError(f"rho must be >= 1, got {rho!r}")


def _check_finite_premium(gamma1: float, rho: float) -> None:
    """A finite premium, and so its normal limit, needs rho * gamma1 < 1."""
    if rho * gamma1 >= 1.0:
        raise DomainError(f"rho * gamma1 must be < 1, got {rho * gamma1:g}")


@dataclass(frozen=True)
class AsymptoticParams:
    """Parameter set of the normal limit.

    ``lambda1`` is the limit of ``sqrt(k)`` times the second-order rate at
    the intermediate threshold; ``tau1`` the (non-positive) second-order
    parameter of the loss tail.
    """

    gamma1: float
    p: float
    rho: float
    tau1: float = 0.0
    lambda1: float = 0.0

    def __post_init__(self) -> None:
        _check_index_and_rho(self.gamma1, self.rho)
        if not 0.0 < self.p <= 1.0:
            raise ValidationError(f"p must lie in (0, 1], got {self.p!r}")
        if not self.tau1 <= 0.0:
            raise ValidationError(f"tau1 must be <= 0, got {self.tau1!r}")
        if not np.isfinite(self.lambda1):
            raise ValidationError(f"lambda1 must be finite, got {self.lambda1!r}")
        _check_finite_premium(self.gamma1, self.rho)


@dataclass(frozen=True)
class NormalLimit:
    """Limiting mean, variance, and the premium-units normalization."""

    mu: float
    sigma2: float
    normalization: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.normalization) and self.normalization > 0.0):
            raise ValidationError(
                f"normalization must be > 0, got {self.normalization!r}"
            )


def asym_mean(params: AsymptoticParams) -> float:
    """Asymptotic mean of the normalized premium error.

    ``rho * lambda1 / ((1 - p*tau1) * (1 - rho*gamma1)**2)
    + lambda1 / (rho * (gamma1 + tau1 + rho - 2) * (2 - rho - gamma1))``

    Linear in ``lambda1``; in particular zero when ``lambda1`` is zero.

    Raises
    ------
    DomainError
        When ``gamma1 + tau1 + rho - 2`` or ``2 - rho - gamma1``
        vanishes, naming the vanishing factor.
    """
    gamma1, p, rho = params.gamma1, params.p, params.rho
    tau1, lambda1 = params.tau1, params.lambda1
    first_denom = (1.0 - p * tau1) * (1.0 - rho * gamma1) ** 2
    second_a = gamma1 + tau1 + rho - 2.0
    second_b = 2.0 - rho - gamma1
    if second_a == 0.0:
        raise DomainError(
            "asymptotic mean is singular: (gamma1 + tau1 + rho - 2) vanishes"
        )
    if second_b == 0.0:
        raise DomainError(
            "asymptotic mean is singular: (2 - rho - gamma1) vanishes"
        )
    return rho * lambda1 / first_denom + lambda1 / (rho * second_a * second_b)


def asym_variance(gamma1: float, p: float, rho: float) -> float:
    """Asymptotic variance of the normalized premium error, as printed.

    ``gamma1**2 / (1 - rho*gamma1)**2 * (p*(2 - p)
    + rho*(p - 1)/(1 - rho*gamma1) + rho**2*(1 - 2p)/(p*(1 - rho*gamma1)**2))``

    The value can be negative for some parameter sets; the sign is the
    caller's problem, by design.  The parameters obey the bounds of
    :class:`AsymptoticParams`.
    """
    if p == 0.0:
        raise DomainError("asymptotic variance is undefined at p = 0")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"p must lie in (0, 1], got {p!r}")
    _check_index_and_rho(gamma1, rho)
    _check_finite_premium(gamma1, rho)
    one_minus = 1.0 - rho * gamma1
    lead = gamma1**2 / one_minus**2
    inner = (
        p * (2.0 - p)
        + rho * (p - 1.0) / one_minus
        + rho**2 * (1.0 - 2.0 * p) / (p * one_minus**2)
    )
    return lead * inner


def normalization_factor(
    retention: float, h: float, survival_at_h: float, gamma1: float, rho: float
) -> float:
    """Scale converting the normalized limit back to premium units.

    ``(R/h)**(-1/(rho*gamma1)) * R * survival_at_h**(1/rho)``.  Defined
    for strictly positive inputs with ``rho * gamma1 < 1``; homogeneous of
    degree 1 when ``R`` and ``h`` are scaled together.  A factor past the
    float range raises :class:`DomainError`.
    """
    values = {
        "retention": retention,
        "h": h,
        "survival_at_h": survival_at_h,
        "gamma1": gamma1,
        "rho": rho,
    }
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0.0):
            raise ValidationError(f"{name} must be > 0, got {value!r}")
    _check_finite_premium(gamma1, rho)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(
            np.float64(retention / h) ** (-1.0 / (rho * gamma1))
            * retention
            * np.float64(survival_at_h) ** (1.0 / rho)
        )
    if not np.isfinite(value):
        # Stage 4 of the fit's failure table: the premium overflows.
        raise DomainError(_fit_message(4, None, h, gamma1, rho, retention))
    return value


def confidence_interval(
    estimate: PremiumEstimate, limit: NormalLimit, k: int, level: float
) -> tuple:
    """Bias-corrected Gaussian confidence interval for the premium.

    Centers at the estimate minus ``normalization * mu / sqrt(k)`` and
    widens by the ``(1 + level)/2`` Gaussian quantile times
    ``normalization * sigma / sqrt(k)``.  ``level = 0`` is allowed and
    yields the degenerate interval at the bias-corrected point.

    Raises
    ------
    DomainError
        If ``limit.sigma2 <= 0``: the printed variance formula turned
        non-positive, so no interval exists for these parameters.
    """
    if limit.sigma2 <= 0.0:
        raise DomainError(
            "asymptotic variance is non-positive for these parameters; "
            "no confidence interval available"
        )
    if not 0.0 <= level < 1.0:
        raise ValidationError(
            f"confidence level must lie in [0, 1), got {level!r}"
        )
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    # Imported here, its only use: it costs every CLI start 5-7 ms.
    from statistics import NormalDist

    tail = (1.0 + level) / 2.0
    # The largest level below 1 rounds the tail level up to 1.
    z = math.inf if tail == 1.0 else NormalDist().inv_cdf(tail)
    scale = limit.normalization / math.sqrt(k)
    sigma = math.sqrt(limit.sigma2)
    lo = estimate.value - scale * (limit.mu + z * sigma)
    hi = estimate.value - scale * (limit.mu - z * sigma)
    return (lo, hi)
