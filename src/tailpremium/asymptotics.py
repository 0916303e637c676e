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
from scipy.special import ndtri

from .errors import DomainError, ValidationError
from .estimators import PremiumEstimate


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
        if not (np.isfinite(self.gamma1) and self.gamma1 > 0.0):
            raise ValidationError(f"gamma1 must be > 0, got {self.gamma1!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValidationError(f"p must lie in (0, 1], got {self.p!r}")
        if not 1.0 <= self.rho < np.inf:
            raise ValidationError(f"rho must be >= 1, got {self.rho!r}")
        if self.rho * self.gamma1 >= 1.0:
            raise ValidationError(
                f"rho * gamma1 must be < 1, got {self.rho * self.gamma1:g}"
            )
        if not self.tau1 <= 0.0:
            raise ValidationError(f"tau1 must be <= 0, got {self.tau1!r}")
        if not np.isfinite(self.lambda1):
            raise ValidationError(f"lambda1 must be finite, got {self.lambda1!r}")


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
    caller's problem, by design.
    """
    if p == 0.0:
        raise DomainError("asymptotic variance is undefined at p = 0")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"p must lie in (0, 1], got {p!r}")
    one_minus = 1.0 - rho * gamma1
    if one_minus <= 0.0:
        raise DomainError(
            f"rho * gamma1 must be < 1, got {rho * gamma1:g} "
            f"(gamma1={gamma1:g}, rho={rho:g})"
        )
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
    degree 1 when ``R`` and ``h`` are scaled together.
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
    if rho * gamma1 >= 1.0:
        raise DomainError(
            f"rho * gamma1 must be < 1, got {rho * gamma1:g}"
        )
    return (
        (retention / h) ** (-1.0 / (rho * gamma1))
        * retention
        * survival_at_h ** (1.0 / rho)
    )


def gaussian_quantile(q: float) -> float:
    """Quantile of the standard normal distribution."""
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1), got {q!r}")
    return float(ndtri(q))


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
    z = 0.0 if level == 0.0 else gaussian_quantile((1.0 + level) / 2.0)
    scale = limit.normalization / math.sqrt(k)
    sigma = math.sqrt(limit.sigma2)
    lo = estimate.value - scale * (limit.mu + z * sigma)
    hi = estimate.value - scale * (limit.mu - z * sigma)
    return (lo, hi)
