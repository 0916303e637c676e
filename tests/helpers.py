"""Plain-Python reference implementations used as independent oracles.

Everything here is deliberately written with scalar loops, ``math``
functions, ``mpmath`` quadrature and explicit sorting -- no numpy, no
imports from the package under test -- so that agreement between these
routines and the library is evidence, not tautology.  The one exception is
:func:`sample_from_pairs`, a shorthand for writing small test samples as
records, which is not an oracle.
"""

import math

import mpmath

from tailpremium import SortedCensoredSample

INDEX_CAP = 0.5
CANDIDATE_SCALE = 2.0
MIN_SAMPLE = 10


def sample_from_pairs(records):
    """``SortedCensoredSample`` of a non-empty list of ``(z, delta)`` pairs."""
    z, delta = zip(*records)
    return SortedCensoredSample.from_unsorted(list(z), list(delta))


def naive_sorted(z, delta):
    """Sort (z, delta) pairs by z ascending, uncensored first within a tie."""
    pairs = sorted(zip(z, delta), key=lambda pair: (pair[0], -pair[1]))
    return [p[0] for p in pairs], [p[1] for p in pairs]


def naive_km_grouped(z, delta, x):
    """Kaplan-Meier survival at ``x`` from raw, unsorted (z, delta) pairs.

    The textbook grouped form: the product over distinct values t <= x of
    ``1 - d_t / r_t``, with d_t the uncensored records at t and r_t the
    records at or above t.  No sorting of records is involved, so the
    result cannot depend on their order.
    """
    counts = {}
    deaths = {}
    for value, d in zip(z, delta):
        counts[value] = counts.get(value, 0) + 1
        deaths[value] = deaths.get(value, 0) + d
    at_risk = len(z)
    product = 1.0
    for t in sorted(counts):
        if t > x:
            break
        product *= 1.0 - deaths[t] / at_risk
        at_risk -= counts[t]
    return product


def naive_km_at_threshold(z_sorted, delta_sorted, k):
    """Sequential Kaplan-Meier product over the lowest n - k records."""
    n = len(z_sorted)
    product = 1.0
    for i in range(1, n - k + 1):
        product *= 1.0 - delta_sorted[i - 1] / (n - i + 1)
    return product


def naive_km_at(z_sorted, delta_sorted, x):
    """Sequential Kaplan-Meier survival at ``x`` (requires x < max z)."""
    n = len(z_sorted)
    product = 1.0
    for i in range(1, n + 1):
        if z_sorted[i - 1] > x:
            break
        product *= 1.0 - delta_sorted[i - 1] / (n - i + 1)
    return product


def naive_hill(z_sorted, k):
    """Mean log-excess of the top k order statistics."""
    n = len(z_sorted)
    threshold = z_sorted[n - k - 1]
    total = 0.0
    for i in range(1, k + 1):
        total += math.log(z_sorted[n - i]) - math.log(threshold)
    return total / k


def naive_p_hat(delta_sorted, k):
    n = len(delta_sorted)
    return sum(delta_sorted[n - k :]) / k


def naive_gamma1_path(z_sorted, delta_sorted, k_max):
    """Corrected tail index for k = 1..k_max; None where undefined."""
    path = []
    for k in range(1, k_max + 1):
        p_hat = naive_p_hat(delta_sorted, k)
        if p_hat <= 0.0:
            path.append(None)
        else:
            path.append(naive_hill(z_sorted, k) / p_hat)
    return path


def _lower_median(values):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _window_score(path, beta, k):
    lo = (k + 1) // 2
    window = path[lo - 1 : k]
    med = _lower_median(window)
    total = 0.0
    for offset, value in enumerate(window):
        i = lo + offset
        total += i**beta * abs(value - med)
    return total / k


def naive_threshold_choice(z_sorted, delta_sorted, beta=0.3):
    """Reference implementation of the k-selection rule.

    Returns ``(k_star, curve)`` with ``curve`` a list of (k, score), or
    raises ValueError mirroring the library's refusals.
    """
    n = len(z_sorted)
    if n < MIN_SAMPLE:
        raise ValueError("sample too small")
    positive = sum(1 for z in z_sorted if z > 0.0)
    k_limit = min(n // 2, positive - 1)
    if k_limit < 2:
        raise ValueError("not enough positive order statistics")
    path = naive_gamma1_path(z_sorted, delta_sorted, k_limit)
    admissible = [
        value is not None and math.isfinite(value) and value < INDEX_CAP
        for value in path
    ]
    ceiling = min(k_limit, round(CANDIDATE_SCALE * n ** (1.0 / 3.0)))
    curve = []
    for k in range(2, ceiling + 1):
        lo = (k + 1) // 2
        if all(admissible[lo - 1 : k]):
            curve.append((k, _window_score(path, beta, k)))
    if curve:
        best = min(curve, key=lambda pair: pair[1])
        return best[0], curve
    for k in range(ceiling + 1, k_limit + 1):
        lo = (k + 1) // 2
        if all(admissible[lo - 1 : k]):
            return k, [(k, _window_score(path, beta, k))]
    raise ValueError("no admissible k")


def naive_uncensored_premium(z_sorted, k, rho):
    """Premium of the layer above z_(n-k) ignoring censoring flags.

    Hill estimate, empirical survival anchor via the sequential product
    (all flags treated as 1), and the closed-form layer integral.
    """
    n = len(z_sorted)
    gamma = naive_hill(z_sorted, k)
    anchor = 1.0
    for i in range(1, n - k + 1):
        anchor *= 1.0 - 1.0 / (n - i + 1)
    retention = z_sorted[n - k - 1]
    return (
        rho * gamma / (1.0 - rho * gamma)
        * retention
        * anchor ** (1.0 / rho)
    )


def naive_aggregate(pairs):
    """Column means, |difference of means| and per-replicate rmse."""
    count = len(pairs)
    mean_true = sum(p[0] for p in pairs) / count
    mean_hat = sum(p[1] for p in pairs) / count
    rmse = math.sqrt(sum((p[1] - p[0]) ** 2 for p in pairs) / count)
    return mean_true, mean_hat, abs(mean_hat - mean_true), rmse


def mp_burr_survival(gamma, eta):
    """Burr survival ``(1 + x**(eta/gamma))**(-1/eta)`` in mpmath."""
    gamma, eta = mpmath.mpf(gamma), mpmath.mpf(eta)
    return lambda x: (1 + x ** (eta / gamma)) ** (-1 / eta)


def mp_pareto_survival(gamma, x_min):
    """Pareto survival ``(x/x_min)**(-1/gamma)``, equal to 1 below x_min."""
    gamma, x_min = mpmath.mpf(gamma), mpmath.mpf(x_min)
    return lambda x: 1 if x <= x_min else (x / x_min) ** (-1 / gamma)


def mp_premium(survival, tail_index, rho, retention, knots=(), dps=30):
    """Layer premium ``integral_R^inf survival(x)**(1/rho) dx`` by quadrature.

    The substitution ``x = R * t**(-1/c)`` with ``c = 1/(tail_index*rho) - 1``
    maps ``[R, inf)`` onto ``(0, 1]`` and turns a pure power tail into a
    constant integrand, so tanh-sinh converges to the working precision.
    ``knots`` are levels where the survival bends sharply (the Burr knee at
    1, the Pareto ``x_min``); those above ``R`` split the interval.
    """
    with mpmath.workdps(dps):
        r = mpmath.mpf(retention)
        inv_rho = 1 / mpmath.mpf(rho)
        c = 1 / (mpmath.mpf(tail_index) * mpmath.mpf(rho)) - 1

        def integrand(t):
            x = r * t ** (-1 / c)
            return survival(x) ** inv_rho * x / (c * t)

        cuts = sorted((mpmath.mpf(k) / r) ** (-c) for k in knots if k > retention)
        return float(mpmath.quad(integrand, [0] + cuts + [1]))
