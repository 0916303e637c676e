"""Exception types shared across the package, and why the chain fails.

All errors raised by this package derive from :class:`TailPremiumError` so
callers can catch everything with one clause.  The split below mirrors how
the command line interface maps failures to exit codes: malformed input
files, invalid parameters, and mathematical domain violations are distinct
situations and deserve distinct types.
"""


class TailPremiumError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TailPremiumError, ValueError):
    """A constructor argument or estimation setting violates its contract."""


class DomainError(TailPremiumError, ValueError):
    """A quantity is mathematically undefined for the given data or parameters.

    Examples: evaluating the product-limit survival at or above the largest
    observation, a premium whose defining integral diverges, or a tail index
    estimate too heavy for a finite premium.
    """

    reason = None  # the name of its entry in REASONS, if it has one


class FileFormatError(TailPremiumError, ValueError):
    """A claims file or study configuration file cannot be parsed."""


# Why a sample fails the chain: one (name, message template) entry per check,
# in the chain's order.  Kernels carry a failure as its index (-1 for none).
REASONS = (
    ("too_few_positive", "threshold selection needs at least 3 strictly "
     "positive order statistics, got {count}"),
    ("no_admissible_k", "no admissible k: every candidate window up to "
     "{k_limit} contains an undefined or out-of-range corrected tail index"),
    ("nonpositive_threshold",
     "the k-th upper order statistic must be > 0, got {threshold:g}"),
    ("all_censored", "all of the top k={k} observations are censored; the "
     "censoring-corrected tail index is undefined"),
    ("nonpositive_index", "tail index estimate is not positive; the top k "
     "observations are degenerate"),
    ("heavy_tail", "estimated tail is too heavy for a finite premium: "
     "rho * gamma1 = {rho_gamma1:g} >= 1 (gamma1={gamma1:g}, rho={rho:g})"),
    ("premium_overflow", "premium overflows the float range: (R / h) ** "
     "(-1 / (rho * gamma1)) with R={retention:g}, h={threshold:g}, "
     "rho * gamma1={rho_gamma1:g}"),
    ("divergent_premium", "premium integral diverges: rho * tail_index = "
     "{product:g} >= 1 (tail_index={tail_index:g}, rho={rho:g})"),
    ("premium_not_converged", "incomplete beta B_t({p:g}, {q:g}) did not "
     "converge in {terms} continued-fraction terms"),
)
_CODE = {name: code for code, (name, _) in enumerate(REASONS)}


def _failure(code: int, **values) -> DomainError:
    """The error of entry ``code``, its message filled in from ``values``."""
    name, template = REASONS[code]
    error = DomainError(template.format(**values))
    error.reason = name
    return error
