"""Value types for right-censored claim samples and estimation settings.

An observation is a pair ``(z, delta)`` where ``z`` is the recorded claim
amount and ``delta`` says whether the true loss was fully observed
(``delta = 1``) or cut off by an external limit (``delta = 0``), in which
case ``z`` is the limit that was hit.  All estimators in this package work
on a :class:`SortedCensoredSample`, which stores the order statistics of
``z`` together with the censoring flags carried along in the sort.  Tied
values list their uncensored records first, the product-limit convention
of Kaplan and Meier (1958), so a sample depends only on the multiset of
records and never on their input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import ValidationError

# Sentinel for EstimationSettings.retention: use the k-th upper order
# statistic of the sample as the retention level.
THRESHOLD = "threshold"

# Bit pattern of +inf: a double's bits lie below it exactly when the value
# is finite with its sign bit clear (>= 0, and not -0.0).
_INF_BITS = np.float64(np.inf).view(np.uint64)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_numbers(**values) -> None:
    """Reject a bool given as a number, or in a list of numbers, by name."""
    for name, value in values.items():
        items = value if isinstance(value, (tuple, list)) else (value,)
        if any(isinstance(v, (bool, np.bool_)) for v in items):
            raise ValidationError(f"{name} must be a number, not a bool, got {value!r}")


def _check_positive(**values) -> None:
    """Each value must be a finite number > 0, and not a bool, by name."""
    _check_numbers(**values)
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0.0):
            raise ValidationError(f"{name} must be > 0, got {value!r}")


def _check_k(k: int, n: int, name: str = "k") -> None:
    """Reject a number of upper order statistics outside ``1 <= k < n``."""
    if not 1 <= k < n:
        raise ValidationError(
            f"{name} must satisfy 1 <= {name} < n, got {name}={k} with n={n}"
        )


def _check_flags(delta: np.ndarray) -> None:
    """Reject censoring flags other than 0 and 1.

    Callers check the raw values before any cast to int64, so fractional
    and NaN flags are rejected instead of truncated to 0 or 1.
    """
    if not ((delta == 0) | (delta == 1)).all():
        raise ValidationError("censoring indicators must be 0 or 1")


def _sort_rows(z: np.ndarray, delta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort each row of raw records ``(..., n)`` into checked sample order.

    Rows are ordered by ``z`` ascending and, within a tie, by ``delta``
    descending; the flags come back as int64.  The arrays are the caller's,
    sorted in place where the key is packed.  The flags are checked first,
    on their raw values, so a fractional, NaN or out-of-range flag fails
    before anything is cast or packed.  One key holds both: for ``z >= 0``
    the IEEE bit pattern orders like the value and the spare sign bit makes
    room for the flag, so records with equal keys are equal.  When every
    value is finite with its sign bit clear, as the key's bound proves, the
    key is packed over ``z``, sorted in place and unpacked into ``z`` and
    ``delta``; the sort proves the order and the tie rule.  Otherwise the
    values are checked to be finite and >= 0, the key is argsorted,
    stably, and the raw records gathered into new arrays, so ``-0.0``
    (keyed as ``0.0``) keeps its sign and its input order among the zeros.
    Either way the rows pass :func:`_check_rows`.
    """
    _check_flags(delta)
    delta = delta.astype(np.int64, copy=False)
    one = np.uint64(1)
    key, flags = z.view(np.uint64), delta.view(np.uint64)
    if z.size > 0 and key.max() < _INF_BITS:
        key <<= one
        flags ^= one  # the censored bit: uncensored records sort first
        key |= flags
        key.sort(axis=-1)
        np.bitwise_and(key, one, out=flags)
        flags ^= one
        key >>= one
        return z, delta
    if not np.all((z >= 0.0) & (z < np.inf)):
        raise ValidationError("observed values must be finite and >= 0")
    key = (key << one) | (delta == 0)  # the shift drops the sign of -0.0
    order = np.argsort(key, axis=-1, kind="stable")
    return np.take_along_axis(z, order, -1), np.take_along_axis(delta, order, -1)


def _check_rows(z: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The value checks of a sample, on each row of sorted arrays ``(..., n)``.

    Returns ``delta`` as given, without a copy; raises
    :class:`ValidationError` naming the first violated rule.
    """
    if not np.all(np.isfinite(z)) or np.any(z < 0.0):
        raise ValidationError("observed values must be finite and >= 0")
    if np.any(z[..., 1:] < z[..., :-1]):
        raise ValidationError("observed values must be sorted ascending")
    _check_flags(delta)
    if np.any((z[..., 1:] == z[..., :-1]) & (delta[..., 1:] > delta[..., :-1])):
        raise ValidationError(
            "tied observed values must list uncensored records first"
        )
    return delta


@dataclass(frozen=True)
class SortedCensoredSample:
    """Order statistics of the observed values with concomitant flags.

    ``z_sorted`` is non-decreasing and ``delta_concomitant[i]`` is the
    censoring indicator that arrived with ``z_sorted[i]``.  Within a run of
    equal values the flags are non-increasing: uncensored records come
    before censored ones.  Both arrays are read-only; build instances
    from raw columns through :meth:`from_unsorted`.
    """

    z_sorted: np.ndarray
    delta_concomitant: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z_sorted, dtype=np.float64)
        d = np.asarray(self.delta_concomitant)
        if z.ndim != 1 or d.ndim != 1:
            raise ValidationError("sample arrays must be one-dimensional")
        if z.size != d.size:
            raise ValidationError(
                f"length mismatch: {z.size} observed values, {d.size} flags"
            )
        if z.size == 0:
            raise ValidationError("at least one observation is required")
        d = _check_rows(z, d).astype(np.int64)
        z = z.copy()
        z.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "z_sorted", z)
        object.__setattr__(self, "delta_concomitant", d)

    @property
    def n(self) -> int:
        """Number of observations."""
        return int(self.z_sorted.size)

    @classmethod
    def from_unsorted(
        cls, z: np.ndarray, delta: np.ndarray
    ) -> "SortedCensoredSample":
        """Sort raw arrays into a sample, keeping flags attached.

        Records are ordered by ``z`` ascending and, within a tie, by
        ``delta`` descending, so any permutation of the input rows gives
        the same sample.  :func:`_sort_rows` sorts and checks copies, so
        the caller's arrays are never written.
        """
        z = np.array(z, dtype=np.float64)
        delta = np.array(delta)
        if z.shape != delta.shape or z.ndim != 1:
            raise ValidationError(
                "z and delta must be one-dimensional arrays of equal length"
            )
        return cls(*_sort_rows(z, delta))


@dataclass(frozen=True)
class EstimationSettings:
    """Tuning knobs for premium estimation.

    ``k`` is the number of upper order statistics used, ``rho`` the
    distortion parameter of the proportional hazard premium, and
    ``retention`` either an explicit level or :data:`THRESHOLD` to reuse
    the k-th upper order statistic.
    """

    k: int
    rho: float
    retention: Union[float, str] = THRESHOLD

    def __post_init__(self) -> None:
        if not _is_integer(self.k):
            raise ValidationError(f"k must be an integer, got {self.k!r}")
        _check_numbers(rho=self.rho, retention=self.retention)
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "rho", float(self.rho))
        if isinstance(self.retention, str):
            if self.retention != THRESHOLD:
                raise ValidationError(
                    f"retention must be a number or {THRESHOLD!r}, "
                    f"got {self.retention!r}"
                )
        else:
            object.__setattr__(self, "retention", float(self.retention))

    @property
    def retention_is_threshold(self) -> bool:
        return isinstance(self.retention, str)


def validate_settings(settings: EstimationSettings, n: int) -> EstimationSettings:
    """Check settings against a sample size, naming the violated bound.

    Returns the settings unchanged when every bound holds, so calls can be
    chained; raises :class:`ValidationError` otherwise.
    """
    if n < 2:
        raise ValidationError(f"sample size must be at least 2, got n={n}")
    _check_k(settings.k, n)
    if not 1.0 <= settings.rho < np.inf:
        raise ValidationError(f"rho must be >= 1, got rho={settings.rho}")
    if not (settings.retention_is_threshold or 0.0 < settings.retention < np.inf):
        raise ValidationError(
            f"retention must be > 0, got retention={settings.retention}"
        )
    return settings
