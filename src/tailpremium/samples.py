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

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ValidationError

# Sentinel for EstimationSettings.retention: use the k-th upper order
# statistic of the sample as the retention level.
THRESHOLD = "threshold"


@dataclass(frozen=True)
class CensoredObservation:
    """A single claim record: observed amount and censoring indicator.

    Parameters
    ----------
    z : float
        Observed value, the minimum of the true loss and the censoring
        level.  Must be finite and non-negative.
    delta : int
        1 if the loss itself was observed, 0 if the record is censored.
    """

    z: float
    delta: int

    def __post_init__(self) -> None:
        z = float(self.z)
        if not np.isfinite(z) or z < 0.0:
            raise ValidationError(
                f"observed value must be finite and >= 0, got {self.z!r}"
            )
        if self.delta not in (0, 1):
            raise ValidationError(
                f"censoring indicator must be 0 or 1, got {self.delta!r}"
            )
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "delta", int(self.delta))


@dataclass(frozen=True)
class SortedCensoredSample:
    """Order statistics of the observed values with concomitant flags.

    ``z_sorted`` is non-decreasing and ``delta_concomitant[i]`` is the
    censoring indicator that arrived with ``z_sorted[i]``.  Within a run of
    equal values the flags are non-increasing: uncensored records come
    before censored ones.  Both arrays are read-only; build instances
    through :func:`build_sorted_sample` or :meth:`from_unsorted`.
    """

    z_sorted: np.ndarray
    delta_concomitant: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z_sorted, dtype=np.float64)
        d = np.asarray(self.delta_concomitant, dtype=np.int64)
        if z.ndim != 1 or d.ndim != 1:
            raise ValidationError("sample arrays must be one-dimensional")
        if z.size != d.size:
            raise ValidationError(
                f"length mismatch: {z.size} observed values, {d.size} flags"
            )
        if z.size == 0:
            raise ValidationError("at least one observation is required")
        if not np.all(np.isfinite(z)) or np.any(z < 0.0):
            raise ValidationError("observed values must be finite and >= 0")
        if np.any(z[1:] < z[:-1]):
            raise ValidationError("observed values must be sorted ascending")
        if not ((d == 0) | (d == 1)).all():
            raise ValidationError("censoring indicators must be 0 or 1")
        if np.any((z[1:] == z[:-1]) & (d[1:] > d[:-1])):
            raise ValidationError(
                "tied observed values must list uncensored records first"
            )
        z = z.copy()
        d = d.copy()
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
        the same sample.
        """
        z = np.asarray(z, dtype=np.float64)
        delta = np.asarray(delta, dtype=np.int64)
        if z.shape != delta.shape or z.ndim != 1:
            raise ValidationError(
                "z and delta must be one-dimensional arrays of equal length"
            )
        order = np.lexsort((-delta, z))
        return cls(z[order], delta[order])


ObservationLike = Union[CensoredObservation, Sequence]


def build_sorted_sample(observations: Iterable[ObservationLike]) -> SortedCensoredSample:
    """Validate and sort claim records into a :class:`SortedCensoredSample`.

    Parameters
    ----------
    observations : iterable
        :class:`CensoredObservation` instances or ``(z, delta)`` pairs.

    Returns
    -------
    SortedCensoredSample
        Records sorted ascending by ``z`` with uncensored records first
        within a tie, as :meth:`SortedCensoredSample.from_unsorted` does.
    """
    records = []
    for item in observations:
        if isinstance(item, CensoredObservation):
            records.append(item)
        else:
            try:
                z, delta = item
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"cannot interpret {item!r} as a (z, delta) pair"
                ) from exc
            records.append(CensoredObservation(z, delta))
    if not records:
        raise ValidationError("at least one observation is required")
    z = np.array([r.z for r in records], dtype=np.float64)
    d = np.array([r.delta for r in records], dtype=np.int64)
    return SortedCensoredSample.from_unsorted(z, d)


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
        if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool):
            raise ValidationError(f"k must be an integer, got {self.k!r}")
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
    if not 1 <= settings.k < n:
        raise ValidationError(
            f"k must satisfy 1 <= k < n, got k={settings.k} with n={n}"
        )
    if settings.rho < 1.0:
        raise ValidationError(f"rho must be >= 1, got rho={settings.rho}")
    if not settings.retention_is_threshold and settings.retention <= 0.0:
        raise ValidationError(
            f"retention must be > 0, got retention={settings.retention}"
        )
    return settings
