"""Parametric heavy-tail models, censored sampling, and exact premiums.

Two power-law families are provided: the Burr distribution, whose survival
``(1 + x**(eta/gamma))**(-1/eta)`` has tail index ``gamma`` and second-order
parameter ``-eta``, and the exact Pareto, used as a closed-form oracle.
Both know their proportional-hazard layer premium in closed form.
A :class:`CensoringScheme` couples a loss model with an independent
censoring model and knows the population quantities of the observed
minimum: the uncensored share and the intermediate threshold matching a
top fraction ``k/n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Tuple, Union, runtime_checkable

import numpy as np

from .errors import _CODE, DomainError, ValidationError, _failure
from .samples import _check_k, _check_positive, _is_integer

ArrayLike = Union[float, np.ndarray]


@runtime_checkable
class HeavyTailModel(Protocol):
    """Anything with a power-law tail: survival, its inverse, an index."""

    @property
    def tail_index(self) -> float: ...

    @property
    def support_lower(self) -> float: ...

    def survival(self, x: ArrayLike) -> ArrayLike: ...

    def quantile_of_survival(self, s: ArrayLike, out=None) -> ArrayLike:
        """The level whose survival is ``s``, for ``s`` in (0, 1].

        With ``out``, an array shaped like ``s`` (it may be ``s`` itself),
        the quantiles are written into it and it is returned.  A scalar
        ``s`` gives a float, bitwise the quantile of a one-element array.
        """

    def second_order_rate(self, t: ArrayLike) -> ArrayLike: ...

    def premium(self, rho: float, retention: ArrayLike) -> ArrayLike:
        """Layer premium ``integral_R^inf survival(x)**(1/rho) dx``.

        Implementations raise ``ValidationError`` unless ``rho`` and every
        retention are finite and > 0, and ``DomainError`` when
        ``rho * tail_index >= 1`` (divergent integral).
        """


def _match(x, out: np.ndarray):
    """Return a float for scalar input, the array otherwise."""
    return float(out) if np.ndim(x) == 0 else out


def _survival_levels(s: ArrayLike, out=None) -> np.ndarray:
    """``s``, checked to lie in (0, 1], in a float64 array the caller may
    write: ``out`` (which may be ``s`` itself) if given, else a copy."""
    levels = np.asarray(s, dtype=np.float64)
    if not (np.all(levels > 0.0) and np.all(levels <= 1.0)):
        raise DomainError("survival level must lie in (0, 1]")
    if out is None:
        return levels.copy()
    if out is not levels:
        np.copyto(out, levels)
    return out


@dataclass(frozen=True)
class BurrModel:
    """Burr distribution with survival ``(1 + x**(eta/gamma))**(-1/eta)``.

    ``gamma`` is the tail index; ``eta`` controls how fast the power-law
    approximation kicks in.  The second-order parameter is ``-eta`` and the
    second-order rate function is ``gamma * t**(-eta/gamma)``.
    """

    gamma: float
    eta: float

    def __post_init__(self) -> None:
        _check_positive(gamma=self.gamma, eta=self.eta)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "eta", float(self.eta))

    @property
    def tail_index(self) -> float:
        return self.gamma

    @property
    def support_lower(self) -> float:
        return 0.0

    def survival(self, x: ArrayLike) -> ArrayLike:
        xs = np.asarray(x, dtype=np.float64)
        if not np.all(xs >= 0.0):
            raise DomainError("Burr survival requires x >= 0")
        big, log_t = self._log_t(xs)
        power = np.where(big, 0.0, xs) ** (self.eta / self.gamma)
        out = np.where(
            big, np.exp(log_t / self.eta), (1.0 + power) ** (-1.0 / self.eta)
        )
        return _match(x, out)

    def _log_t(self, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(big, log t)`` for ``t = 1/(1 + x**(eta/gamma))``, free of overflow.

        ``big`` marks ``x**(eta/gamma) > e**700``, near the largest double."""
        with np.errstate(divide="ignore"):
            log_power = self.eta / self.gamma * np.log(xs)
        return log_power > 700.0, -np.logaddexp(0.0, log_power)

    def quantile_of_survival(self, s: ArrayLike, out=None) -> ArrayLike:
        """``(s**(-eta) - 1)**(gamma/eta)``, worked in place on
        :func:`_survival_levels`, so into ``out`` if given."""
        out = _survival_levels(s, out)
        out **= -self.eta
        out -= 1.0
        out **= self.gamma / self.eta
        return _match(s, out)

    def second_order_rate(self, t: ArrayLike) -> ArrayLike:
        """Rate function ``gamma * t**(-eta/gamma)`` of the tail expansion."""
        ts = np.asarray(t, dtype=np.float64)
        if not np.all(ts > 0.0):
            raise DomainError("second-order rate requires t > 0")
        out = self.gamma * ts ** (-self.eta / self.gamma)
        return _match(t, out)

    def premium(self, rho: float, retention: ArrayLike) -> ArrayLike:
        """Layer premium ``integral_R^inf survival(x)**(1/rho) dx``.

        Substituting ``t = 1/(1 + x**(eta/gamma))`` turns the integral into
        ``b * B_t(a-b, b)``, the unregularised incomplete beta function,
        with ``a = 1/(eta*rho)``, ``b = gamma/eta`` and ``t`` taken at ``R``;
        ``a > b`` is exactly ``rho * gamma < 1``.  :func:`_lower_beta`
        evaluates it by its continued fraction and is handed ``1 - t`` as
        ``R**(eta/gamma) * t``, exact even below the knee, where ``t``
        rounds to 1.  Where ``t < 1e-300`` the leading term
        ``b/(a-b) * t**(a-b)``, taken in log space, is exact to double
        precision, and the fraction is not run.  Raises ``DomainError``
        when the fraction of any retention has not converged.
        """
        out = self._premium_entries(rho, retention)
        if np.isnan(out).any():
            b = self.gamma / self.eta
            p = 1.0 / (self.eta * rho) - b
            raise _failure(_CODE["premium_not_converged"], p=p, q=b, terms=_BETA_TERMS)
        return _match(retention, out)

    def _premium_entries(self, rho: float, retention: ArrayLike) -> np.ndarray:
        """:meth:`premium` as an array, NaN where the fraction did not converge.

        Checks the parameters as :meth:`premium` does.
        """
        _check_premium_params(self, rho, retention)
        a = 1.0 / (self.eta * rho)
        b = self.gamma / self.eta
        rs = np.asarray(retention, dtype=np.float64).ravel()
        big, log_t = self._log_t(rs)
        out = b / (a - b) * np.exp((a - b) * log_t)
        power = rs[~big] ** (self.eta / self.gamma)
        t = 1.0 / (1.0 + power)
        out[~big] = b * _lower_beta(a - b, b, t, power * t)
        return out.reshape(np.shape(retention))


# Continued-fraction terms _lower_beta evaluates before giving up.  The
# count grows with p and q and peaks at the mirror cut: 16 terms at the
# Table-1 (p, q) = (3.6, 0.4), 35 at (350, 150), 297 at (1e6, 1e5).
_BETA_TERMS = 1000
# Floor of the modified Lentz method for a vanishing denominator.
_LENTZ_TINY = 1e-300


def _lower_beta(p: float, q: float, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Unregularised incomplete beta ``B_t(p, q)``, given ``s = 1 - t`` exactly.

    ``t`` and ``s`` are 1-D arrays.  The continued fraction of
    ``B_x(a, b) = x**a (1-x)**b / a * cf`` runs by the modified Lentz
    method (DiDonato & Morris 1992).  It converges fast for
    ``x < (a+1)/(a+b+2)``; an element past that cut runs the fraction of
    ``B_s(q, p)`` instead and is mirrored through the complete
    ``B(p, q)``.  Both sides share the front ``t**p * s**q``.  Each element
    stops at its own first step within 2**-53 of 1, which only 1.0 itself
    is, so its value does not depend on the other elements of the array;
    one still running after ``_BETA_TERMS`` terms is NaN.
    """
    mirror = t * (p + q + 2.0) >= p + 1.0
    sides = ((p, q), (q, p))  # (a, b) of the fraction each side runs
    side, x = mirror.astype(np.intp), np.where(mirror, s, t)
    d = 1.0 - np.array([(a + b) / (a + 1.0) for a, b in sides])[side] * x
    h = 1.0 / _lentz_floor(d)
    # Rows d and 1/c of the modified Lentz method for the elements still
    # running: its updates d' = 1/(1 + num*d) and c' = 1 + num/c are both
    # 1/(1 + num*row) on these rows.
    dc = np.ones((2, x.size))
    dc[0] = h
    live = np.arange(x.size)
    cf = np.full_like(x, np.nan)
    m = 0
    while live.size and m < _BETA_TERMS:
        m += 1
        for num in (
            [m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m)) for a, b in sides],
            [
                -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))
                for a, b in sides
            ],
        ):
            g = _lentz_floor(1.0 + np.array(num)[side] * x * dc)
            dc = 1.0 / g
            step = dc[0] * g[1]
            h = h * step
        done = step == 1.0
        if np.count_nonzero(done):
            cf[live[done]] = h[done]
            keep = ~done
            side, x, dc, h, live = side[keep], x[keep], dc[:, keep], h[keep], live[keep]
    with np.errstate(divide="ignore"):
        front = np.exp(p * np.log(t) + q * np.log(s))
    out = front * cf / np.where(mirror, q, p)
    if mirror.any():
        complete = math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))
        out = np.where(mirror, complete - out, out)
    return out


def _lentz_floor(v: np.ndarray) -> np.ndarray:
    """``v`` with magnitudes below ``_LENTZ_TINY`` raised to it, sign kept."""
    return np.copysign(np.maximum(np.abs(v), _LENTZ_TINY), v)


@dataclass(frozen=True)
class ParetoModel:
    """Exact Pareto with survival ``(x / x_min)**(-1/gamma)`` on ``x >= x_min``.

    A pure power law: the second-order rate is identically zero, which
    makes it the closed-form oracle for every tail formula in the package.
    """

    gamma: float
    x_min: float = 1.0

    def __post_init__(self) -> None:
        _check_positive(gamma=self.gamma, x_min=self.x_min)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "x_min", float(self.x_min))

    @property
    def tail_index(self) -> float:
        return self.gamma

    @property
    def support_lower(self) -> float:
        return self.x_min

    def survival(self, x: ArrayLike) -> ArrayLike:
        xs = np.asarray(x, dtype=np.float64)
        if not np.all(xs >= self.x_min):
            raise DomainError(
                f"Pareto survival requires x >= x_min ({self.x_min:g})"
            )
        out = (xs / self.x_min) ** (-1.0 / self.gamma)
        return _match(x, out)

    def quantile_of_survival(self, s: ArrayLike, out=None) -> ArrayLike:
        """``x_min * s**(-gamma)``, worked in place on
        :func:`_survival_levels`, so into ``out`` if given."""
        out = _survival_levels(s, out)
        out **= -self.gamma
        out *= self.x_min
        return _match(s, out)

    def second_order_rate(self, t: ArrayLike) -> ArrayLike:
        ts = np.asarray(t, dtype=np.float64)
        if not np.all(ts > 0.0):
            raise DomainError("second-order rate requires t > 0")
        return _match(t, np.zeros_like(ts))

    def premium(self, rho: float, retention: ArrayLike) -> ArrayLike:
        """Layer premium ``integral_R^inf survival(x)**(1/rho) dx``.

        The survival is 1 below ``x_min``, which contributes
        ``max(x_min - R, 0)``; above it the Karamata form
        ``rho/(1/gamma - rho) * x * survival(x)**(1/rho)`` at
        ``x = max(R, x_min)`` is exact.
        """
        _check_premium_params(self, rho, retention)
        rs = np.asarray(retention, dtype=np.float64)
        top = np.maximum(rs, self.x_min)
        tail = top * self.survival(top) ** (1.0 / rho)
        return _match(retention, top - rs + rho / (1.0 / self.gamma - rho) * tail)


def _survival_from_support(model: HeavyTailModel, x: ArrayLike) -> ArrayLike:
    """Survival extended below the support by 1 (no mass down there)."""
    xs = np.asarray(x, dtype=np.float64)
    return model.survival(np.maximum(xs, model.support_lower))


def gamma2_from_p(gamma1: float, p: float) -> float:
    """Censoring tail index giving an asymptotic uncensored share ``p``.

    Solves ``p = gamma2 / (gamma1 + gamma2)`` for ``gamma2``; plugging the
    result back reproduces ``p`` exactly.
    """
    _check_positive(gamma1=gamma1)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie strictly in (0, 1), got {p!r}")
    return p * gamma1 / (1.0 - p)


@dataclass(frozen=True)
class CensoringScheme:
    """A loss model observed through an independent censoring model.

    The recorded value is the minimum of a loss ``X`` and a censoring
    variable ``Y``; the flag says which one was smaller.  With tail indices
    ``gamma1`` (loss) and ``gamma2`` (censor), the minimum has tail index
    ``gamma1 * gamma2 / (gamma1 + gamma2)`` and the share of uncensored
    records in the far tail tends to ``gamma2 / (gamma1 + gamma2)``.
    """

    loss_model: HeavyTailModel
    censor_model: HeavyTailModel

    @property
    def uncensored_share(self) -> float:
        """Asymptotic share of uncensored records, in (0, 1)."""
        g1 = self.loss_model.tail_index
        g2 = self.censor_model.tail_index
        return g2 / (g1 + g2)

    def observed_survival(self, x: ArrayLike) -> ArrayLike:
        """Survival of the observed minimum, the product of both tails."""
        return _survival_from_support(self.loss_model, x) * _survival_from_support(
            self.censor_model, x
        )

    def sample_arrays(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` censored records as raw arrays ``(z, delta)``.

        Inverse-transform sampling, ``records(draw(n, rng))``: a given
        stream always yields the same records.
        """
        return self.records(self.draw(n, rng))

    @staticmethod
    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        """The uniforms behind ``n`` records, shape ``(2, n)``.

        The first ``n`` uniforms of the stream drive the losses, the next
        ``n`` the censoring variables.
        """
        if not _is_integer(n) or n < 1:
            raise ValidationError(f"n must be an integer >= 1, got {n!r}")
        return rng.random((2, int(n)))

    def records(
        self, uniforms: np.ndarray, out=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Censored records ``(z, delta)`` driven by uniforms of shape ``(..., 2, n)``.

        ``uniforms[..., 0, :]`` drive the losses and ``uniforms[..., 1, :]``
        the censoring variables, each mapped through ``1 - u`` into (0, 1]
        where the survival quantile is defined.  Elementwise, so a stack of
        draws gives a stack of samples, each equal to its own transform.
        Without ``out`` the uniforms are left as they are and the records
        are new arrays.  With ``out``, an int64 array shaped like
        ``uniforms[..., 0, :]``, the transform runs in place: ``delta`` is
        written into ``out``, ``z`` over the loss half of ``uniforms``, and
        the censor half is left as scratch.
        """
        levels = np.subtract(1.0, uniforms, out=None if out is None else uniforms)
        x, y = levels[..., 0, :], levels[..., 1, :]
        self.loss_model.quantile_of_survival(x, out=x)
        self.censor_model.quantile_of_survival(y, out=y)
        if out is None:
            out = np.empty(x.shape, np.int64)
        np.less_equal(x, y, out=out)
        return np.minimum(x, y, out=x), out


def burr_scheme(gamma1: float, p: float, eta: float) -> CensoringScheme:
    """Burr loss censored by an independent Burr with uncensored share ``p``.

    Both components share the shape ``eta``; the censor's tail index is
    picked by :func:`gamma2_from_p`.
    """
    return CensoringScheme(
        loss_model=BurrModel(gamma=gamma1, eta=eta),
        censor_model=BurrModel(gamma=gamma2_from_p(gamma1, p), eta=eta),
    )


def _check_premium_params(
    model: HeavyTailModel, rho: float, retention: ArrayLike
) -> None:
    _check_positive(rho=rho)
    rs = np.asarray(retention, dtype=np.float64)
    if not np.all(np.isfinite(rs) & (rs > 0.0)):
        raise ValidationError(f"retention must be > 0, got {retention!r}")
    product = rho * model.tail_index
    if product >= 1.0:
        raise _failure(
            _CODE["divergent_premium"],
            product=product, tail_index=model.tail_index, rho=rho,
        )


def h_threshold(scheme: CensoringScheme, k: int, n: int) -> float:
    """Level whose observed-minimum survival equals ``k/n``.

    Solves ``observed_survival(h) = k/n`` by bisection.  With ``t = k/n``
    and ``q`` each model's ``quantile_of_survival``, the root lies in
    ``[min q(sqrt(t)), min q(t)]``: the observed survival is the product of
    both survivals, each at least ``sqrt(t)`` at the lower end, while one
    of them equals ``t`` at the upper end.  An end is taken as the root
    when rounding puts it on the root's side: the lower one when both
    quantiles agree, the upper one when the other survival is 1 there.
    Otherwise the bracket is halved on the bit patterns of its two
    non-negative doubles, which order like their values, so at most 64
    halvings leave two adjacent doubles; the one nearer the target is the
    root.  The returned root satisfies the defining equation to 1e-10
    relative.
    """
    if not (_is_integer(k) and _is_integer(n)):
        raise ValidationError("k and n must be integers")
    _check_k(k, n)
    target = k / n
    models = (scheme.loss_model, scheme.censor_model)
    lo = min(model.quantile_of_survival(np.sqrt(target)) for model in models)
    hi = min(model.quantile_of_survival(target) for model in models)

    def gap(x: float) -> float:
        return scheme.observed_survival(x) - target

    if gap(lo) <= 0.0:
        root = lo
    elif gap(hi) >= 0.0:
        root = hi
    else:
        low, high = np.array([lo, hi], dtype=np.float64).view(np.int64).tolist()
        while high - low > 1:
            mid = (low + high) // 2
            if gap(np.int64(mid).view(np.float64)) > 0.0:
                low = mid
            else:
                high = mid
        root = min(
            np.array([low, high], dtype=np.int64).view(np.float64).tolist(),
            key=lambda x: abs(gap(x)),
        )
    achieved = scheme.observed_survival(root)
    if abs(achieved - target) > 1e-10 * target:
        raise DomainError(
            f"threshold root finding did not converge on [{lo:g}, {hi:g}]: "
            f"survival at {root:g} is {achieved:g}, target {target:g}"
        )
    return float(root)
