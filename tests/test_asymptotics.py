"""Normal-limit mean/variance, normalization, confidence intervals."""

import math
import warnings
from statistics import NormalDist

import pytest
from scipy.special import ndtri

from tailpremium import (
    AsymptoticParams,
    DomainError,
    NormalLimit,
    PremiumEstimate,
    ValidationError,
    asym_mean,
    asym_variance,
    confidence_interval,
    normalization_factor,
)

from helpers import mp_asym_mean, mp_asym_variance


def make_estimate(value):
    return PremiumEstimate(
        value=value, rho=1.0, retention=2.0, k=100, km_at_threshold=0.5
    )


class TestAsymptoticParams:
    def test_defaults(self):
        params = AsymptoticParams(gamma1=0.1, p=0.4, rho=1.0)
        assert params.tau1 == 0.0
        assert params.lambda1 == 0.0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(gamma1=0.0, p=0.4, rho=1.0), "gamma1"),
            (dict(gamma1=0.1, p=0.0, rho=1.0), "p must"),
            (dict(gamma1=0.1, p=1.2, rho=1.0), "p must"),
            (dict(gamma1=0.1, p=0.4, rho=0.9), "rho must"),
            (dict(gamma1=float("inf"), p=0.4, rho=1.0), "gamma1"),
            (dict(gamma1=0.1, p=0.4, rho=1.0, tau1=0.1), "tau1"),
            (dict(gamma1=0.1, p=0.4, rho=float("nan")), "rho must"),
            (dict(gamma1=0.1, p=0.4, rho=1.0, lambda1=float("nan")), "lambda1"),
            (dict(gamma1=0.1, p=0.4, rho=1.0, lambda1=float("inf")), "lambda1"),
            (dict(gamma1=0.1, p=0.4, rho=1.0, tau1=-float("inf")), "tau1 must be fin"),
            (dict(gamma1=0.1, p=0.4, rho=1.0, tau1=float("nan")), "tau1 must be fin"),
            (dict(gamma1=0.1, p=0.4, rho=float("inf")), "rho must"),
            (dict(gamma1=0.1, p=1.0000000000000002, rho=1.0), "p must"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            AsymptoticParams(**kwargs)

    @pytest.mark.parametrize("field", ["gamma1", "p", "rho", "tau1", "lambda1"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_a_bool_for_a_number(self, field, flag):
        # Every field a bool could pass as a number: p = True would be 1.0,
        # tau1 = lambda1 = False would be 0.0.
        kwargs = {"gamma1": 0.1, "p": 0.4, "rho": 1.0, field: flag}
        with pytest.raises(ValidationError) as caught:
            AsymptoticParams(**kwargs)
        assert str(caught.value) == (
            f"{field} must be a number, not a bool, got {flag!r}"
        )


class TestDivergentPremium:
    """rho * gamma1 >= 1 is one DomainError whichever function meets it."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: AsymptoticParams(gamma1=0.5, p=0.4, rho=2.0),
            lambda: asym_variance(0.5, 0.4, 2.0),
            lambda: normalization_factor(2.0, 1.0, 0.1, 0.5, 2.0),
        ],
        ids=["params", "variance", "normalization"],
    )
    def test_is_a_domain_error(self, call):
        message = "^rho \\* gamma1 must be < 1, got 1$"
        with pytest.raises(DomainError, match=message):
            call()


class TestAsymMean:
    def test_zero_lambda_gives_zero(self):
        params = AsymptoticParams(gamma1=0.1, p=0.4, rho=1.0, tau1=-0.25)
        assert asym_mean(params) == 0.0

    def test_hand_value(self):
        params = AsymptoticParams(
            gamma1=0.1, p=0.4, rho=1.0, tau1=-0.25, lambda1=1.0
        )
        assert asym_mean(params) == pytest.approx(0.156150, abs=1e-6)

    def test_linear_in_lambda(self):
        base = AsymptoticParams(
            gamma1=0.12, p=0.55, rho=1.05, tau1=-0.3, lambda1=0.7
        )
        mu = asym_mean(base)
        for c in (2.0, 4.0, 0.5):
            scaled = AsymptoticParams(
                gamma1=0.12, p=0.55, rho=1.05, tau1=-0.3, lambda1=c * 0.7
            )
            assert asym_mean(scaled) == c * mu

    def test_singular_factor_named(self):
        params = AsymptoticParams(gamma1=0.1, p=0.4, rho=1.9, lambda1=1.0)
        with pytest.raises(DomainError, match="vanishes"):
            asym_mean(params)

    def test_second_singular_factor_named(self):
        # 2 - 1.5 - 0.5 is exactly 0; tau1 keeps the first factor at -0.5.
        params = AsymptoticParams(
            gamma1=0.5, p=0.4, rho=1.5, tau1=-0.5, lambda1=1.0
        )
        with pytest.raises(DomainError, match=r"\(2 - rho - gamma1\) vanishes"):
            asym_mean(params)

    @pytest.mark.parametrize("rho", [1.1, 1.5])
    @pytest.mark.parametrize(
        "gamma1, p, tau1, lambda1",
        [(0.1, 0.6, -0.25, 1.0), (0.25, 0.7, -0.5, -0.3), (0.4, 0.8, 0.0, 2.0)],
    )
    def test_printed_formula_off_rho_one(self, gamma1, p, rho, tau1, lambda1):
        params = AsymptoticParams(
            gamma1=gamma1, p=p, rho=rho, tau1=tau1, lambda1=lambda1
        )
        want = mp_asym_mean(gamma1, p, rho, tau1, lambda1)
        assert asym_mean(params) == pytest.approx(want, rel=1e-13)


class TestAsymVariance:
    def test_hand_value_positive_case(self):
        assert asym_variance(0.1, 0.4, 1.0) == pytest.approx(0.0072916, abs=1e-6)

    def test_hand_value_negative_case(self):
        value = asym_variance(0.1, 0.8, 1.0)
        assert value == pytest.approx(-0.0023228, abs=1e-6)
        assert value < 0.0

    def test_vanishes_with_gamma(self):
        assert asym_variance(1e-9, 0.4, 1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("rho", [1.1, 1.5])
    @pytest.mark.parametrize(
        "gamma1, p", [(0.1, 0.6), (0.25, 0.7), (0.4, 0.8), (0.5, 0.3)]
    )
    def test_printed_formula_off_rho_one(self, gamma1, p, rho):
        want = mp_asym_variance(gamma1, p, rho)
        assert asym_variance(gamma1, p, rho) == pytest.approx(want, rel=1e-13)

    def test_rejects_p_zero(self):
        with pytest.raises(DomainError, match="p = 0"):
            asym_variance(0.1, 0.0, 1.0)

    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValidationError, match="p must"):
            asym_variance(0.1, 1.5, 1.0)

    def test_rejects_heavy_tail(self):
        with pytest.raises(DomainError, match="rho \\* gamma1"):
            asym_variance(0.95, 0.4, 1.1)

    @pytest.mark.parametrize(
        "gamma1, rho, message",
        [
            (float("nan"), 1.0, "gamma1"),
            (0.0, 1.0, "gamma1"),
            (-0.1, 1.0, "gamma1"),
            (0.1, float("nan"), "rho"),
            (0.1, 0.9, "rho"),
        ],
    )
    def test_rejects_what_the_params_reject(self, gamma1, rho, message):
        with pytest.raises(ValidationError, match=message):
            AsymptoticParams(gamma1=gamma1, p=0.4, rho=rho)
        with pytest.raises(ValidationError, match=message):
            asym_variance(gamma1, 0.4, rho)

    @pytest.mark.parametrize(
        "args, field",
        [
            ((True, 0.4, 1.0), "gamma1"),
            ((0.1, True, 1.0), "p"),
            ((0.1, 0.4, True), "rho"),
        ],
    )
    def test_rejects_a_bool_for_a_number(self, args, field):
        # p = True and rho = True would pass as 1.0.
        with pytest.raises(ValidationError, match=f"^{field} must be a number"):
            asym_variance(*args)


class TestNormalizationFactor:
    def test_hand_value(self):
        assert normalization_factor(2.0, 1.0, 0.04, 0.1, 1.0) == pytest.approx(
            7.8125e-5, rel=1e-12
        )

    def test_retention_at_h(self):
        # power factor collapses to 1
        assert normalization_factor(3.0, 3.0, 0.2, 0.1, 2.0) == pytest.approx(
            3.0 * 0.2**0.5, rel=1e-12
        )

    def test_degree_one_homogeneity(self):
        base = normalization_factor(2.0, 1.5, 0.1, 0.2, 1.1)
        for c in (0.25, 8.0):
            scaled = normalization_factor(2.0 * c, 1.5 * c, 0.1, 0.2, 1.1)
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_rejects_non_positive_inputs_by_name(self):
        with pytest.raises(ValidationError, match="retention"):
            normalization_factor(0.0, 1.0, 0.1, 0.1, 1.0)
        with pytest.raises(ValidationError, match="survival_at_h"):
            normalization_factor(1.0, 1.0, 0.0, 0.1, 1.0)

    def test_rejects_heavy_tail(self):
        with pytest.raises(DomainError, match="rho \\* gamma1"):
            normalization_factor(2.0, 1.0, 0.1, 0.95, 1.1)

    def test_overflow_guard(self):
        # (1e-3 / 1005) ** (-1 / 3.98e-4) is far past the float range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="premium overflows the float range"):
                normalization_factor(1e-3, 1005.0, 1.0, 3.98e-4, 1.0)

    def test_overflow_names_rho_times_gamma1(self):
        with pytest.raises(DomainError) as raised:
            normalization_factor(1e-3, 1005.0, 1.0, 1e-4, 2.0)
        assert raised.value.reason == "premium_overflow"
        assert str(raised.value).endswith("rho * gamma1=0.0002")


class TestGaussianQuantile:
    """The interval's half-width is the normal quantile of ``(1 + level)/2``."""

    @staticmethod
    def quantile(level):
        # normalization * sigma / sqrt(k) = 3 * 0.2 / 10 scales the quantile
        limit = NormalLimit(mu=0.2, sigma2=0.04, normalization=3.0)
        lo, hi = confidence_interval(make_estimate(5.0), limit, 100, level)
        return (hi - lo) / 2.0 / (3.0 * 0.2 / 10.0)

    def test_reference_values(self):
        assert self.quantile(0.95) == pytest.approx(ndtri(0.975), rel=1e-12)
        assert self.quantile(0.95) == pytest.approx(1.959963984540054, abs=1e-9)
        for level in (0.5, 0.9, 0.99):
            assert self.quantile(level) == pytest.approx(
                NormalDist().inv_cdf((1.0 + level) / 2.0), rel=1e-12
            )
        assert self.quantile(0.0) == 0.0
        # the largest level below 1 rounds (1 + level)/2 up to 1
        assert self.quantile(math.nextafter(1.0, 0.0)) == math.inf

    def test_symmetry(self):
        assert self.quantile(0.4) == pytest.approx(
            -NormalDist().inv_cdf(0.3), rel=1e-12
        )

    def test_rejects_out_of_range(self):
        limit = NormalLimit(mu=0.0, sigma2=0.01, normalization=1.0)
        for level in (-1.0, -0.5, 1.0, 1.5):
            with pytest.raises(ValidationError, match="level"):
                confidence_interval(make_estimate(5.0), limit, 100, level)


class TestConfidenceInterval:
    def test_hand_value(self):
        limit = NormalLimit(mu=0.0, sigma2=0.0072916, normalization=1.0)
        lo, hi = confidence_interval(make_estimate(5.0), limit, 100, 0.95)
        assert lo == pytest.approx(4.983263, abs=1e-6)
        assert hi == pytest.approx(5.016737, abs=1e-6)

    def test_bias_correction_shifts_center(self):
        limit = NormalLimit(mu=0.5, sigma2=0.01, normalization=2.0)
        lo, hi = confidence_interval(make_estimate(5.0), limit, 25, 0.9)
        center = 5.0 - 2.0 * 0.5 / math.sqrt(25)
        assert (lo + hi) / 2 == pytest.approx(center, rel=1e-12)
        assert lo < center < hi

    def test_level_zero_degenerates(self):
        limit = NormalLimit(mu=0.3, sigma2=0.01, normalization=1.0)
        lo, hi = confidence_interval(make_estimate(5.0), limit, 100, 0.0)
        assert lo == hi == pytest.approx(5.0 - 0.3 / 10.0, rel=1e-12)

    def test_rejects_non_positive_variance(self):
        for sigma2 in (-0.0023228, 0.0):
            limit = NormalLimit(mu=0.0, sigma2=sigma2, normalization=1.0)
            with pytest.raises(DomainError, match="non-positive"):
                confidence_interval(make_estimate(5.0), limit, 100, 0.95)

    def test_rejects_bad_level_and_k(self):
        limit = NormalLimit(mu=0.0, sigma2=0.01, normalization=1.0)
        with pytest.raises(ValidationError, match="level"):
            confidence_interval(make_estimate(5.0), limit, 100, 1.0)
        with pytest.raises(ValidationError, match="k must"):
            confidence_interval(make_estimate(5.0), limit, 0, 0.95)

    def test_one_top_order_statistic_is_enough(self):
        # k = 1, the smallest k the chain allows, scales by 1/sqrt(1).
        limit = NormalLimit(mu=0.5, sigma2=0.04, normalization=2.0)
        lo, hi = confidence_interval(make_estimate(5.0), limit, 1, 0.0)
        assert lo == hi == 4.0

    def test_normal_limit_rejects_bad_normalization(self):
        with pytest.raises(ValidationError, match="normalization"):
            NormalLimit(mu=0.0, sigma2=0.01, normalization=0.0)
