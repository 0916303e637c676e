"""Normal-limit mean/variance, normalization, confidence intervals."""

import math

import pytest

from tailpremium import (
    AsymptoticParams,
    DomainError,
    NormalLimit,
    PremiumEstimate,
    ValidationError,
    asym_mean,
    asym_variance,
    confidence_interval,
    gaussian_quantile,
    normalization_factor,
)


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
            (dict(gamma1=0.5, p=0.4, rho=2.0), "rho \\* gamma1"),
            (dict(gamma1=0.1, p=0.4, rho=1.0, tau1=0.1), "tau1"),
            (dict(gamma1=0.1, p=0.4, rho=float("nan")), "rho must"),
            (dict(gamma1=0.1, p=0.4, rho=1.0, lambda1=float("nan")), "lambda1"),
            (dict(gamma1=0.1, p=0.4, rho=1.0, lambda1=float("inf")), "lambda1"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            AsymptoticParams(**kwargs)


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


class TestAsymVariance:
    def test_hand_value_positive_case(self):
        assert asym_variance(0.1, 0.4, 1.0) == pytest.approx(0.0072916, abs=1e-6)

    def test_hand_value_negative_case(self):
        value = asym_variance(0.1, 0.8, 1.0)
        assert value == pytest.approx(-0.0023228, abs=1e-6)
        assert value < 0.0

    def test_vanishes_with_gamma(self):
        assert asym_variance(1e-9, 0.4, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_p_zero(self):
        with pytest.raises(DomainError, match="p = 0"):
            asym_variance(0.1, 0.0, 1.0)

    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValidationError, match="p must"):
            asym_variance(0.1, 1.5, 1.0)

    def test_rejects_heavy_tail(self):
        with pytest.raises(DomainError, match="rho \\* gamma1"):
            asym_variance(0.95, 0.4, 1.1)


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


class TestGaussianQuantile:
    def test_reference_values(self):
        assert gaussian_quantile(0.975) == pytest.approx(
            1.959963984540054, abs=1e-9
        )
        assert gaussian_quantile(0.5) == 0.0

    def test_symmetry(self):
        assert gaussian_quantile(0.3) == pytest.approx(
            -gaussian_quantile(0.7), rel=1e-12
        )

    def test_rejects_out_of_range(self):
        for q in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError, match="quantile"):
                gaussian_quantile(q)


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

    def test_normal_limit_rejects_bad_normalization(self):
        with pytest.raises(ValidationError, match="normalization"):
            NormalLimit(mu=0.0, sigma2=0.01, normalization=0.0)
