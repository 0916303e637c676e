"""Point estimators: Kaplan-Meier, Hill, censoring correction, premium."""

import math

import numpy as np
import pytest

from helpers import (
    naive_km_at,
    naive_km_at_threshold,
    naive_km_grouped,
    naive_sorted,
    sample_from_pairs,
)
from tailpremium import (
    THRESHOLD,
    DomainError,
    EstimationSettings,
    SortedCensoredSample,
    censored_hill,
    hill_estimator,
    kaplan_meier_survival,
    km_survival_at_threshold,
    php_estimate,
    uncensored_proportion,
    weissman_tail,
)
from tailpremium.models import CensoringScheme, ParetoModel, gamma2_from_p


@pytest.fixture
def censored_triple():
    return sample_from_pairs([(1, 1), (2, 0), (3, 1)])


@pytest.fixture
def uncensored_quad():
    return sample_from_pairs([(1, 1), (2, 1), (3, 1), (4, 1)])


def random_sample(seed, n=120, censored_share=0.4):
    rng = np.random.default_rng(seed)
    z = (1.0 - rng.random(n)) ** -0.2
    delta = (rng.random(n) > censored_share).astype(np.int64)
    return SortedCensoredSample.from_unsorted(z, delta)


class TestKaplanMeier:
    def test_uncensored_triple_is_empirical_survival(self):
        sample = sample_from_pairs([(1, 1), (2, 1), (3, 1)])
        assert kaplan_meier_survival(sample, 2.0) == pytest.approx(1 / 3)

    def test_censored_triple_hand_value(self, censored_triple):
        assert kaplan_meier_survival(censored_triple, 2.5) == pytest.approx(2 / 3)

    def test_below_smallest_observation(self, censored_triple):
        assert kaplan_meier_survival(censored_triple, 0.5) == 1.0

    def test_rejects_at_or_above_maximum(self, censored_triple):
        with pytest.raises(DomainError, match="largest"):
            kaplan_meier_survival(censored_triple, 3.0)
        with pytest.raises(DomainError, match="largest"):
            kaplan_meier_survival(censored_triple, 10.0)

    def test_monotone_non_increasing(self):
        sample = random_sample(7)
        grid = np.linspace(0.0, sample.z_sorted[-1] * 0.999, 60)
        values = [kaplan_meier_survival(sample, x) for x in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_matches_sequential_oracle(self):
        sample = random_sample(11)
        z = sample.z_sorted.tolist()
        d = sample.delta_concomitant.tolist()
        for x in [z[3] * 1.0001, z[50], z[-1] * 0.999]:
            assert kaplan_meier_survival(sample, x) == pytest.approx(
                naive_km_at(z, d, x), rel=1e-12
            )

    def test_tied_hand_value_in_both_row_orders(self):
        # KM(2.5) = (1 - 1/5) * (1 - 1/4): one death among four at risk at 2
        for rows in (
            [(1, 1), (2, 1), (2, 0), (3, 1), (4, 1)],
            [(1, 1), (2, 0), (2, 1), (3, 1), (4, 1)],
        ):
            sample = sample_from_pairs(rows)
            assert kaplan_meier_survival(sample, 2.5) == pytest.approx(0.6, rel=1e-15)
            assert naive_km_grouped(*zip(*rows), 2.5) == pytest.approx(0.6, rel=1e-15)

    def test_matches_grouped_oracle_with_ties(self):
        rng = np.random.default_rng(47)
        z = np.round((1.0 - rng.random(5000)) ** -0.3, 1)
        delta = rng.integers(0, 2, size=5000)
        sample = SortedCensoredSample.from_unsorted(z, delta)
        grid = np.unique(z)[:-1]
        assert grid.size < 4000  # the draw really has ties
        got = kaplan_meier_survival(sample, grid)
        z_raw, delta_raw = z.tolist(), delta.tolist()
        z_sorted, delta_sorted = naive_sorted(z_raw, delta_raw)
        for x, value in zip(grid.tolist(), got.tolist()):
            assert value == pytest.approx(
                naive_km_grouped(z_raw, delta_raw, x), rel=1e-12
            )
            assert value == pytest.approx(
                naive_km_at(z_sorted, delta_sorted, x), rel=1e-12
            )

    def test_array_form_matches_scalar_calls(self):
        sample = random_sample(11)
        grid = np.concatenate(([0.5], sample.z_sorted[:-1]))
        values = kaplan_meier_survival(sample, grid)
        assert isinstance(values, np.ndarray)
        assert values.tolist() == [kaplan_meier_survival(sample, x) for x in grid]
        assert isinstance(kaplan_meier_survival(sample, grid[3]), float)

    def test_array_form_rejects_any_point_at_maximum(self, censored_triple):
        with pytest.raises(DomainError, match="largest"):
            kaplan_meier_survival(censored_triple, np.array([1.5, 3.0]))

    def test_uncensored_equals_empirical_everywhere(self):
        rng = np.random.default_rng(3)
        z = np.sort(rng.pareto(2.0, 50) + 1.0)
        sample = SortedCensoredSample(z, np.ones(50, dtype=np.int64))
        for x in z[:-1]:
            expected = np.mean(z > x)
            assert kaplan_meier_survival(sample, x) == pytest.approx(
                expected, rel=1e-12
            )


class TestKmAtThreshold:
    def test_censored_triple(self, censored_triple):
        assert km_survival_at_threshold(censored_triple, 1) == pytest.approx(2 / 3)

    def test_uncensored_telescopes_to_k_over_n(self):
        sample = sample_from_pairs([(float(i), 1) for i in range(1, 11)])
        assert km_survival_at_threshold(sample, 4) == pytest.approx(0.4, rel=1e-12)

    def test_all_censored_gives_one(self):
        sample = sample_from_pairs([(float(i), 0) for i in range(1, 11)])
        assert km_survival_at_threshold(sample, 4) == 1.0

    def test_k_out_of_range(self, censored_triple):
        with pytest.raises(DomainError, match="k must"):
            km_survival_at_threshold(censored_triple, 3)
        with pytest.raises(DomainError, match="k must"):
            km_survival_at_threshold(censored_triple, 0)

    def test_equals_curve_between_order_statistics(self):
        sample = random_sample(23)
        n = sample.n
        for k in (5, 17, 60):
            x = 0.5 * (sample.z_sorted[n - k - 1] + sample.z_sorted[n - k])
            assert km_survival_at_threshold(sample, k) == kaplan_meier_survival(
                sample, x
            )

    def test_matches_sequential_oracle(self):
        sample = random_sample(29)
        z = sample.z_sorted.tolist()
        d = sample.delta_concomitant.tolist()
        for k in (1, 13, 77):
            assert km_survival_at_threshold(sample, k) == pytest.approx(
                naive_km_at_threshold(z, d, k), rel=1e-12
            )

    def test_large_sample_matches_compensated_log_sum(self):
        n = 200_000
        rng = np.random.default_rng(5)
        sample = SortedCensoredSample.from_unsorted(
            rng.random(n), rng.integers(0, 2, size=n)
        )
        d = sample.delta_concomitant.tolist()
        for k in (10, 1000, 100_000):
            want = math.exp(
                math.fsum(math.log1p(-d[i] / (n - i)) for i in range(n - k))
            )
            assert km_survival_at_threshold(sample, k) == pytest.approx(
                want, rel=1e-10
            )


class TestHill:
    def test_three_point_hand_value(self):
        sample = sample_from_pairs([(1, 1), (math.e, 1), (math.e**2, 1)])
        assert hill_estimator(sample, 2) == pytest.approx(1.5, rel=1e-12)

    def test_equal_values_give_zero(self):
        sample = sample_from_pairs([(2.0, 1)] * 6)
        assert hill_estimator(sample, 3) == 0.0

    def test_single_term(self):
        sample = sample_from_pairs([(1, 1), (2, 1)])
        assert hill_estimator(sample, 1) == pytest.approx(math.log(2), rel=1e-12)

    def test_rejects_non_positive_threshold(self):
        sample = sample_from_pairs([(0, 1), (1, 1), (2, 1)])
        with pytest.raises(DomainError, match="> 0"):
            hill_estimator(sample, 2)

    def test_scale_invariance(self):
        sample = random_sample(13)
        scaled = SortedCensoredSample(
            sample.z_sorted * 37.5, sample.delta_concomitant
        )
        for k in (3, 20, 50):
            assert hill_estimator(scaled, k) == pytest.approx(
                hill_estimator(sample, k), rel=1e-10
            )


class TestUncensoredProportion:
    def test_all_uncensored(self, uncensored_quad):
        assert uncensored_proportion(uncensored_quad, 3) == 1.0

    def test_half(self):
        sample = sample_from_pairs([(1, 1), (2, 0), (3, 1)])
        assert uncensored_proportion(sample, 2) == 0.5

    def test_two_thirds(self):
        sample = sample_from_pairs([(1, 1), (2, 0), (3, 1), (4, 1)])
        assert uncensored_proportion(sample, 3) == pytest.approx(2 / 3)


class TestCensoredHill:
    def test_ratio_hand_value(self):
        sample = sample_from_pairs([(1, 1), (math.e, 0), (math.e**2, 1)])
        estimates = censored_hill(sample, 2)
        assert estimates.gamma_hill == pytest.approx(1.5, rel=1e-12)
        assert estimates.p_hat == 0.5
        assert estimates.gamma1_hat == pytest.approx(3.0, rel=1e-12)

    def test_uncensored_reduces_to_hill(self, uncensored_quad):
        estimates = censored_hill(uncensored_quad, 2)
        assert estimates.p_hat == 1.0
        assert estimates.gamma1_hat == estimates.gamma_hill

    def test_all_censored_top_rejected(self):
        sample = sample_from_pairs([(1, 1), (2, 0), (3, 0)])
        with pytest.raises(DomainError, match="censored"):
            censored_hill(sample, 2)


class TestWeissmanTail:
    def test_base_point_equals_km_anchor(self):
        sample = random_sample(17)
        k = 20
        x = float(sample.z_sorted[sample.n - k - 1])
        assert weissman_tail(sample, k, x) == pytest.approx(
            km_survival_at_threshold(sample, k), rel=1e-12
        )

    def test_four_point_hand_value(self, uncensored_quad):
        # gamma1 = (log 2 + log 1.5)/2, anchor = 1/2, value = 2**(-1/gamma1)/2;
        # reference digits from 40-digit arithmetic.
        assert weissman_tail(uncensored_quad, 2, 4.0) == pytest.approx(
            0.14156352995614, abs=1e-12
        )

    def test_doubling_scales_by_power_law(self):
        sample = random_sample(19)
        k = 25
        gamma1 = censored_hill(sample, k).gamma1_hat
        x = float(sample.z_sorted[sample.n - k - 1]) * 1.5
        ratio = weissman_tail(sample, k, 2 * x) / weissman_tail(sample, k, x)
        assert ratio == pytest.approx(2 ** (-1.0 / gamma1), rel=1e-12)

    def test_rejects_below_threshold(self, uncensored_quad):
        with pytest.raises(DomainError, match="above"):
            weissman_tail(uncensored_quad, 2, 1.5)


class TestPhpEstimate:
    def test_four_point_hand_value(self, uncensored_quad):
        # gamma1/(1 - gamma1) * R * anchor with gamma1 = (log 2 + log 1.5)/2,
        # R = 2, anchor = 1/2; reference digits from 40-digit arithmetic.
        settings = EstimationSettings(k=2, rho=1.0, retention=2.0)
        estimate = php_estimate(uncensored_quad, settings)
        assert estimate.value == pytest.approx(1.21880104960029, abs=1e-12)
        assert estimate.retention == 2.0
        assert estimate.km_at_threshold == 0.5

    def test_threshold_retention_matches_explicit(self, uncensored_quad):
        via_sentinel = php_estimate(
            uncensored_quad, EstimationSettings(k=2, rho=1.0, retention=THRESHOLD)
        )
        via_value = php_estimate(
            uncensored_quad, EstimationSettings(k=2, rho=1.0, retention=2.0)
        )
        assert via_sentinel.value == via_value.value
        assert via_sentinel.retention == 2.0

    def test_threshold_retention_closed_form(self):
        sample = random_sample(31)
        k = 15
        estimate = php_estimate(
            sample, EstimationSettings(k=k, rho=1.1, retention=THRESHOLD)
        )
        estimates = censored_hill(sample, k)
        gamma1 = estimates.gamma1_hat
        expected = (
            1.1 * gamma1 / (1.0 - 1.1 * gamma1)
            * estimate.retention
            * km_survival_at_threshold(sample, k) ** (1 / 1.1)
        )
        assert estimate.value == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_retention(self):
        sample = random_sample(37)
        values = [
            php_estimate(
                sample, EstimationSettings(k=12, rho=1.0, retention=r)
            ).value
            for r in np.linspace(
                float(sample.z_sorted[-13]), float(sample.z_sorted[-13]) * 5, 6
            )
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_heavy_tail_guard(self):
        sample = sample_from_pairs([(1.0, 1), (math.exp(0.95), 1)])
        with pytest.raises(DomainError, match="rho \\* gamma1"):
            php_estimate(sample, EstimationSettings(k=1, rho=1.1))

    def test_settings_validation_propagates(self, uncensored_quad):
        from tailpremium import ValidationError

        with pytest.raises(ValidationError, match="k must"):
            php_estimate(uncensored_quad, EstimationSettings(k=0, rho=1.0))


@pytest.mark.slow
def test_pareto_consistency_median_within_ten_percent():
    gamma1, p = 0.1, 0.6
    scheme = CensoringScheme(
        ParetoModel(gamma1), ParetoModel(gamma2_from_p(gamma1, p))
    )
    n = 20_000
    k = int(n**0.6)
    estimates = []
    for seed in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([2026, seed]))
        z, delta = scheme.sample_arrays(n, rng)
        sample = SortedCensoredSample.from_unsorted(z, delta)
        estimates.append(censored_hill(sample, k).gamma1_hat)
    median = float(np.median(estimates))
    assert abs(median - gamma1) <= 0.1 * gamma1
