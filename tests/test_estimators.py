"""Point estimators: Kaplan-Meier, Hill, censoring correction, premium."""

import math
import warnings
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    naive_hill,
    naive_km_at,
    naive_km_at_threshold,
    naive_km_grouped,
    naive_p_hat,
    naive_sorted,
    sample_from_pairs,
)
from tailpremium import (
    THRESHOLD,
    DomainError,
    EstimationSettings,
    SortedCensoredSample,
    ValidationError,
    censored_hill,
    hill_estimator,
    kaplan_meier_survival,
    km_survival_at_threshold,
    php_estimate,
    uncensored_proportion,
    weissman_tail,
)
from tailpremium.asymptotics import normalization_factor
from tailpremium.errors import _CODE, REASONS
from tailpremium.estimators import (
    _fit_rows,
    _km_anchor,
    _km_products,
    _tail_path,
)
from tailpremium.models import CensoringScheme, ParetoModel, gamma2_from_p
from tailpremium.threshold import tail_index_path


def chain_arrays(chain):
    """The arrays of a chain struct, in field order; the rule's, if it ran."""
    return [values for values in astuple(chain) if values is not None]


def assert_failure(error, code, **values):
    """``error`` is entry ``code`` of the reason table, worded with ``values``."""
    name, template = REASONS[code]
    assert error.reason == name
    rho_gamma1 = values["rho"] * float(values["gamma1"])
    assert str(error) == template.format(rho_gamma1=rho_gamma1, **values)


@st.composite
def fit_blocks(draw):
    """``(z, delta, k, retention)`` lists of a block of 1-12 sorted samples.

    Values come partly from a small set with 0, so tops tie and
    thresholds can be 0, and short rows often have an all-censored top;
    ``retention`` is None (the threshold) or one level per row, down to
    1e-300, where the premium overflows.
    """
    n = draw(st.integers(3, 9))
    count = draw(st.integers(1, 12))
    value = st.sampled_from([0.0, 1.0, 2.0, 1e3]) | st.floats(0.0, 1e4)
    samples = [
        SortedCensoredSample.from_unsorted(
            draw(st.lists(value, min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        )
        for _ in range(count)
    ]
    level = st.sampled_from([1e-300, 0.5]) | st.floats(1e-3, 1e4)
    return (
        [sample.z_sorted.tolist() for sample in samples],
        [sample.delta_concomitant.tolist() for sample in samples],
        [draw(st.integers(1, n - 1)) for _ in range(count)],
        draw(st.none() | st.lists(level, min_size=count, max_size=count)),
    )


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
        with pytest.raises(DomainError, match="largest") as caught:
            kaplan_meier_survival(censored_triple, 10.0)
        assert str(caught.value) == (
            "product-limit survival is undefined at or above the largest "
            "observation (3), got x=10"
        )

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

    def test_rejects_nan(self, censored_triple):
        with pytest.raises(DomainError, match="largest"):
            kaplan_meier_survival(censored_triple, float("nan"))
        with pytest.raises(DomainError, match="largest"):
            kaplan_meier_survival(censored_triple, np.array([1.5, np.nan]))

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
        with pytest.raises(ValidationError, match="k must"):
            km_survival_at_threshold(censored_triple, 3)
        with pytest.raises(ValidationError, match="k must"):
            km_survival_at_threshold(censored_triple, 0)

    def test_equals_curve_between_order_statistics(self):
        sample = random_sample(23)
        n = sample.n
        for k in (5, 17, 60):
            x = 0.5 * (sample.z_sorted[n - k - 1] + sample.z_sorted[n - k])
            assert km_survival_at_threshold(sample, k) == kaplan_meier_survival(
                sample, x
            )

    @pytest.mark.parametrize("shape", [(57,), (6, 57), (100, 500), (2, 3, 40)])
    def test_products_are_the_plain_expression_bitwise(self, shape):
        # Worked in place on one array, the products keep the bits of the
        # three-temporary expression, on the study's block shape too.
        delta = np.random.default_rng(5).integers(0, 2, size=shape)
        n = shape[-1]
        plain = np.cumprod(1.0 - delta / (n - np.arange(n, dtype=np.float64)), axis=-1)
        products = _km_products(delta)
        assert products.shape == shape
        assert products.tobytes() == plain.tobytes()
        # Read-only flags, as a sample holds them, are not written to.
        delta.flags.writeable = False
        assert _km_products(delta).tobytes() == plain.tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 40)),
            st.tuples(st.integers(1, 4), st.integers(1, 25)),
        ),
        data=st.data(),
    )
    def test_products_leave_the_flags_and_fill_out(self, shape, data):
        size = int(np.prod(shape))
        flags = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        delta = np.array(flags, dtype=np.int64).reshape(shape)
        n = shape[-1]
        plain = np.cumprod(1.0 - delta / (n - np.arange(n, dtype=np.float64)), axis=-1)
        before = delta.tobytes()
        assert _km_products(delta).tobytes() == plain.tobytes()
        # Into caller-owned memory, here one half of a block-shaped buffer.
        halves = np.full((2, *shape), np.nan)
        out = halves[1]
        assert _km_products(delta, out) is out
        assert out.tobytes() == plain.tobytes()
        assert np.isnan(halves[0]).all()
        assert delta.tobytes() == before

    @pytest.mark.parametrize("seed", [3, 8])
    def test_block_anchor_reads_the_curve_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = 57
        delta = rng.integers(0, 2, size=(6, n))
        products = _km_products(delta)
        for k in range(1, n):
            got = _km_anchor(delta, np.full(6, k))
            assert got.tobytes() == products[:, n - k - 1].tobytes()
            alone = _km_anchor(delta[0], k).tobytes()
            assert alone == products[0, n - k - 1].tobytes()
            assert alone == _km_products(delta[0])[n - k - 1].tobytes()
        ks = rng.integers(1, n, size=6)
        want = products[np.arange(6), n - ks - 1]
        assert _km_anchor(delta, ks).tobytes() == want.tobytes()

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


class TestOneTailPath:
    """Point reads at k are bitwise the entries of the threshold rule's path."""

    @pytest.mark.parametrize("n", [20, 200, 5000])
    def test_point_reads_equal_path_entries(self, n):
        rng = np.random.default_rng(n)
        # z on a 0.1 grid, so the top order statistics hold ties
        z = np.round((1.0 - rng.random(n)) ** -0.3, 1)
        delta = (rng.random(n) < 0.6).astype(np.int64)
        sample = SortedCensoredSample.from_unsorted(z, delta)
        k_max = min(n - 1, 400)
        gamma1, p_hat = tail_index_path(sample, k_max)
        z_list = sample.z_sorted.tolist()
        d_list = sample.delta_concomitant.tolist()
        assert len(set(z_list[n - k_max - 1 :])) < k_max + 1
        censored_tops = 0
        for k in range(1, k_max + 1):
            hill = hill_estimator(sample, k)
            assert uncensored_proportion(sample, k) == p_hat[k - 1]
            assert hill == pytest.approx(naive_hill(z_list, k), abs=1e-12)
            assert p_hat[k - 1] == pytest.approx(naive_p_hat(d_list, k), abs=1e-12)
            if p_hat[k - 1] == 0.0:
                censored_tops += 1
                assert np.isnan(gamma1[k - 1])
                with pytest.raises(DomainError, match="censored"):
                    censored_hill(sample, k)
                continue
            estimates = censored_hill(sample, k)
            assert estimates.gamma_hill == hill
            assert estimates.p_hat == p_hat[k - 1]
            assert estimates.gamma1_hat == gamma1[k - 1]
            assert estimates.gamma1_hat == pytest.approx(
                naive_hill(z_list, k) / naive_p_hat(d_list, k), abs=1e-12
            )
        assert censored_tops < k_max


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

    def test_rejects_nan(self, uncensored_quad):
        with pytest.raises(DomainError, match="above"):
            weissman_tail(uncensored_quad, 2, float("nan"))


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

    def test_heavy_tail_guard_at_exactly_one(self):
        # log(e) - log(1) is exactly 1, so rho * gamma1 = 1 at rho = 1,
        # where the integral already diverges.
        sample = sample_from_pairs([(1.0, 1), (math.exp(1.0), 1)])
        with pytest.raises(DomainError, match="too heavy.*= 1 >= 1") as caught:
            php_estimate(sample, EstimationSettings(k=1, rho=1.0))
        assert caught.value.reason == "heavy_tail"

    def test_overflow_guard(self):
        # gamma1_hat ~ 2e-4 at k = 20 and R / z_(n-k) ~ 1e-6: the power
        # (R / z) ** (-1 / (rho * gamma1)) leaves the float range.
        z = np.random.default_rng(3).uniform(1000.0, 1010.0, 300)
        sample = sample_from_pairs([(v, 1) for v in z.tolist()])
        settings = EstimationSettings(k=20, rho=1.0, retention=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="premium overflows the float range"):
                php_estimate(sample, settings)

    def test_fit_rejects_a_path_short_of_k(self):
        # Each (rows, path) pair must reach its rows' k: a k past the end
        # of the path handed in fails instead of reading another entry.
        z = np.arange(1.0, 21.0)[None]
        delta = np.ones((1, 20), dtype=int)
        short = _tail_path(z, delta, 5)
        fit = _fit_rows(z, delta, np.array([5]), (1.0,), paths=[(slice(None), short)])
        assert fit.gamma1[0] == short[0][0, 4]
        with pytest.raises(IndexError):
            _fit_rows(z, delta, np.array([6]), (1.0,), paths=[(slice(None), short)])

    @pytest.mark.parametrize("rho", [1.0, 1.1, 1.7])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(block=fit_blocks())
    # Tied tops (index 0), an all-censored top and a zero threshold.
    @example(
        block=(
            [[1, 2, 2, 2], [1, 2, 3, 3], [0, 0, 1, 5]],
            [[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 1]],
            [2, 2, 2],
            None,
        )
    )
    # An explicit retention that overflows, beside one that does not.
    @example(
        block=(
            [[1000, 1001, 1002, 1003], [1, 2, 4, 8]],
            [[1, 1, 1, 1], [1, 1, 1, 1]],
            [3, 3],
            [1e-300, 3.0],
        )
    )
    def test_closed_form_entries_equal_one_element_calls(self, rho, block):
        # _fit_rows is the one fit behind php_estimate, weissman_tail (at
        # rho = 0) and a study block.  Each row of a block must come out
        # bitwise as that row alone, failure code included, and as the
        # one-sample chain: its value, or a failure of the same reason.
        z, delta, k, retention = (
            None if part is None else np.array(part) for part in block
        )
        z = z.astype(np.float64)
        rows = np.arange(len(k))
        rhos = (rho, 0.0, 2.5)
        fit = _fit_rows(z, delta, k, rhos, retention)
        # The index read from a longer path handed in is the same.
        long_path = _tail_path(z, delta, z.shape[-1] - 1)
        handed = _fit_rows(z, delta, k, rhos, retention, paths=[(rows, long_path)])
        for got, want in zip(chain_arrays(handed), chain_arrays(fit), strict=True):
            assert got.tobytes() == want.tobytes()
        assert fit.k_limit is fit.candidates is fit.scores is fit.rule_code is None
        gamma1 = long_path[0][rows, k - 1]
        assert fit.gamma1.tobytes() == gamma1.tobytes()
        threshold, levels = fit.threshold, fit.retention
        pi_hat, code = fit.pi_hat, fit.code
        assert np.array_equal(np.isnan(pi_hat), (code >= 0) | (np.array(rhos) == 0))
        # rho = 0 checks only the index's sign.
        assert np.all(code[:, 1] <= _CODE["nonpositive_index"])
        for r in rows:
            one = slice(r, r + 1)
            alone = _fit_rows(
                z[one].copy(),
                delta[one].copy(),
                k[one],
                rhos,
                None if retention is None else retention[one],
            )
            for got, want in zip(chain_arrays(alone), chain_arrays(fit), strict=True):
                assert got.tobytes() == want[one].tobytes(), r
            sample = SortedCensoredSample(z[r], delta[r])
            values = dict(k=int(k[r]), threshold=threshold[r], gamma1=gamma1[r])
            if code[r, 0] in (_CODE["nonpositive_threshold"], _CODE["all_censored"]):
                # The guarded path read fails first in the same place.
                with pytest.raises(DomainError) as caught:
                    censored_hill(sample, int(k[r]))
                assert_failure(caught.value, code[r, 0], rho=rho, **values)
            else:
                alone = np.float64(censored_hill(sample, int(k[r])).gamma1_hat)
                assert alone.tobytes() == gamma1[r].tobytes()
            level = THRESHOLD if retention is None else float(retention[r])
            for j, rho_j in enumerate(rhos):
                if rho_j:
                    chain = EstimationSettings(k=int(k[r]), rho=rho_j, retention=level)
                    run = partial(php_estimate, sample, chain)
                else:
                    run = partial(weissman_tail, sample, int(k[r]), threshold[r])
                if code[r, j] < 0:
                    out = run()
                    if rho_j:
                        assert np.float64(out.value).tobytes() == pi_hat[r, j].tobytes()
                    continue
                with pytest.raises(DomainError) as caught:
                    run()
                assert_failure(
                    caught.value, code[r, j], rho=rho_j, retention=levels[r], **values
                )

    def test_settings_validation_propagates(self, uncensored_quad):
        with pytest.raises(ValidationError, match="k must"):
            php_estimate(uncensored_quad, EstimationSettings(k=0, rho=1.0))


# The failure messages of the one-sample chain, verbatim: the CLI prints
# them, so not a character of the fit's failure table may move.
ZERO_THRESHOLD = [(0.0, 1), (0.0, 0), (1.0, 1), (2.0, 1)]
ZERO_THRESHOLD_CENSORED_TOP = [(0.0, 1), (0.0, 0), (1.0, 0), (2.0, 0)]
CENSORED_TOP = [(1.0, 1), (2.0, 1), (3.0, 0), (4.0, 0)]
TIED_TOP = [(1.0, 1), (2.0, 1), (2.0, 0), (2.0, 1)]
THRESHOLD_MESSAGE = "the k-th upper order statistic must be > 0, got 0"
CENSORED_MESSAGE = (
    "all of the top k=2 observations are censored; the "
    "censoring-corrected tail index is undefined"
)
NOT_POSITIVE_MESSAGE = (
    "tail index estimate is not positive; the top k observations are degenerate"
)


def overflowing_sample():
    z = np.random.default_rng(3).uniform(1000.0, 1010.0, 300)
    return [(v, 1) for v in z.tolist()]


@pytest.mark.parametrize(
    "call, records, args, message",
    [
        (hill_estimator, ZERO_THRESHOLD, (3,), THRESHOLD_MESSAGE),
        (hill_estimator, ZERO_THRESHOLD, (2,), THRESHOLD_MESSAGE),
        (censored_hill, ZERO_THRESHOLD, (3,), THRESHOLD_MESSAGE),
        (censored_hill, CENSORED_TOP, (2,), CENSORED_MESSAGE),
        (censored_hill, ZERO_THRESHOLD_CENSORED_TOP, (2,), THRESHOLD_MESSAGE),
        (weissman_tail, TIED_TOP, (2, 5.0), NOT_POSITIVE_MESSAGE),
        (weissman_tail, ZERO_THRESHOLD, (2, 5.0), THRESHOLD_MESSAGE),
        (weissman_tail, CENSORED_TOP, (2, 5.0), CENSORED_MESSAGE),
        (weissman_tail, ZERO_THRESHOLD_CENSORED_TOP, (2, 5.0), THRESHOLD_MESSAGE),
        (
            php_estimate,
            [(1.0, 1), (math.exp(0.95), 1)],
            (EstimationSettings(k=1, rho=1.1),),
            "estimated tail is too heavy for a finite premium: "
            "rho * gamma1 = 1.045 >= 1 (gamma1=0.95, rho=1.1)",
        ),
        (
            php_estimate,
            overflowing_sample(),
            (EstimationSettings(k=20, rho=1.0, retention=1e-3),),
            "premium overflows the float range: (R / h) ** (-1 / (rho * gamma1)) "
            "with R=0.001, h=1009.09, rho * gamma1=0.000397781",
        ),
        (
            php_estimate,
            ZERO_THRESHOLD,
            (EstimationSettings(k=2, rho=1.0),),
            THRESHOLD_MESSAGE,
        ),
        (
            php_estimate,
            ZERO_THRESHOLD_CENSORED_TOP,
            (EstimationSettings(k=2, rho=1.0),),
            THRESHOLD_MESSAGE,
        ),
        (
            php_estimate,
            CENSORED_TOP,
            (EstimationSettings(k=2, rho=1.0),),
            CENSORED_MESSAGE,
        ),
        (
            php_estimate,
            TIED_TOP,
            (EstimationSettings(k=2, rho=1.0),),
            NOT_POSITIVE_MESSAGE,
        ),
        (
            normalization_factor,
            None,
            (1e-3, 1005.0, 1.0, 3.98e-4, 1.0),
            "premium overflows the float range: (R / h) ** (-1 / (rho * gamma1)) "
            "with R=0.001, h=1005, rho * gamma1=0.000398",
        ),
    ],
    ids=[
        "hill-threshold-k3",
        "hill-threshold-k2",
        "censored_hill-threshold",
        "censored_hill-censored",
        "censored_hill-threshold-before-censored",
        "weissman-not-positive",
        "weissman-threshold",
        "weissman-censored",
        "weissman-threshold-before-censored",
        "php-heavy",
        "php-overflow",
        "php-threshold",
        "php-threshold-before-censored",
        "php-censored",
        "php-not-positive",
        "normalization-overflow",
    ],
)
def test_one_sample_failure_messages_are_verbatim(call, records, args, message):
    if records is not None:
        args = (sample_from_pairs(records), *args)
    with pytest.raises(DomainError) as caught:
        call(*args)
    assert str(caught.value) == message


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
