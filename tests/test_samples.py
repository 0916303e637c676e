"""Sample containers: sorting, concomitant pairing, settings validation."""

import numpy as np
import pytest

from helpers import naive_sorted
from tailpremium import (
    THRESHOLD,
    CensoredObservation,
    EstimationSettings,
    SortedCensoredSample,
    ValidationError,
    build_sorted_sample,
    validate_settings,
)


class TestCensoredObservation:
    def test_accepts_valid_record(self):
        obs = CensoredObservation(2.5, 0)
        assert obs.z == 2.5
        assert obs.delta == 0

    @pytest.mark.parametrize("z", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_value(self, z):
        with pytest.raises(ValidationError, match="finite"):
            CensoredObservation(z, 1)

    @pytest.mark.parametrize("delta", [2, -1, 0.5])
    def test_rejects_bad_flag(self, delta):
        with pytest.raises(ValidationError, match="0 or 1"):
            CensoredObservation(1.0, delta)


class TestBuildSortedSample:
    def test_sorts_with_concomitants(self):
        sample = build_sorted_sample([(3, 1), (1, 0), (2, 1)])
        assert sample.z_sorted.tolist() == [1.0, 2.0, 3.0]
        assert sample.delta_concomitant.tolist() == [0, 1, 1]

    def test_singleton(self):
        sample = build_sorted_sample([(5, 1)])
        assert sample.z_sorted.tolist() == [5.0]
        assert sample.delta_concomitant.tolist() == [1]
        assert sample.n == 1

    def test_ties_put_uncensored_first(self):
        for records in ([(2, 0), (2, 1)], [(2, 1), (2, 0)]):
            sample = build_sorted_sample(records)
            assert sample.z_sorted.tolist() == [2.0, 2.0]
            assert sample.delta_concomitant.tolist() == [1, 0]

    def test_accepts_observation_instances(self):
        sample = build_sorted_sample(
            [CensoredObservation(4, 0), CensoredObservation(1, 1)]
        )
        assert sample.z_sorted.tolist() == [1.0, 4.0]
        assert sample.delta_concomitant.tolist() == [1, 0]

    def test_rejects_empty_input(self):
        with pytest.raises(ValidationError, match="at least one"):
            build_sorted_sample([])

    def test_rejects_malformed_pair(self):
        with pytest.raises(ValidationError, match="pair"):
            build_sorted_sample([(1, 2, 3)])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        z = rng.pareto(3.0, size=40) + 1.0
        delta = rng.integers(0, 2, size=40)
        base = build_sorted_sample(list(zip(z, delta)))
        for _ in range(5):
            order = rng.permutation(40)
            shuffled = build_sorted_sample(list(zip(z[order], delta[order])))
            assert np.array_equal(shuffled.z_sorted, base.z_sorted)
            assert sorted(
                zip(shuffled.z_sorted, shuffled.delta_concomitant)
            ) == sorted(zip(base.z_sorted, base.delta_concomitant))

    def test_round_trip_multiset(self):
        records = [(3.5, 1), (0.5, 0), (3.5, 0), (1.0, 1)]
        sample = build_sorted_sample(records)
        assert sorted(zip(sample.z_sorted, sample.delta_concomitant)) == sorted(
            records
        )


class TestSortedCensoredSample:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError, match="sorted"):
            SortedCensoredSample(np.array([2.0, 1.0]), np.array([1, 1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            SortedCensoredSample(np.array([1.0, 2.0]), np.array([1]))

    def test_rejects_bad_flags(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            SortedCensoredSample(np.array([1.0, 2.0]), np.array([1, 3]))

    def test_arrays_are_read_only(self):
        sample = build_sorted_sample([(1, 1), (2, 0)])
        with pytest.raises(ValueError):
            sample.z_sorted[0] = 7.0
        with pytest.raises(ValueError):
            sample.delta_concomitant[0] = 0

    def test_rejects_censored_before_uncensored_tie(self):
        with pytest.raises(ValidationError, match="uncensored records first"):
            SortedCensoredSample(np.array([2.0, 2.0]), np.array([0, 1]))

    def test_accepts_uncensored_before_censored_tie(self):
        sample = SortedCensoredSample(np.array([2.0, 2.0]), np.array([1, 0]))
        assert sample.delta_concomitant.tolist() == [1, 0]

    def test_from_unsorted_uses_canonical_tie_order(self):
        sample = SortedCensoredSample.from_unsorted(
            np.array([2.0, 1.0, 2.0, 2.0]), np.array([0, 1, 1, 0])
        )
        assert sample.z_sorted.tolist() == [1.0, 2.0, 2.0, 2.0]
        assert sample.delta_concomitant.tolist() == [1, 1, 0, 0]

    def test_from_unsorted_matches_naive_sort_under_shuffles(self):
        rng = np.random.default_rng(43)
        z = rng.integers(0, 8, size=200).astype(np.float64)
        delta = rng.integers(0, 2, size=200)
        want_z, want_delta = naive_sorted(z.tolist(), delta.tolist())
        for _ in range(5):
            order = rng.permutation(200)
            sample = SortedCensoredSample.from_unsorted(z[order], delta[order])
            assert sample.z_sorted.tolist() == want_z
            assert sample.delta_concomitant.tolist() == want_delta


class TestSettings:
    def test_threshold_sentinel(self):
        settings = EstimationSettings(k=5, rho=1.0)
        assert settings.retention == THRESHOLD
        assert settings.retention_is_threshold

    def test_explicit_retention(self):
        settings = EstimationSettings(k=5, rho=1.0, retention=3.5)
        assert settings.retention == 3.5
        assert not settings.retention_is_threshold

    def test_rejects_non_integer_k(self):
        with pytest.raises(ValidationError, match="integer"):
            EstimationSettings(k=2.5, rho=1.0)

    def test_rejects_unknown_retention_string(self):
        with pytest.raises(ValidationError, match="retention"):
            EstimationSettings(k=2, rho=1.0, retention="auto")

    def test_validate_ok(self):
        settings = EstimationSettings(k=50, rho=1.1)
        assert validate_settings(settings, 500) is settings

    def test_validate_rejects_k_at_n(self):
        with pytest.raises(ValidationError, match="k must"):
            validate_settings(EstimationSettings(k=500, rho=1.1), 500)

    def test_validate_rejects_small_rho(self):
        with pytest.raises(ValidationError, match="rho must be >= 1"):
            validate_settings(EstimationSettings(k=5, rho=0.9), 500)

    def test_validate_rejects_non_positive_retention(self):
        with pytest.raises(ValidationError, match="retention"):
            validate_settings(
                EstimationSettings(k=5, rho=1.0, retention=0.0), 500
            )

    def test_validate_rejects_tiny_sample(self):
        with pytest.raises(ValidationError, match="sample size"):
            validate_settings(EstimationSettings(k=1, rho=1.0), 1)
