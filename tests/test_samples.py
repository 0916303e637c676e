"""Sample containers: sorting, concomitant pairing, settings validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_sorted, sample_from_pairs
from tailpremium import (
    THRESHOLD,
    EstimationSettings,
    SortedCensoredSample,
    ValidationError,
    validate_settings,
)
from tailpremium.samples import _check_positive, _check_rows, _sort_rows

NAN = float("nan")
INF = float("inf")

# A few values drawn often, so rows tie heavily: both zeros, subnormals,
# the smallest normal and the largest double among them.
TIE_VALUES = [
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0, 3.0, 1e300,
    1.7976931348623157e308,
]
values = st.one_of(
    st.sampled_from(TIE_VALUES),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def record_rows(draw, bad_values=()):
    """``(z, delta)`` of shape ``(n,)`` or ``(rows, n)``, with heavy ties."""
    shape = draw(
        st.one_of(
            st.tuples(st.integers(1, 40)),
            st.tuples(st.integers(1, 4), st.integers(1, 25)),
        )
    )
    size = int(np.prod(shape))
    z = draw(st.lists(values, min_size=size, max_size=size))
    delta = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    z, delta = np.array(z, dtype=np.float64), np.array(delta)
    if bad_values:
        z[draw(st.integers(0, size - 1))] = draw(st.sampled_from(bad_values))
    return z.reshape(shape), delta.reshape(shape)


def lexsorted_rows(z, delta):
    """Each row sorted by z, then uncensored first: the stable lexsort reference."""
    order = np.lexsort((1 - delta, z), axis=-1)
    return np.take_along_axis(z, order, -1), np.take_along_axis(delta, order, -1)


class TestCensoredObservation:
    """The rules for one (z, delta) record, as ``from_unsorted`` applies them."""

    def test_accepts_valid_record(self):
        sample = SortedCensoredSample.from_unsorted([2.5], [0])
        assert sample.z_sorted.tolist() == [2.5]
        assert sample.delta_concomitant.tolist() == [0]

    @pytest.mark.parametrize("z", [-1.0, NAN, float("inf")])
    def test_rejects_bad_value(self, z):
        with pytest.raises(ValidationError, match="finite"):
            SortedCensoredSample.from_unsorted([z], [1])

    @pytest.mark.parametrize("delta", [2, -1, 0.5])
    def test_rejects_bad_flag(self, delta):
        with pytest.raises(ValidationError, match="0 or 1"):
            SortedCensoredSample.from_unsorted([1.0], [delta])


class TestBuildSortedSample:
    """Building a sample from unsorted columns with ``from_unsorted``."""

    def test_sorts_with_concomitants(self):
        sample = SortedCensoredSample.from_unsorted([3, 1, 2], [1, 0, 1])
        assert sample.z_sorted.tolist() == [1.0, 2.0, 3.0]
        assert sample.delta_concomitant.tolist() == [0, 1, 1]

    def test_singleton(self):
        sample = SortedCensoredSample.from_unsorted([5], [1])
        assert sample.z_sorted.tolist() == [5.0]
        assert sample.delta_concomitant.tolist() == [1]
        assert sample.n == 1

    def test_ties_put_uncensored_first(self):
        for delta in ([0, 1], [1, 0]):
            sample = SortedCensoredSample.from_unsorted([2, 2], delta)
            assert sample.z_sorted.tolist() == [2.0, 2.0]
            assert sample.delta_concomitant.tolist() == [1, 0]

    def test_accepts_numpy_arrays(self):
        sample = SortedCensoredSample.from_unsorted(
            np.array([4.0, 1.0]), np.array([0, 1])
        )
        assert sample.z_sorted.tolist() == [1.0, 4.0]
        assert sample.delta_concomitant.tolist() == [1, 0]

    def test_rejects_empty_input(self):
        with pytest.raises(ValidationError, match="at least one"):
            SortedCensoredSample.from_unsorted([], [])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValidationError, match="equal length"):
            SortedCensoredSample.from_unsorted([1.0, 2.0], [1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        z = rng.pareto(3.0, size=40) + 1.0
        delta = rng.integers(0, 2, size=40)
        base = SortedCensoredSample.from_unsorted(z, delta)
        for _ in range(5):
            order = rng.permutation(40)
            shuffled = SortedCensoredSample.from_unsorted(z[order], delta[order])
            assert np.array_equal(shuffled.z_sorted, base.z_sorted)
            assert sorted(
                zip(shuffled.z_sorted, shuffled.delta_concomitant)
            ) == sorted(zip(base.z_sorted, base.delta_concomitant))

    def test_round_trip_multiset(self):
        records = [(3.5, 1), (0.5, 0), (3.5, 0), (1.0, 1)]
        sample = sample_from_pairs(records)
        assert sorted(zip(sample.z_sorted, sample.delta_concomitant)) == sorted(
            records
        )


class TestSortRows:
    """The row sort behind ``from_unsorted`` and the study's blocks."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(records=record_rows())
    def test_matches_lexsort_bitwise(self, records):
        z, delta = records
        # The reversed rows put each tie's records in the other input order.
        for z_in, delta_in in ((z, delta), (z[..., ::-1], delta[..., ::-1])):
            before = z_in.tobytes(), delta_in.tobytes()
            want_z, want_delta = lexsorted_rows(z_in, delta_in)
            # The kernel sorts copies handed to it, int64 flags or float ones.
            for flags in (delta_in.copy(), delta_in.astype(np.float64)):
                got_z, got_delta = _sort_rows(z_in.copy(), flags)
                np.testing.assert_array_equal(
                    got_z.view(np.uint64), want_z.view(np.uint64), strict=True
                )
                np.testing.assert_array_equal(got_delta, want_delta, strict=True)
                np.testing.assert_array_equal(
                    _check_rows(got_z, got_delta), want_delta, strict=True
                )
            sample = SortedCensoredSample.from_unsorted(z_in.ravel(), delta_in.ravel())
            assert (z_in.tobytes(), delta_in.tobytes()) == before
            want = lexsorted_rows(z_in.ravel(), delta_in.ravel())
            assert sample.z_sorted.tobytes() == want[0].tobytes()
            assert sample.delta_concomitant.tobytes() == want[1].tobytes()

    def test_overwrite_sorts_into_the_scratch_arrays(self):
        z = np.array([[3.0, 0.0, 3.0, 1.0], [2.0, 2.0, 0.5, 0.0]])
        delta = np.array([[0, 1, 1, 0], [0, 1, 0, 0]])
        got_z, got_delta = _sort_rows(z, delta)
        assert got_z is z and got_delta is delta
        assert z.tolist() == [[0.0, 1.0, 3.0, 3.0], [0.0, 0.5, 2.0, 2.0]]
        assert delta.tolist() == [[1, 0, 1, 0], [0, 0, 1, 0]]
        # One record is sorted where it is too.
        z, delta = np.array([[2.5]]), np.array([[0]])
        got_z, got_delta = _sort_rows(z, delta)
        assert got_z is z and got_delta is delta
        assert (z.tolist(), delta.tolist()) == ([[2.5]], [[0]])

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, NAN, INF, -INF])
    def test_each_bad_value_fails_in_the_sort(self, bad):
        # Alone among good values, so no other value keeps the key unpacked.
        for z in ([1.0, bad, 2.0], [bad]):
            with pytest.raises(ValidationError, match="finite and >= 0"):
                _sort_rows(np.array(z), np.ones(len(z), np.int64))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(records=record_rows(bad_values=(-1.0, -5e-324, NAN, INF, -INF)))
    def test_bad_values_still_fail_their_check(self, records):
        z, delta = records
        before = z.tobytes(), delta.tobytes()
        # The sort itself rejects them, and leaves what it was given as it was.
        handed = z.copy(), delta.copy()
        with pytest.raises(ValidationError, match="finite and >= 0"):
            _sort_rows(*handed)
        assert (handed[0].tobytes(), handed[1].tobytes()) == before
        with pytest.raises(ValidationError, match="finite and >= 0"):
            SortedCensoredSample.from_unsorted(z.ravel(), delta.ravel())
        assert (z.tobytes(), delta.tobytes()) == before
        # A bad flag is reported first.
        delta = delta.copy()
        delta.flat[-1] = 2
        with pytest.raises(ValidationError, match="0 or 1"):
            _sort_rows(z.copy(), delta)
        with pytest.raises(ValidationError, match="0 or 1"):
            SortedCensoredSample.from_unsorted(z.ravel(), delta.ravel())

    def test_a_bad_flag_never_reaches_the_values(self):
        # Packed as it is, a flag of 2 would set the last bit of its value
        # and turn 1.0 into 1.0000000000000002.
        z = np.array([3.0, 1.0, 2.0])
        with pytest.raises(ValidationError, match="0 or 1"):
            _sort_rows(z, np.array([1, 2, 0]))
        assert z.tolist() == [3.0, 1.0, 2.0]


class TestSortedCensoredSample:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError, match="sorted"):
            SortedCensoredSample(np.array([2.0, 1.0]), np.array([1, 1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            SortedCensoredSample(np.array([1.0, 2.0]), np.array([1]))

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, NAN, INF, -INF])
    def test_constructor_rejects_bad_values(self, bad):
        # Sorted as they stand, so only the value check can reject them.
        z = np.sort(np.array([1.0, 2.0, bad]))
        with pytest.raises(ValidationError, match="finite and >= 0"):
            SortedCensoredSample(z, np.ones(3, np.int64))

    @pytest.mark.parametrize(
        "z, delta",
        [
            ([[1.0, 2.0]], [[1, 1]]),
            ([[1.0, 2.0]], [1, 1]),
            ([1.0, 2.0], [[1, 1]]),
        ],
        ids=["both", "values", "flags"],
    )
    def test_constructor_rejects_two_dimensional_arrays(self, z, delta):
        with pytest.raises(ValidationError, match="one-dimensional"):
            SortedCensoredSample(np.array(z), np.array(delta))

    @pytest.mark.parametrize(
        "build", [SortedCensoredSample, SortedCensoredSample.from_unsorted],
        ids=["constructor", "from_unsorted"],
    )
    @pytest.mark.parametrize("flag", [3, 0.5, 1.9, NAN])
    def test_rejects_bad_flags(self, build, flag):
        # A fractional flag must be rejected, not truncated to 0 or 1.
        with pytest.raises(ValidationError, match="0 or 1"):
            build(np.array([1.0, 2.0]), np.array([1, flag]))

    def test_integral_float_flags_are_accepted(self):
        sample = SortedCensoredSample.from_unsorted([2.0, 1.0], [1.0, 0.0])
        assert sample.delta_concomitant.dtype == np.int64
        assert sample.delta_concomitant.tolist() == [0, 1]

    def test_arrays_are_read_only(self):
        sample = SortedCensoredSample.from_unsorted([1, 2], [1, 0])
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

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(rho=True), "rho"),
            (dict(retention=True), "retention"),
            (dict(rho=np.True_), "rho"),
            (dict(retention=False), "retention"),
        ],
    )
    def test_rejects_a_bool_for_a_number(self, overrides, field):
        # True is not 1.0 here: a flag where a level belongs is a slip.
        with pytest.raises(ValidationError) as caught:
            EstimationSettings(**{"k": 3, "rho": 1.0, **overrides})
        value = next(iter(overrides.values()))
        assert str(caught.value) == (
            f"{field} must be a number, not a bool, got {value!r}"
        )

    def test_rejects_unknown_retention_string(self):
        with pytest.raises(ValidationError, match="retention"):
            EstimationSettings(k=2, rho=1.0, retention="auto")

    def test_validate_ok(self):
        settings = EstimationSettings(k=50, rho=1.1)
        assert validate_settings(settings, 500) is settings

    def test_validate_accepts_the_smallest_sample_and_k(self):
        settings = EstimationSettings(k=1, rho=1.0)
        assert validate_settings(settings, 2) is settings
        with pytest.raises(ValidationError, match="k must"):
            validate_settings(EstimationSettings(k=0, rho=1.0), 2)

    def test_validate_rejects_k_at_n(self):
        with pytest.raises(ValidationError, match="k must"):
            validate_settings(EstimationSettings(k=500, rho=1.1), 500)

    def test_validate_rejects_small_rho(self):
        with pytest.raises(ValidationError, match="rho must be >= 1"):
            validate_settings(EstimationSettings(k=5, rho=0.9), 500)

    @pytest.mark.parametrize(
        "rho, retention, message",
        [
            (NAN, THRESHOLD, "rho must be >= 1"),
            (float("inf"), THRESHOLD, "rho must be >= 1"),
            (1.0, NAN, "retention must"),
            (1.0, float("inf"), "retention must"),
        ],
    )
    def test_validate_rejects_non_finite(self, rho, retention, message):
        settings = EstimationSettings(k=5, rho=rho, retention=retention)
        with pytest.raises(ValidationError, match=message):
            validate_settings(settings, 500)

    def test_validate_rejects_non_positive_retention(self):
        with pytest.raises(ValidationError, match="retention"):
            validate_settings(
                EstimationSettings(k=5, rho=1.0, retention=0.0), 500
            )

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, NAN, INF])
    def test_positive_numbers_are_finite_and_above_zero(self, value):
        with pytest.raises(ValidationError, match=r"eta must be > 0"):
            _check_positive(gamma1=0.1, eta=value)
        _check_positive(gamma1=0.1, eta=5e-324)

    def test_validate_rejects_tiny_sample(self):
        with pytest.raises(ValidationError, match="sample size"):
            validate_settings(EstimationSettings(k=1, rho=1.0), 1)
