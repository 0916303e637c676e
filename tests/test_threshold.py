"""Data-driven threshold selection: path, scoring rule, fallbacks."""

import math

import numpy as np
import pytest

from tailpremium import (
    DomainError,
    SortedCensoredSample,
    StudyCell,
    ValidationError,
    burr_scheme,
    censored_hill,
    reiss_thomas_k,
    replicate_stream,
    tail_index_path,
)
from tailpremium.threshold import _window_scores

from helpers import naive_gamma1_path, naive_threshold_choice, sample_from_pairs

LOG2 = math.log(2.0)


def sample_from_arrays(z, delta):
    return SortedCensoredSample.from_unsorted(
        np.asarray(z, dtype=np.float64), np.asarray(delta)
    )


class TestLowerMedian:
    """The window median never averages: it is the value at ceil(m/2)."""

    BETA = 0.5

    def score(self, window):
        # The single candidate k whose half-window ceil(k/2)..k is `window`.
        k = 2 * len(window) - 2
        lo = (k + 1) // 2
        gamma1 = np.concatenate([np.full(lo - 1, np.nan), window])
        return float(_window_scores(gamma1, np.array([k]), self.BETA)[0])

    def hand_score(self, window, med):
        k = 2 * len(window) - 2
        lo = (k + 1) // 2
        return sum(
            (lo + j) ** self.BETA * abs(v - med) for j, v in enumerate(window)
        ) / k

    def test_odd_is_middle(self):
        window = [5.0, 1.0, 3.0]
        assert self.score(window) == pytest.approx(
            self.hand_score(window, 3.0), rel=1e-15
        )

    def test_even_takes_lower_central_value(self):
        window = [4.0, 1.0, 3.0, 2.0]
        assert self.score(window) == pytest.approx(
            self.hand_score(window, 2.0), rel=1e-15
        )
        assert self.score(window) != pytest.approx(
            self.hand_score(window, 3.0), rel=1e-6
        )

    def test_never_averages(self):
        # an averaging median would use 0.55 here
        window = [0.1, 1.0]
        assert self.score(window) == pytest.approx(
            self.hand_score(window, 0.1), rel=1e-15
        )
        assert self.score(window) != pytest.approx(
            self.hand_score(window, 0.55), rel=1e-6
        )


class TestTailIndexPath:
    def test_hand_path_powers_of_two(self):
        sample = sample_from_pairs(
            [(1.0, 1), (2.0, 0), (4.0, 1), (8.0, 1), (16.0, 0), (32.0, 1)]
        )
        gamma1, p_hat = tail_index_path(sample, 5)
        assert p_hat == pytest.approx([1.0, 0.5, 2 / 3, 0.75, 0.6], rel=1e-15)
        expected = [LOG2, 3 * LOG2, 3 * LOG2, (10 / 3) * LOG2, 5 * LOG2]
        assert gamma1 == pytest.approx(expected, rel=1e-12)

    def test_nan_where_top_is_fully_censored(self):
        sample = sample_from_pairs([(1.0, 1), (2.0, 0), (3.0, 0)])
        gamma1, p_hat = tail_index_path(sample, 2)
        assert np.all(p_hat == 0.0)
        assert np.all(np.isnan(gamma1))

    def test_matches_naive_path(self):
        rng = np.random.default_rng(77)
        z = (1.0 - rng.random(60)) ** -0.3
        delta = rng.integers(0, 2, size=60)
        sample = sample_from_arrays(z, delta)
        gamma1, _ = tail_index_path(sample, 25)
        z_sorted = sample.z_sorted.tolist()
        delta_sorted = sample.delta_concomitant.tolist()
        expected = naive_gamma1_path(z_sorted, delta_sorted, 25)
        for got, want in zip(gamma1, expected):
            if want is None:
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_k_max(self):
        sample = sample_from_pairs([(1.0, 1), (2.0, 1), (3.0, 1)])
        for k_max in (0, 3, 7):
            with pytest.raises(ValidationError, match="k_max must"):
                tail_index_path(sample, k_max)

    def test_rejects_non_positive_threshold(self):
        sample = sample_from_pairs([(0.0, 1), (1.0, 1), (2.0, 1)])
        with pytest.raises(DomainError, match="strictly positive"):
            tail_index_path(sample, 2)


class TestReissThomasK:
    def test_constant_sample_ties_resolve_to_smallest_k(self):
        sample = sample_from_arrays([5.0] * 20, [1] * 20)
        choice = reiss_thomas_k(sample)
        assert choice.k_star == 2
        assert choice.retention == 5.0
        # ceiling = min(10, round(2 * 20**(1/3))) = 5
        assert [k for k, _ in choice.objective_curve] == [2, 3, 4, 5]
        assert all(score == 0.0 for _, score in choice.objective_curve)

    def test_idealized_pareto_recovers_index(self):
        n = 500
        u = np.arange(1, n + 1) / (n + 1)
        sample = sample_from_arrays(u**-0.2, np.ones(n, dtype=int))
        choice = reiss_thomas_k(sample)
        gamma1, _ = tail_index_path(sample, choice.k_star)
        assert abs(gamma1[choice.k_star - 1] - 0.2) < 0.08

    def test_choice_invariants(self):
        rng = np.random.default_rng(2024)
        z = (1.0 - rng.random(400)) ** -0.15
        delta = (rng.random(400) < 0.7).astype(int)
        sample = sample_from_arrays(z, delta)
        choice = reiss_thomas_k(sample)
        n = sample.n
        assert 2 <= choice.k_star <= n // 2
        assert choice.retention == sample.z_sorted[n - choice.k_star - 1]
        ks = [k for k, _ in choice.objective_curve]
        assert ks == sorted(ks)
        scores = [s for _, s in choice.objective_curve]
        assert all(math.isfinite(s) and s >= 0.0 for s in scores)
        # the winner is the first minimizer on the curve
        best = min(scores)
        assert choice.k_star == ks[scores.index(best)]

    def test_extension_branch_on_crafted_path(self):
        # Build log-spacings whose Hill path sits at 0.62 for k <= 10 and
        # then decays like 6.3/k: every window through k = 24 touches an
        # index >= 1/2, so the primary range (ceiling 10 at n = 120) is
        # fully blocked and the widened search must return the first k
        # whose window [13, k] clears the cap, namely k = 25.
        targets = [0.62 if k <= 10 else 6.3 / k for k in range(1, 61)]
        logs = [5.0]
        for k, h in enumerate(targets, start=1):
            mean = sum(logs[:k]) / k
            logs.append(mean - h)
        assert all(a >= b - 1e-12 for a, b in zip(logs, logs[1:]))
        top = np.exp(logs)
        bulk = np.linspace(0.5 * top[-1], 0.9 * top[-1], 120 - top.size)
        z = np.concatenate([bulk, top[::-1]])
        sample = sample_from_arrays(z, np.ones(z.size, dtype=int))

        gamma1, _ = tail_index_path(sample, 30)
        assert gamma1[11] >= 0.5  # k = 12 still blocked
        assert gamma1[12] < 0.5  # k = 13 clears the cap

        choice = reiss_thomas_k(sample)
        assert choice.k_star == 25
        assert len(choice.objective_curve) == 1
        assert choice.objective_curve[0][0] == 25

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_beta_extremes_run(self, beta):
        rng = np.random.default_rng(5)
        z = (1.0 - rng.random(200)) ** -0.2
        sample = sample_from_arrays(z, np.ones(200, dtype=int))
        choice = reiss_thomas_k(sample, beta=beta)
        assert 2 <= choice.k_star <= 100

    def test_rejects_small_sample(self):
        sample = sample_from_arrays(np.arange(1.0, 10.0), np.ones(9, dtype=int))
        with pytest.raises(ValidationError, match="n >= 10"):
            reiss_thomas_k(sample)

    @pytest.mark.parametrize("beta", [-0.1, 0.6])
    def test_rejects_bad_beta(self, beta):
        sample = sample_from_arrays(np.arange(1.0, 21.0), np.ones(20, dtype=int))
        with pytest.raises(ValidationError, match="beta must"):
            reiss_thomas_k(sample, beta=beta)

    def test_rejects_too_few_positives(self):
        z = np.concatenate([np.zeros(18), [1.0, 2.0]])
        sample = sample_from_arrays(z, np.ones(20, dtype=int))
        with pytest.raises(DomainError, match="strictly positive"):
            reiss_thomas_k(sample)

    def test_all_censored_has_no_admissible_k(self):
        rng = np.random.default_rng(11)
        z = (1.0 - rng.random(50)) ** -0.2
        sample = sample_from_arrays(z, np.zeros(50, dtype=int))
        with pytest.raises(DomainError, match="no admissible k"):
            reiss_thomas_k(sample)


class TestAgainstNaiveRule:
    """Brute-force battery: library vs the scalar-loop reimplementation."""

    @pytest.mark.parametrize("n", [12, 25, 40, 200])
    def test_random_samples_agree(self, n):
        rng = np.random.default_rng(900 + n)
        checked_errors = 0
        for case in range(30):
            gamma = rng.uniform(0.1, 0.9)
            share = rng.choice([0.3, 0.7, 1.0])
            z = (1.0 - rng.random(n)) ** -gamma
            delta = (rng.random(n) < share).astype(int)
            sample = sample_from_arrays(z, delta)
            z_sorted = sample.z_sorted.tolist()
            delta_sorted = sample.delta_concomitant.tolist()
            try:
                expected_k, expected_curve = naive_threshold_choice(
                    z_sorted, delta_sorted
                )
            except ValueError:
                with pytest.raises(DomainError):
                    reiss_thomas_k(sample)
                checked_errors += 1
                continue
            choice = reiss_thomas_k(sample)
            assert choice.k_star == expected_k
            assert [k for k, _ in choice.objective_curve] == [
                k for k, _ in expected_curve
            ]
            for (_, got), (_, want) in zip(
                choice.objective_curve, expected_curve
            ):
                assert got == pytest.approx(want, rel=1e-9)
        # the heavy-index draws must have exercised the refusal path too
        assert checked_errors > 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        z = (1.0 - rng.random(80)) ** -0.25
        delta = (rng.random(80) < 0.6).astype(int)
        sample = sample_from_arrays(z, delta)
        assert reiss_thomas_k(sample) == reiss_thomas_k(sample)


@pytest.mark.slow
def test_monte_carlo_sanity_median_index():
    """Median selected index over 200 censored Burr draws near the truth."""
    cell = StudyCell(gamma1=0.25, p=0.6, rho=1.0, n=1500, eta=0.25)
    scheme = burr_scheme(cell.gamma1, cell.p, cell.eta)
    estimates = []
    for i in range(200):
        rng = np.random.default_rng(replicate_stream(777, cell, i))
        z, delta = scheme.sample_arrays(cell.n, rng)
        sample = SortedCensoredSample.from_unsorted(z, delta)
        try:
            choice = reiss_thomas_k(sample)
        except DomainError:
            continue
        estimates.append(censored_hill(sample, choice.k_star).gamma1_hat)
    assert len(estimates) >= 100
    median = float(np.median(estimates))
    assert 0.25 * 0.75 <= median <= 0.25 * 1.25
