"""Data-driven threshold selection: path, scoring rule, fallbacks."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailpremium import (
    DomainError,
    SortedCensoredSample,
    StudyCell,
    ValidationError,
    burr_scheme,
    censored_hill,
    hill_estimator,
    reiss_thomas_k,
    replicate_stream,
    tail_index_path,
    uncensored_proportion,
)
from tailpremium import estimators as estimators_module
from tailpremium import threshold as threshold_module
from tailpremium.errors import _CODE, REASONS
from tailpremium.estimators import _fit_rows, _tail_path
from tailpremium.samples import _sort_rows
from tailpremium.threshold import _chain_rows, _window_scores

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
        scores = _window_scores(
            gamma1[None], np.array([[k]]), np.array([[True]]), self.BETA
        )
        return float(scores[0, 0])

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
        text = REASONS[_CODE["nonpositive_threshold"]][1].format(threshold=0.0)
        with pytest.raises(DomainError, match=re.escape(text)) as info:
            tail_index_path(sample, 2)
        assert info.value.reason == "nonpositive_threshold"

    def test_single_entry_path_is_the_estimators_at_one(self):
        # k_max = 1 is the smallest range the docstring allows.
        sample = sample_from_pairs([(1.0, 1), (2.0, 0), (4.0, 1), (8.0, 1)])
        gamma1, p_hat = tail_index_path(sample, 1)
        assert gamma1.shape == p_hat.shape == (1,)
        assert p_hat[0] == uncensored_proportion(sample, 1) == 1.0
        assert gamma1[0] == hill_estimator(sample, 1) == pytest.approx(LOG2)


def crafted_path_sample():
    """n = 120, Hill path at 0.62 for k <= 10, then decaying like 6.3/k.

    Every window through k = 24 touches an index >= 1/2, so the primary
    range (ceiling 10 at n = 120) is fully blocked and the widened search
    must return the first k whose window [13, k] clears the cap, k = 25.
    """
    targets = [0.62 if k <= 10 else 6.3 / k for k in range(1, 61)]
    logs = [5.0]
    for k, h in enumerate(targets, start=1):
        mean = sum(logs[:k]) / k
        logs.append(mean - h)
    assert all(a >= b - 1e-12 for a, b in zip(logs, logs[1:]))
    top = np.exp(logs)
    bulk = np.linspace(0.5 * top[-1], 0.9 * top[-1], 120 - top.size)
    z = np.concatenate([bulk, top[::-1]])
    return sample_from_arrays(z, np.ones(z.size, dtype=int))


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
        sample = crafted_path_sample()
        gamma1, _ = tail_index_path(sample, 30)
        assert gamma1[11] >= 0.5  # k = 12 still blocked
        assert gamma1[12] < 0.5  # k = 13 clears the cap

        choice = reiss_thomas_k(sample)
        assert choice.k_star == 25
        assert len(choice.objective_curve) == 1
        assert choice.objective_curve[0][0] == 25

    def test_rule_builds_no_product_limit_curve(self, monkeypatch):
        # The rule reads no anchor, so it pays for no product-limit pass.
        sample = crafted_path_sample()
        censored = sample_from_arrays(sample.z_sorted, np.zeros(sample.n, dtype=int))
        expected = reiss_thomas_k(sample)

        def no_products(*args, **kwargs):
            raise AssertionError("the rule built a product-limit curve")

        monkeypatch.setattr(estimators_module, "_km_products", no_products)
        assert reiss_thomas_k(sample) == expected
        with pytest.raises(DomainError, match="no admissible k"):
            reiss_thomas_k(censored)

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

    def test_runs_at_the_documented_minimum_sample(self):
        z = 1.0 + 0.1 * np.arange(10)
        assert reiss_thomas_k(sample_from_arrays(z, np.ones(10, dtype=int))).k_star == 3
        with pytest.raises(ValidationError, match="n >= 10"):
            reiss_thomas_k(sample_from_arrays(z[1:], np.ones(9, dtype=int)))

    @pytest.mark.parametrize("beta", [-0.1, 0.6, np.nextafter(0.5, 1.0)])
    def test_rejects_bad_beta(self, beta):
        sample = sample_from_arrays(np.arange(1.0, 21.0), np.ones(20, dtype=int))
        with pytest.raises(ValidationError, match="beta must"):
            reiss_thomas_k(sample, beta=beta)

    def test_three_positive_values_are_enough(self):
        # Three positives give the one candidate k = 2, as documented.
        z = np.concatenate([np.zeros(7), [1.0, 1.1, 1.2]])
        choice = reiss_thomas_k(sample_from_arrays(z, np.ones(10, dtype=int)))
        assert choice.k_star == 2
        assert choice.retention == 1.0

    @pytest.mark.parametrize("n", [34, 52, 75, 120])
    def test_candidate_ceiling_is_rounded_two_cube_roots(self, n):
        # On an idealized Pareto sample every window is admissible, so the
        # curve runs to the ceiling round(2 * n**(1/3)); at n = 34, 52 and
        # 75 a scale of 2.02 would round one higher.
        u = np.arange(1, n + 1) / (n + 1)
        choice = reiss_thomas_k(sample_from_arrays(u**-0.2, np.ones(n, dtype=int)))
        ks = [k for k, _ in choice.objective_curve]
        assert ks == list(range(2, round(2.0 * n ** (1.0 / 3.0)) + 1))

    def test_index_of_exactly_one_half_blocks_its_windows(self):
        # The path must stay strictly below 1/2: gamma1(1) = log(e**0.5) -
        # log(1) is exactly 0.5, which blocks k = 2 (window 1..2) only.
        top = [0.9, 1.0, float(np.exp(0.5))]
        z = np.concatenate([np.linspace(0.8, 0.85, 37), top])
        sample = sample_from_arrays(z, np.ones(z.size, dtype=int))
        gamma1, _ = tail_index_path(sample, 3)
        assert gamma1[0] == 0.5 and gamma1[1] < 0.5 and gamma1[2] < 0.5
        assert reiss_thomas_k(sample).objective_curve[0][0] == 3

    def test_three_positive_values_all_censored_have_no_admissible_k(self):
        # Three positives make k = 2 a candidate; censoring blocks it, which
        # is no_admissible_k up to 2, not too_few_positive.
        z = np.concatenate([np.zeros(7), [1.0, 1.1, 1.2]])
        with pytest.raises(DomainError, match="up to 2 contains") as caught:
            reiss_thomas_k(sample_from_arrays(z, np.zeros(10, dtype=int)))
        assert caught.value.reason == "no_admissible_k"

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


def choose_rows(z, delta, beta):
    """The rule's outcome on each row of a block, from the chain kernel.

    With no rho the fit only reads the path at k and the threshold.
    """
    chain = _chain_rows(z, delta, (), beta=beta)
    return SimpleNamespace(
        k_star=chain.k, code=chain.rule_code, k_limit=chain.k_limit,
        candidates=chain.candidates, scores=chain.scores, gamma1=chain.gamma1,
    )


class TestRowKernel:
    """Each row of the block kernel is the one-sample rule on that row."""

    N = 120

    def rows(self):
        rng = np.random.default_rng(31)
        n = self.N

        def heavy(size, share):
            z = (1.0 - rng.random(size)) ** -0.3
            return z, (rng.random(size) < share).astype(int)

        def with_zeros(zeros):
            z, delta = heavy(n - zeros, 0.7)
            return (
                np.concatenate([np.zeros(zeros), z]),
                np.concatenate([np.ones(zeros, dtype=int), delta]),
            )

        tied_top = heavy(n, 1.0)[0]
        tied_top[np.argsort(tied_top)[-20:]] = tied_top.max()
        return {
            "ordinary": sample_from_arrays(*heavy(n, 0.7)),
            "limit 19": sample_from_arrays(*with_zeros(100)),
            "limit 4": sample_from_arrays(*with_zeros(115)),
            "two positive": sample_from_arrays(*with_zeros(118)),
            "no admissible k": sample_from_arrays(heavy(n, 1.0)[0], np.zeros(n, int)),
            "widened": crafted_path_sample(),
            "zero index": sample_from_arrays(tied_top, np.ones(n, dtype=int)),
        }

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5])
    def test_each_row_equals_its_own_choice(self, beta):
        samples = self.rows()
        block = choose_rows(
            np.stack([s.z_sorted for s in samples.values()]),
            np.stack([s.delta_concomitant for s in samples.values()]),
            beta,
        )
        outcomes = {}
        for r, (name, sample) in enumerate(samples.items()):
            try:
                choice = reiss_thomas_k(sample, beta)
            except DomainError as exc:
                assert REASONS[block.code[r]][0] == exc.reason
                assert block.k_star[r] == 0
                outcomes[name] = str(exc)
                continue
            assert block.code[r] == -1
            assert block.k_star[r] == choice.k_star
            curve = ~np.isnan(block.scores[r])
            assert choice.objective_curve == tuple(
                zip(
                    block.candidates[r][curve].tolist(),
                    block.scores[r][curve].tolist(),
                )
            )
            expected_k, expected_curve = naive_threshold_choice(
                sample.z_sorted.tolist(), sample.delta_concomitant.tolist(), beta
            )
            assert choice.k_star == expected_k
            assert [k for k, _ in choice.objective_curve] == [
                k for k, _ in expected_curve
            ]
            outcomes[name] = choice
        # The rows exercise the branches they are named after.
        assert outcomes["ordinary"].objective_curve[-1][0] == 10
        assert max(k for k, _ in outcomes["limit 4"].objective_curve) <= 4
        assert "got 2" in outcomes["two positive"]
        assert outcomes["no admissible k"].startswith("no admissible k")
        assert "up to 60" in outcomes["no admissible k"]
        assert outcomes["widened"].k_star == 25
        assert len(outcomes["widened"].objective_curve) == 1
        zero = outcomes["zero index"]
        assert zero.k_star == 2
        assert censored_hill(samples["zero index"], zero.k_star).gamma1_hat == 0.0
        r = list(samples).index("zero index")
        assert block.gamma1[r] == 0.0

    def test_widened_row_extends_only_its_own_path(self, monkeypatch):
        # Only the rows whose primary range is blocked (the widened one
        # and the one with no admissible k) build their path past the
        # ceiling (10 at n = 120), in a path of their own; beside them,
        # ordinary and limited rows keep their own choice, and every row's
        # index at k* is the public path's.
        samples = self.rows()
        names = ["ordinary", "limit 4", "widened", "no admissible k", "zero index"]
        z = np.stack([samples[name].z_sorted for name in names])
        delta = np.stack([samples[name].delta_concomitant for name in names])
        real_path = estimators_module._tail_path
        shapes = []

        def recording_path(z_sorted, delta, k_max):
            shapes.append((len(z_sorted), k_max))
            return real_path(z_sorted, delta, k_max)

        monkeypatch.setattr(estimators_module, "_tail_path", recording_path)
        monkeypatch.setattr(threshold_module, "_tail_path", recording_path)
        block = choose_rows(z, delta, 0.3)
        monkeypatch.undo()
        assert shapes == [(5, 10), (2, self.N // 2)]
        for r, name in enumerate(names):
            alone = choose_rows(z[r][None].copy(), delta[r][None].copy(), 0.3)
            assert block.code[r] == alone.code[0]
            assert block.k_limit[r] == alone.k_limit[0]
            assert block.k_star[r] == alone.k_star[0]
            curve = ~np.isnan(block.scores[r])
            alone_curve = ~np.isnan(alone.scores[0])
            assert (
                block.candidates[r][curve].tolist()
                == alone.candidates[0][alone_curve].tolist()
            )
            assert (
                block.scores[r][curve].tobytes()
                == alone.scores[0][alone_curve].tobytes()
            )
            if block.code[r] >= 0:
                assert np.isnan(block.gamma1[r])
                continue
            k = int(block.k_star[r])
            own = block.gamma1[r].tobytes()
            assert own == alone.gamma1[0].tobytes()
            # The public path at n/2, or at the row's limit where fewer of
            # its order statistics are positive.
            k_max = min(self.N // 2, int(np.count_nonzero(z[r] > 0.0)) - 1)
            path, _ = tail_index_path(samples[name], k_max)
            assert own == path[k - 1].tobytes()
        assert block.k_star.tolist() == [4, 3, 25, 0, 2]
        assert block.code[3] == _CODE["no_admissible_k"]

    def test_random_block_rows_score_as_alone(self):
        # n = 600 puts the ceiling at 17: rows whose widest open window is
        # narrower than 8 share the block with rows whose window is wider,
        # so the scores of a row must not depend on its neighbours.
        rng = np.random.default_rng(32)
        samples = []
        for _ in range(40):
            z = (1.0 - rng.random(600)) ** -rng.uniform(0.15, 0.45)
            delta = (rng.random(600) < rng.uniform(0.5, 1.0)).astype(int)
            samples.append(sample_from_arrays(z, delta))
        block = choose_rows(
            np.stack([s.z_sorted for s in samples]),
            np.stack([s.delta_concomitant for s in samples]),
            0.3,
        )
        widest = set()
        for r, sample in enumerate(samples):
            try:
                choice = reiss_thomas_k(sample)
            except DomainError as exc:
                assert REASONS[block.code[r]][0] == exc.reason
                continue
            curve = ~np.isnan(block.scores[r])
            assert block.k_star[r] == choice.k_star
            assert block.candidates[r][curve].tolist() == [
                k for k, _ in choice.objective_curve
            ]
            assert block.scores[r][curve].tolist() == [
                score for _, score in choice.objective_curve
            ]
            widest.add(choice.objective_curve[-1][0] // 2 + 1 >= 8)
        assert widest == {False, True}

    def random_rows(self):
        # The 40 n = 600 samples of test_random_block_rows_score_as_alone.
        rng = np.random.default_rng(32)
        samples = []
        for _ in range(40):
            z = (1.0 - rng.random(600)) ** -rng.uniform(0.15, 0.45)
            delta = (rng.random(600) < rng.uniform(0.5, 1.0)).astype(int)
            samples.append(sample_from_arrays(z, delta))
        return samples

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5])
    def test_each_window_scores_as_alone(self, beta):
        # A score is the sum over its own window only: neither the other
        # candidates of its row nor the other rows of the block move a bit.
        scored = 0
        for samples in (list(self.rows().values()), self.random_rows()):
            block = choose_rows(
                np.stack([s.z_sorted for s in samples]),
                np.stack([s.delta_concomitant for s in samples]),
                beta,
            )
            z = np.stack([s.z_sorted for s in samples])
            delta = np.stack([s.delta_concomitant for s in samples])
            for r, j in zip(*np.nonzero(~np.isnan(block.scores))):
                # The row's own path, built only up to the candidate.
                k = int(block.candidates[r, j])
                path = _tail_path(z[r : r + 1], delta[r : r + 1], k)[0]
                alone = _window_scores(
                    path,
                    block.candidates[r : r + 1, j : j + 1],
                    np.ones((1, 1), dtype=bool),
                    beta,
                )
                assert alone[0, 0] == block.scores[r, j], (r, j)
                scored += 1
        assert scored > 400

    @pytest.mark.parametrize("layout", ["fortran", "row-strided"])
    def test_layout_does_not_change_bits(self, layout):
        # numpy picks its log routine by memory layout (a reversed 1-D view
        # gets another one than a contiguous slice, which can differ in the
        # last bit), so a block laid out otherwise must still give each row
        # the bits of that row alone.
        samples = self.random_rows()
        z = np.stack([s.z_sorted for s in samples])
        delta = np.stack([s.delta_concomitant for s in samples])
        if layout == "fortran":
            z, delta = np.asfortranarray(z), np.asfortranarray(delta)
        else:
            z, delta = np.repeat(z, 2, axis=0)[::2], np.repeat(delta, 2, axis=0)[::2]
        assert not z.flags.c_contiguous
        k_max = z.shape[1] // 2
        gamma1, p_hat, hill = _tail_path(z, delta, k_max)
        block = choose_rows(z, delta, 0.3)
        for r in range(z.shape[0]):
            row_gamma1, row_p_hat, row_hill = _tail_path(
                z[r].copy(), delta[r].copy(), k_max
            )
            assert hill[r].tobytes() == row_hill.tobytes()
            assert p_hat[r].tobytes() == row_p_hat.tobytes()
            assert gamma1[r].tobytes() == row_gamma1.tobytes()
            alone = choose_rows(z[r][None].copy(), delta[r][None].copy(), 0.3)
            assert block.code[r] == alone.code[0]
            assert block.k_limit[r] == alone.k_limit[0]
            assert block.k_star[r] == alone.k_star[0]
            assert block.gamma1[r].tobytes() == alone.gamma1[0].tobytes()
            assert block.candidates[r].tolist() == alone.candidates[0].tolist()
            assert block.scores[r].tobytes() == alone.scores[0].tobytes()


@st.composite
def chain_blocks(draw):
    """``(z, delta, k, retention)`` of a block of 1-5 sorted samples of one size.

    Values mix a small set with 0, so tops tie and thresholds vanish, with
    floats of every scale; flags are drawn with a share of their own per
    row, so some tops are all censored.  ``k`` is one valid k per row and
    ``retention`` one positive level per row.
    """
    n = draw(st.integers(10, 40))
    rows = draw(st.integers(1, 5))
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.5]),
        st.floats(0.0, 1e3, allow_subnormal=False),
    )
    z, delta = [], []
    for _ in range(rows):
        z.append(draw(st.lists(value, min_size=n, max_size=n)))
        share = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        flags = st.integers(0, 1) if 0.0 < share < 1.0 else st.just(int(share))
        delta.append(draw(st.lists(flags, min_size=n, max_size=n)))
    k = draw(st.lists(st.integers(1, n - 1), min_size=rows, max_size=rows))
    retention = draw(
        st.lists(st.floats(1e-3, 1e3), min_size=rows, max_size=rows)
    )
    z, delta = _sort_rows(np.array(z, dtype=np.float64), np.array(delta))
    return z, delta, np.array(k), np.array(retention)


def _crafted_block():
    # A row that widens beside one that does not (n = 120).
    widened = crafted_path_sample()
    plain = sample_from_arrays(1.0 + np.arange(120.0), np.ones(120, dtype=int))
    rows = (widened, plain)
    return (
        np.stack([s.z_sorted for s in rows]),
        np.stack([s.delta_concomitant for s in rows]),
        np.array([30, 7]),
        np.array([80.0, 200.0]),
    )


class TestChainKernel:
    """The chain kernel on a block equals each row run alone, bitwise."""

    FIELDS = (
        "k", "gamma1", "p_hat", "gamma_hill", "threshold", "anchor",
        "retention", "pi_hat", "code", "k_limit", "rule_code",
    )

    @pytest.mark.parametrize("with_retention", [False, True])
    @pytest.mark.parametrize("mode", ["rule", "given k"])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(block=chain_blocks())
    @example(block=_crafted_block())
    def test_block_equals_rows_alone(self, mode, with_retention, block):
        z, delta, k, retention = block
        rhos = (1.0, 0.0, 2.5)

        def run(rows):
            z_rows, delta_rows = z[rows].copy(), delta[rows].copy()
            given = retention[rows] if with_retention else None
            if mode == "given k":
                return _fit_rows(z_rows, delta_rows, k[rows], rhos, given)
            return _chain_rows(z_rows, delta_rows, rhos, beta=0.3, retention=given)

        chain = run(slice(None))
        for r in range(len(z)):
            alone = run(slice(r, r + 1))
            for name in self.FIELDS:
                got, want = getattr(chain, name), getattr(alone, name)
                if want is None:
                    assert got is None and mode == "given k"
                    continue
                assert got[r].tobytes() == want[0].tobytes(), (r, name)
            if mode == "given k":
                continue
            curve, own = ~np.isnan(chain.scores[r]), ~np.isnan(alone.scores[0])
            candidates = chain.candidates[r][curve].tolist()
            assert candidates == alone.candidates[0][own].tolist()
            assert chain.scores[r][curve].tobytes() == alone.scores[0][own].tobytes()
            # A row the rule failed is NaN but for k and its codes.
            failed = chain.k[r] == 0
            assert np.isnan(chain.retention[r]) == failed
            assert np.all(np.isnan(chain.pi_hat[r])) or not failed


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
    cell = StudyCell(gamma1=0.25, p=0.6, n=1500, eta=0.25)
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
