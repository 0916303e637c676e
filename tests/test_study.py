"""Monte Carlo engine: seeding, replicates, aggregation, scheduling."""

import dataclasses
import logging
import struct
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from tailpremium import (
    BurrModel,
    CensoringScheme,
    DomainError,
    EstimationSettings,
    ParetoModel,
    ReplicateResult,
    SortedCensoredSample,
    StudyCell,
    StudyConfig,
    StudyRow,
    ValidationError,
    aggregate,
    php_estimate,
    reiss_thomas_k,
    replicate_stream,
    run_study,
)
from tailpremium import cli
from tailpremium import study as study_module

from helpers import naive_aggregate, naive_threshold_choice, naive_uncensored_premium

CELL = StudyCell(gamma1=0.1, p=0.6, n=150, eta=0.25)

REFERENCE_CSV = (
    Path(__file__).resolve().parents[1] / "bench" / "reference"
    / "table1_seed1_r100.csv"
)


def one_replicate(cell, rho_values, replicate_index, master_seed, beta=0.3):
    """The study's results for one replicate of ``cell``: its block of one."""
    return study_module._replicate_block(
        cell,
        rho_values,
        range(replicate_index, replicate_index + 1),
        master_seed,
        beta,
    )[0]


def own_rho_replicate(cell, rho, replicate_index, master_seed, beta=0.3):
    """The replicate of ``cell`` evaluated at ``rho`` only."""
    return one_replicate(cell, (rho,), replicate_index, master_seed, beta)[0]


def study_groups(config):
    """The (p, n) sample groups of ``config``, p-major."""
    return [
        StudyCell(gamma1=config.gamma1, p=p, n=n, eta=config.eta)
        for p in config.p_values
        for n in config.n_values
    ]


def success(pi_true, pi_hat):
    return ReplicateResult(
        pi_true=pi_true, pi_hat=pi_hat, k_star=5, retention=2.0
    )


def float_bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


class TestStudyCell:
    def test_fields_are_the_sample_group(self):
        names = [f.name for f in dataclasses.fields(StudyCell)]
        assert names == ["gamma1", "p", "n", "eta"]
        with pytest.raises(TypeError):
            StudyCell(gamma1=0.1, p=0.6, rho=1.0, n=150, eta=0.25)
        with pytest.raises(TypeError):
            StudyCell(0.1, 0.6, 1.0, 150, 0.25)


class TestReplicateStream:
    def test_distortion_parameter_is_excluded(self):
        # The key is the sample group alone: every rho prices the same draws.
        assert replicate_stream(42, CELL, 7).entropy == [
            42, float_bits(0.1), float_bits(0.6), 150, float_bits(0.25), 7
        ]

    @pytest.mark.parametrize(
        "other",
        [
            StudyCell(gamma1=0.2, p=0.6, n=150, eta=0.25),
            StudyCell(gamma1=0.1, p=0.4, n=150, eta=0.25),
            StudyCell(gamma1=0.1, p=0.6, n=151, eta=0.25),
            StudyCell(gamma1=0.1, p=0.6, n=150, eta=0.5),
        ],
    )
    def test_every_other_coordinate_matters(self, other):
        assert (
            replicate_stream(42, CELL, 7).entropy
            != replicate_stream(42, other, 7).entropy
        )

    def test_index_and_seed_matter(self):
        assert (
            replicate_stream(42, CELL, 7).entropy
            != replicate_stream(42, CELL, 8).entropy
        )
        assert (
            replicate_stream(42, CELL, 7).entropy
            != replicate_stream(43, CELL, 7).entropy
        )

    def test_rejects_negative_index(self):
        with pytest.raises(ValidationError, match="replicate_index"):
            replicate_stream(42, CELL, -1)


class TestRunReplicate:
    def test_deterministic(self):
        first = own_rho_replicate(CELL, 1.0, 3, 777)
        second = own_rho_replicate(CELL, 1.0, 3, 777)
        assert first == second

    def test_matched_pairs_share_sample(self):
        low, high = one_replicate(CELL, (1.0, 1.1), 2, 777)
        assert low.failed is None and high.failed is None
        assert low.k_star == high.k_star
        assert low.retention == high.retention
        assert low.pi_hat != high.pi_hat

    def test_uncensored_replicate_matches_naive_pipeline(self, monkeypatch):
        # A censor living at 1e12 never binds, so the full estimate chain
        # must reproduce the plain-Python uncensored pipeline end to end.
        def degenerate_scheme(gamma1, p, eta):
            return CensoringScheme(
                loss_model=BurrModel(gamma=gamma1, eta=eta),
                censor_model=ParetoModel(gamma=0.05, x_min=1e12),
            )

        monkeypatch.setattr(study_module, "burr_scheme", degenerate_scheme)
        cell = StudyCell(gamma1=0.1, p=0.6, n=400, eta=0.25)
        result = own_rho_replicate(cell, 1.1, 5, 202)
        assert result.failed is None

        scheme = degenerate_scheme(cell.gamma1, cell.p, cell.eta)
        rng = np.random.default_rng(replicate_stream(202, cell, 5))
        z, delta = scheme.sample_arrays(cell.n, rng)
        assert delta.all()
        z_sorted = sorted(z.tolist())
        k_star, _ = naive_threshold_choice(z_sorted, [1] * cell.n)
        assert result.k_star == k_star
        assert result.retention == z_sorted[cell.n - k_star - 1]
        assert result.pi_hat == pytest.approx(
            naive_uncensored_premium(z_sorted, k_star, 1.1), rel=1e-10
        )

    def test_failure_is_recorded_not_raised(self):
        heavy = StudyCell(gamma1=0.95, p=0.9, n=150, eta=0.25)
        results = [own_rho_replicate(heavy, 1.0, i, 777) for i in range(10)]
        failures = [r for r in results if r.failed is not None]
        assert failures, "a tail index near 1 must trip the admissibility cap"
        assert all(r.pi_hat is None for r in failures)
        assert any("admissible" in r.failed for r in failures)


class TestReplicateResult:
    def test_success_requires_all_values(self):
        with pytest.raises(ValidationError, match="successful replicate"):
            ReplicateResult(pi_true=1.0, pi_hat=2.0, k_star=5)

    def test_failure_forbids_values(self):
        with pytest.raises(ValidationError, match="failed replicate"):
            ReplicateResult(pi_true=1.0, failed="boom")

    def test_valid_forms(self):
        assert success(1.0, 2.0).failed is None
        assert ReplicateResult(failed="boom").failed == "boom"


class TestAggregate:
    def test_single_replicate_hand_values(self):
        row = aggregate([success(2.0, 3.0)], p=0.4, rho=1.0, n=500)
        assert row == StudyRow(
            p=0.4,
            rho=1.0,
            n=500,
            mean_pi_true=2.0,
            mean_pi_hat=3.0,
            abs_bias=1.0,
            rmse=1.0,
            failure_count=0,
        )

    def test_bias_cancels_but_rmse_does_not(self):
        row = aggregate(
            [success(1.0, 2.0), success(3.0, 2.0)], p=0.4, rho=1.0, n=500
        )
        assert row.abs_bias == 0.0
        assert row.rmse == 1.0

    def test_failures_are_counted_and_excluded(self):
        row = aggregate(
            [success(2.0, 3.0), ReplicateResult(failed="x")],
            p=0.4,
            rho=1.0,
            n=500,
        )
        assert row.failure_count == 1
        assert row.mean_pi_hat == 3.0

    def test_matches_naive_aggregate(self):
        rng = np.random.default_rng(8)
        pairs = [(t, t + e) for t, e in zip(rng.random(40), rng.normal(size=40))]
        row = aggregate(
            [success(t, h) for t, h in pairs], p=0.4, rho=1.0, n=500
        )
        mean_true, mean_hat, abs_bias, rmse = naive_aggregate(pairs)
        assert row.mean_pi_true == pytest.approx(mean_true, rel=1e-12)
        assert row.mean_pi_hat == pytest.approx(mean_hat, rel=1e-12)
        assert row.abs_bias == pytest.approx(abs_bias, abs=1e-12)
        assert row.rmse == pytest.approx(rmse, rel=1e-12)

    def test_rmse_dominates_bias(self):
        rng = np.random.default_rng(9)
        results = [
            success(float(t), float(t + e))
            for t, e in zip(rng.random(60), rng.normal(size=60))
        ]
        row = aggregate(results, p=0.4, rho=1.0, n=500)
        assert row.rmse >= row.abs_bias

    def test_all_failed_is_an_error(self):
        with pytest.raises(DomainError, match="every replicate failed"):
            aggregate(
                [ReplicateResult(failed="x")] * 3, p=0.4, rho=1.0, n=500
            )


def small_config(**overrides):
    settings = dict(
        gamma1=0.1,
        p_values=(0.6,),
        rho_values=(1.0,),
        n_values=(150,),
        eta=0.25,
        replicates=4,
        master_seed=777,
    )
    settings.update(overrides)
    return StudyConfig(**settings)


class TestStudyConfig:
    def test_accepts_and_normalizes(self):
        config = small_config(replicates=np.int64(4), n_values=[150, 200])
        assert config.replicates == 4
        assert config.n_values == (150, 200)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(gamma1=0.0), "gamma1"),
            (dict(eta=-1.0), "eta"),
            (dict(p_values=(0.6, 1.0)), "p must"),
            (dict(p_values=()), "p must"),
            (dict(rho_values=(0.9,)), "rho must"),
            (dict(n_values=(99,)), "n must"),
            (dict(replicates=0), "replicates"),
            (dict(replicates=2.5), "replicates"),
            (dict(master_seed=-1), "master_seed"),
            (dict(master_seed=1 << 64), "master_seed"),
            (dict(beta=0.6), "beta"),
            (dict(rho_values=(float("nan"),)), "rho must"),
            (dict(rho_values=(1.0, float("inf"))), "rho must"),
            (dict(n_values=(150.7,)), "n must"),
            (dict(n_values=(150, 200.0)), "n must"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            small_config(**overrides)


class TestRunStudy:
    def test_output_order_p_major(self):
        config = small_config(
            p_values=(0.4, 0.6), rho_values=(1.0, 1.1), n_values=(150, 200)
        )
        rows = run_study(config)
        assert [(r.p, r.rho, r.n) for r in rows] == [
            (0.4, 1.0, 150),
            (0.4, 1.0, 200),
            (0.4, 1.1, 150),
            (0.4, 1.1, 200),
            (0.6, 1.0, 150),
            (0.6, 1.0, 200),
            (0.6, 1.1, 150),
            (0.6, 1.1, 200),
        ]

    def test_single_replicate_reduces_to_run_replicate(self):
        config = small_config(replicates=1)
        (row,) = run_study(config)
        result = own_rho_replicate(CELL, 1.0, 0, 777)
        assert row.mean_pi_hat == result.pi_hat
        assert row.mean_pi_true == result.pi_true
        assert row.failure_count == 0

    def test_worker_count_does_not_change_results(self):
        config = small_config(
            p_values=(0.4, 0.6), replicates=6, n_values=(150,)
        )
        assert run_study(config, workers=1) == run_study(config, workers=2)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValidationError, match="workers"):
            run_study(small_config(), workers=0)

    def test_all_failed_cell_is_dropped_with_warning(self, monkeypatch, caplog):
        real = study_module._replicate_block

        def failing_on_low_p(cell, rho_values, indices, seed, beta=0.3):
            if cell.p == 0.4:
                failed = (ReplicateResult(failed="synthetic failure"),)
                return [failed * len(rho_values)] * len(indices)
            return real(cell, rho_values, indices, seed, beta)

        monkeypatch.setattr(study_module, "_replicate_block", failing_on_low_p)
        config = small_config(p_values=(0.4, 0.6), replicates=2)
        with caplog.at_level(logging.WARNING, logger="tailpremium.study"):
            rows = run_study(config)
        assert [row.p for row in rows] == [0.6]
        assert any("dropping cell" in r.message for r in caplog.records)

    def test_partial_failures_warn_but_keep_cell(self, monkeypatch, caplog):
        real = study_module._replicate_block

        def failing_first_replicate(cell, rho_values, indices, seed, beta=0.3):
            results = real(cell, rho_values, indices, seed, beta)
            failed = (ReplicateResult(failed="synthetic failure"),)
            return [
                failed * len(rho_values) if index == 0 else result
                for index, result in zip(indices, results)
            ]

        monkeypatch.setattr(
            study_module, "_replicate_block", failing_first_replicate
        )
        config = small_config(replicates=3)
        with caplog.at_level(logging.WARNING, logger="tailpremium.study"):
            (row,) = run_study(config)
        assert row.failure_count == 1
        assert any("1 of 3 replicates failed" in r.message for r in caplog.records)

    def test_every_cell_failing_is_an_error(self, monkeypatch):
        monkeypatch.setattr(
            study_module,
            "_replicate_block",
            lambda cell, rho_values, indices, seed, beta=0.3: (
                [(ReplicateResult(failed="x"),) * len(rho_values)] * len(indices)
            ),
        )
        with pytest.raises(DomainError, match="every cell of the study failed"):
            run_study(small_config(replicates=2))

    def test_duplicated_grid_values_are_computed_once(self, monkeypatch):
        real = study_module._replicate_block
        calls = []

        def counting(cell, rho_values, indices, seed, beta=0.3):
            calls.append((cell, tuple(rho_values), list(indices)))
            return real(cell, rho_values, indices, seed, beta)

        monkeypatch.setattr(study_module, "_replicate_block", counting)
        run_study(
            small_config(
                p_values=(0.6, 0.6), rho_values=(1.0, 1.0), n_values=(150, 200),
                replicates=3,
            )
        )
        # Each (p, n) group's replicates are covered exactly once, in
        # order, and priced at the distinct rho values only.
        covered = {}
        for cell, rhos, indices in calls:
            assert rhos == (1.0,)
            covered.setdefault((cell.p, cell.n), []).extend(indices)
        assert covered == {(0.6, 150): [0, 1, 2], (0.6, 200): [0, 1, 2]}

    def test_duplicated_grid_values_give_duplicated_rows(self):
        config = small_config(
            p_values=(0.6, 0.6), rho_values=(1.0, 1.0), n_values=(150, 200),
            replicates=3,
        )
        rows = run_study(config)
        assert [(r.p, r.rho, r.n) for r in rows] == [
            (0.6, 1.0, 150),
            (0.6, 1.0, 200),
        ] * 4
        assert rows[0::2] == [rows[0]] * 4
        assert rows[1::2] == [rows[1]] * 4
        assert rows[0] != rows[1]


# gamma1 = 0.3 at rho = 2.5: the threshold fails on many samples, and on
# others only the larger rho fails (estimated rho * gamma1 >= 1).
MATCHED = small_config(
    gamma1=0.3,
    p_values=(0.7, 0.9),
    rho_values=(1.0, 2.5),
    n_values=(150, 200),
    replicates=12,
    beta=0.2,
)


class TestMatchedReplicates:
    def test_each_rho_equals_its_own_replicate(self):
        config = MATCHED
        rho_specific = 0
        for cell in study_groups(config):
            for i in range(config.replicates):
                matched = one_replicate(
                    cell, config.rho_values, i, config.master_seed, config.beta
                )
                for rho, result in zip(config.rho_values, matched):
                    assert result == own_rho_replicate(
                        cell, rho, i, config.master_seed, config.beta
                    )
                low, high = matched
                rho_specific += low.failed is None and high.failed is not None
        assert rho_specific > 0, "some replicate must fail at the larger rho only"

    def test_study_rows_equal_per_cell_replicates(self):
        config = MATCHED
        expected = [
            aggregate(
                [
                    own_rho_replicate(
                        StudyCell(config.gamma1, p, n, config.eta),
                        rho,
                        i,
                        config.master_seed,
                        config.beta,
                    )
                    for i in range(config.replicates)
                ],
                p=p,
                rho=rho,
                n=n,
            )
            for p in config.p_values
            for rho in config.rho_values
            for n in config.n_values
        ]
        assert run_study(config) == expected
        assert run_study(config, workers=2) == expected

    def test_threshold_failure_fails_every_rho_alike(self):
        rho_values = (1.0, 1.1, 2.5)
        cell = study_groups(MATCHED)[0]
        threshold_failures = 0
        for i in range(MATCHED.replicates):
            results = one_replicate(cell, rho_values, i, 777, 0.2)
            assert len(results) == len(rho_values)
            if results[0].failed and "admissible" in results[0].failed:
                threshold_failures += 1
                assert results == (results[0],) * len(rho_values)
        assert threshold_failures > 0


# gamma1 = 0.25: a fifth to two fifths of the threshold choices fail, and
# at rho = 2.5 some estimates fail on their own (rho * gamma1_hat >= 1).
# n = 500 puts the threshold ceiling at 16, where window sums are pairwise.
GAMMA_025 = small_config(
    gamma1=0.25,
    p_values=(0.5, 0.8),
    rho_values=(1.0, 1.1, 2.5),
    n_values=(150, 500),
    replicates=10,
    master_seed=4242,
)


def scalar_replicate(cell, rho_values, replicate_index, master_seed, beta):
    """One replicate through the one-sample public API, rho by rho."""
    scheme = study_module.burr_scheme(cell.gamma1, cell.p, cell.eta)
    rng = np.random.default_rng(
        replicate_stream(master_seed, cell, replicate_index)
    )
    sample = SortedCensoredSample.from_unsorted(
        *scheme.sample_arrays(cell.n, rng)
    )
    try:
        choice = reiss_thomas_k(sample, beta)
    except (DomainError, ValidationError) as exc:
        return (ReplicateResult(failed=str(exc)),) * len(rho_values)
    results = []
    for rho in rho_values:
        try:
            estimate = php_estimate(
                sample, EstimationSettings(k=choice.k_star, rho=rho)
            )
            pi_true = float(scheme.loss_model.premium(rho, estimate.retention))
        except (DomainError, ValidationError) as exc:
            results.append(ReplicateResult(failed=str(exc)))
        else:
            results.append(
                ReplicateResult(
                    pi_true=pi_true,
                    pi_hat=estimate.value,
                    k_star=choice.k_star,
                    retention=estimate.retention,
                )
            )
    return tuple(results)


def scalar_group(config, cell):
    rhos = tuple(dict.fromkeys(config.rho_values))
    return [
        scalar_replicate(cell, rhos, i, config.master_seed, config.beta)
        for i in range(config.replicates)
    ]


def scalar_rows(config):
    """Study rows aggregated from one-sample replicates, failed cells dropped."""
    rhos = tuple(dict.fromkeys(config.rho_values))
    matched = {
        (cell.p, cell.n): scalar_group(config, cell)
        for cell in study_groups(config)
    }
    rows = []
    for p, rho, n in product(config.p_values, config.rho_values, config.n_values):
        try:
            rows.append(
                aggregate(
                    [m[rhos.index(rho)] for m in matched[p, n]], p=p, rho=rho, n=n
                )
            )
        except DomainError:
            pass
    return rows


@dataclasses.dataclass(frozen=True)
class CappedPareto:
    """Pareto losses capped at ``cap``: the largest records tie at the cap."""

    gamma: float
    cap: float

    @property
    def tail_index(self):
        return self.gamma

    def quantile_of_survival(self, s):
        return np.minimum(np.asarray(s) ** -self.gamma, self.cap)

    def premium(self, rho, retention):
        raise AssertionError("a degenerate tail is never priced")


class TestReplicateBlocks:
    """A block of replicates equals its replicates run one at a time."""

    @pytest.mark.parametrize("size", [1, 7, None], ids=["B=1", "B=7", "B=all"])
    @pytest.mark.parametrize(
        "config", [MATCHED, GAMMA_025], ids=["matched", "gamma1=0.25"]
    )
    def test_blocks_equal_one_sample_pipeline(self, config, size):
        rhos = tuple(dict.fromkeys(config.rho_values))
        count = config.replicates
        size = size or count
        threshold_failures = rho_only_failures = 0
        for cell in study_groups(config):
            expected = scalar_group(config, cell)
            blocks = []
            for start in range(0, count, size):
                blocks += study_module._replicate_block(
                    cell,
                    rhos,
                    range(start, min(start + size, count)),
                    config.master_seed,
                    config.beta,
                )
            assert blocks == expected
            assert [
                one_replicate(
                    cell, rhos, i, config.master_seed, config.beta
                )
                for i in range(count)
            ] == expected
            for results in expected:
                failed = [r.failed is not None for r in results]
                threshold_failures += all(failed)
                rho_only_failures += any(failed) and not all(failed)
        assert rho_only_failures > 0
        if config is GAMMA_025:
            assert threshold_failures > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("size", [1, 7, None], ids=["B=1", "B=7", "B=all"])
    @pytest.mark.parametrize(
        "config", [MATCHED, GAMMA_025], ids=["matched", "gamma1=0.25"]
    )
    def test_study_rows_do_not_depend_on_the_partition(
        self, monkeypatch, config, size, workers
    ):
        # The record budget gives `size` replicates per block at the
        # largest n of the grid (and at least as many at the others).
        budget = (size or config.replicates) * max(config.n_values)
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", budget)
        assert run_study(config, workers=workers) == scalar_rows(config)

    def test_zero_index_fails_every_rho_like_the_estimate(self, monkeypatch):
        def capped_scheme(gamma1, p, eta):
            return CensoringScheme(
                loss_model=CappedPareto(gamma=0.5, cap=5.0),
                censor_model=ParetoModel(gamma=0.05, x_min=1e12),
            )

        monkeypatch.setattr(study_module, "burr_scheme", capped_scheme)
        cell = StudyCell(gamma1=0.5, p=0.6, n=400, eta=0.25)
        rhos = (1.0, 1.1)
        block = study_module._replicate_block(cell, rhos, range(4), 77, 0.3)
        expected = [scalar_replicate(cell, rhos, i, 77, 0.3) for i in range(4)]
        assert block == expected
        assert all(
            r.failed.startswith("tail index estimate is not positive")
            for results in block
            for r in results
        )

    def test_no_block_exceeds_the_record_budget(self, monkeypatch):
        real = study_module._replicate_block
        blocks = []

        def spy(cell, rho_values, indices, seed, beta=0.3):
            blocks.append((cell.n, indices))
            return real(cell, rho_values, indices, seed, beta)

        monkeypatch.setattr(study_module, "_replicate_block", spy)
        budget = study_module._BLOCK_RECORDS
        config = small_config(n_values=(500, 1500), replicates=2 * budget // 1500 + 1)
        run_study(config)
        assert all(n * len(indices) <= budget for n, indices in blocks)
        # Blocks use the whole budget, so larger samples come in more of them.
        assert [len(indices) for n, indices in blocks if n == 1500] == [
            budget // 1500, budget // 1500, 1
        ]
        assert {n for n, _ in blocks} == {500, 1500}


@pytest.mark.parametrize("workers", [1, 2])
def test_table1_matches_reference_csv(tmp_path, workers):
    config = tmp_path / "table1.cfg"
    config.write_text(
        "gamma1 = 0.1\n"
        "eta = 0.25\n"
        "p_values = 0.4, 0.6, 0.8\n"
        "rho_values = 1.0, 1.1\n"
        "n_values = 500, 1000, 1500\n"
        "replicates = 100\n"
        "master_seed = 7340927056714835338\n"
    )
    out = tmp_path / "table1.csv"
    argv = ["simulate", str(config), "--out", str(out), "--workers", str(workers)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == REFERENCE_CSV.read_bytes()
