"""Monte Carlo engine: seeding, replicates, aggregation, scheduling."""

import dataclasses
import logging
import os
import struct
import sys
import threading
import time
import tracemalloc
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailpremium import (
    BurrModel,
    CensoringScheme,
    DomainError,
    EstimationSettings,
    ParetoModel,
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
from tailpremium import estimators as estimators_module
from tailpremium import models as models_module
from tailpremium import study as study_module
from tailpremium.errors import _CODE, REASONS
from tailpremium.samples import _check_rows, _sort_rows
from tailpremium import threshold as threshold_module
from tailpremium.threshold import _chain_rows

from helpers import naive_aggregate, naive_threshold_choice, naive_uncensored_premium

CELL = StudyCell(gamma1=0.1, p=0.6, n=150, eta=0.25)

REFERENCE_CSV = (
    Path(__file__).resolve().parents[1] / "bench" / "reference"
    / "table1_seed1_r100.csv"
)


def priced(cell, rho_values, block):
    """``(pi_true, pi_hat, code)`` of a block, priced as ``run_study`` does.

    ``block`` is ``(retention, pi_hat, code)`` of one or more joined
    blocks of ``cell``'s group; the exact premium is taken under the
    group's loss model.
    """
    retention, pi_hat, code = block
    loss_model = study_module.burr_scheme(cell.gamma1, cell.p, cell.eta).loss_model
    pi_true = study_module._price_exact(
        loss_model, rho_values, retention, pi_hat, code
    )
    return pi_true, pi_hat, code


def one_replicate(cell, rho_values, replicate_index, master_seed, beta=0.3):
    """The study's columns for one replicate of ``cell``: its block of one."""
    return priced(
        cell,
        rho_values,
        study_module._replicate_block(
            cell,
            rho_values,
            range(replicate_index, replicate_index + 1),
            master_seed,
            beta,
        ),
    )


def own_rho_replicate(cell, rho, replicate_index, master_seed, beta=0.3):
    """The replicate of ``cell`` evaluated at ``rho`` only."""
    return one_replicate(cell, (rho,), replicate_index, master_seed, beta)


def study_groups(config):
    """The (p, n) sample groups of ``config``, p-major."""
    return [
        StudyCell(gamma1=config.gamma1, p=p, n=n, eta=config.eta)
        for p in config.p_values
        for n in config.n_values
    ]


def chosen_threshold(cell, replicate_index, master_seed, beta=0.3):
    """``(k*, retention)`` that the chain's rule picks on a replicate's draws."""
    scheme = study_module.burr_scheme(cell.gamma1, cell.p, cell.eta)
    rng = np.random.default_rng(
        replicate_stream(master_seed, cell, replicate_index)
    )
    z, delta = _sort_rows(*scheme.records(scheme.draw(cell.n, rng)[None]))
    k = int(_chain_rows(z, delta, (), beta=beta).k[0])
    return k, float(z[0, cell.n - k - 1])


def join(blocks):
    """The columns of consecutive blocks, stacked along the replicates."""
    return tuple(np.concatenate(column) for column in zip(*blocks))


def assert_columns_equal(actual, expected):
    for got, want in zip(actual, expected, strict=True):
        np.testing.assert_array_equal(got, want, strict=True)


def columns(pairs, failures=()):
    """Replicate columns: successful ``(pi_true, pi_hat)`` pairs, then the
    failures' reason names."""
    nan = [np.nan] * len(failures)
    return (
        np.array([t for t, _ in pairs] + nan),
        np.array([h for _, h in pairs] + nan),
        np.array([-1] * len(pairs) + [_CODE[name] for name in failures]),
    )


def failed_columns(rho_values, indices, reason="no_admissible_k"):
    """A block whose every threshold choice failed for the named ``reason``."""
    shape = (len(indices), len(rho_values))
    return (
        np.full(len(indices), np.nan),
        np.full(shape, np.nan),
        np.full(shape, _CODE[reason]),
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

    @pytest.mark.parametrize("index", [True, 2.0, np.float64(3.0)])
    def test_rejects_a_non_integer_index(self, index):
        # A bool or a float would be taken as its integer value.
        with pytest.raises(ValidationError) as caught:
            replicate_stream(42, CELL, index)
        assert str(caught.value) == (
            f"replicate_index must be an integer >= 0, got {index!r}"
        )

    @pytest.mark.parametrize("master_seed", [-1, (1 << 64) + 5, True])
    def test_rejects_a_seed_outside_64_bits(self, master_seed):
        # Folded into 64 bits, -1 would alias 2**64 - 1 and 2**64 + 5 alias 5.
        with pytest.raises(ValidationError) as caught:
            replicate_stream(master_seed, CELL, 3)
        assert str(caught.value) == (
            f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}"
        )
        with pytest.raises(ValidationError) as from_config:
            small_config(master_seed=master_seed)
        assert str(from_config.value) == str(caught.value)


class TestBlockDraws:
    @pytest.mark.parametrize(
        "master_seed, cell, indices",
        [
            (777, CELL, range(0, 5)),
            (4242, StudyCell(gamma1=0.25, p=0.8, n=500, eta=0.5), range(97, 100)),
            (
                (1 << 64) - 1,
                StudyCell(gamma1=0.1, p=0.4, n=1500, eta=0.25),
                range(7, 8),
            ),
        ],
    )
    def test_rows_equal_the_public_streams(self, master_seed, cell, indices):
        # The buffer is filled from one group key, yet each row is the
        # replicate's own draw from replicate_stream, bit for bit.
        draws = study_module._block_draws(master_seed, cell, indices)
        scheme = study_module.burr_scheme(cell.gamma1, cell.p, cell.eta)
        assert draws.shape == (len(indices), 2, cell.n)
        for row, i in zip(draws, indices):
            rng = np.random.default_rng(replicate_stream(master_seed, cell, i))
            np.testing.assert_array_equal(row, scheme.draw(cell.n, rng), strict=True)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        master_seed=st.one_of(
            st.just(0),
            st.integers(1, (1 << 32) - 1),
            st.integers(1 << 32, (1 << 64) - 1),
        ),
        gamma1=st.floats(0.0, 10.0, exclude_min=True),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        eta=st.floats(0.0, 10.0, exclude_min=True),
        n=st.integers(1, 300),
        count=st.integers(1, 6),
        start=st.one_of(
            st.just(0), st.just(None), st.integers(0, (1 << 32) - 6)
        ),
    )
    @example(
        master_seed=0, gamma1=5e-324, p=0.5, eta=0.25, n=100, count=3, start=None
    )
    @example(
        master_seed=(1 << 64) - 1, gamma1=0.1, p=1e-320, eta=3.0, n=1, count=6,
        start=0,
    )
    def test_block_states_equal_seed_sequences(
        self, master_seed, gamma1, p, eta, n, count, start
    ):
        # The block's seed words come from one array pass; each row must
        # still be, bit for bit, what SeedSequence and PCG64 give the
        # replicate.  Subnormal floats and small seeds take one entropy
        # word, others two; start=None ends the range at 2**32.
        cell = StudyCell(gamma1=gamma1, p=p, n=n, eta=eta)
        if start is None:
            start = (1 << 32) - count
        indices = range(start, start + count)
        draws = study_module._block_draws(master_seed, cell, indices)
        assert draws.shape == (count, 2, n)
        for row, i in zip(draws, indices):
            rng = np.random.default_rng(replicate_stream(master_seed, cell, i))
            assert row.tobytes() == rng.random((2, n)).tobytes()

    @pytest.mark.parametrize(
        "master_seed, gamma1, p, eta, n, entropy",
        [
            (7, 5e-324, 1e-320, 2e-315, 100, 5),
            (1 << 40, 5e-324, 1e-320, 2e-315, 100, 6),
            (7, 0.1, 0.4, 2e-315, 1000, 7),
            ((1 << 64) - 1, 0.25, 1e-320, 0.5, 500, 8),
            (1 << 32, 0.1, 0.4, 0.25, 1500, 9),
            ((1 << 64) - 1, 0.1, 0.4, 0.25, (1 << 32) + 3, 10),
        ],
    )
    def test_seed_words_equal_seed_sequence_states(
        self, master_seed, gamma1, p, eta, n, entropy
    ):
        # The index word's first hash constant follows from the group's
        # count of 32-bit entropy words: each count from the fewest (5)
        # to the most (10, which takes n >= 2**32) is checked at the
        # first, second and last index a study may use.
        words = [master_seed, *map(float_bits, (gamma1, p)), n, float_bits(eta)]
        assert words == study_module._group_words(
            master_seed, StudyCell(gamma1=gamma1, p=p, n=n, eta=eta)
        )
        assert sum(-(-max(w.bit_length(), 1) // 32) for w in words) == entropy
        for indices in (range(0, 2), range((1 << 32) - 1, 1 << 32)):
            rows = study_module._seed_words(words, indices)
            assert rows.dtype == np.uint64 and rows.shape == (len(indices), 4)
            for row, i in zip(rows, indices):
                assert row.flags.c_contiguous
                expected = np.random.SeedSequence([*words, i]).generate_state(
                    4, np.uint64
                )
                np.testing.assert_array_equal(row, expected, strict=True)

    @pytest.mark.parametrize(
        "n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64)]
    )
    def test_seed_row_serves_only_four_uint64_words(self, n_words, dtype):
        # PCG64 reads four uint64 words from the row as they are; a numpy
        # that asked for anything else would seed other streams, so the
        # request fails instead.
        row = study_module._seed_words([7, 1, 2, 100, 3], range(5, 6))[0]
        seed = study_module._SeedRow(row)
        assert seed.generate_state(4, np.uint64) is row
        with pytest.raises(RuntimeError, match="4 uint64 words"):
            seed.generate_state(n_words, dtype)

    def test_block_retentions_come_from_the_public_streams(self):
        retention, _, code = study_module._replicate_block(
            CELL, (1.0,), range(2, 6), 777, 0.3
        )
        assert (code == -1).all()
        np.testing.assert_array_equal(
            retention, [chosen_threshold(CELL, i, 777)[1] for i in range(2, 6)]
        )


class TestOneReplicate:
    def test_deterministic(self):
        first = own_rho_replicate(CELL, 1.0, 3, 777)
        second = own_rho_replicate(CELL, 1.0, 3, 777)
        assert_columns_equal(first, second)

    def test_matched_pairs_share_sample(self):
        pi_true, pi_hat, code = one_replicate(CELL, (1.0, 1.1), 2, 777)
        assert code.tolist() == [[-1, -1]]
        # Both rho are priced at the one retention chosen on the draws.
        _, retention = chosen_threshold(CELL, 2, 777)
        model = study_module.burr_scheme(CELL.gamma1, CELL.p, CELL.eta).loss_model
        np.testing.assert_array_equal(
            pi_true,
            [[model.premium(rho, np.array([retention]))[0] for rho in (1.0, 1.1)]],
        )
        assert pi_hat[0, 0] != pi_hat[0, 1]

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
        _, pi_hat, code = own_rho_replicate(cell, 1.1, 5, 202)
        assert code.tolist() == [[-1]]

        scheme = degenerate_scheme(cell.gamma1, cell.p, cell.eta)
        rng = np.random.default_rng(replicate_stream(202, cell, 5))
        z, delta = scheme.sample_arrays(cell.n, rng)
        assert delta.all()
        z_sorted = sorted(z.tolist())
        k_star, _ = naive_threshold_choice(z_sorted, [1] * cell.n)
        assert chosen_threshold(cell, 5, 202) == (
            k_star, z_sorted[cell.n - k_star - 1]
        )
        assert pi_hat[0, 0] == pytest.approx(
            naive_uncensored_premium(z_sorted, k_star, 1.1), rel=1e-10
        )

    def test_failure_is_recorded_not_raised(self):
        heavy = StudyCell(gamma1=0.95, p=0.9, n=150, eta=0.25)
        _, pi_hat, code = join(
            own_rho_replicate(heavy, 1.0, i, 777) for i in range(10)
        )
        failures = code >= 0
        assert failures.any(), "a tail index near 1 must trip the admissibility cap"
        assert np.isnan(pi_hat[failures]).all()
        assert (code[failures] == _CODE["no_admissible_k"]).any()


class TestAggregate:
    def test_single_replicate_hand_values(self):
        row = aggregate(*columns([(2.0, 3.0)]), p=0.4, rho=1.0, n=500)
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
            *columns([(1.0, 2.0), (3.0, 2.0)]), p=0.4, rho=1.0, n=500
        )
        assert row.abs_bias == 0.0
        assert row.rmse == 1.0

    def test_failures_are_counted_and_excluded(self):
        row = aggregate(
            *columns([(2.0, 3.0)], failures=["heavy_tail"]),
            p=0.4,
            rho=1.0,
            n=500,
        )
        assert row.failure_count == 1
        assert row.mean_pi_hat == 3.0

    def test_matches_naive_aggregate(self):
        rng = np.random.default_rng(8)
        pairs = [(t, t + e) for t, e in zip(rng.random(40), rng.normal(size=40))]
        row = aggregate(*columns(pairs), p=0.4, rho=1.0, n=500)
        mean_true, mean_hat, abs_bias, rmse = naive_aggregate(pairs)
        assert row.mean_pi_true == pytest.approx(mean_true, rel=1e-12)
        assert row.mean_pi_hat == pytest.approx(mean_hat, rel=1e-12)
        assert row.abs_bias == pytest.approx(abs_bias, abs=1e-12)
        assert row.rmse == pytest.approx(rmse, rel=1e-12)

    def test_rmse_dominates_bias(self):
        rng = np.random.default_rng(9)
        pairs = [
            (float(t), float(t + e))
            for t, e in zip(rng.random(60), rng.normal(size=60))
        ]
        row = aggregate(*columns(pairs), p=0.4, rho=1.0, n=500)
        assert row.rmse >= row.abs_bias

    def test_all_failed_is_an_error(self):
        failures = ["heavy_tail", "no_admissible_k", "heavy_tail"]
        with pytest.raises(DomainError, match="every replicate failed") as info:
            aggregate(*columns([], failures=failures), p=0.4, rho=1.0, n=500)
        # Reason names with counts, in the table's order.
        assert str(info.value).endswith("reasons: no_admissible_k=1, heavy_tail=2")


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


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_reaped(pids):
    """Each pid was a child of this process and has been waited for."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestStudyConfig:
    def test_accepts_and_normalizes(self):
        config = small_config(replicates=np.int64(4), n_values=[150, 200])
        assert config.replicates == 4
        assert config.n_values == (150, 200)

    def test_replicates_up_to_two_to_the_32(self):
        # Every index then fits one 32-bit entropy word, the only case the
        # block seeding hashes; one more replicate is refused.
        assert small_config(replicates=1 << 32).replicates == 1 << 32
        with pytest.raises(ValidationError) as caught:
            small_config(replicates=np.uint64((1 << 32) + 1))
        assert str(caught.value) == (
            "replicates must be an integer in [1, 2**32], got np.uint64(4294967297)"
        )

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
            (dict(n_values=(150, True)), "n must"),
            (dict(replicates=True), "replicates must .* got True"),
            (dict(master_seed=True), "master_seed must .* got True"),
            (dict(master_seed=False), "master_seed must .* got False"),
            (dict(beta=0.501), "beta"),
            (dict(p_values=(0.0, 0.6)), "p must"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "overrides", [dict(n_values=(100,)), dict(beta=0.0), dict(beta=0.5)]
    )
    def test_accepts_each_bound(self, overrides):
        config = small_config(**overrides)
        for field, value in overrides.items():
            assert getattr(config, field) == value

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(gamma1=True), "gamma1"),
            (dict(eta=True), "eta"),
            (dict(beta=False), "beta"),
            (dict(rho_values=(True,)), "rho_values"),
            (dict(rho_values=[1.1, np.True_]), "rho_values"),
        ],
    )
    def test_rejects_a_bool_for_a_number(self, overrides, field):
        with pytest.raises(ValidationError) as caught:
            small_config(**overrides)
        value = next(iter(overrides.values()))
        assert str(caught.value) == (
            f"{field} must be a number, not a bool, got {value!r}"
        )


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

    def test_single_replicate_row_is_that_replicate(self):
        config = small_config(replicates=1)
        (row,) = run_study(config)
        pi_true, pi_hat, _ = own_rho_replicate(CELL, 1.0, 0, 777)
        assert row.mean_pi_hat == pi_hat[0, 0]
        assert row.mean_pi_true == pi_true[0, 0]
        assert row.failure_count == 0

    def test_worker_count_does_not_change_results(self):
        config = small_config(
            p_values=(0.4, 0.6), replicates=6, n_values=(150,)
        )
        assert run_study(config, workers=1) == run_study(config, workers=2)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValidationError, match="workers"):
            run_study(small_config(), workers=0)

    @pytest.mark.parametrize("workers", [True, 2.0])
    def test_rejects_a_non_integer_worker_count(self, workers):
        # workers=True used to run one worker.
        with pytest.raises(ValidationError) as caught:
            run_study(small_config(), workers=workers)
        assert str(caught.value) == (
            f"workers must be an integer >= 1, got {workers!r}"
        )

    def test_pool_is_capped_at_the_block_count(self, forks, monkeypatch):
        # The pool is this process and one forked child per other share.
        config = small_config(replicates=3)
        expected = run_study(config)
        # One block: no child at all, however many workers are asked for.
        assert run_study(config, workers=8) == expected
        assert forks == []
        # One replicate per block: three blocks, so at most two children.
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", 150)
        assert run_study(config, workers=1) == expected
        assert forks == []
        assert run_study(config, workers=8) == expected
        assert len(forks) == 2
        assert run_study(config, workers=2) == expected
        assert len(forks) == 3
        assert_reaped(forks)
        # Without os.fork, every block runs in this process.
        monkeypatch.delattr(os, "fork")
        assert run_study(config, workers=8) == expected

    def test_debug_logs_error_quantiles_of_each_kept_cell(
        self, monkeypatch, caplog
    ):
        real = study_module._replicate_block

        def failing_on_high_p(cell, rho_values, indices, seed, beta=0.3, work=None):
            if cell.p == 0.9:
                return failed_columns(rho_values, indices)
            return real(cell, rho_values, indices, seed, beta)

        monkeypatch.setattr(study_module, "_replicate_block", failing_on_high_p)
        config = MATCHED
        with caplog.at_level(logging.WARNING, logger="tailpremium.study"):
            rows = run_study(config)
        warnings = [(r.levelno, r.getMessage()) for r in caplog.records]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="tailpremium.study"):
            assert run_study(config) == rows
        assert [
            (r.levelno, r.getMessage())
            for r in caplog.records
            if r.levelno >= logging.WARNING
        ] == warnings
        debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
        # The p = 0.9 cells are dropped and log no quantiles.
        assert {row.p for row in rows} == {0.7}
        assert [r.args[:3] for r in debug] == [(r.p, r.rho, r.n) for r in rows]
        for record, row in zip(debug, rows):
            assert "error quantiles" in record.getMessage()
            cell = StudyCell(config.gamma1, row.p, row.n, config.eta)
            pi_true, pi_hat, code = priced(
                cell,
                (row.rho,),
                real(
                    cell,
                    (row.rho,),
                    range(config.replicates),
                    config.master_seed,
                    config.beta,
                ),
            )
            errors = (pi_hat - pi_true)[code < 0]
            assert errors.size == config.replicates - row.failure_count
            quantiles = np.percentile(errors, [1, 25, 50, 75, 99])
            logged = record.args[3]
            assert logged == np.array2string(quantiles, precision=4)
            median = float(logged.strip("[]").split()[2])
            assert median == pytest.approx(
                np.percentile(errors, 50), rel=1e-4, abs=5e-5
            )

    def test_all_failed_cell_is_dropped_with_warning(self, monkeypatch, caplog):
        real = study_module._replicate_block

        def failing_on_low_p(cell, rho_values, indices, seed, beta=0.3, work=None):
            if cell.p == 0.4:
                return failed_columns(rho_values, indices)
            return real(cell, rho_values, indices, seed, beta)

        monkeypatch.setattr(study_module, "_replicate_block", failing_on_low_p)
        config = small_config(p_values=(0.4, 0.6), replicates=2)
        with caplog.at_level(logging.WARNING, logger="tailpremium.study"):
            rows = run_study(config)
        assert [row.p for row in rows] == [0.6]
        assert any("dropping cell" in r.message for r in caplog.records)

    def test_partial_failures_warn_but_keep_cell(self, monkeypatch, caplog):
        real = study_module._replicate_block

        def failing_first_replicate(
            cell, rho_values, indices, seed, beta=0.3, work=None
        ):
            retention, pi_hat, code = real(cell, rho_values, indices, seed, beta)
            first = np.equal(indices, 0)
            retention[first] = pi_hat[first] = np.nan
            code[first] = _CODE["no_admissible_k"]
            return retention, pi_hat, code

        monkeypatch.setattr(
            study_module, "_replicate_block", failing_first_replicate
        )
        config = small_config(replicates=3)
        with caplog.at_level(logging.WARNING, logger="tailpremium.study"):
            (row,) = run_study(config)
        assert row.failure_count == 1
        assert any(
            r.message.endswith("1 of 3 replicates failed; reasons: no_admissible_k=1")
            for r in caplog.records
        )

    def test_the_first_reason_fails_a_replicate_like_any_other(
        self, monkeypatch, caplog
    ):
        # Code 0 (too_few_positive) is a failure: it is counted, named in
        # the warning, kept out of the means, the error quantiles and the
        # exact premium; a cell with no failure warns nothing.
        real = study_module._replicate_block

        def failing_two_low_p_replicates(
            cell, rho_values, indices, seed, beta=0.3, work=None
        ):
            retention, pi_hat, code = real(cell, rho_values, indices, seed, beta)
            if cell.p == 0.4:
                for index, reason in ((0, "too_few_positive"), (2, "no_admissible_k")):
                    row = np.equal(indices, index)
                    retention[row] = pi_hat[row] = np.nan
                    code[row] = _CODE[reason]
            return retention, pi_hat, code

        monkeypatch.setattr(
            study_module, "_replicate_block", failing_two_low_p_replicates
        )
        config = small_config(p_values=(0.4, 0.6), replicates=5)
        with caplog.at_level(logging.DEBUG, logger="tailpremium.study"):
            failed, clean = run_study(config)
        assert (failed.failure_count, clean.failure_count) == (2, 0)
        assert [
            r.getMessage() for r in caplog.records if r.levelno == logging.WARNING
        ] == [
            "cell (p=0.4, rho=1, n=150): 2 of 5 replicates failed; "
            "reasons: too_few_positive=1, no_admissible_k=1"
        ]
        debug = [r.args[3] for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(debug) == 2 and not any("nan" in logged for logged in debug)
        cell = StudyCell(config.gamma1, 0.4, 150, config.eta)
        pi_true, pi_hat, _ = priced(
            cell, (1.0,), real(cell, (1.0,), range(5), config.master_seed, 0.3)
        )
        kept = [1, 3, 4]
        assert failed.mean_pi_hat == np.mean(pi_hat[kept, 0])
        assert failed.mean_pi_true == np.mean(pi_true[kept, 0])

    def test_every_cell_failing_is_an_error(self, monkeypatch):
        monkeypatch.setattr(
            study_module,
            "_replicate_block",
            lambda cell, rho_values, indices, seed, beta=0.3, work=None: (
                failed_columns(rho_values, indices)
            ),
        )
        with pytest.raises(DomainError, match="every cell of the study failed"):
            run_study(small_config(replicates=2))

    def test_duplicated_grid_values_are_computed_once(self, monkeypatch):
        real = study_module._replicate_block
        calls = []

        def counting(cell, rho_values, indices, seed, beta=0.3, work=None):
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


class TestWorkerProcesses:
    """The blocks split between this process and forked children."""

    @pytest.fixture
    def patch_blocks(self, monkeypatch):
        """Replace ``_replicate_block`` with ``fake(in_child, task, real)``.

        Every study block holds one replicate, so a 4-replicate run has
        four blocks and ``workers=2`` leaves two of them to one child.
        """
        parent = os.getpid()
        real = study_module._replicate_block
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", 150)

        def patch(fake):
            monkeypatch.setattr(
                study_module,
                "_replicate_block",
                lambda *task: fake(os.getpid() != parent, task, real),
            )

        return patch

    def test_child_error_surfaces_with_its_type_and_message(
        self, forks, patch_blocks
    ):
        def fail_in_child(in_child, task, real):
            if in_child:
                raise DomainError(f"synthetic failure at {task[2]}")
            return real(*task)

        patch_blocks(fail_in_child)
        with pytest.raises(DomainError) as caught:
            run_study(small_config(), workers=2)
        assert type(caught.value) is DomainError
        assert str(caught.value) in (
            "synthetic failure at range(1, 2)",
            "synthetic failure at range(3, 4)",
        )
        assert len(forks) == 1
        assert_reaped(forks)

    def test_child_that_dies_mid_share_raises(
        self, forks, patch_blocks, tmp_path, capsys
    ):
        calls = []

        def exit_mid_share(in_child, task, real):
            if in_child:
                calls.append(task)
                if len(calls) == 2:
                    os._exit(3)
            return real(*task)

        patch_blocks(exit_mid_share)
        with pytest.raises(ChildProcessError, match=r"exit status 3\)$") as caught:
            run_study(small_config(), workers=2)
        assert str(forks[0]) in str(caught.value)
        config = tmp_path / "study.cfg"
        config.write_text(
            "gamma1 = 0.1\neta = 0.25\np_values = 0.6\nrho_values = 1.0\n"
            "n_values = 150\nreplicates = 4\nmaster_seed = 777\n"
        )
        argv = ["simulate", str(config), "--out", str(tmp_path / "rows.csv")]
        assert cli.main(argv + ["--workers", "2"]) == cli.EXIT_IO
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: study worker ")
        assert stderr.endswith("ended without its results (exit status 3)\n")
        assert not (tmp_path / "rows.csv").exists()
        assert len(forks) == 2
        assert_reaped(forks)

    def test_child_whose_results_do_not_pickle_exits_1(self, forks, patch_blocks):
        def unpicklable_in_child(in_child, task, real):
            outcome = real(*task)
            return (*outcome[:2], lambda: outcome[2]) if in_child else outcome

        patch_blocks(unpicklable_in_child)
        with pytest.raises(ChildProcessError, match=r"exit status 1\)$"):
            run_study(small_config(), workers=2)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_blocks_are_weighed_by_their_records(self, monkeypatch):
        real = study_module._split_shares
        weights = []

        def spy(block_weights, count):
            weights.append(list(block_weights))
            return real(block_weights, count)

        monkeypatch.setattr(study_module, "_split_shares", spy)
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", 1000)
        config = small_config(n_values=(150, 400), replicates=7)
        assert run_study(config, workers=2) == run_study(config)
        # Blocks of 6 and 1 replicates at n = 150, then 2, 2, 2 and 1 at
        # n = 400: each weighs its records.
        assert weights[0] == [6 * 150, 1 * 150, 2 * 400, 2 * 400, 2 * 400, 1 * 400]

    @pytest.mark.parametrize("error", [DomainError, KeyboardInterrupt])
    def test_parent_failure_kills_its_children(self, forks, patch_blocks, error):
        def stall_in_child(in_child, task, real):
            if in_child:
                time.sleep(60)
                return real(*task)
            raise error("parent share failed")

        patch_blocks(stall_in_child)
        start = time.monotonic()
        with pytest.raises(error, match="parent share failed"):
            run_study(small_config(), workers=2)
        # The child would sleep a minute; it was killed, not waited out.
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        assert_reaped(forks)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 10**6), min_size=1, max_size=40),
        workers=st.integers(1, 12),
    )
    def test_shares_are_balanced_by_records(self, weights, workers):
        count = min(workers, len(weights))
        shares = study_module._split_shares(weights, count)
        assert len(shares) == count
        assert sorted(i for share in shares for i in share) == list(
            range(len(weights))
        )
        loads = [sum(weights[i] for i in share) for share in shares]
        assert max(loads) - min(loads) <= max(weights)


class TestEveryRhoSharesOneDraw:
    def test_each_rho_equals_its_own_replicate(self):
        config = MATCHED
        rho_specific = 0
        for cell in study_groups(config):
            for i in range(config.replicates):
                matched = one_replicate(
                    cell, config.rho_values, i, config.master_seed, config.beta
                )
                for j, rho in enumerate(config.rho_values):
                    assert_columns_equal(
                        [column[:, j : j + 1] for column in matched],
                        own_rho_replicate(
                            cell, rho, i, config.master_seed, config.beta
                        ),
                    )
                low, high = matched[2][0]
                rho_specific += low < 0 <= high
        assert rho_specific > 0, "some replicate must fail at the larger rho only"

    def test_study_rows_equal_per_cell_replicates(self):
        config = MATCHED
        expected = [
            aggregate(
                *(
                    column[:, 0]
                    for column in join(
                        own_rho_replicate(
                            StudyCell(config.gamma1, p, n, config.eta),
                            rho,
                            i,
                            config.master_seed,
                            config.beta,
                        )
                        for i in range(config.replicates)
                    )
                ),
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
            pi_true, pi_hat, code = one_replicate(cell, rho_values, i, 777, 0.2)
            assert code.shape == (1, len(rho_values))
            if code[0, 0] == _CODE["no_admissible_k"]:
                threshold_failures += 1
                assert code.tolist() == [[code[0, 0]] * len(rho_values)]
                assert np.isnan(pi_true).all() and np.isnan(pi_hat).all()
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


# gamma1 = 0.45 at rho = 2.5: the exact premium diverges, so every sample
# whose estimate succeeds there still fails at that rho.
DIVERGENT = small_config(
    gamma1=0.45,
    p_values=(0.6,),
    rho_values=(1.0, 2.5),
    n_values=(150, 500),
    replicates=12,
)


def scalar_replicate(cell, rho_values, replicate_index, master_seed, beta):
    """One replicate through the one-sample public API, as a block of one."""
    scheme = study_module.burr_scheme(cell.gamma1, cell.p, cell.eta)
    rng = np.random.default_rng(
        replicate_stream(master_seed, cell, replicate_index)
    )
    sample = SortedCensoredSample.from_unsorted(
        *scheme.sample_arrays(cell.n, rng)
    )
    try:
        choice = reiss_thomas_k(sample, beta)
    except DomainError as exc:
        entries = [(np.nan, np.nan, _CODE[exc.reason])] * len(rho_values)
    else:
        entries = []
        for rho in rho_values:
            try:
                estimate = php_estimate(
                    sample, EstimationSettings(k=choice.k_star, rho=rho)
                )
                pi_true = float(
                    scheme.loss_model.premium(rho, estimate.retention)
                )
            except DomainError as exc:
                entries.append((np.nan, np.nan, _CODE[exc.reason]))
            else:
                entries.append((pi_true, estimate.value, -1))
    pi_true, pi_hat, code = zip(*entries)
    return np.array([pi_true]), np.array([pi_hat]), np.array([code])


def scalar_group(config, cell):
    rhos = tuple(dict.fromkeys(config.rho_values))
    return join(
        scalar_replicate(cell, rhos, i, config.master_seed, config.beta)
        for i in range(config.replicates)
    )


def scalar_rows(config):
    """Study rows aggregated from one-sample replicates, failed cells dropped."""
    rhos = tuple(dict.fromkeys(config.rho_values))
    matched = {
        (cell.p, cell.n): scalar_group(config, cell)
        for cell in study_groups(config)
    }
    rows = []
    for p, rho, n in product(config.p_values, config.rho_values, config.n_values):
        j = rhos.index(rho)
        try:
            rows.append(
                aggregate(
                    *(column[:, j] for column in matched[p, n]), p=p, rho=rho, n=n
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

    def quantile_of_survival(self, s, out=None):
        return np.minimum(np.asarray(s) ** -self.gamma, self.cap, out=out)

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
            blocks = [
                study_module._replicate_block(
                    cell,
                    rhos,
                    range(start, min(start + size, count)),
                    config.master_seed,
                    config.beta,
                )
                for start in range(0, count, size)
            ]
            assert_columns_equal(priced(cell, rhos, join(blocks)), expected)
            assert_columns_equal(
                join(
                    one_replicate(
                        cell, rhos, i, config.master_seed, config.beta
                    )
                    for i in range(count)
                ),
                expected,
            )
            failed = expected[2] >= 0
            threshold_failures += failed.all(axis=1).sum()
            rho_only_failures += (failed.any(axis=1) & ~failed.all(axis=1)).sum()
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

    @pytest.mark.parametrize("size", [1, 7, None], ids=["B=1", "B=7", "B=all"])
    def test_exact_premium_failures_do_not_depend_on_the_partition(
        self, monkeypatch, size
    ):
        # Eleven continued-fraction terms price half of these retentions,
        # so the exact premium fails on 10 of the 20 replicates.
        config = small_config(n_values=(500,), replicates=20, master_seed=5)
        monkeypatch.setattr(models_module, "_BETA_TERMS", 11)
        budget = (size or config.replicates) * max(config.n_values)
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", budget)
        rows = run_study(config)
        assert rows == scalar_rows(config)
        assert 0 < rows[0].failure_count < config.replicates

    @pytest.mark.parametrize(
        "config",
        [MATCHED, GAMMA_025, DIVERGENT],
        ids=["matched", "gamma1=0.25", "divergent"],
    )
    def test_failed_entries_are_nan_and_the_rest_finite(self, config):
        rhos = tuple(dict.fromkeys(config.rho_values))
        threshold_failures = rho_only_failures = 0
        for cell in study_groups(config):
            block = study_module._replicate_block(
                cell,
                rhos,
                range(config.replicates),
                config.master_seed,
                config.beta,
            )
            retention = block[0]
            pi_true, pi_hat, code = priced(cell, rhos, block)
            failures = code >= 0
            # The retention is missing exactly where the threshold failed,
            # which fails every rho alike.
            assert failures[np.isnan(retention)].all()
            assert (retention[~np.isnan(retention)] > 0.0).all()
            np.testing.assert_array_equal(np.isnan(pi_hat), failures)
            np.testing.assert_array_equal(np.isnan(pi_true), failures)
            assert np.isfinite(pi_hat[~failures]).all()
            assert np.isfinite(pi_true[~failures]).all()
            assert (code[failures] < len(REASONS)).all()
            assert (code[~failures] == -1).all()
            threshold_failures += failures.all(axis=1).sum()
            rho_only_failures += (failures.any(axis=1) & ~failures.all(axis=1)).sum()
        assert threshold_failures > 0
        assert rho_only_failures > 0

    def test_zero_index_fails_every_rho_like_the_estimate(self, monkeypatch):
        def capped_scheme(gamma1, p, eta):
            return CensoringScheme(
                loss_model=CappedPareto(gamma=0.5, cap=5.0),
                censor_model=ParetoModel(gamma=0.05, x_min=1e12),
            )

        monkeypatch.setattr(study_module, "burr_scheme", capped_scheme)
        cell = StudyCell(gamma1=0.5, p=0.6, n=400, eta=0.25)
        rhos = (1.0, 1.1)
        block = priced(
            cell, rhos, study_module._replicate_block(cell, rhos, range(4), 77, 0.3)
        )
        expected = join(scalar_replicate(cell, rhos, i, 77, 0.3) for i in range(4))
        assert_columns_equal(block, expected)
        assert (block[2] == _CODE["nonpositive_index"]).all()

    @pytest.mark.parametrize(
        "config",
        [MATCHED, GAMMA_025, DIVERGENT],
        ids=["matched", "gamma1=0.25", "divergent"],
    )
    def test_fit_builds_no_second_tail_path(self, monkeypatch, config):
        # The fit reads the index the rule already built, so a block reads
        # the tail path as often as the rule alone does on the same rows.
        paths = []
        real_path = estimators_module._tail_path

        def counting_path(z_sorted, delta, k_max):
            paths.append(k_max)
            return real_path(z_sorted, delta, k_max)

        rules = []
        real_windows = threshold_module._open_windows

        def counting_windows(z_sorted, delta, k_limit, k_max):
            rules.append(k_max)
            return real_windows(z_sorted, delta, k_limit, k_max)

        chains = []

        def recording_chain(z_sorted, delta, rhos, **kwargs):
            chains.append(kwargs["beta"])
            return _chain_rows(z_sorted, delta, rhos, **kwargs)

        monkeypatch.setattr(estimators_module, "_tail_path", counting_path)
        monkeypatch.setattr(threshold_module, "_tail_path", counting_path)
        monkeypatch.setattr(threshold_module, "_open_windows", counting_windows)
        monkeypatch.setattr(study_module, "_chain_rows", recording_chain)
        rhos = tuple(dict.fromkeys(config.rho_values))
        for cell in study_groups(config):
            paths.clear()
            rules.clear()
            chains.clear()
            study_module._replicate_block(
                cell, rhos, range(config.replicates), config.master_seed, config.beta
            )
            # One chain call, whose tail paths are all the rule's own.
            assert chains == [config.beta]
            assert 1 <= len(paths) == len(rules)
            assert paths == rules

    def test_chain_receives_checked_rows(self, monkeypatch):
        # The block's sort is its only check of the records, so every block
        # of the Table-1 study must reach the chain as valid sample rows.
        received = []

        def checking_chain(z_sorted, delta, rhos, **kwargs):
            _check_rows(z_sorted, delta)
            received.append(z_sorted.shape)
            return _chain_rows(z_sorted, delta, rhos, **kwargs)

        monkeypatch.setattr(study_module, "_chain_rows", checking_chain)
        groups = list(product((0.4, 0.6, 0.8), (500, 1000, 1500)))
        for p, n in groups:
            cell = StudyCell(gamma1=0.1, p=p, n=n, eta=0.25)
            rows = study_module._BLOCK_RECORDS // n
            # The master seed of bench seed 1, as in the reference CSV.
            study_module._replicate_block(
                cell, (1.0, 1.1), range(rows), 7340927056714835338, 0.3
            )
        assert received == [
            (study_module._BLOCK_RECORDS // n, n) for _, n in groups
        ]

    def test_no_block_exceeds_the_record_budget(self, monkeypatch):
        real = study_module._replicate_block
        blocks = []

        def spy(cell, rho_values, indices, seed, beta=0.3, work=None):
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


def study_blocks(config):
    """``(retention, pi_hat, code)`` of every group, joined as ``run_study`` does."""
    rhos = tuple(dict.fromkeys(config.rho_values))
    return join(
        study_module._replicate_block(
            cell, rhos, range(config.replicates), config.master_seed, config.beta
        )
        for cell in study_groups(config)
    )


def count_pricing_calls(monkeypatch):
    """``(rho, size)`` of every call of the exact-premium kernel, as made."""
    real = BurrModel._premium_entries
    calls = []

    def counting(self, rho, retention):
        calls.append((rho, np.size(retention)))
        return real(self, rho, retention)

    monkeypatch.setattr(BurrModel, "_premium_entries", counting)
    return calls


class TestExactPremiumPricing:
    """The exact premium is priced once per rho, after every block."""

    @staticmethod
    def assert_one_call_per_rho(monkeypatch, config, expected_calls):
        """Run ``config``: one kernel call per rho, failing divergent rhos only."""
        real = study_module._price_exact
        seen = []

        def spy(loss_model, rho_values, retention, pi_hat, code):
            seen.append(code.copy())
            pi_true = real(loss_model, rho_values, retention, pi_hat, code)
            seen.append(code)
            return pi_true

        monkeypatch.setattr(study_module, "_price_exact", spy)
        calls = count_pricing_calls(monkeypatch)
        rows = run_study(config)
        assert calls == expected_calls
        # Pricing fails every row alive at a divergent rho, and none elsewhere.
        before, after = seen
        for j, (rho, alive) in enumerate(expected_calls):
            codes = after[before[:, j] < 0, j].tolist()
            assert len(codes) == alive
            if rho * config.gamma1 < 1.0:
                assert codes == [-1] * alive
            else:
                assert codes == [_CODE["divergent_premium"]] * alive
        return rows

    def test_one_call_per_distinct_rho(self, monkeypatch):
        config = small_config(
            p_values=(0.4, 0.6), rho_values=(1.0, 1.1, 1.0), n_values=(150, 200),
            replicates=5,
        )
        # One replicate per block: 20 blocks, still one call per rho.
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", 150)
        rows = self.assert_one_call_per_rho(
            monkeypatch, config, [(1.0, 20), (1.1, 20)]
        )
        assert [row.failure_count for row in rows] == [0] * len(rows)

    def test_one_call_per_distinct_rho_when_the_premium_diverges(
        self, monkeypatch
    ):
        # rho * gamma1 = 1.125 at rho = 2.5: the one call there fails every
        # row still alive at that rho, and the cell is dropped.
        config = small_config(
            gamma1=0.45, p_values=(0.9,), rho_values=(1.0, 2.5),
            n_values=(1000,), replicates=1000, master_seed=3,
        )
        rows = self.assert_one_call_per_rho(
            monkeypatch, config, [(1.0, 343), (2.5, 265)]
        )
        assert [row.rho for row in rows] == [1.0]

    def test_a_failing_retention_fails_its_entry_only(self, monkeypatch):
        # Nine continued-fraction terms price most, but not all, of the
        # retentions at either rho.
        config = MATCHED
        rhos = config.rho_values
        groups = study_groups(config)
        retention = study_blocks(config)[0]
        before = priced(groups[0], rhos, study_blocks(config))
        loss_model = BurrModel(config.gamma1, config.eta)
        monkeypatch.setattr(models_module, "_BETA_TERMS", 9)
        pi_true, pi_hat, code = (column.copy() for column in before)
        lost = 0
        for r, j in np.argwhere(before[2] < 0):
            try:
                assert loss_model.premium(rhos[j], retention[r]) == pi_true[r, j]
            except DomainError as exc:
                assert exc.reason == "premium_not_converged"
                pi_true[r, j] = pi_hat[r, j] = np.nan
                code[r, j] = _CODE[exc.reason]
                lost += 1
        assert 0 < lost < np.count_nonzero(before[2] < 0)
        calls = count_pricing_calls(monkeypatch)
        after = priced(groups[0], rhos, study_blocks(config))
        assert_columns_equal(after, (pi_true, pi_hat, code))
        assert [rho for rho, _ in calls] == list(rhos)

        # The run counts those failures in their own cells, whatever the
        # block size and worker count.
        expected_rows = scalar_rows(config)
        assert sum(row.failure_count for row in expected_rows) == np.count_nonzero(
            code >= 0
        )
        for budget in (150, study_module._BLOCK_RECORDS):
            monkeypatch.setattr(study_module, "_BLOCK_RECORDS", budget)
            for workers in (1, 2):
                assert run_study(config, workers=workers) == expected_rows


TABLE1_CELL = StudyCell(gamma1=0.1, p=0.6, n=1000, eta=0.25)


class TestWorkspace:
    """Each process computes its blocks in one workspace, reused block after block."""

    def test_returned_columns_never_share_the_workspace(self, monkeypatch):
        real = study_module._replicate_block
        seen = []

        def spy(*task):
            outcome = real(*task)
            seen.append((task[-1], outcome))
            return outcome

        monkeypatch.setattr(study_module, "_replicate_block", spy)
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", 300)
        config = small_config(n_values=(150, 200), replicates=5)
        assert run_study(config) == scalar_rows(config)
        works = {id(work): work for work, _ in seen}
        # One workspace for the process's share, every block a view of it.
        assert len(works) == 1
        for work in works.values():
            buffers = work.draws, work.flags
            for _, outcome in seen:
                for column in outcome:
                    assert not any(np.shares_memory(column, b) for b in buffers)

    def test_a_reused_workspace_leaves_earlier_blocks_intact(self):
        rhos = (1.0, 1.1)
        work = study_module._Workspace()
        first = study_module._replicate_block(TABLE1_CELL, rhos, range(6), 9, 0.3, work)
        kept = tuple(column.copy() for column in first)
        # A larger block regrows the buffers, a smaller one reuses them.
        for indices in (range(6, 20), range(20, 23)):
            later = study_module._replicate_block(
                TABLE1_CELL, rhos, indices, 9, 0.3, work
            )
            assert_columns_equal(
                later, study_module._replicate_block(TABLE1_CELL, rhos, indices, 9, 0.3)
            )
        assert_columns_equal(first, kept)
        assert work.flags.size == 14 * TABLE1_CELL.n

    @pytest.mark.parametrize("n", [500, 1000])
    def test_a_warm_block_allocates_less_than_one_block_array(self, n):
        # Once the workspace holds the block, what a block allocates is
        # small per record: less than one float64 array of the block.
        cell = dataclasses.replace(TABLE1_CELL, n=n)
        rows = 50_000 // n
        work = study_module._Workspace()
        study_module._replicate_block(cell, (1.0, 1.1), range(rows), 1, 0.3, work)
        tracemalloc.start()
        try:
            study_module._replicate_block(
                cell, (1.0, 1.1), range(rows, 2 * rows), 1, 0.3, work
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * rows * n

    def test_a_new_workspace_starts_empty_and_books_laps_from_zero(
        self, monkeypatch
    ):
        ticks = iter([10, 25, 60, 100, 180])
        monkeypatch.setattr(
            study_module, "time", SimpleNamespace(perf_counter_ns=ticks.__next__)
        )
        work = study_module._Workspace()
        assert work.clocks == dict.fromkeys(study_module._LAYERS, 0)
        draws, flags = work.block(1, 1)
        assert (draws.shape, flags.shape) == ((1, 2, 1), (1, 1))
        work.lap("draw")
        draws, flags = work.block(3, 5)
        assert (draws.shape, flags.shape) == ((3, 2, 5), (3, 5))
        assert (work.draws.size, work.flags.size) == (30, 15)
        work.lap("draw")
        work.lap("sort")
        assert work.clocks == {
            **dict.fromkeys(study_module._LAYERS, 0), "draw": 15 + 40, "sort": 80
        }

    def test_threads_each_return_the_serial_rows(self):
        config = small_config(p_values=(0.4, 0.6), n_values=(150, 400), replicates=6)
        expected = run_study(config)
        results = [None] * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda i=i: results.__setitem__(i, run_study(config))
                )
                for i in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * len(results)

    def test_layer_times_cover_the_same_layers_for_any_worker_count(
        self, monkeypatch
    ):
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", 300)
        config = small_config(n_values=(150, 200), rho_values=(1.0, 1.1))
        expected = run_study(config)
        for workers in (1, 2, 3):
            rows, layer_us = study_module._timed_study(config, workers)
            assert rows == expected
            assert tuple(layer_us) == study_module._LAYERS
            assert all(0.0 < us < 1e6 for us in layer_us.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_layer_times_are_per_sample_and_per_rho(self, monkeypatch, workers):
        # Each share books 1, 2, ... ms to the layers in order; the exact
        # premium adds one tick of 7 us.  Two groups of 4 samples, two
        # distinct rhos: the fit and the exact premium are per (sample, rho).
        real = study_module._run_share
        share_ns = {
            layer: 10**6 * (i + 1) for i, layer in enumerate(study_module._LAYERS)
        }
        monkeypatch.setattr(
            study_module,
            "_run_share",
            lambda tasks, share: (real(tasks, share)[0], dict(share_ns)),
        )
        ticks = iter(range(0, 10**9, 7000))
        monkeypatch.setattr(
            study_module, "time", SimpleNamespace(perf_counter_ns=ticks.__next__)
        )
        monkeypatch.setattr(study_module, "_BLOCK_RECORDS", 300)
        config = small_config(p_values=(0.4, 0.6), rho_values=(1.0, 1.1, 1.0))
        rows, layer_us = study_module._timed_study(config, workers)
        assert rows == run_study(config)
        total = {layer: workers * ns for layer, ns in share_ns.items()}
        total["exact_premium"] += 7000
        assert layer_us == {
            layer: ns / 1e3 / (8 * (2 if layer in ("fit", "exact_premium") else 1))
            for layer, ns in total.items()
        }


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
