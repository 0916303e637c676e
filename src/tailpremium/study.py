"""Replicated Monte Carlo study of the premium estimator under censoring.

For every cell of a parameter grid (uncensored share, distortion
parameter, sample size) the engine draws censored Burr samples, picks the
number of top order statistics per replicate, estimates the premium of the
layer above the selected order statistic, and compares it with the exact
premium at the same retention, which the Burr model gives in closed form.
Each (uncensored share, sample size, replicate) sample is drawn, sorted
and threshold-selected once and evaluated at every distortion parameter
of the grid.  Cell aggregates are the empirical means, the absolute
difference of those means, and the root mean squared per-replicate error.

The engine works one block of a group's replicates at a time, as
``(replicates, n)`` arrays: one quantile transform, one row-wise sort,
one pass of the threshold rule, and one call of the fit-at-k kernel
``estimators._fit_rows`` (threshold, Kaplan-Meier anchor and premium at
every distortion parameter, failures named from one table).  The
one-sample API runs the same kernels on one row: ``reiss_thomas_k`` and
``tail_index_path`` the rule, ``php_estimate`` and ``weissman_tail`` the
fit.  A block holds at most ``_BLOCK_RECORDS`` records (at least one
replicate), so its memory does not grow with n.

A block returns each replicate's retention (NaN where the threshold
choice failed) and (replicate x distortion parameter) columns: the
estimated premium, NaN where that entry failed, and the failure reason or
None.  The run joins the blocks and, since every group shares the loss
model, prices the exact premium in one call per distortion parameter over
every replicate still alive there; a failure there is its entry's own.
Each cell then aggregates its slice.

With more than one worker, the blocks are split into shares by records;
this process computes one share and forked children the others, each
child sending its columns back through its own pipe.  Without
``os.fork`` every block runs in this process.

Reproducibility contract: each replicate owns a private PCG64 stream whose
seed is a pure function of the master seed, the sample group (gamma1, p,
n, eta), and the replicate index (:func:`replicate_stream`), and every
kernel treats the rows of a block independently, so results are bitwise
identical no matter how replicates are grouped into blocks or scheduled
across processes.  A block computes its replicates' PCG64 states in one
array pass, bit for bit those ``SeedSequence`` and ``PCG64`` give, rather
than building the two objects per replicate.  Across machines that holds
on one numpy build and CPU family: numpy dispatches ``log`` and ``power``
to SIMD routines by CPU, which can move last bits.
"""

from __future__ import annotations

import logging
import os
import pickle
from dataclasses import dataclass
from itertools import product
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .estimators import _fit_message, _fit_rows
from .models import BurrModel, burr_scheme
from .samples import _check_rows, _is_integer, _sort_rows
from .threshold import _choose_rows

logger = logging.getLogger(__name__)

# Records (replicates x sample size) drawn and processed as one block: it
# bounds a block's arrays whatever n is, and never affects results.  The
# exact premium is priced once per rho after the blocks, so the budget
# barely moves the run time: a 1000-replicate Table-1 study ran in a median
# 1.50 s at 20 000 records, 1.57 s at 50 000 and 1.45 s at 100 000, within
# the noise of 5 fresh processes each, with peak RSS 41, 42 and 46 MB
# (2 vCPUs, 2.1 GHz Xeon).
_BLOCK_RECORDS = 50_000

_UINT64_MASK = (1 << 64) - 1

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_UINT128_MASK = (1 << 128) - 1
_MAX_REPLICATES = 1 << 32


def _check_master_seed(master_seed) -> None:
    """Reject a master seed that is not a 64-bit unsigned integer.

    The seed enters every stream as one 64-bit word, so a seed outside
    ``[0, 2**64)`` would alias one inside it.
    """
    if not _is_integer(master_seed) or not 0 <= master_seed <= _UINT64_MASK:
        raise ValidationError(
            f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}"
        )


@dataclass(frozen=True)
class StudyCell:
    """One sample group of the study: every rho is priced on its draws."""

    gamma1: float
    p: float
    n: int
    eta: float


@dataclass(frozen=True)
class StudyConfig:
    """Everything a replicated study run needs.

    ``beta`` is the weighting exponent of the threshold selection rule;
    the grid is the cartesian product of ``p_values``, ``rho_values`` and
    ``n_values`` at fixed ``gamma1`` and ``eta``.
    """

    gamma1: float
    p_values: Tuple[float, ...]
    rho_values: Tuple[float, ...]
    n_values: Tuple[int, ...]
    eta: float
    replicates: int
    master_seed: int
    beta: float = 0.3

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        object.__setattr__(self, "rho_values", tuple(float(r) for r in self.rho_values))
        object.__setattr__(self, "n_values", tuple(self.n_values))
        if not (np.isfinite(self.gamma1) and self.gamma1 > 0.0):
            raise ValidationError(f"gamma1 must be > 0, got {self.gamma1!r}")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValidationError(f"eta must be > 0, got {self.eta!r}")
        if not self.p_values or any(not 0.0 < p < 1.0 for p in self.p_values):
            raise ValidationError(
                f"every p must lie strictly in (0, 1), got {self.p_values!r}"
            )
        if not self.rho_values or any(
            not 1.0 <= r < np.inf for r in self.rho_values
        ):
            raise ValidationError(
                f"every rho must be >= 1, got {self.rho_values!r}"
            )
        if not self.n_values or any(
            not _is_integer(n) or n < 100 for n in self.n_values
        ):
            raise ValidationError(
                f"every n must be an integer >= 100, got {self.n_values!r}"
            )
        # A replicate index is one 32-bit entropy word (_pcg64_states).
        if not _is_integer(self.replicates) or not (
            1 <= self.replicates <= _MAX_REPLICATES
        ):
            raise ValidationError(
                f"replicates must be an integer in [1, 2**32], "
                f"got {self.replicates!r}"
            )
        _check_master_seed(self.master_seed)
        if not 0.0 <= self.beta <= 0.5:
            raise ValidationError(f"beta must lie in [0, 0.5], got {self.beta!r}")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "master_seed", int(self.master_seed))


@dataclass(frozen=True)
class StudyRow:
    """Aggregated cell result."""

    p: float
    rho: float
    n: int
    mean_pi_true: float
    mean_pi_hat: float
    abs_bias: float
    rmse: float
    failure_count: int


def _group_words(master_seed: int, cell: StudyCell) -> List[int]:
    """The entropy words every stream of a sample group starts with.

    The exact bit patterns of (master seed, gamma1, p, n, eta); a
    replicate's stream appends its index.
    """
    floats = np.array([cell.gamma1, cell.p, cell.eta], dtype=np.float64)
    gamma1, p, eta = floats.view(np.uint64).tolist()
    return [int(master_seed), gamma1, p, int(cell.n), eta]


def replicate_stream(
    master_seed: int, cell: StudyCell, replicate_index: int
) -> np.random.SeedSequence:
    """Seed sequence owned by one replicate.

    The entropy is the exact bit patterns of (master seed, gamma1, p, n,
    eta, replicate index).  The master seed must lie in ``[0, 2**64)`` and
    the index be a non-negative integer; anything else raises
    ``ValidationError``.
    """
    _check_master_seed(master_seed)
    if not _is_integer(replicate_index) or replicate_index < 0:
        raise ValidationError(
            f"replicate_index must be an integer >= 0, got {replicate_index!r}"
        )
    return np.random.SeedSequence(
        [*_group_words(master_seed, cell), int(replicate_index)]
    )


def _hashmix(value, const, mult=_MULT_A):
    """One hash step of numpy's ``SeedSequence``: ``(hashed value, next const)``.

    ``value`` is a word (int) or a ``uint32`` array, ``const`` an int or a
    ``uint32`` column of one constant per row of the result;
    ``generate_state`` hashes with ``_MULT_B``.
    """
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """``SeedSequence``'s pool mix of two words (ints or ``uint32`` arrays).

    The first product is reduced before the subtraction, so an int ``x``
    stays within ``uint32`` beside an array ``y``.
    """
    result = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _chain(const: int, count: int, mult: int) -> np.ndarray:
    """``count`` successive hash constants from ``const``, as a ``uint32`` column."""
    consts = [const]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _pcg64_states(words: List[int], indices: range) -> Tuple[List[int], List[int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence([*words, i]))`` for each ``i``.

    The seed sequence's pool is mixed from the group words once, in Python
    ints: the five group values give at least five 32-bit entropy words,
    more than the 4-word pool holds, so the index word comes after the
    pool is full and only mixes into it.  Its hash into each of the four
    pool words takes the next constant of one chain, so the four hashes
    are one ``(4, len(indices))`` array pass, and so are the eight words
    of ``generate_state(4, uint64)``; PCG64's seeding step (O'Neill 2014)
    follows.  One entropy word per index: the caller keeps every index
    below ``2**32``.
    """
    entropy = []
    for value in words:
        entropy.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            entropy.append(value & _MASK32)
    const = _INIT_A
    pool = []
    for word in entropy[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    index = np.arange(indices.start, indices.stop, dtype=np.uint32)
    hashed, _ = _hashmix(index, _chain(const, 4, _MULT_A))
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], hashed)
    halves, _ = _hashmix(np.tile(pool, (2, 1)), _chain(_INIT_B, 8, _MULT_B), _MULT_B)
    halves = halves.astype(np.uint64)
    w0, w1, w2, w3 = (halves[0::2] | halves[1::2] << np.uint64(32)).tolist()
    states, incs = [], []
    for a, b, c, d in zip(w0, w1, w2, w3):
        inc = ((c << 64 | d) << 1 | 1) & _UINT128_MASK
        states.append(((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _UINT128_MASK)
        incs.append(inc)
    return states, incs


def _block_draws(master_seed: int, cell: StudyCell, indices: range) -> np.ndarray:
    """Uniforms of the replicates in ``indices``, shape ``(len(indices), 2, n)``.

    Row ``b`` holds, bit for bit, ``CensoringScheme.draw(n, rng)`` with
    ``rng = np.random.default_rng(replicate_stream(master_seed, cell, i))``
    for the ``b``-th index ``i``.  The block's PCG64 states come from one
    array pass (:func:`_pcg64_states`), not one ``SeedSequence`` each; one
    reused generator is set to each state in turn and fills its row of one
    buffer.  Indices stay below ``2**32`` (:class:`StudyConfig`).
    """
    states, incs = _pcg64_states(_group_words(master_seed, cell), indices)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    uniforms = np.empty((len(indices), 2, cell.n))
    for row, state, inc in zip(uniforms, states, incs):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.random(out=row)
    return uniforms


def _replicate_block(
    cell: StudyCell,
    rho_values: Sequence[float],
    indices: range,
    master_seed: int,
    beta: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns ``(retention, pi_hat, failed)`` of the replicates in ``indices``.

    ``retention`` holds each replicate's selected order statistic, NaN
    where the threshold choice failed.  ``pi_hat`` and ``failed`` are
    ``(len(indices), len(rho_values))`` arrays: the estimated premium
    (NaN where the entry failed) and the failure reason (object, a
    string or None).  Each replicate draws from its own stream
    (:func:`_block_draws`); the block is transformed, sorted, checked,
    threshold-selected and fitted at every rho (:func:`_fit_rows`, on the
    rule's own index) in ``(len(indices), n)`` array passes.  A failed
    threshold choice fails every rho alike; a fit failure fails its rho
    only.  The exact premium is left to :func:`_price_exact`.  Every
    kernel treats rows independently, so a replicate's values, failures
    included, are bitwise the same in any block.  Settings are those a
    :class:`StudyConfig` accepts.
    """
    scheme = burr_scheme(cell.gamma1, cell.p, cell.eta)
    uniforms = _block_draws(master_seed, cell, indices)
    z, delta = _sort_rows(*scheme.records(uniforms))
    _check_rows(z, delta)
    choices = _choose_rows(z, delta, beta)
    # Rows the rule failed (k* = 0) are fitted at the top, then replaced.
    k = choices.k_star
    gamma1 = choices.gamma1[np.arange(len(k)), k - 1]
    threshold, _, _, pi_hat, stage = _fit_rows(z, delta, k, gamma1, rho_values)
    chosen = np.equal(choices.failed, None)
    pi_hat[~chosen] = np.nan
    failed = np.array(choices.failed, dtype=object)[:, None].repeat(len(rho_values), 1)
    for b, j in zip(*np.nonzero(chosen[:, None] & (stage >= 0))):
        failed[b, j] = _fit_message(
            stage[b, j], k[b], threshold[b], gamma1[b], rho_values[j], threshold[b]
        )
    return np.where(chosen, threshold, np.nan), pi_hat, failed


def _price_exact(
    loss_model: BurrModel,
    rho_values: Sequence[float],
    retention: np.ndarray,
    pi_hat: np.ndarray,
    failed: np.ndarray,
) -> np.ndarray:
    """The exact premium column of joined blocks, beside their estimates.

    Per rho, one call prices every row that has not failed there, if any,
    at its retention.  A divergent premium fails every such row; one that
    did not converge fails its own row only.  A failed row takes the
    reason in ``failed`` and NaN in ``pi_hat`` (in place).  Returns
    ``pi_true``, shaped like ``pi_hat``, NaN where the entry failed.
    """
    pi_true = np.full(pi_hat.shape, np.nan)
    for j, rho in enumerate(rho_values):
        rows = np.flatnonzero(np.equal(failed[:, j], None))
        if not rows.size:
            continue
        try:
            pi_true[rows, j], reason = loss_model._premium_entries(rho, retention[rows])
        except DomainError as exc:
            reason = str(exc)
        lost = rows[np.isnan(pi_true[rows, j])]
        failed[lost, j] = reason
        pi_hat[lost, j] = np.nan
    return pi_true


def aggregate(
    pi_true: np.ndarray,
    pi_hat: np.ndarray,
    failed: np.ndarray,
    *,
    p: float,
    rho: float,
    n: int,
) -> StudyRow:
    """Fold one cell's replicate columns into a study row.

    The columns are one entry per replicate, as :func:`run_study` slices
    them from its blocks: the exact and the estimated premium, and the
    failure reason (None for a success).  Means run over successful
    replicates only; failures are counted.  ``abs_bias`` is the absolute
    difference of the two means, ``rmse`` the root of the mean squared
    per-replicate error.
    """
    ok = np.equal(failed, None)
    if not ok.any():
        raise DomainError(
            f"every replicate failed for cell (p={p:g}, rho={rho:g}, "
            f"n={n}); reasons: {sorted(set(failed.tolist()))}"
        )
    pi_true, pi_hat = pi_true[ok], pi_hat[ok]
    mean_true = float(np.mean(pi_true))
    mean_hat = float(np.mean(pi_hat))
    return StudyRow(
        p=float(p),
        rho=float(rho),
        n=int(n),
        mean_pi_true=mean_true,
        mean_pi_hat=mean_hat,
        abs_bias=abs(mean_hat - mean_true),
        rmse=float(np.sqrt(np.mean((pi_hat - pi_true) ** 2))),
        failure_count=int(ok.size - ok.sum()),
    )


def _split_shares(weights: Sequence[int], count: int) -> List[List[int]]:
    """The indices of ``weights`` split into ``count`` shares of near-equal weight.

    Largest weight first, each index joins the share that is lightest so
    far (the first of equals): Graham's (1969) rule, under which the
    heaviest share exceeds the lightest by at most the largest weight.
    With positive weights and ``count <= len(weights)`` no share is empty.
    """
    shares: List[List[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for index in sorted(range(len(weights)), key=weights.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        shares[lightest].append(index)
        loads[lightest] += weights[index]
    return shares


def _map_blocks(tasks: Sequence[tuple], workers: int) -> list:
    """``[_replicate_block(*task) for task in tasks]``, over ``workers`` processes.

    The tasks are split by records (replicates x n) into
    ``min(workers, len(tasks))`` shares (:func:`_split_shares`).  This
    process forks one child per share after the first, runs the first
    share itself, and then reads each child's pipe to EOF; a child that
    finished early just waits on its full pipe.  A child pickles
    ``(True, outcomes)`` or ``(False, exception)`` into its pipe and always
    leaves through ``os._exit``, so it never returns into the caller,
    runs exit handlers or flushes inherited buffers; it exits 0 only
    once the payload is written.  A child's exception is raised here
    again with its type and message; a child that ends any other way
    raises ``ChildProcessError`` (an ``OSError``).
    If anything here fails, the children are killed; every child is
    reaped before this returns or raises.  Where ``os.fork`` does not
    exist, every task runs in this process.
    """
    count = min(workers, len(tasks)) if hasattr(os, "fork") else 1
    shares = _split_shares([len(task[2]) * task[0].n for task in tasks], count)
    outcomes: list = [None] * len(tasks)
    children = {}  # pid -> (read end of its pipe, its share)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    try:
                        payload = True, [_replicate_block(*tasks[i]) for i in share]
                    except BaseException as exc:
                        payload = False, exc
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb"), share
        for i in shares[0]:
            outcomes[i] = _replicate_block(*tasks[i])
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            # A child exits 0 only after writing its whole payload.
            if status:
                raise ChildProcessError(
                    f"study worker {pid} ended without its results "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            for i, outcome in zip(share, result):
                outcomes[i] = outcome
    except BaseException:
        import signal  # only a failed parallel run pays for it

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.waitpid(pid, 0)
    return outcomes


def run_study(config: StudyConfig, workers: int = 1) -> List[StudyRow]:
    """Run the full grid and aggregate each cell.

    The unit of work is a block of replicates of a distinct (p, n) group,
    ``max(1, _BLOCK_RECORDS // n)`` of them (the last block of a group may
    be shorter): each replicate is drawn and threshold-selected once and
    evaluated at every distinct rho.  The exact premium is then priced
    once per distinct rho over the joined blocks (:func:`_price_exact`).
    Rows come p-major, then rho, then n, and read their results by value,
    so repeated grid values give repeated rows computed once.  ``workers``
    counts the processes that compute blocks, this one included: it keeps
    one share of the blocks and forks a child for each other share
    (:func:`_map_blocks`), never more processes than blocks, and none
    without ``os.fork``.  Outputs are bitwise identical for any worker
    count and any block size.  A cell whose replicates all
    failed is logged and dropped; the run only errors out when every cell
    is in that state.
    """
    if not _is_integer(workers) or workers < 1:
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")
    rhos = tuple(dict.fromkeys(config.rho_values))
    groups = {
        (p, n): StudyCell(config.gamma1, p, n, config.eta)
        for p in config.p_values
        for n in config.n_values
    }
    count = config.replicates
    seed, beta = config.master_seed, config.beta
    tasks = [
        (cell, rhos, range(start, min(start + size, count)), seed, beta)
        for cell in groups.values()
        for size in (max(1, _BLOCK_RECORDS // cell.n),)
        for start in range(0, count, size)
    ]
    retention, pi_hat, failed = map(
        np.concatenate, zip(*_map_blocks(tasks, workers))
    )
    loss_model = BurrModel(gamma=config.gamma1, eta=config.eta)
    pi_true = _price_exact(loss_model, rhos, retention, pi_hat, failed)
    group_rows = {
        group: slice(g * count, (g + 1) * count) for g, group in enumerate(groups)
    }

    rows: List[StudyRow] = []
    drop_reasons: List[str] = []
    for p, rho, n in product(
        config.p_values, config.rho_values, config.n_values
    ):
        column = group_rows[p, n], rhos.index(rho)
        try:
            row = aggregate(
                pi_true[column], pi_hat[column], failed[column], p=p, rho=rho, n=n
            )
        except DomainError as exc:
            logger.warning("dropping cell: %s", exc)
            drop_reasons.append(str(exc))
            continue
        if row.failure_count > 0:
            logger.warning(
                "cell (p=%g, rho=%g, n=%d): %d of %d replicates failed",
                p,
                rho,
                n,
                row.failure_count,
                config.replicates,
            )
        if logger.isEnabledFor(logging.DEBUG):
            ok = np.equal(failed[column], None)
            errors = (pi_hat[column] - pi_true[column])[ok]
            quantiles = np.percentile(errors, [1, 25, 50, 75, 99])
            logger.debug(
                "cell (p=%g, rho=%g, n=%d) error quantiles "
                "(1/25/50/75/99%%): %s",
                p,
                rho,
                n,
                np.array2string(quantiles, precision=4),
            )
        rows.append(row)
    if not rows:
        raise DomainError(
            "every cell of the study failed; " + "; ".join(drop_reasons)
        )
    return rows
