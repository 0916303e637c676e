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
``(replicates, n)`` arrays: one quantile transform, one row-wise sort
that also checks the records (``samples._sort_rows``) and one call of
the chain kernel ``threshold._chain_rows`` (the threshold rule, then the
index, Kaplan-Meier anchor and premium at every distortion parameter).
``estimate`` and ``reiss_thomas_k`` run the same kernel on one row,
``php_estimate`` and ``weissman_tail`` its fit.  A block holds at most
``_BLOCK_RECORDS`` records (at least one replicate), so its memory does
not grow with n.

Each process computes its blocks in one workspace (:class:`_Workspace`):
a float64 buffer for the draws and an int64 one for the flags, sized at
the process's first and largest block.  Every stage writes over the one
before, in place: the uniforms become survival levels, then quantiles,
then the records; the sort packs its key over the values and unpacks it
there; the product-limit factors take the censor half of the draws.  So
no block-sized array is allocated after the first block, and what a
block returns never shares the workspace's memory.  The workspace also
adds up the time spent in each layer, which :func:`_timed_study` reports.

A block returns each replicate's retention (NaN where the threshold
choice failed) and (replicate x distortion parameter) columns: the
estimated premium, NaN where that entry failed, and the failure code in
``errors.REASONS`` (-1 for none).  The run joins the blocks and, since
every group shares the loss model, prices the exact premium in one call
per distortion parameter over every replicate still alive there; a
failure there is its entry's own.  Each cell then aggregates its slice.

With more than one worker, the blocks are split into shares by records;
this process computes one share and forked children the others, each
child in its own workspace and sending its columns and clocks back
through its own pipe.  Without ``os.fork`` every block runs in this
process.

Reproducibility contract: each replicate owns a private PCG64 stream whose
seed is a pure function of the master seed, the sample group (gamma1, p,
n, eta), and the replicate index (:func:`replicate_stream`), and every
kernel treats the rows of a block independently, so results are bitwise
identical no matter how replicates are grouped into blocks or scheduled
across processes.  A block hashes its replicate indices into the group's
seed-sequence pool in one array pass, bit for bit the state words
``SeedSequence`` would generate, rather than building one per replicate;
numpy seeds each ``PCG64`` from those words.  Across machines that holds
on one numpy build and CPU family: numpy dispatches ``log`` and ``power``
to SIMD routines by CPU, which can move last bits.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import _CODE, REASONS, DomainError, ValidationError
from .models import BurrModel, burr_scheme
from .samples import _check_numbers, _check_positive, _is_integer, _sort_rows
from .threshold import _chain_rows

logger = logging.getLogger(__name__)

# Records (replicates x sample size) drawn and processed as one block: it
# sizes each process's workspace (24 bytes a record) whatever n is, and
# never affects results.  Smaller blocks pay the per-block Python work more
# often: a 1000-replicate Table-1 study ran in a median 1.17-1.28 s at
# 20 000 records, 0.76-0.91 s at 50 000 and 0.73-0.76 s at 100 000 (two
# sets of 5 fresh processes each), all with peak RSS 39.5-39.8 MB
# (2 vCPUs, Xeon, numpy 2.4).
_BLOCK_RECORDS = 50_000

# The layers a study run is timed in, in the chain's order: those of a
# block (:func:`_replicate_block`), then the exact premium of the run.
_LAYERS = ("draw", "transform", "sort", "rule", "fit", "exact_premium")

_UINT64_MASK = (1 << 64) - 1

# numpy's SeedSequence hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
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
        _check_numbers(rho_values=self.rho_values, beta=self.beta)
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        object.__setattr__(self, "rho_values", tuple(float(r) for r in self.rho_values))
        object.__setattr__(self, "n_values", tuple(self.n_values))
        _check_positive(gamma1=self.gamma1, eta=self.eta)
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
        # A replicate index is one 32-bit entropy word (_seed_words).
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


def _hash_rows(values: np.ndarray, init: int, mult: int) -> np.ndarray:
    """``SeedSequence``'s hash of each row of a ``uint32`` array.

    Row ``j`` is hashed with the ``j``-th constant of the chain that starts
    at ``init``, ``init * mult**j mod 2**32``, as ``SeedSequence`` hashes
    its ``j``-th word from there.
    """
    consts = np.array(
        [init * pow(mult, j, 1 << 32) & 0xFFFFFFFF for j in range(len(values) + 1)],
        dtype=np.uint32,
    )[:, None]
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _seed_words(words: List[int], indices: range) -> np.ndarray:
    """``SeedSequence([*words, i]).generate_state(4, np.uint64)`` for each ``i``.

    One C-contiguous uint64 row per index, as ``PCG64`` reads it raw.  numpy
    mixes the group's pool once; its ``E`` entropy words (``max(1,
    ceil(bit_length / 32))`` a value, at least five) more than fill the
    4-word pool and take ``4 * E`` hash constants, so the index word only
    mixes into the full pool, from the constant ``_INIT_A *
    _MULT_A**(4 * E)``.  Its four hashes are one ``(4, len(indices))``
    array pass, and so are the eight words of ``generate_state``.  One
    entropy word per index: the caller keeps every index below ``2**32``.
    """
    entropy = sum(max(1, -(-value.bit_length() // 32)) for value in words)
    index = np.arange(indices.start, indices.stop, dtype=np.uint32)
    hashed = _hash_rows(
        np.broadcast_to(index, (4, len(index))),
        _INIT_A * pow(_MULT_A, 4 * entropy, 1 << 32),
        _MULT_A,
    )
    pool = np.random.SeedSequence(words).pool[:, None]
    pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
    state = _hash_rows(np.tile(pool ^ pool >> 16, (2, 1)), _INIT_B, _MULT_B)
    # generate_state's uint64 words are little-endian pairs of uint32 words.
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _SeedRow:
    """A replicate's :func:`_seed_words` row, for ``PCG64`` to seed from.

    Each ``_block_draws`` call registers it as numpy's ``ISeedSequence``,
    which ``PCG64`` requires (a no-op after the first).  Subclassing it
    would load ``numpy.random`` at import, before the study's first block,
    and that order alone raised a 100-replicate Table-1 ``simulate``'s
    peak RSS by about 0.3 MB (2 vCPUs, Xeon, numpy 2.4).
    """

    def __init__(self, row: np.ndarray) -> None:
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"PCG64 asked for {n_words} words of {np.dtype(dtype)}, "
                "not the 4 uint64 words the study's streams are seeded with"
            )
        return self.row


def _block_draws(
    master_seed: int, cell: StudyCell, indices: range, out=None
) -> np.ndarray:
    """Uniforms of the replicates in ``indices``, shape ``(len(indices), 2, n)``.

    Row ``b`` holds, bit for bit, ``CensoringScheme.draw(n, rng)`` with
    ``rng = np.random.default_rng(replicate_stream(master_seed, cell, i))``
    for the ``b``-th index ``i``.  The block's seed words come from one
    array pass (:func:`_seed_words`), not one ``SeedSequence`` each; numpy
    seeds each replicate's ``PCG64`` from its row, and the generator fills
    its row of ``out``, or of a new array.  Indices stay below ``2**32``
    (:class:`StudyConfig`).
    """
    np.random.bit_generator.ISeedSequence.register(_SeedRow)
    seeds = _seed_words(_group_words(master_seed, cell), indices)
    uniforms = np.empty((len(indices), 2, cell.n)) if out is None else out
    for row, seed in zip(uniforms, seeds):
        generator = np.random.Generator(np.random.PCG64(_SeedRow(seed)))
        for half in row:  # the loss half first, then the censor half
            generator.random(out=half)
    return uniforms


class _Workspace:
    """The arrays one process computes its study blocks in, and its layer clocks.

    :meth:`block` hands out a block's arrays as views of two buffers, which
    grow only when a block holds more records than any block before it.
    :func:`_map_blocks` runs each share largest block first, so a process
    allocates them once, at its first block.  Each process makes its own
    workspace after any fork: none is kept at module level, where two
    threads would share it, and none is inherited, which would cost
    copy-on-write faults.  ``clocks`` adds up the nanoseconds of each
    layer in :data:`_LAYERS`, booked by :meth:`lap`.
    """

    def __init__(self) -> None:
        self.draws = np.empty(0)
        self.flags = np.empty(0, np.int64)
        self.clocks = dict.fromkeys(_LAYERS, 0)
        self._mark = 0

    def block(self, rows: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """A ``(rows, 2, n)`` float64 and a ``(rows, n)`` int64 array; starts the clock.

        Both are views of the buffers, reused by the next block.
        """
        records = rows * n
        if self.flags.size < records:
            self.draws = np.empty(2 * records)
            self.flags = np.empty(records, np.int64)
        self._mark = time.perf_counter_ns()
        # Stored half-major, so that each half is one contiguous (rows, n) array.
        return (
            self.draws[: 2 * records].reshape(2, rows, n).transpose(1, 0, 2),
            self.flags[:records].reshape(rows, n),
        )

    def lap(self, layer: str) -> None:
        """Book the time since the last lap, or the block's start, to ``layer``."""
        now = time.perf_counter_ns()
        self.clocks[layer] += now - self._mark
        self._mark = now


def _replicate_block(
    cell: StudyCell,
    rho_values: Sequence[float],
    indices: range,
    master_seed: int,
    beta: float,
    work: Optional[_Workspace] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns ``(retention, pi_hat, code)`` of the replicates in ``indices``.

    ``retention`` holds each replicate's selected order statistic, NaN
    where the threshold choice failed.  ``pi_hat`` and ``code`` are
    ``(len(indices), len(rho_values))`` arrays: the estimated premium
    (NaN where the entry failed) and the code in ``errors.REASONS`` of
    why it failed (-1 where it did not).  Each replicate draws from its
    own stream (:func:`_block_draws`); the block is transformed and
    sorted, the sort checking the records, in ``(len(indices), n)`` array
    passes, then run through the chain in one :func:`threshold._chain_rows`
    call, which merges a failed threshold choice (every rho) with the
    fit's failures (their rho only).  The exact premium is left to
    :func:`_price_exact`.  Every kernel treats rows independently, so a
    replicate's values, failures included, are bitwise the same in any
    block.  Settings are those a :class:`StudyConfig` accepts.

    The draws, the records, the sort keys and the product-limit factors
    live in ``work``'s arrays (a new :class:`_Workspace` if None), each
    stage writing over the one before, and the time of each stage is
    added to ``work.clocks``.  No returned array shares memory with the
    workspace.
    """
    scheme = burr_scheme(cell.gamma1, cell.p, cell.eta)
    work = _Workspace() if work is None else work
    draws, flags = work.block(len(indices), cell.n)
    _block_draws(master_seed, cell, indices, out=draws)
    work.lap("draw")
    z, delta = scheme.records(draws, out=flags)
    work.lap("transform")
    z, delta = _sort_rows(z, delta)
    work.lap("sort")
    # The censor half of the draws is free once the records are sorted.
    chain = _chain_rows(
        z, delta, rho_values, beta=beta, scratch=draws[:, 1], lap=work.lap
    )
    work.lap("fit")
    return chain.retention, chain.pi_hat, chain.code


def _price_exact(
    loss_model: BurrModel,
    rho_values: Sequence[float],
    retention: np.ndarray,
    pi_hat: np.ndarray,
    code: np.ndarray,
) -> np.ndarray:
    """The exact premium column of joined blocks, beside their estimates.

    Per rho, one call prices every row that has not failed there, if any,
    at its retention.  A divergent premium fails every such row; one that
    did not converge fails its own row only.  A failed row takes the
    reason's code in ``code`` and NaN in ``pi_hat`` (in place).  Returns
    ``pi_true``, shaped like ``pi_hat``, NaN where the entry failed.
    """
    pi_true = np.full(pi_hat.shape, np.nan)
    for j, rho in enumerate(rho_values):
        rows = np.flatnonzero(code[:, j] < 0)
        if not rows.size:
            continue
        try:
            pi_true[rows, j] = loss_model._premium_entries(rho, retention[rows])
            reason = _CODE["premium_not_converged"]
        except DomainError as exc:
            reason = _CODE[exc.reason]
        lost = rows[np.isnan(pi_true[rows, j])]
        code[lost, j] = reason
        pi_hat[lost, j] = np.nan
    return pi_true


def _reason_counts(code: np.ndarray) -> str:
    """The failures in ``code`` as ``name=count`` pairs, in table order."""
    counts = np.bincount(code[code >= 0], minlength=len(REASONS))
    return ", ".join(
        f"{REASONS[c][0]}={counts[c]}" for c in np.flatnonzero(counts).tolist()
    )


def aggregate(
    pi_true: np.ndarray,
    pi_hat: np.ndarray,
    code: np.ndarray,
    *,
    p: float,
    rho: float,
    n: int,
) -> StudyRow:
    """Fold one cell's replicate columns into a study row.

    The columns are one entry per replicate, as :func:`run_study` slices
    them from its blocks: the exact and the estimated premium, and the
    failure code, an index into ``errors.REASONS`` (-1 for a success).
    Means run over successful replicates only; failures are counted.
    ``abs_bias`` is the absolute difference of the two means, ``rmse`` the
    root of the mean squared per-replicate error.
    """
    ok = code < 0
    if not ok.any():
        raise DomainError(
            f"every replicate failed for cell (p={p:g}, rho={rho:g}, "
            f"n={n}); reasons: {_reason_counts(code)}"
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


def _run_share(tasks: Sequence[tuple], share: List[int]) -> Tuple[list, dict]:
    """The outcomes of ``tasks[i]`` for ``i`` in ``share``, and their clocks.

    The share's blocks run in order in one new :class:`_Workspace`.
    """
    work = _Workspace()
    return [_replicate_block(*tasks[i], work) for i in share], work.clocks


def _map_blocks(tasks: Sequence[tuple], workers: int) -> Tuple[list, dict]:
    """``[_replicate_block(*task) for task in tasks]`` over ``workers`` processes.

    Returns the outcomes and the layer clocks summed over the processes.
    The tasks are split by records (replicates x n) into
    ``min(workers, len(tasks))`` shares (:func:`_split_shares`), each
    largest task first.  This process forks one child per share after the
    first, runs the first share itself (:func:`_run_share`), and then
    reads each child's pipe to EOF; a child that finished early just
    waits on its full pipe.  A child pickles ``(True, (outcomes, clocks))``
    or ``(False, exception)`` into its pipe and always leaves through
    ``os._exit``, so it never returns into the caller, runs exit handlers
    or flushes inherited buffers; it exits 0 only once the payload is
    written.  A child's exception is raised here again with its type and
    message; a child that ends any other way raises ``ChildProcessError``
    (an ``OSError``).  If anything here fails, the children are killed;
    every child is reaped before this returns or raises.  Where
    ``os.fork`` does not exist, every task runs in this process.
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
                        payload = True, _run_share(tasks, share)
                    except BaseException as exc:
                        payload = False, exc
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb"), share
        results = [(shares[0], _run_share(tasks, shares[0]))]
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
            results.append((share, result))
    except BaseException:
        import signal  # only a failed parallel run pays for it

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.waitpid(pid, 0)
    clocks = dict.fromkeys(_LAYERS, 0)
    for share, (share_outcomes, share_clocks) in results:
        for i, outcome in zip(share, share_outcomes):
            outcomes[i] = outcome
        for layer, ns in share_clocks.items():
            clocks[layer] += ns
    return outcomes, clocks


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
    count and any block size.  A cell whose replicates all failed is
    logged and dropped; the run only errors out when every cell is in
    that state.  :func:`_timed_study` is the same run, with the time
    spent in each layer.
    """
    return _timed_study(config, workers)[0]


def _timed_study(
    config: StudyConfig, workers: int
) -> Tuple[List[StudyRow], Dict[str, float]]:
    """:func:`run_study`'s rows, and the time spent in each layer.

    The times are summed over every process that computed blocks and
    given in microseconds per sample for the layers of a block
    (:data:`_LAYERS`), and per (sample, distinct rho) for the fit and the
    exact premium.  The same layers are reported for any worker count.
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
    outcomes, clocks = _map_blocks(tasks, workers)
    retention, pi_hat, code = map(np.concatenate, zip(*outcomes))
    loss_model = BurrModel(gamma=config.gamma1, eta=config.eta)
    start = time.perf_counter_ns()
    pi_true = _price_exact(loss_model, rhos, retention, pi_hat, code)
    clocks["exact_premium"] += time.perf_counter_ns() - start
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
                pi_true[column], pi_hat[column], code[column], p=p, rho=rho, n=n
            )
        except DomainError as exc:
            logger.warning("dropping cell: %s", exc)
            drop_reasons.append(str(exc))
            continue
        if row.failure_count > 0:
            logger.warning(
                "cell (p=%g, rho=%g, n=%d): %d of %d replicates failed; reasons: %s",
                p, rho, n, row.failure_count, count, _reason_counts(code[column]),
            )
        if logger.isEnabledFor(logging.DEBUG):
            errors = (pi_hat[column] - pi_true[column])[code[column] < 0]
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
    samples = len(groups) * count
    per_rho = ("fit", "exact_premium")
    layer_us = {
        layer: ns / 1e3 / (samples * (len(rhos) if layer in per_rho else 1))
        for layer, ns in clocks.items()
    }
    return rows, layer_us
