"""Streaming attack campaigns: capture → accumulate → rank.

An :class:`AttackCampaign` drives a segment source (typically a
:class:`PlatformSegmentSource` wrapping a
:class:`~repro.soc.platform.SimulatedPlatform`) in batches, folds every
batch into a :class:`~repro.attacks.distinguishers.CpaDistinguisher`
accumulator, and evaluates key ranks at geometric checkpoints.  The
campaign stops early once every key byte has held rank 1 for
``rank1_patience`` consecutive checkpoints (or, when the true key is
unknown, once the recovered key has been stable that long).

Compared to re-running the batch CPA at every checkpoint
(:func:`repro.attacks.key_rank.traces_to_rank1`), the streaming campaign
touches each trace exactly once: checkpointed rank convergence becomes one
incremental pass instead of O(checkpoints × full-CPA), and memory stays
constant in the trace count.

The campaign is purely in memory.  Durable, resumable campaigns run
sharded (:class:`~repro.runtime.parallel.ParallelCampaign` with a
``store_root``, inline at ``workers=1``); a serial ``AttackCampaign``
over :class:`~repro.runtime.parallel.ShardedSegmentSource` is the
reference they are pinned against.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.attacks.distinguishers import resolve_distinguisher
from repro.attacks.key_rank import MIN_CPA_TRACES, next_checkpoint
from repro.soc.platform import SimulatedPlatform

__all__ = [
    "SegmentSource",
    "PlatformSegmentSource",
    "CheckpointRecord",
    "CampaignResult",
    "AttackCampaign",
    "evaluate_checkpoint",
    "extends_streak",
    "streak_start",
]


class SegmentSource(Protocol):
    """Anything a campaign can pull equal-length attack segments from."""

    n_samples: int
    block_size: int
    true_key: bytes | None

    def capture(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Produce ``(count, n_samples)`` segments + ``(count, block_size)``
        plaintexts.

        Sources may additionally expose ``skip(count)`` to fast-forward
        past traces a resumed shard already replayed from its store —
        deterministic (seeded) sources need this so post-resume captures
        continue the stream instead of repeating it.
        """
        ...  # pragma: no cover


class PlatformSegmentSource:
    """Capture hand-off from a simulated platform to a streaming campaign.

    Wraps :meth:`SimulatedPlatform.capture_attack_segments` with a key
    fixed for the campaign's lifetime (drawn from the platform when not
    supplied) and a segment length resolved once — by default the
    platform's empirical mean CO length, which covers the first-round
    S-box leakage under every random-delay configuration.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        key: bytes | None = None,
        segment_length: int | None = None,
        nop_header: int = 96,
        batch_size: int | None = None,
    ) -> None:
        self.platform = platform
        self.true_key = key if key is not None else platform.random_key()
        self.n_samples = int(
            segment_length if segment_length is not None
            else platform.mean_co_samples()
        )
        self.block_size = platform.cipher.block_size
        self.nop_header = int(nop_header)
        self.batch_size = batch_size

    def capture(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        return self.platform.capture_attack_segments(
            count,
            key=self.true_key,
            segment_length=self.n_samples,
            nop_header=self.nop_header,
            batch_size=self.batch_size,
        )

    def skip(self, count: int) -> None:
        """Fast-forward past ``count`` traces a resumed shard replayed.

        The platform's randomness is one seeded stream consumed in capture
        order, so the only way to reach the state "after the first
        ``count`` captures" is to re-draw them; captures are re-executed
        and discarded.  This keeps a resumed campaign's stream identical
        to an uninterrupted one (chunking does not change the draws), at
        the cost of re-simulating the skipped traces — a hardware rig
        would simply keep capturing.
        """
        if count > 0:
            self.capture(count)


@dataclass(frozen=True)
class CheckpointRecord:
    """One rank evaluation of the accumulated statistics."""

    n_traces: int
    recovered_key: bytes
    ranks: tuple[int, ...] | None   # None when the true key is unknown
    correct_bytes: int | None       # recovered bytes matching the true key

    @property
    def max_rank(self) -> int | None:
        return None if self.ranks is None else max(self.ranks)

    @property
    def all_rank1(self) -> bool:
        return self.ranks is not None and all(r == 1 for r in self.ranks)


@dataclass
class CampaignResult:
    """Everything a finished (or exhausted) campaign measured."""

    records: list[CheckpointRecord]
    n_traces: int
    traces_to_rank1: int | None     # first checkpoint of the terminal streak
    early_stopped: bool
    recovered_key: bytes
    true_key: bytes | None
    resumed_from: int               # traces replayed from the store, if any
    store_path: str | None
    capture_seconds: float
    attack_seconds: float
    distinguisher: str = "cpa"      # registry name of the attack statistic
    partial: bool = False           # some shards exhausted their retries
    failed_shards: tuple[int, ...] = ()
    retries: int = 0                # shard retries spent across the run
    pool_rebuilds: int = 0          # process pools replaced across the run

    @property
    def key_recovered(self) -> bool:
        return self.true_key is not None and self.recovered_key == self.true_key

    def summary(self) -> str:
        """One-line outcome for logs and the CLI."""
        outcome = (
            f"rank 1 at {self.traces_to_rank1} traces"
            if self.traces_to_rank1 is not None
            else "rank 1 not reached"
        )
        if self.partial:
            stop = (
                f"PARTIAL: shards {list(self.failed_shards)} failed "
                f"after retries"
            )
        elif self.early_stopped:
            stop = "early stop"
        else:
            stop = "budget exhausted"
        return (
            f"{self.n_traces} traces ({self.resumed_from} resumed), "
            f"{len(self.records)} checkpoints, {outcome}, {stop}"
        )


class AttackCampaign:
    """Streaming capture→accumulate→checkpoint orchestrator (in memory).

    Parameters
    ----------
    source:
        A :class:`SegmentSource`; its ``true_key`` (when known, as in
        simulation) enables rank-based early stopping.
    aggregate:
        Boxcar aggregation width applied by the accumulator (Section
        IV-C); also shrinks the sufficient statistics by the same factor.
        Ignored when ``distinguisher`` carries its own aggregation.
    distinguisher:
        The attack statistic: ``None`` (the historical first-order HW
        CPA), a registry name (``cpa``/``dpa``/``cpa2``/``lra``), a
        :class:`~repro.attacks.distinguishers.DistinguisherSpec`, or a
        fresh accumulator instance.  Store replay, checkpointing, and
        early stopping work identically for all of them.
    first_checkpoint, checkpoint_growth:
        The geometric checkpoint ladder (matching
        :func:`repro.attacks.key_rank.geometric_checkpoints`).
    checkpoints:
        An explicit checkpoint ladder overriding the geometric one —
        sharded parallel campaigns align their rungs to shard boundaries
        and hand the serial reference the same ladder.  Values are
        deduplicated, sorted, and filtered below the CPA minimum; past
        the last rung the campaign runs straight to ``max_traces``.
    rank1_patience:
        Consecutive all-rank-1 checkpoints required before stopping early
        (consecutive *stable-key* checkpoints when the true key is
        unknown).
    batch_size:
        Traces per capture batch — the campaign's peak per-step footprint.
    """

    def __init__(
        self,
        source: SegmentSource,
        true_key: bytes | None = None,
        aggregate: int = 1,
        first_checkpoint: int = 25,
        checkpoint_growth: float = 1.5,
        rank1_patience: int = 2,
        batch_size: int = 256,
        checkpoints: Sequence[int] | None = None,
        distinguisher=None,
    ) -> None:
        if checkpoint_growth <= 1.0:
            raise ValueError("checkpoint_growth must be > 1")
        if rank1_patience < 1:
            raise ValueError("rank1_patience must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if true_key is None:
            true_key = getattr(source, "true_key", None)
        self.source = source
        self.true_key = true_key
        self.distinguisher_spec, self.accumulator = resolve_distinguisher(
            distinguisher, aggregate=aggregate
        )
        self.aggregate = self.accumulator.aggregate
        self._min_traces = max(MIN_CPA_TRACES, self.accumulator.min_traces)
        self._ladder: tuple[int, ...] | None = None
        if checkpoints is not None:
            ladder = sorted(
                {int(c) for c in checkpoints if int(c) >= self._min_traces}
            )
            if not ladder:
                raise ValueError(
                    f"explicit checkpoint ladder has no value >= "
                    f"{self._min_traces}: {list(checkpoints)!r}"
                )
            self._ladder = tuple(ladder)
            first_checkpoint = ladder[0]
        self.first_checkpoint = max(int(first_checkpoint), self._min_traces)
        self.checkpoint_growth = float(checkpoint_growth)
        self.rank1_patience = int(rank1_patience)
        self.batch_size = int(batch_size)

    # ------------------------------------------------------------------ #
    # checkpoint schedule                                                #
    # ------------------------------------------------------------------ #

    def _next_checkpoint(self, n: int) -> int:
        """The first ladder value strictly above ``n``."""
        if self._ladder is not None:
            for value in self._ladder:
                if value > n:
                    return value
            # Past the explicit ladder: one final rung at the budget.
            return sys.maxsize
        return next_checkpoint(
            n, first=self.first_checkpoint, growth=self.checkpoint_growth
        )

    # ------------------------------------------------------------------ #
    # the campaign loop                                                  #
    # ------------------------------------------------------------------ #

    def run(self, max_traces: int) -> CampaignResult:
        """Capture until early stop or ``max_traces`` accumulated traces."""
        if max_traces < self._min_traces:
            raise ValueError(f"max_traces must be >= {self._min_traces}")
        records: list[CheckpointRecord] = []
        streak = 0
        capture_seconds = 0.0
        attack_seconds = 0.0
        n = 0
        stopped = False
        while n < max_traces and not stopped:
            target = min(self._next_checkpoint(n), max_traces)
            while n < target:
                begin = time.perf_counter()
                traces, plaintexts = self.source.capture(min(self.batch_size, target - n))
                capture_seconds += time.perf_counter() - begin
                begin = time.perf_counter()
                n = self.accumulator.update(traces, plaintexts)
                attack_seconds += time.perf_counter() - begin
            begin = time.perf_counter()
            records.append(evaluate_checkpoint(self.accumulator, self.true_key, n))
            attack_seconds += time.perf_counter() - begin
            streak = streak + 1 if extends_streak(records, self.true_key) else 0
            stopped = streak >= self.rank1_patience

        return CampaignResult(
            records=records,
            n_traces=n,
            traces_to_rank1=streak_start(records, self.true_key, streak),
            early_stopped=stopped,
            recovered_key=(
                self.accumulator.recovered_key()
                if n >= self._min_traces
                else b""
            ),
            true_key=self.true_key,
            resumed_from=0,
            store_path=None,
            capture_seconds=capture_seconds,
            attack_seconds=attack_seconds,
            distinguisher=self.accumulator.name,
        )


# ---------------------------------------------------------------------- #
# checkpoint bookkeeping shared with the parallel campaign               #
# ---------------------------------------------------------------------- #


def evaluate_checkpoint(accumulator, true_key: bytes | None, n: int) -> CheckpointRecord:
    """Rank the accumulated statistics into one :class:`CheckpointRecord`."""
    recovered = accumulator.recovered_key()
    ranks = None
    correct = None
    if true_key is not None:
        ranks = tuple(accumulator.key_ranks(true_key))
        correct = sum(a == b for a, b in zip(recovered, true_key))
    return CheckpointRecord(
        n_traces=n, recovered_key=recovered, ranks=ranks, correct_bytes=correct
    )


def extends_streak(records: list[CheckpointRecord], true_key: bytes | None) -> bool:
    """Does the latest record continue the early-stop condition?

    With a known true key the condition is all bytes at rank 1; with an
    unknown key it is a recovered key stable across checkpoints.
    """
    latest = records[-1]
    if true_key is not None:
        return latest.all_rank1
    if len(records) < 2:
        return False
    return latest.recovered_key == records[-2].recovered_key


def streak_start(
    records: list[CheckpointRecord], true_key: bytes | None, streak: int
) -> int | None:
    """First checkpoint of the trailing success streak (Table II metric)."""
    if true_key is None or streak == 0:
        return None
    return records[len(records) - streak].n_traces
