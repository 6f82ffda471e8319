"""Process-parallel sharded attack campaigns over mergeable accumulators.

A :class:`ParallelCampaign` multiplies the streaming campaign across CPU
cores.  The campaign's trace budget is cut into fixed **shards** — block
``i`` covers traces ``[i*shard_size, (i+1)*shard_size)`` and is captured by
a platform seeded with the ``i``-th child of the campaign seed
(:func:`numpy.random.SeedSequence.spawn` semantics, rebuilt worker-side via
``spawn_key``).  The shard contents therefore depend only on the campaign
seed and the shard index:

* a run **reruns bit-identically**, and the captured trace multiset is the
  same whether 1, 4, or 64 workers execute it;
* workers are embarrassingly parallel — each captures its shard, folds it
  into its own distinguisher accumulator (any registered distinguisher,
  rebuilt worker-side from a picklable
  :class:`~repro.attacks.distinguishers.DistinguisherSpec`; the
  historical HW CPA by default), optionally persists it to its own
  :class:`~repro.campaign.store.TraceStore` shard directory, and ships
  the sufficient statistics back;
* the parent **merges** accumulators in shard order at every rank-ladder
  checkpoint (checkpoints are aligned to shard boundaries) and applies the
  same early-stop streak logic as the in-memory
  :class:`~repro.runtime.campaign.AttackCampaign`.

This is the only durable attack-campaign path: ``workers=1`` runs the
shards inline over the same per-shard store layout, so a "serial" run is
simply a one-worker sharded run.

:class:`ShardedSegmentSource` exposes the identical sharded stream as a
plain serial :class:`~repro.runtime.campaign.SegmentSource`, so a serial
``AttackCampaign`` over it accumulates exactly the traces a parallel run
merges — the equivalence the test suite pins down.  Its ``skip`` is cheap:
whole untouched shards are skipped for free (independent seeds), only the
shard the cursor lands in re-draws its prefix.

Resume works per shard: re-running a partially-finished parallel campaign
over the same ``store_root`` replays each shard directory into its
worker's accumulator and captures only the remainder of the shard (the
source fast-forwards past the replayed prefix), so an interrupted-and-
resumed parallel campaign accumulates exactly the traces an uninterrupted
one would.

Execution is fault tolerant (:mod:`repro.runtime.retry`): failed shards
retry with exponential backoff and re-capture bit-identically (shard
streams are pure functions of seed and index), broken pools are rebuilt
and only unfinished shards re-dispatched, hung shards are cancelled by a
per-shard watchdog ``shard_timeout``, and a campaign whose shards exhaust
their retries degrades to a ``partial=True`` result over the merged
prefix instead of aborting — with per-shard stores left positioned for
resume and the failure recorded in the campaign journal
(:mod:`repro.runtime.journal`).  Resume paths verify store integrity and
quarantine corrupt shards before replaying them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.attacks.distinguishers import (
    Distinguisher,
    DistinguisherSpec,
    resolve_distinguisher,
)
from repro.attacks.key_rank import MIN_CPA_TRACES, geometric_checkpoints
from repro.campaign import CorruptManifestError, TraceStore
from repro.ciphers.registry import get_cipher
from repro.runtime.campaign import (
    CampaignResult,
    CheckpointRecord,
    PlatformSegmentSource,
    SegmentSource,
    evaluate_checkpoint,
    extends_streak,
    streak_start,
)
from repro.runtime.retry import RetryPolicy, run_shards
from repro.soc.platform import PlatformSpec

__all__ = [
    "ShardSpec",
    "ShardResult",
    "CampaignSourceSpec",
    "PlatformCampaignSpec",
    "ReducedKeySource",
    "ShardedSegmentSource",
    "ParallelCampaign",
    "plan_shards",
    "shard_seed",
    "shard_aligned_checkpoints",
    "run_shard",
]

# SeedSequence spawn-key layout under the campaign seed: key 0 is reserved
# (campaign-level draws), shard i uses (1, i) — the children of the shard
# root.  Workers rebuild their child from (campaign_seed, shard index)
# without holding the parent sequence.
_SHARD_ROOT = 1


def shard_seed(campaign_seed: int, index: int) -> np.random.SeedSequence:
    """The ``index``-th shard's child seed under ``campaign_seed``.

    Identical to ``SeedSequence(campaign_seed).spawn(2)[1].spawn(n)[index]``
    but constructible from the two integers alone, which is what a pool
    worker receives.
    """
    return np.random.SeedSequence(
        int(campaign_seed), spawn_key=(_SHARD_ROOT, int(index))
    )


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a campaign's trace budget: a seed plus a trace range."""

    index: int
    start: int
    count: int
    campaign_seed: int

    @property
    def stop(self) -> int:
        return self.start + self.count

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        return shard_seed(self.campaign_seed, self.index)


def plan_shards(
    campaign_seed: int, max_traces: int, shard_size: int
) -> tuple[ShardSpec, ...]:
    """Deterministic shard plan: disjoint ranges + spawned child seeds.

    Every shard except possibly the last holds ``shard_size`` traces.  The
    plan is a pure function of its arguments; growing ``max_traces`` later
    extends the final partial shard and appends new ones without changing
    any existing shard's stream (shard content is a prefix property of the
    shard's seeded source).
    """
    if max_traces < 1:
        raise ValueError("max_traces must be >= 1")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    shards = []
    for index, start in enumerate(range(0, int(max_traces), int(shard_size))):
        count = min(int(shard_size), int(max_traces) - start)
        shards.append(ShardSpec(
            index=index, start=start, count=count,
            campaign_seed=int(campaign_seed),
        ))
    return tuple(shards)


def shard_aligned_checkpoints(
    max_traces: int, shard_size: int, first: int = 25, growth: float = 1.5
) -> list[int]:
    """The geometric ladder, rounded up to shard boundaries.

    The parent can only evaluate ranks over fully merged shards, so every
    rung is a multiple of ``shard_size`` (capped at ``max_traces``, which
    is always the final rung).  Serial reference campaigns take this exact
    ladder via ``AttackCampaign(checkpoints=...)`` so both report ranks at
    the same trace counts.
    """
    aligned = sorted({
        min(-(-point // shard_size) * shard_size, int(max_traces))
        for point in geometric_checkpoints(
            int(max_traces), first=first, growth=growth
        )
    })
    return [value for value in aligned if value >= MIN_CPA_TRACES]


# ---------------------------------------------------------------------- #
# campaign source specs (what a pool worker receives)                    #
# ---------------------------------------------------------------------- #


class CampaignSourceSpec(Protocol):
    """A picklable recipe for per-shard segment sources.

    Exposes the campaign-wide schema (``n_samples``, ``block_size``,
    ``true_key``) and builds one independent :class:`SegmentSource` per
    shard from the shard's child seed.
    """

    n_samples: int
    block_size: int
    true_key: bytes | None

    def build_source(self, seed) -> SegmentSource:
        ...  # pragma: no cover


class ReducedKeySource:
    """Attack only the first ``n_bytes`` key bytes of a wrapped source.

    Truncating the plaintext matrix shrinks the accumulator (and the rank
    evaluation) to the leading bytes — the "reduced key" configuration the
    large random-delay workloads use to bound test cost.  Capture and skip
    delegate, so the underlying stream is unchanged.
    """

    def __init__(self, source, n_bytes: int) -> None:
        if not 1 <= n_bytes <= source.block_size:
            raise ValueError(
                f"n_bytes must be in [1, {source.block_size}], got {n_bytes}"
            )
        self._source = source
        self.n_samples = source.n_samples
        self.block_size = int(n_bytes)
        self.true_key = (
            None if source.true_key is None else source.true_key[:n_bytes]
        )

    def capture(self, count: int):
        traces, plaintexts = self._source.capture(count)
        return traces, plaintexts[:, : self.block_size]

    def skip(self, count: int) -> None:
        skip = getattr(self._source, "skip", None)
        if skip is not None:
            skip(count)
        elif count > 0:
            # Capture-and-discard keeps the stream position correct for
            # sources that cannot fast-forward natively.
            self._source.capture(count)


@dataclass(frozen=True)
class PlatformCampaignSpec:
    """Everything a worker needs to capture campaign shards on a platform.

    The fixed attack ``key`` and resolved ``segment_length`` travel in the
    spec (they must be identical across shards); the platform itself is
    rebuilt per shard from :class:`~repro.soc.platform.PlatformSpec` and
    the shard's child seed.  ``attack_bytes`` optionally reduces the
    attacked key to the leading bytes (see :class:`ReducedKeySource`).
    Shard stores record :attr:`capture_mode` and :attr:`countermeasure`,
    so a resume under another configuration is refused.
    """

    platform: PlatformSpec
    key: bytes
    segment_length: int
    nop_header: int = 96
    batch_size: int | None = None
    attack_bytes: int | None = None

    @property
    def n_samples(self) -> int:
        return int(self.segment_length)

    @property
    def block_size(self) -> int:
        if self.attack_bytes is not None:
            return int(self.attack_bytes)
        return get_cipher(self.platform.cipher_name).block_size

    @property
    def true_key(self) -> bytes:
        if self.attack_bytes is not None:
            return self.key[: self.attack_bytes]
        return self.key

    @property
    def capture_mode(self) -> str:
        return self.platform.capture_mode

    @property
    def countermeasure(self) -> str:
        """The platform's combined countermeasure label, e.g. ``RD-0+CJ-10``."""
        return self.platform.build(0).countermeasure_name

    def build_source(self, seed) -> SegmentSource:
        source = PlatformSegmentSource(
            self.platform.build(seed),
            key=self.key,
            segment_length=self.segment_length,
            nop_header=self.nop_header,
            batch_size=self.batch_size,
        )
        if self.attack_bytes is not None:
            return ReducedKeySource(source, self.attack_bytes)
        return source


# ---------------------------------------------------------------------- #
# the serial view of the sharded stream                                  #
# ---------------------------------------------------------------------- #


class ShardedSegmentSource:
    """The sharded capture stream as one serial :class:`SegmentSource`.

    Captures walk the shards in index order, building each shard's source
    from its child seed on entry — the exact trace sequence a parallel run
    merges (shard-order concatenation).  A serial ``AttackCampaign`` over
    this source is the reference a :class:`ParallelCampaign` must match.
    """

    def __init__(self, spec: CampaignSourceSpec, campaign_seed: int,
                 shard_size: int) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.spec = spec
        self.campaign_seed = int(campaign_seed)
        self.shard_size = int(shard_size)
        self.n_samples = spec.n_samples
        self.block_size = spec.block_size
        self.true_key = spec.true_key
        self._position = 0
        self._source: SegmentSource | None = None
        self._source_index = -1

    def _enter_shard(self, index: int) -> SegmentSource:
        if index != self._source_index:
            self._source = self.spec.build_source(
                shard_seed(self.campaign_seed, index)
            )
            self._source_index = index
        return self._source

    def capture(self, count: int):
        traces = np.empty((count, self.n_samples))
        plaintexts = np.empty((count, self.block_size), dtype=np.uint8)
        done = 0
        while done < count:
            index = self._position // self.shard_size
            room = (index + 1) * self.shard_size - self._position
            take = min(room, count - done)
            t, p = self._enter_shard(index).capture(take)
            traces[done:done + take] = t
            plaintexts[done:done + take] = p
            self._position += take
            done += take
        return traces, plaintexts

    def skip(self, count: int) -> None:
        """Fast-forward ``count`` traces.

        Shards the cursor passes over entirely *without having started
        them* cost nothing — their seeds are independent, so there is no
        stream state to advance.  Only a shard entered part-way must
        re-draw its skipped prefix.
        """
        end = self._position + int(count)
        while self._position < end:
            index = self._position // self.shard_size
            boundary = (index + 1) * self.shard_size
            take = min(boundary, end) - self._position
            # The skip spans this whole shard from its first trace: the
            # shard never needs to be built at all.
            whole_shard = (
                self._position == index * self.shard_size and boundary <= end
            )
            if not whole_shard:
                source = self._enter_shard(index)
                skip = getattr(source, "skip", None)
                if skip is None:  # pragma: no cover - protocol fallback
                    source.capture(take)
                else:
                    skip(take)
            self._position += take


# ---------------------------------------------------------------------- #
# the pool worker                                                        #
# ---------------------------------------------------------------------- #


@dataclass
class ShardResult:
    """What one shard worker ships back to the merging parent.

    ``accumulator`` is the shard's mergeable statistic: a
    :class:`~repro.attacks.distinguishers.Distinguisher` for attack
    campaigns, a :class:`~repro.evaluation.tvla.WelchTAccumulator` for
    TVLA.
    """

    index: int
    accumulator: Distinguisher
    replayed: int               # traces replayed from the shard's store
    capture_seconds: float
    quarantined: int = 0        # corrupt files quarantined before resume


def _quarantine_store_dir(store_dir: Path) -> Path:
    """Rename an unrecoverable store directory aside, never clobbering."""
    target = store_dir.with_suffix(".quarantined")
    attempt = 0
    while target.exists():
        attempt += 1
        target = store_dir.with_suffix(f".quarantined.{attempt}")
    store_dir.rename(target)
    return target


def _recover_shard_dir(store_root, index: int) -> tuple[Path, int]:
    """Shard ``index``'s store directory, integrity-checked for resume.

    Corrupt or orphaned payload files are quarantined (the manifest is
    truncated to its intact prefix, so the shard re-captures exactly the
    dropped tail); a manifest too damaged to parse quarantines the whole
    directory and the shard re-captures from scratch.  Returns the
    directory and the count of quarantined files.
    """
    store_dir = Path(store_root) / f"shard-{index:06d}"
    if not (store_dir / "manifest.json").exists():
        return store_dir, 0
    try:
        store = TraceStore.open(store_dir)
    except CorruptManifestError:
        _quarantine_store_dir(store_dir)
        return store_dir, 1
    return store_dir, len(store.recover().quarantined)


def run_shard(
    spec: CampaignSourceSpec,
    shard: ShardSpec,
    store_root=None,
    aggregate: int = 1,
    batch_size: int = 256,
    distinguisher: DistinguisherSpec | None = None,
    fault_plan=None,
) -> ShardResult:
    """Capture (or resume) one shard and accumulate it.

    ``distinguisher`` picks the shard's attack statistic (the historical
    HW CPA when ``None``); the parent must merge shard accumulators of
    the identical configuration, which is why workers receive the
    picklable spec rather than a live accumulator.

    With a ``store_root`` the shard persists under its own
    ``shard-<index>`` trace-store directory: the store is integrity-
    checked (corrupt tails and orphans quarantined) before existing
    traces are replayed into the accumulator, and the shard's seeded
    source is fast-forwarded past them, so re-running a partially
    captured shard appends exactly the traces the uninterrupted run would
    have captured.  A store longer than the shard (a previous run with a
    larger budget, or a larger shard size — per-index shard streams are
    prefixes of the same child-seed stream either way) replays only its
    first ``shard.count`` traces.

    ``fault_plan`` (a :class:`~repro.runtime.faults.FaultPlan`) is the
    chaos-test hook: it may kill, hang, or corrupt this shard at capture
    boundaries.
    """
    _, accumulator = resolve_distinguisher(distinguisher, aggregate=aggregate)
    capture_mode = getattr(spec, "capture_mode", "exact")
    countermeasure = getattr(spec, "countermeasure", None)
    store = None
    replayed = 0
    quarantined = 0
    if store_root is not None:
        store_dir, quarantined = _recover_shard_dir(store_root, shard.index)
        store = TraceStore.open_or_create(
            store_dir,
            n_samples=spec.n_samples,
            block_size=spec.block_size,
            key=spec.true_key,
            meta={
                "shard_index": shard.index,
                "start": shard.start,
                "campaign_seed": shard.campaign_seed,
                "capture_mode": capture_mode,
                "countermeasure": countermeasure,
            },
        )
        meta = store.meta
        if (
            meta.get("shard_index", shard.index) != shard.index
            or meta.get("campaign_seed", shard.campaign_seed)
            != shard.campaign_seed
        ):
            raise ValueError(
                f"store {store.path} was captured as shard "
                f"{meta.get('shard_index')} of campaign seed "
                f"{meta.get('campaign_seed')}, not shard {shard.index} "
                f"of seed {shard.campaign_seed}"
            )
        stored_mode = meta.get("capture_mode", "exact")
        if len(store) and stored_mode != capture_mode:
            raise ValueError(
                f"store {store.path} was captured in {stored_mode!r} capture "
                f"mode; resuming it in {capture_mode!r} would splice two "
                f"different trace streams"
            )
        stored_cm = meta.get("countermeasure")
        if (len(store) and None not in (stored_cm, countermeasure)
                and stored_cm != countermeasure):
            raise ValueError(
                f"store {store.path} was captured under countermeasure "
                f"{stored_cm!r}; resuming it under {countermeasure!r} would "
                f"splice two different trace streams"
            )
        # The store holds a prefix of this shard's seeded stream (possibly
        # a longer one, if a previous run had a larger budget) — replay at
        # most shard.count traces of it.
        for traces, plaintexts in store.iter_chunks(batch_size):
            room = shard.count - replayed
            if room <= 0:
                break
            accumulator.update(traces[:room], plaintexts[:room])
            replayed += min(int(traces.shape[0]), room)
    capture_seconds = 0.0
    done = replayed
    if done < shard.count:
        source = spec.build_source(shard.seed_sequence)
        if replayed:
            source.skip(replayed)
        while done < shard.count:
            if fault_plan is not None:
                fault_plan.maybe_fire(shard.index, done=done, store=store)
            take = min(int(batch_size), shard.count - done)
            begin = time.perf_counter()
            traces, plaintexts = source.capture(take)
            capture_seconds += time.perf_counter() - begin
            if store is not None:
                store.append(traces, plaintexts)
            accumulator.update(traces, plaintexts)
            done += take
    return ShardResult(
        index=shard.index,
        accumulator=accumulator,
        replayed=replayed,
        capture_seconds=capture_seconds,
        quarantined=quarantined,
    )


# ---------------------------------------------------------------------- #
# the orchestrator                                                       #
# ---------------------------------------------------------------------- #


class ParallelCampaign:
    """Fan capture→accumulate shards over a process pool, merge, rank.

    Parameters mirror :class:`~repro.runtime.campaign.AttackCampaign`
    where they overlap; the additions are ``workers`` (pool width; 1 runs
    the shards inline), ``shard_size`` (traces per shard — the unit of
    parallel work, seed derivation, and checkpoint alignment, so it also
    sets the checkpoint resolution) and ``store_root`` (a directory of
    per-shard trace stores plus the run's ``journal.json``; re-running
    over it resumes).

    For a fixed ``(spec, seed, shard_size)`` the captured trace multiset,
    the merged statistics, and every reported checkpoint rank are
    independent of ``workers`` — parallelism is a pure wall-clock
    multiplier.  The pool captures up to ``workers - 1`` shards ahead of
    the current checkpoint rung to stay saturated; on early stop those
    speculative shards are discarded (their stores, when enabled, persist
    the usual deterministic streams and simply pre-warm a later resume).

    Failures are absorbed by the shard retry layer (``max_retries`` ×
    exponential ``retry_backoff``, per-shard ``shard_timeout`` watchdog;
    see :class:`~repro.runtime.retry.ShardExecutor`).  Retried shards
    re-capture bit-identically, so retries never perturb the result.  A
    shard that exhausts its retries ends the run gracefully: the
    completed shard prefix is merged and evaluated, and the result
    reports ``partial=True`` with the failed indices — re-running the
    same campaign over the same ``store_root`` retries just the missing
    work.  Note ``shard_timeout`` forces pool dispatch even at
    ``workers=1`` (only a separate process can be killed by the
    watchdog).
    """

    def __init__(
        self,
        spec: CampaignSourceSpec,
        seed: int,
        workers: int = 1,
        shard_size: int = 1024,
        store_root=None,
        aggregate: int = 1,
        first_checkpoint: int = 25,
        checkpoint_growth: float = 1.5,
        rank1_patience: int = 2,
        batch_size: int = 256,
        distinguisher: DistinguisherSpec | str | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        shard_timeout: float | None = None,
        fault_plan=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if checkpoint_growth <= 1.0:
            raise ValueError("checkpoint_growth must be > 1")
        if rank1_patience < 1:
            raise ValueError("rank1_patience must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.spec = spec
        self.seed = int(seed)
        self.workers = int(workers)
        self.shard_size = int(shard_size)
        self.store_root = store_root
        self.distinguisher_spec, accumulator = resolve_distinguisher(
            distinguisher, aggregate=aggregate
        )
        if self.distinguisher_spec is None:
            raise TypeError(
                "ParallelCampaign needs a picklable DistinguisherSpec (or a "
                "registry name), not a live accumulator — pool workers "
                "rebuild their own"
            )
        self.accumulator = accumulator
        self.aggregate = accumulator.aggregate
        self._min_traces = max(MIN_CPA_TRACES, accumulator.min_traces)
        self.first_checkpoint = max(int(first_checkpoint), self._min_traces)
        self.checkpoint_growth = float(checkpoint_growth)
        self.rank1_patience = int(rank1_patience)
        self.batch_size = int(batch_size)
        self.retry_policy = RetryPolicy(
            max_retries=max_retries,
            backoff=retry_backoff,
            timeout=shard_timeout,
        )
        self.fault_plan = fault_plan
        self.true_key = spec.true_key

    def checkpoints(self, max_traces: int) -> list[int]:
        """The shard-aligned rank ladder this campaign will evaluate."""
        return [
            value
            for value in shard_aligned_checkpoints(
                max_traces, self.shard_size,
                first=self.first_checkpoint, growth=self.checkpoint_growth,
            )
            if value >= self._min_traces
        ]

    def sharded_source(self) -> ShardedSegmentSource:
        """A serial source over this campaign's exact trace stream."""
        return ShardedSegmentSource(self.spec, self.seed, self.shard_size)

    def run(self, max_traces: int, verbose: bool = False) -> CampaignResult:
        """Capture until early stop, ``max_traces`` merged, or retry exhaustion.

        The result's ``capture_seconds`` aggregates the workers' own
        capture timers (it can exceed wall clock when workers overlap);
        ``attack_seconds`` is the parent's merge + rank-evaluation time.

        Shards run through :func:`~repro.runtime.retry.run_shards`, one
        rung per ladder checkpoint.  A shard that fails every retry ends
        the run over the merged shard prefix with ``partial=True``
        (evaluated as a final checkpoint when large enough); if not even
        the first shard completed, the
        :class:`~repro.runtime.retry.ShardFailure` propagates instead.
        """
        if max_traces < self._min_traces:
            raise ValueError(f"max_traces must be >= {self._min_traces}")
        accumulator = self.accumulator = self.distinguisher_spec.build()
        records: list[CheckpointRecord] = []
        streak = 0
        resumed = 0
        capture_seconds = 0.0
        attack_seconds = 0.0

        def merge(result: ShardResult) -> None:
            nonlocal resumed, capture_seconds, attack_seconds
            begin = time.perf_counter()
            accumulator.merge(result.accumulator)
            attack_seconds += time.perf_counter() - begin
            resumed += result.replayed
            capture_seconds += result.capture_seconds

        def checkpoint(merged: int) -> bool:
            nonlocal streak, attack_seconds
            begin = time.perf_counter()
            n = accumulator.n_traces
            record = evaluate_checkpoint(accumulator, self.true_key, n)
            records.append(record)
            streak = streak + 1 if extends_streak(records, self.true_key) else 0
            attack_seconds += time.perf_counter() - begin
            if verbose:
                rank = record.max_rank
                print(
                    f"[parallel x{self.workers}] {n:>8d} traces "
                    f"({merged} shards): max rank "
                    f"{rank if rank is not None else '?'}, "
                    f"streak {streak}/{self.rank1_patience}"
                )
            return streak >= self.rank1_patience

        run = run_shards(
            [
                (run_shard, self.spec, shard, self.store_root, self.aggregate,
                 self.batch_size, self.distinguisher_spec, self.fault_plan)
                for shard in plan_shards(self.seed, max_traces, self.shard_size)
            ],
            merge,
            workers=self.workers,
            policy=self.retry_policy,
            rungs=[-(-target // self.shard_size)
                   for target in self.checkpoints(max_traces)],
            checkpoint=checkpoint,
            store_root=self.store_root,
            kind="parallel_campaign",
            meta={
                "seed": self.seed,
                "shard_size": self.shard_size,
                "distinguisher": self.distinguisher_spec.name,
            },
            # The capture configuration first: a countermeasure also shifts
            # the derived key, and the error should name the real cause.
            config={
                "capture_mode": getattr(self.spec, "capture_mode", "exact"),
                "countermeasure": getattr(self.spec, "countermeasure", None),
                "n_samples": self.spec.n_samples,
                "key": self.true_key,
                "campaign_seed": self.seed,
            },
            label=f"parallel x{self.workers}",
            verbose=verbose,
        )
        n = accumulator.n_traces
        if run.partial and n >= self._min_traces and (
            not records or n > records[-1].n_traces
        ):
            # Degrade gracefully: evaluate the merged prefix as the final
            # checkpoint.
            checkpoint(run.merged)
        return CampaignResult(
            records=records,
            n_traces=n,
            traces_to_rank1=streak_start(records, self.true_key, streak),
            early_stopped=run.stopped,
            recovered_key=(
                accumulator.recovered_key() if n >= self._min_traces else b""
            ),
            true_key=self.true_key,
            resumed_from=resumed,
            store_path=(
                str(self.store_root) if self.store_root is not None else None
            ),
            capture_seconds=capture_seconds,
            attack_seconds=attack_seconds,
            distinguisher=accumulator.name,
            partial=run.partial,
            failed_shards=run.failed_shards,
            retries=run.retries,
            pool_rebuilds=run.pool_rebuilds,
        )
