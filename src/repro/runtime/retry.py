"""Fault-tolerant shard dispatch: retry, backoff, watchdog, pool rebuild.

:class:`ShardExecutor` wraps shard execution — inline or over a
``ProcessPoolExecutor`` — with the failure semantics a long campaign
needs:

* a shard that raises is **retried** up to
  :attr:`RetryPolicy.max_retries` times with exponential backoff.  The
  reseed is *jitterless*: shard streams are pure functions of
  ``(campaign_seed, index)`` (see :func:`repro.runtime.parallel
  .shard_seed`), so the retry re-captures the bit-identical shard and no
  randomness needs to be perturbed for the retry to be safe;
* a ``BrokenProcessPool`` (worker killed by the OS, OOM, hard crash)
  **rebuilds the pool** and re-dispatches only the unfinished shards —
  results already shipped back are kept;
* an optional per-shard wall-clock ``timeout`` acts as a **watchdog** on
  the shard's future: a hung worker cannot be cancelled in-flight, so
  the pool is torn down (processes terminated) and rebuilt, which
  requeues the hung shard along with its unfinished siblings;
* when a shard exhausts its retries the executor records a
  :class:`ShardFailure` and raises it from :meth:`ShardExecutor.result`,
  letting the campaign degrade gracefully (merge the completed prefix,
  report ``partial``) instead of aborting with a raw pool error.

The executor is deliberately campaign-agnostic — it dispatches
``(fn, *args)`` tasks keyed by shard index.  :func:`run_shards` is the one
fan-out loop on top of it: store-root checks, the campaign journal,
in-order collection with a ``workers - 1`` look-ahead, interrupt cleanup
and the partial-versus-failed decision.  :class:`~repro.runtime.parallel
.ParallelCampaign`, :class:`~repro.evaluation.parallel_tvla
.ParallelTvlaCampaign` and :meth:`~repro.runtime.engine.ExperimentEngine
.run_ge_curve` all dispatch through it.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.campaign.store import CorruptManifestError, TraceStore
from repro.runtime.journal import CampaignJournal

__all__ = ["RetryPolicy", "ShardExecutor", "ShardFailure", "ShardRun",
           "run_shards"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to fight for each shard before giving up on it.

    ``max_retries`` counts *re*-executions (0 disables retry entirely);
    ``backoff`` seconds doubles on every consecutive failure of the same
    shard; ``timeout`` is the per-attempt wall-clock watchdog (``None``
    waits forever).
    """

    max_retries: int = 2
    backoff: float = 0.5
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0 (or None to disable)")

    def delay(self, retries_done: int) -> float:
        """Backoff before retry number ``retries_done + 1``."""
        return self.backoff * (2.0 ** int(retries_done))


class ShardFailure(RuntimeError):
    """A shard that failed every attempt its :class:`RetryPolicy` allowed."""

    def __init__(self, index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"shard {index} failed after {attempts} attempt(s): {cause!r}"
        )
        self.index = int(index)
        self.attempts = int(attempts)
        self.cause = cause


class ShardExecutor:
    """Dispatch shard tasks with retry, watchdog, and pool-rebuild logic.

    Tasks are keyed by shard index and must be **idempotent re-runnable**
    — in this codebase they are, by the deterministic-reseed property.
    With ``workers == 1`` and no timeout, tasks run inline at
    :meth:`result` time (no pool, no pickling); a timeout forces pool
    mode even at one worker, because only a separate process can be
    killed by the watchdog.

    ``on_event(index, state, retries)`` observes the shard lifecycle
    (``capturing`` / ``retrying`` / ``done`` / ``failed``) — the campaign
    journal hangs off this hook.  ``sleep`` is injectable so tests can
    pin backoff schedules without waiting them out.
    """

    def __init__(
        self,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        on_event: Callable[[int, str, int], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self._on_event = on_event
        self._sleep = sleep
        self._use_pool = self.workers > 1 or self.policy.timeout is not None
        self._pool: ProcessPoolExecutor | None = None
        self._tasks: dict[int, tuple] = {}
        self._futures: dict[int, object] = {}
        self._results: dict[int, object] = {}
        self._failures: dict[int, ShardFailure] = {}
        self.retries: dict[int, int] = {}
        self.pool_rebuilds = 0

    # -- bookkeeping ---------------------------------------------------

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def failures(self) -> dict[int, ShardFailure]:
        return dict(self._failures)

    def _emit(self, index: int, state: str) -> None:
        if self._on_event is not None:
            self._on_event(index, state, self.retries.get(index, 0))

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Prefer fork (cheap, inherits imports); fall back to the
            # platform default.
            fork = "fork" in multiprocessing.get_all_start_methods()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork") if fork else None,
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Terminate worker processes without waiting on their futures."""
        if self._pool is None:
            return
        for process in list(getattr(self._pool, "_processes", {}).values()):
            process.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _rebuild_pool(self) -> None:
        """Replace a broken/hung pool, requeueing only unfinished shards.

        Futures that completed cleanly before the break are harvested
        into the result cache; futures holding a genuine task exception
        are kept as-is so :meth:`result` charges them against that
        shard's retry budget; everything else (running, queued,
        cancelled, poisoned by the pool break itself, or never dispatched
        because :meth:`submit` found the pool broken) is re-submitted to
        the fresh pool.
        """
        self.pool_rebuilds += 1
        resubmit = []
        for index in self._tasks:
            if index in self._results or index in self._failures:
                continue
            future = self._futures.get(index)
            if future is not None and future.done() and not future.cancelled():
                exc = future.exception()
                if exc is None:
                    self._results[index] = future.result()
                    del self._futures[index]
                    self._emit(index, "done")
                    continue
                if not isinstance(exc, BrokenProcessPool):
                    continue
            resubmit.append(index)
        self._kill_pool()
        for index in resubmit:
            self._dispatch(index)

    def _dispatch(self, index: int) -> None:
        """Hand shard ``index`` to the pool.

        When an earlier shard has already killed the pool the shard stays
        undispatched: the next :meth:`result` wait sees the break and
        recovers through the charged retry path, so no recovery goes
        unaccounted.
        """
        fn, args = self._tasks[index]
        try:
            self._futures[index] = self._ensure_pool().submit(fn, *args)
        except BrokenProcessPool:
            self._futures.pop(index, None)

    # -- the public surface --------------------------------------------

    def submit(self, index: int, fn, *args) -> None:
        """Queue shard ``index`` as ``fn(*args)`` (dispatches immediately
        in pool mode, lazily at :meth:`result` time inline)."""
        index = int(index)
        self._tasks[index] = (fn, args)
        if self._use_pool:
            self._dispatch(index)
        self._emit(index, "capturing")

    def result(self, index: int):
        """Block for shard ``index``, retrying through the policy.

        Raises the shard's :class:`ShardFailure` once (and whenever asked
        again) after the retry budget is exhausted.
        """
        index = int(index)
        if index in self._results:
            return self._results[index]
        if index in self._failures:
            raise self._failures[index]
        if index not in self._tasks:
            raise KeyError(f"shard {index} was never submitted")
        fn, args = self._tasks[index]
        while True:
            recover = None
            try:
                if self._use_pool:
                    future = self._futures.get(index)
                    if future is None:
                        raise BrokenProcessPool(
                            f"the pool broke before shard {index} was "
                            f"dispatched"
                        )
                    value = future.result(timeout=self.policy.timeout)
                else:
                    value = fn(*args)
            except (KeyboardInterrupt, SystemExit):
                raise
            except FutureTimeoutError as exc:
                # Py >= 3.11 aliases this to builtin TimeoutError, so a
                # genuine in-task timeout lands here too — both mean "this
                # attempt is dead", and only a pool teardown can reclaim
                # the stuck worker.
                cause: BaseException = TimeoutError(
                    f"shard {index} exceeded the {self.policy.timeout}s "
                    f"watchdog"
                )
                cause.__cause__ = exc
                recover = "rebuild"
            except BrokenProcessPool as exc:
                cause = exc
                recover = "rebuild"
            except Exception as exc:
                cause = exc
                recover = "resubmit" if self._use_pool else None
            else:
                self._results[index] = value
                self._futures.pop(index, None)
                self._emit(index, "done")
                return value
            attempt = self.retries.get(index, 0) + 1
            if attempt > self.policy.max_retries:
                # Record the failure *before* any rebuild so this shard is
                # not requeued, then rebuild anyway when the pool itself
                # is the casualty — the surviving shards need workers.
                self._futures.pop(index, None)
                failure = ShardFailure(index, attempt, cause)
                self._failures[index] = failure
                if recover == "rebuild":
                    self._rebuild_pool()
                self._emit(index, "failed")
                raise failure
            self.retries[index] = attempt
            self._emit(index, "retrying")
            self._sleep(self.policy.delay(attempt - 1))
            if recover == "rebuild":
                self._rebuild_pool()
            elif recover == "resubmit":
                self._dispatch(index)

    def close(self, force: bool = False) -> None:
        """Shut the pool down.

        ``force`` terminates worker processes outright — required when a
        speculative shard may be hung (a graceful shutdown would block on
        it forever) and on interrupt, where zombie workers must not keep
        capturing after the parent dies.
        """
        if self._pool is None:
            return
        if force:
            self._kill_pool()
        else:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None


# ---------------------------------------------------------------------- #
# the shard fan-out loop                                                 #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardRun:
    """How a :func:`run_shards` fan-out ended."""

    merged: int                     # shards merged: a prefix of the plan
    stopped: bool                   # a checkpoint asked to stop early
    failure: ShardFailure | None    # the shard that ran out of retries
    retries: int
    pool_rebuilds: int

    @property
    def partial(self) -> bool:
        return self.failure is not None

    @property
    def failed_shards(self) -> tuple[int, ...]:
        return () if self.failure is None else (self.failure.index,)


def _check_store_root(root: Path, config: dict) -> None:
    """Refuse a shard root whose non-empty stores record another ``config``
    (a store's ``n_samples``, ``key`` or any ``meta`` entry)."""
    for manifest in sorted(root.glob("shard-*/manifest.json")):
        try:
            store = TraceStore.open(manifest.parent)
        except CorruptManifestError:
            continue                # the shard's worker quarantines it
        if not len(store):
            continue
        recorded = {"n_samples": store.n_samples, "key": store.key,
                    **store.meta}
        for field, value in config.items():
            stored = recorded.get(field)
            if stored is not None and value is not None and stored != value:
                raise ValueError(
                    f"{store.path} was captured with {field} "
                    f"{stored!r}, this run uses {value!r}; point "
                    f"the run at a fresh directory"
                )


def run_shards(
    tasks: Sequence[tuple],
    merge: Callable[[object], None],
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    rungs: Sequence[int] = (),
    checkpoint: Callable[[int], bool] | None = None,
    min_merged: int = 1,
    store_root=None,
    kind: str | None = None,
    meta: dict | None = None,
    config: dict | None = None,
    label: str = "shards",
    verbose: bool = False,
) -> ShardRun:
    """Dispatch shard ``tasks`` (``tasks[i]`` is shard ``i``'s
    ``(fn, *args)``) and ``merge`` their results strictly in index order.

    ``rungs`` are ascending merged-shard counts (default: one rung over
    every task); after each, ``checkpoint(merged)`` may return ``True`` to
    stop early.  The pool runs up to ``workers - 1`` shards ahead of the
    current rung — shard streams are deterministic, so capturing ahead
    changes nothing but wall clock.

    With a ``store_root``, a serial single-store directory is refused, the
    shard stores' recorded ``config`` is checked once here (a mismatch is a
    ``ValueError``, not a retried shard failure), and a
    :class:`CampaignJournal` of ``kind`` tracks every shard and the
    terminal phase; results must then carry a ``quarantined`` count.

    A shard out of retries ends the run: the merged prefix comes back as a
    partial :class:`ShardRun` if it holds ``min_merged`` shards, otherwise
    the :class:`ShardFailure` propagates.  On any other exception,
    ``KeyboardInterrupt`` included, workers are terminated outright.
    """
    journal = None
    if store_root is not None:
        root = Path(store_root)
        if (root / "manifest.json").exists():
            raise ValueError(
                f"{store_root} holds a single serial TraceStore; point the "
                f"sharded run at a fresh directory"
            )
        root.mkdir(parents=True, exist_ok=True)
        _check_store_root(root, config or {})
        journal = CampaignJournal.open_or_create(root, kind, meta=meta)
        journal.begin(len(tasks))

    def on_event(index: int, state: str, retries: int) -> None:
        if journal is not None:
            journal.update_shard(index, state)
        if verbose and state in ("retrying", "failed"):
            print(f"[{label}] shard {index} {state} (retries {retries})")

    executor = ShardExecutor(workers=workers, policy=policy, on_event=on_event)
    merged = submitted = 0
    stopped = False
    failure = None
    try:
        for needed in list(rungs) or [len(tasks)]:
            for index in range(submitted, min(len(tasks), needed + workers - 1)):
                executor.submit(index, *tasks[index])
                submitted = index + 1
            while merged < needed:
                try:
                    result = executor.result(merged)
                except ShardFailure as exc:
                    failure = exc
                    break
                merge(result)
                if journal is not None and result.quarantined:
                    journal.update_shard(merged, "done", quarantined=True)
                merged += 1
            if failure is not None:
                break
            if checkpoint is not None and checkpoint(merged):
                stopped = True
                break
    except BaseException:
        # Terminate workers outright so no zombie keeps capturing after
        # the parent unwinds.
        if journal is not None:
            journal.set_phase("interrupted", executor.pool_rebuilds)
        executor.close(force=True)
        raise
    # A graceful shutdown would block on an uncollected hung shard, so
    # force when a shard failed (its siblings may share the fault).
    executor.close(force=failure is not None)
    if failure is not None:
        phase = "failed" if merged < min_merged else "partial"
    elif stopped:
        phase = "converged"
    else:                           # the whole budget was spent
        phase = "exhausted" if checkpoint is not None else "complete"
    if journal is not None:
        journal.set_phase(phase, executor.pool_rebuilds)
    if phase == "failed":
        raise failure
    return ShardRun(merged, stopped, failure, executor.total_retries,
                    executor.pool_rebuilds)
