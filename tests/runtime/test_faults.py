"""Units: fault plans, retry policy, and the ShardExecutor lifecycle."""

from __future__ import annotations

import json
import time
from concurrent.futures import wait
from pathlib import Path

import numpy as np
import pytest
from factories import make_chunk

from repro.campaign import TraceStore
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_store,
)
from repro.runtime.retry import RetryPolicy, ShardExecutor, ShardFailure


class TestRetryPolicy:
    def test_backoff_doubles_per_consecutive_failure(self):
        policy = RetryPolicy(max_retries=3, backoff=0.5)
        assert [policy.delay(i) for i in range(3)] == [0.5, 1.0, 2.0]

    def test_zero_backoff_is_allowed(self):
        assert RetryPolicy(backoff=0.0).delay(5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)

    def test_no_timeout_by_default(self):
        assert RetryPolicy().timeout is None


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", times=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", after=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind="hang", delay=0)

    def test_all_kinds_construct(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind=kind).kind == kind


class TestFaultPlan:
    def test_single_targets_one_shard(self, tmp_path):
        plan = FaultPlan.single(tmp_path, 3, "crash")
        assert plan.spec_for(3).kind == "crash"
        assert plan.spec_for(0) is None

    def test_crash_fires_its_quota_then_arms_down(self, tmp_path):
        plan = FaultPlan.single(tmp_path, 0, "crash", times=2)
        for expected in (1, 2):
            with pytest.raises(InjectedFault):
                plan.maybe_fire(0)
            assert plan.fired(0) == expected
        plan.maybe_fire(0)          # quota exhausted: a no-op
        assert plan.fired(0) == 2

    def test_firing_state_survives_plan_reconstruction(self, tmp_path):
        """Markers are on disk: a retry in a fresh process sees them."""
        with pytest.raises(InjectedFault):
            FaultPlan.single(tmp_path, 0, "crash").maybe_fire(0)
        rebuilt = FaultPlan.single(tmp_path, 0, "crash")
        rebuilt.maybe_fire(0)       # already fired once, times=1
        assert rebuilt.fired(0) == 1

    def test_after_gates_on_captured_count(self, tmp_path):
        plan = FaultPlan.single(tmp_path, 0, "crash", after=64)
        plan.maybe_fire(0, done=63)
        assert plan.fired(0) == 0
        with pytest.raises(InjectedFault):
            plan.maybe_fire(0, done=64)

    def test_unplanned_shards_never_fire(self, tmp_path):
        FaultPlan.single(tmp_path, 1, "crash").maybe_fire(0)

    def test_seeded_plan_is_deterministic(self, tmp_path):
        a = FaultPlan.seeded(tmp_path, 5, 40, "crash", rate=0.25)
        b = FaultPlan.seeded(tmp_path, 5, 40, "crash", rate=0.25)
        assert a.faults == b.faults
        assert 0 < len(a.faults) < 40
        everything = FaultPlan.seeded(tmp_path, 5, 10, "crash", rate=1.0)
        assert len(everything.faults) == 10
        with pytest.raises(ValueError):
            FaultPlan.seeded(tmp_path, 5, 10, "crash", rate=1.5)

    def test_partial_append_leaves_orphans_then_raises(self, tmp_path):
        rng = np.random.default_rng(0)
        store = TraceStore.create(tmp_path / "store", n_samples=16)
        store.append(*make_chunk(rng, 4, samples=16))
        plan = FaultPlan.single(tmp_path / "faults", 0, "partial_append")
        with pytest.raises(InjectedFault):
            plan.maybe_fire(0, store=store)
        report = store.verify()
        assert report.intact
        assert report.orphans == (
            "plaintexts-000001.npy", "traces-000001.npy",
        )


class TestCorruptStore:
    def _store(self, tmp_path):
        rng = np.random.default_rng(1)
        store = TraceStore.create(tmp_path / "store", n_samples=16)
        for _ in range(2):
            store.append(*make_chunk(rng, 4, samples=16))
        return store

    def test_bitflip_changes_one_byte(self, tmp_path):
        store = self._store(tmp_path)
        before = (store.path / "traces-000001.npy").read_bytes()
        target = corrupt_store(store.path, mode="bitflip")
        after = target.read_bytes()
        assert target.name == "traces-000001.npy"
        assert len(after) == len(before)
        assert sum(a != b for a, b in zip(after, before)) == 1

    def test_truncate_halves_the_file(self, tmp_path):
        store = self._store(tmp_path)
        size = (store.path / "traces-000000.npy").stat().st_size
        target = corrupt_store(store.path, mode="truncate", shard=0)
        assert target.stat().st_size == size // 2

    def test_bad_mode(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(ValueError):
            corrupt_store(store.path, mode="shred")


def _flaky(state_dir, fail_times, value):
    """Picklable task failing its first ``fail_times`` invocations."""
    attempts = len(list(Path(state_dir).glob("attempt-*")))
    (Path(state_dir) / f"attempt-{attempts}").touch()
    if attempts < fail_times:
        raise RuntimeError(f"transient failure {attempts}")
    return value


def _fault_then(plan, index, value):
    """Picklable task: fire shard ``index``'s planned fault, then return."""
    plan.maybe_fire(index)
    return value


class TestShardExecutorInline:
    def test_transient_failures_are_retried_to_success(self, tmp_path):
        events = []
        delays = []
        executor = ShardExecutor(
            workers=1,
            policy=RetryPolicy(max_retries=2, backoff=0.25),
            on_event=lambda i, s, r: events.append((i, s, r)),
            sleep=delays.append,
        )
        executor.submit(0, _flaky, str(tmp_path), 2, "ok")
        assert executor.result(0) == "ok"
        assert executor.retries == {0: 2}
        assert executor.total_retries == 2
        assert delays == [0.25, 0.5]
        assert events == [
            (0, "capturing", 0),
            (0, "retrying", 1),
            (0, "retrying", 2),
            (0, "done", 2),
        ]

    def test_cached_result_is_not_reexecuted(self, tmp_path):
        executor = ShardExecutor(sleep=lambda _: None)
        executor.submit(0, _flaky, str(tmp_path), 0, "ok")
        assert executor.result(0) == "ok"
        assert executor.result(0) == "ok"
        assert len(list(tmp_path.glob("attempt-*"))) == 1

    def test_exhausted_retries_raise_and_stay_raised(self, tmp_path):
        events = []
        executor = ShardExecutor(
            workers=1,
            policy=RetryPolicy(max_retries=1, backoff=0.0),
            on_event=lambda i, s, r: events.append(s),
            sleep=lambda _: None,
        )
        executor.submit(4, _flaky, str(tmp_path), 99, None)
        with pytest.raises(ShardFailure) as excinfo:
            executor.result(4)
        assert excinfo.value.index == 4
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.cause, RuntimeError)
        assert events[-1] == "failed"
        assert executor.failures.keys() == {4}
        # Asking again re-raises the recorded failure without re-running.
        marks = len(list(tmp_path.glob("attempt-*")))
        with pytest.raises(ShardFailure):
            executor.result(4)
        assert len(list(tmp_path.glob("attempt-*"))) == marks

    def test_zero_retries_means_one_attempt(self, tmp_path):
        executor = ShardExecutor(
            policy=RetryPolicy(max_retries=0), sleep=lambda _: None
        )
        executor.submit(0, _flaky, str(tmp_path), 1, "ok")
        with pytest.raises(ShardFailure) as excinfo:
            executor.result(0)
        assert excinfo.value.attempts == 1

    def test_unsubmitted_shard_is_a_keyerror(self):
        with pytest.raises(KeyError):
            ShardExecutor().result(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardExecutor(workers=0)

    def test_close_without_pool_is_a_noop(self):
        ShardExecutor().close()
        ShardExecutor().close(force=True)


class TestShardExecutorPool:
    def test_pool_mode_retries_transient_failures(self, tmp_path):
        executor = ShardExecutor(
            workers=2,
            policy=RetryPolicy(max_retries=2, backoff=0.0),
        )
        try:
            executor.submit(0, _flaky, str(tmp_path), 1, "ok")
            assert executor.result(0) == "ok"
            assert executor.retries == {0: 1}
        finally:
            executor.close()

    def test_timeout_forces_pool_mode_at_one_worker(self):
        executor = ShardExecutor(policy=RetryPolicy(timeout=30.0))
        assert executor._use_pool
        executor.close()

    def test_pool_break_found_at_submit_is_a_charged_retry(self, tmp_path):
        """Shard 0 kills its worker; shard 1 is dispatched only after the
        pool is marked broken.  The recovery must be charged and emitted
        like any other, not hidden in a silent rebuild."""
        events = []
        executor = ShardExecutor(
            workers=2,
            policy=RetryPolicy(max_retries=2, backoff=0.0),
            on_event=lambda i, s, r: events.append((i, s, r)),
        )
        plan = FaultPlan.single(tmp_path, 0, "exit")
        try:
            executor.submit(0, _fault_then, plan, 0, "first")
            deadline = time.monotonic() + 30
            while not plan.fired(0) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert plan.fired(0) == 1
            # The pool is flagged broken before its futures fail, so once
            # shard 0's future is done the next submit meets the break.
            done, _ = wait([executor._futures[0]], timeout=30)
            assert done
            executor.submit(1, _fault_then, plan, 1, "second")
            assert executor.result(0) == "first"
            assert executor.result(1) == "second"
        finally:
            executor.close()
        assert executor.retries == {0: 1}
        assert executor.pool_rebuilds == 1
        assert (0, "retrying", 1) in events

