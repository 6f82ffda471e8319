"""Chaos suite: injected faults must never change a campaign's result.

Every test pins the recovered key / rank trajectory of a faulted run
bit-identical to the fault-free baseline at the same seed — the
deterministic-reseed property means retries, pool rebuilds, watchdog
kills, and store recovery are all invisible in the output.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest
from factories import KEY, SyntheticCampaignSpec

from repro.runtime import FaultPlan, ParallelCampaign, ShardFailure
from repro.runtime.journal import CampaignJournal

SPEC = SyntheticCampaignSpec(key=KEY, noise=0.8, samples=40)
KWARGS = dict(
    shard_size=128, first_checkpoint=100, rank1_patience=2, batch_size=64
)
BUDGET = 640


def _campaign(store_root=None, fault_plan=None, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("retry_backoff", 0.0)
    return ParallelCampaign(
        SPEC, seed=1, store_root=store_root, fault_plan=fault_plan,
        **KWARGS, **kw,
    )


def _fingerprint(result):
    """Everything determinism should pin, checkpoint by checkpoint."""
    return [
        (r.n_traces, r.recovered_key, r.ranks) for r in result.records
    ]


@pytest.fixture(scope="module")
def baseline():
    return _campaign().run(BUDGET)


class TestChaosParallelCampaign:
    def test_crash_is_retried_bit_identically(self, tmp_path, baseline):
        plan = FaultPlan.single(tmp_path / "faults", 1, "crash")
        result = _campaign(fault_plan=plan).run(BUDGET)
        assert not result.partial
        assert result.retries == 1
        assert _fingerprint(result) == _fingerprint(baseline)

    def test_crash_with_store_resumes_the_durable_prefix(
        self, tmp_path, baseline
    ):
        plan = FaultPlan.single(tmp_path / "faults", 1, "crash", after=64)
        result = _campaign(
            store_root=tmp_path / "store", fault_plan=plan
        ).run(BUDGET)
        assert not result.partial
        assert result.retries == 1
        # The 64 traces captured before the crash were durable: the retry
        # replayed them from the shard store instead of re-capturing.
        assert result.resumed_from == 64
        assert _fingerprint(result) == _fingerprint(baseline)

    def test_worker_death_rebuilds_the_pool(self, tmp_path, baseline):
        """os._exit in a worker breaks the pool; the run self-heals."""
        plan = FaultPlan.single(tmp_path / "faults", 1, "exit")
        result = _campaign(workers=2, fault_plan=plan).run(BUDGET)
        assert not result.partial
        assert result.retries >= 1
        assert _fingerprint(result) == _fingerprint(baseline)

    def test_hung_shard_is_killed_by_the_watchdog(self, tmp_path, baseline):
        plan = FaultPlan.single(
            tmp_path / "faults", 1, "hang", delay=120.0
        )
        begin = time.monotonic()
        result = _campaign(shard_timeout=3.0, fault_plan=plan).run(BUDGET)
        assert time.monotonic() - begin < 60
        assert not result.partial
        assert result.retries == 1
        assert _fingerprint(result) == _fingerprint(baseline)

    def test_partial_append_is_quarantined_on_retry(
        self, tmp_path, baseline
    ):
        plan = FaultPlan.single(
            tmp_path / "faults", 1, "partial_append", after=64
        )
        result = _campaign(
            store_root=tmp_path / "store", fault_plan=plan
        ).run(BUDGET)
        assert not result.partial
        assert result.retries == 1
        assert _fingerprint(result) == _fingerprint(baseline)
        quarantine = tmp_path / "store" / "shard-000001" / "quarantine"
        assert len(list(quarantine.iterdir())) == 2

    def test_exhausted_retries_degrade_to_partial(self, tmp_path, baseline):
        plan = FaultPlan.single(tmp_path / "faults", 1, "crash", times=10)
        result = _campaign(
            store_root=tmp_path / "store", fault_plan=plan, max_retries=1
        ).run(BUDGET)
        assert result.partial
        assert result.failed_shards == (1,)
        assert result.retries == 1
        assert result.n_traces == 128
        # The merged prefix was still evaluated...
        assert _fingerprint(result) == _fingerprint(baseline)[:1]
        assert "PARTIAL" in result.summary()
        # ...and the journal records the degraded run.
        journal = CampaignJournal.load(tmp_path / "store")
        assert journal.phase == "partial"
        assert journal.shard_states()[1]["state"] == "failed"

    def test_partial_run_resumes_to_the_identical_result(
        self, tmp_path, baseline
    ):
        plan = FaultPlan.single(tmp_path / "faults", 1, "crash", times=10)
        first = _campaign(
            store_root=tmp_path / "store", fault_plan=plan, max_retries=1
        ).run(BUDGET)
        assert first.partial
        # Re-running the same campaign (fault cleared) retries just the
        # missing shards: shard 0 replays from its store, the rest capture.
        second = _campaign(store_root=tmp_path / "store").run(BUDGET)
        assert not second.partial
        assert second.resumed_from == 128
        assert _fingerprint(second) == _fingerprint(baseline)
        assert CampaignJournal.load(tmp_path / "store").phase in (
            "converged", "exhausted"
        )

    def test_no_shard_completes_raises_shard_failure(self, tmp_path):
        plan = FaultPlan.single(tmp_path / "faults", 0, "crash", times=10)
        with pytest.raises(ShardFailure) as excinfo:
            _campaign(
                store_root=tmp_path / "store", fault_plan=plan, max_retries=0
            ).run(BUDGET)
        assert excinfo.value.index == 0
        assert CampaignJournal.load(tmp_path / "store").phase == "failed"


class TestJournalLifecycle:
    def test_fault_free_run_journals_every_merged_shard(
        self, tmp_path, baseline
    ):
        result = _campaign(store_root=tmp_path / "store").run(BUDGET)
        journal = CampaignJournal.load(tmp_path / "store")
        assert journal.kind == "parallel_campaign"
        assert journal.phase == (
            "converged" if result.early_stopped else "exhausted"
        )
        assert journal.meta["seed"] == 1
        assert journal.meta["shard_size"] == 128
        counts = journal.counts()
        assert counts.get("done", 0) == len(result.records)
        text = journal.describe()
        assert "parallel_campaign" in text and journal.phase in text

    def test_pool_rebuilds_are_surfaced(self, tmp_path, baseline):
        plan = FaultPlan.single(tmp_path / "faults", 1, "exit")
        result = _campaign(
            workers=2, store_root=tmp_path / "store", fault_plan=plan
        ).run(BUDGET)
        assert result.pool_rebuilds >= 1
        journal = CampaignJournal.load(tmp_path / "store")
        assert journal.pool_rebuilds == result.pool_rebuilds
        assert "pool rebuilds" in journal.describe()
        assert _fingerprint(result) == _fingerprint(baseline)

    def test_journal_kind_mismatch_is_refused(self, tmp_path):
        CampaignJournal.open_or_create(tmp_path, "parallel_tvla")
        with pytest.raises(ValueError, match="parallel_tvla"):
            CampaignJournal.open_or_create(tmp_path, "parallel_campaign")


class TestZombieShutdown:
    """Regression: an exception mid-run must not leave live workers."""

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_exception_terminates_hung_workers(
        self, tmp_path, monkeypatch, exc
    ):
        # Shard 1 hangs in its worker while the parent's checkpoint
        # evaluation blows up: shutdown must kill the worker, not wait
        # the 120 s out.
        plan = FaultPlan.single(
            tmp_path / "faults", 1, "hang", delay=120.0
        )

        def boom(*args, **kwargs):
            raise exc("evaluation failed")

        monkeypatch.setattr(
            "repro.runtime.parallel.evaluate_checkpoint", boom
        )
        begin = time.monotonic()
        with pytest.raises(exc):
            _campaign(
                workers=2, store_root=tmp_path / "store", fault_plan=plan
            ).run(BUDGET)
        assert time.monotonic() - begin < 60
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and multiprocessing.active_children():
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
        assert CampaignJournal.load(tmp_path / "store").phase == "interrupted"


@pytest.mark.slow
class TestChaosMatrixSlow:
    """The full fault x worker matrix (the fast suite samples it)."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["crash", "partial_append"])
    def test_fault_matrix_is_bit_identical(
        self, tmp_path, baseline, kind, workers
    ):
        plan = FaultPlan.single(tmp_path / "faults", 1, kind, after=64)
        result = _campaign(
            workers=workers, store_root=tmp_path / "store", fault_plan=plan
        ).run(BUDGET)
        assert not result.partial
        assert result.retries >= 1
        assert _fingerprint(result) == _fingerprint(baseline)

    def test_multi_shard_seeded_crashes(self, tmp_path, baseline):
        plan = FaultPlan.seeded(
            tmp_path / "faults", seed=3, n_shards=5, kind="crash", rate=0.8
        )
        result = _campaign(
            store_root=tmp_path / "store", fault_plan=plan, max_retries=3
        ).run(BUDGET)
        assert not result.partial
        merged = result.n_traces // 128
        assert result.retries == sum(
            1 for index, _ in plan.faults if index < merged
        )
        assert _fingerprint(result) == _fingerprint(baseline)
