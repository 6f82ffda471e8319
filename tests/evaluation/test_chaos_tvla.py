"""Chaos suite for sharded TVLA: faults must never change the t-map."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import ParallelTvlaCampaign
from repro.runtime import FaultPlan, ShardFailure
from repro.runtime.faults import corrupt_store
from repro.runtime.journal import CampaignJournal
from repro.soc.platform import PlatformSpec


def _spec():
    return PlatformSpec(
        cipher_name="aes", max_delay=0, noise_std=1.0, capture_mode="fast"
    )


def _campaign(workers=1, store_root=None, fault_plan=None, **kwargs):
    defaults = dict(
        seed=9, segment_length=160, batch_size=8, shard_size=8,
        retry_backoff=0.0,
    )
    defaults.update(kwargs)
    return ParallelTvlaCampaign(
        _spec(), workers=workers, store_root=store_root,
        fault_plan=fault_plan, **defaults,
    )


@pytest.fixture(scope="module")
def baseline():
    return _campaign().run(24)      # shards 0..2 of 8 per population


class TestChaosParallelTvla:
    def test_crash_is_retried_bit_identically(self, tmp_path, baseline):
        plan = FaultPlan.single(tmp_path / "faults", 1, "crash")
        result = _campaign(fault_plan=plan).run(24)
        assert not result.partial
        assert np.array_equal(result.t, baseline.t)
        assert result.leakage_detected == baseline.leakage_detected

    def test_worker_death_rebuilds_the_pool(self, tmp_path, baseline):
        plan = FaultPlan.single(tmp_path / "faults", 1, "exit")
        result = _campaign(workers=2, fault_plan=plan).run(24)
        assert not result.partial
        assert np.array_equal(result.t, baseline.t)

    def test_pool_rebuilds_are_surfaced(self, tmp_path, baseline):
        plan = FaultPlan.single(tmp_path / "faults", 1, "exit")
        result = _campaign(workers=2, fault_plan=plan).run(24)
        assert result.retries >= 1
        assert result.pool_rebuilds >= 1
        assert np.array_equal(result.t, baseline.t)

    def test_partial_append_is_quarantined_on_retry(
        self, tmp_path, baseline
    ):
        plan = FaultPlan.single(tmp_path / "faults", 1, "partial_append")
        result = _campaign(
            store_root=tmp_path / "store", fault_plan=plan
        ).run(24)
        assert not result.partial
        assert np.array_equal(result.t, baseline.t)
        quarantine = tmp_path / "store" / "shard-000001" / "quarantine"
        assert len(list(quarantine.iterdir())) == 2

    def test_exhausted_retries_degrade_to_partial_verdict(
        self, tmp_path, baseline
    ):
        plan = FaultPlan.single(tmp_path / "faults", 1, "crash", times=10)
        result = _campaign(
            store_root=tmp_path / "store", fault_plan=plan, max_retries=1
        ).run(24)
        assert result.partial
        assert result.failed_shards == (1,)
        assert result.n_fixed == result.n_random == 8
        assert "PARTIAL" in result.summary()
        assert CampaignJournal.load(tmp_path / "store").phase == "partial"

    def test_partial_run_resumes_to_the_identical_verdict(
        self, tmp_path, baseline
    ):
        plan = FaultPlan.single(tmp_path / "faults", 1, "crash", times=10)
        first = _campaign(
            store_root=tmp_path / "store", fault_plan=plan, max_retries=1
        ).run(24)
        assert first.partial
        second = _campaign(store_root=tmp_path / "store").run(24)
        assert not second.partial
        assert np.array_equal(second.t, baseline.t)
        assert second.leakage_detected == baseline.leakage_detected

    def test_corrupt_shard_store_is_quarantined_on_resume(
        self, tmp_path, baseline
    ):
        first = _campaign(store_root=tmp_path / "store").run(24)
        assert np.array_equal(first.t, baseline.t)
        corrupt_store(tmp_path / "store" / "shard-000001", mode="bitflip")
        second = _campaign(store_root=tmp_path / "store").run(24)
        assert np.array_equal(second.t, baseline.t)
        quarantine = tmp_path / "store" / "shard-000001" / "quarantine"
        assert quarantine.exists()

    def test_first_shard_failure_raises_when_no_t_exists(self, tmp_path):
        plan = FaultPlan.single(tmp_path / "faults", 0, "crash", times=10)
        with pytest.raises(ShardFailure) as excinfo:
            _campaign(
                store_root=tmp_path / "store", fault_plan=plan, max_retries=0
            ).run(24)
        assert excinfo.value.index == 0
        assert CampaignJournal.load(tmp_path / "store").phase == "failed"


@pytest.mark.slow
class TestChaosTvlaMatrixSlow:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["crash", "partial_append"])
    def test_fault_matrix_is_bit_identical(
        self, tmp_path, baseline, kind, workers
    ):
        plan = FaultPlan.single(tmp_path / "faults", 1, kind)
        result = _campaign(
            workers=workers, store_root=tmp_path / "store", fault_plan=plan
        ).run(24)
        assert not result.partial
        assert np.array_equal(result.t, baseline.t)
