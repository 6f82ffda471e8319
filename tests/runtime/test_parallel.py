"""Sharded parallel campaigns: determinism, merge equivalence, resume."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from factories import KEY, SyntheticCampaignSpec

from repro.attacks.distinguishers import CpaDistinguisher
from repro.attacks.key_rank import MIN_CPA_TRACES, geometric_checkpoints
from repro.campaign import TraceStore
from repro.runtime import (
    AttackCampaign,
    ParallelCampaign,
    PlatformCampaignSpec,
    ReducedKeySource,
    ShardedSegmentSource,
    ShardSpec,
    plan_shards,
    shard_aligned_checkpoints,
)
from repro.runtime.parallel import run_shard, shard_seed
from repro.soc.platform import PlatformSpec

SPEC = SyntheticCampaignSpec(key=KEY, noise=0.8, samples=40)


class TestShardPlanning:
    def test_disjoint_ranges_cover_the_budget(self):
        shards = plan_shards(7, 1000, 256)
        assert [(s.start, s.count) for s in shards] == [
            (0, 256), (256, 256), (512, 256), (768, 232),
        ]
        assert all(s.campaign_seed == 7 for s in shards)

    def test_plan_is_a_pure_function(self):
        assert plan_shards(3, 999, 100) == plan_shards(3, 999, 100)

    def test_growing_the_budget_preserves_existing_full_shards(self):
        small = plan_shards(5, 1000, 256)
        large = plan_shards(5, 2000, 256)
        assert large[:3] == small[:3]       # full shards unchanged
        assert large[3].start == small[3].start

    def test_child_seeds_follow_seedsequence_spawn(self):
        """shard_seed must rebuild exactly the spawned children."""
        root = np.random.SeedSequence(42)
        _, shard_root = root.spawn(2)
        children = shard_root.spawn(5)
        for index, child in enumerate(children):
            np.testing.assert_array_equal(
                shard_seed(42, index).generate_state(4),
                child.generate_state(4),
            )

    def test_distinct_shards_draw_distinct_streams(self):
        a = SPEC.build_source(shard_seed(0, 0)).capture(8)[0]
        b = SPEC.build_source(shard_seed(0, 1)).capture(8)[0]
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 0, 10)
        with pytest.raises(ValueError):
            plan_shards(0, 10, 0)


class TestAlignedCheckpoints:
    def test_rungs_align_to_shard_boundaries(self):
        ladder = shard_aligned_checkpoints(1000, 256)
        assert ladder == [256, 512, 768, 1000]
        assert all(
            rung % 256 == 0 or rung == 1000 for rung in ladder
        )

    def test_shard_size_one_recovers_the_geometric_ladder(self):
        assert shard_aligned_checkpoints(400, 1) == geometric_checkpoints(400)

    def test_rungs_are_unique_sorted_and_attackable(self):
        ladder = shard_aligned_checkpoints(5000, 64, first=10, growth=1.2)
        assert ladder == sorted(set(ladder))
        assert ladder[0] >= MIN_CPA_TRACES
        assert ladder[-1] == 5000


class TestShardedSource:
    def test_capture_is_chunking_invariant(self):
        one = ShardedSegmentSource(SPEC, 11, shard_size=70)
        many = ShardedSegmentSource(SPEC, 11, shard_size=70)
        t1, p1 = one.capture(300)
        chunks = [many.capture(c) for c in (13, 57, 100, 130)]
        np.testing.assert_array_equal(
            t1, np.concatenate([t for t, _ in chunks])
        )
        np.testing.assert_array_equal(
            p1, np.concatenate([p for _, p in chunks])
        )

    def test_stream_is_the_shard_concatenation(self):
        source = ShardedSegmentSource(SPEC, 11, shard_size=100)
        traces, pts = source.capture(250)
        for index, begin in enumerate((0, 100, 200)):
            count = min(100, 250 - begin)
            t, p = SPEC.build_source(shard_seed(11, index)).capture(count)
            np.testing.assert_array_equal(traces[begin:begin + count], t)
            np.testing.assert_array_equal(pts[begin:begin + count], p)

    def test_skip_equals_capture_and_drop_across_boundaries(self):
        """Satellite regression: the sharded fast-forward is exact."""
        straight = ShardedSegmentSource(SPEC, 4, shard_size=70)
        jumped = ShardedSegmentSource(SPEC, 4, shard_size=70)
        traces, pts = straight.capture(300)
        jumped.skip(185)     # 2 free whole shards + 45 into shard 2
        tail_traces, tail_pts = jumped.capture(115)
        np.testing.assert_array_equal(traces[185:], tail_traces)
        np.testing.assert_array_equal(pts[185:], tail_pts)

    def test_skip_after_partial_capture_stays_exact(self):
        straight = ShardedSegmentSource(SPEC, 4, shard_size=50)
        jumped = ShardedSegmentSource(SPEC, 4, shard_size=50)
        traces, _ = straight.capture(200)
        jumped.capture(30)
        jumped.skip(120)     # finish shard 0, skip shards 1-2
        tail, _ = jumped.capture(50)
        np.testing.assert_array_equal(traces[150:], tail)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            ShardedSegmentSource(SPEC, 0, shard_size=0)


class TestRunShard:
    SHARD = ShardSpec(index=2, start=200, count=100, campaign_seed=9)

    def test_accumulates_exactly_the_shard_stream(self):
        result = run_shard(SPEC, self.SHARD, batch_size=32)
        reference = CpaDistinguisher()
        t, p = SPEC.build_source(self.SHARD.seed_sequence).capture(100)
        for begin in range(0, 100, 32):
            reference.update(t[begin:begin + 32], p[begin:begin + 32])
        assert result.index == 2
        assert result.replayed == 0
        assert result.accumulator.n_traces == 100
        np.testing.assert_allclose(
            result.accumulator.correlation(0), reference.correlation(0),
            atol=1e-12,
        )

    def test_store_round_trip_and_replay(self, tmp_path):
        first = run_shard(SPEC, self.SHARD, store_root=tmp_path, batch_size=32)
        store = TraceStore.open(tmp_path / "shard-000002")
        assert len(store) == 100
        assert store.meta["campaign_seed"] == 9
        again = run_shard(SPEC, self.SHARD, store_root=tmp_path, batch_size=32)
        assert again.replayed == 100
        assert again.capture_seconds == 0.0
        again.accumulator.flush()
        first.accumulator.flush()
        np.testing.assert_array_equal(
            again.accumulator._class_sums, first.accumulator._class_sums
        )

    def test_partial_store_resumes_the_stream(self, tmp_path):
        short = ShardSpec(index=2, start=200, count=40, campaign_seed=9)
        run_shard(SPEC, short, store_root=tmp_path, batch_size=32)
        resumed = run_shard(SPEC, self.SHARD, store_root=tmp_path, batch_size=32)
        assert resumed.replayed == 40
        fresh = run_shard(SPEC, self.SHARD, batch_size=32)
        traces_resumed = TraceStore.open(tmp_path / "shard-000002").load()[0]
        t, _ = SPEC.build_source(self.SHARD.seed_sequence).capture(100)
        np.testing.assert_array_equal(traces_resumed, t)
        np.testing.assert_allclose(
            resumed.accumulator.correlation(3), fresh.accumulator.correlation(3),
            atol=1e-12,
        )

    def test_foreign_store_rejected(self, tmp_path):
        run_shard(SPEC, self.SHARD, store_root=tmp_path)
        imposter = ShardSpec(index=2, start=200, count=100, campaign_seed=10)
        with pytest.raises(ValueError, match="campaign seed"):
            run_shard(SPEC, imposter, store_root=tmp_path)

    def test_store_from_another_countermeasure_rejected(self, tmp_path):
        """The worker-side check, for shards dispatched without the
        parent's root check: the recorded countermeasure must match."""

        @dataclass(frozen=True)
        class Countermeasured(SyntheticCampaignSpec):
            countermeasure: str = "RD-0+CJ-10"

        run_shard(Countermeasured(noise=0.8), self.SHARD, store_root=tmp_path)
        store = TraceStore.open(tmp_path / "shard-000002")
        assert store.meta["countermeasure"] == "RD-0+CJ-10"
        with pytest.raises(ValueError, match="countermeasure 'RD-0\\+CJ-10'"):
            run_shard(Countermeasured(noise=0.8, countermeasure="RD-0+CJ-40"),
                      self.SHARD, store_root=tmp_path)

    def test_oversized_store_replays_only_the_shard_prefix(self, tmp_path):
        """A shrunk budget replays a prefix of the stored shard stream."""
        run_shard(SPEC, self.SHARD, store_root=tmp_path, batch_size=32)
        shrunk = ShardSpec(index=2, start=200, count=50, campaign_seed=9)
        result = run_shard(SPEC, shrunk, store_root=tmp_path, batch_size=32)
        assert result.replayed == 50
        assert result.accumulator.n_traces == 50
        reference = run_shard(SPEC, shrunk, batch_size=32)
        np.testing.assert_allclose(
            result.accumulator.correlation(0),
            reference.accumulator.correlation(0),
            atol=1e-12,
        )


class TestParallelCampaign:
    KWARGS = dict(shard_size=128, first_checkpoint=100, rank1_patience=2,
                  batch_size=64)

    def test_results_are_independent_of_worker_count(self):
        solo = ParallelCampaign(SPEC, seed=1, workers=1, **self.KWARGS)
        fleet = ParallelCampaign(SPEC, seed=1, workers=3, **self.KWARGS)
        a = solo.run(640)
        b = fleet.run(640)
        assert [(r.n_traces, r.ranks) for r in a.records] == [
            (r.n_traces, r.ranks) for r in b.records
        ]
        assert a.recovered_key == b.recovered_key
        np.testing.assert_array_equal(
            solo.accumulator._class_sums, fleet.accumulator._class_sums
        )

    def test_matches_serial_campaign_at_every_shared_checkpoint(self):
        """Acceptance: parallel ranks == serial ranks, stats to <= 1e-10."""
        parallel = ParallelCampaign(SPEC, seed=2, workers=4, **self.KWARGS)
        result = parallel.run(640)
        serial = AttackCampaign(
            parallel.sharded_source(),
            checkpoints=parallel.checkpoints(640),
            rank1_patience=2,
            batch_size=64,
        )
        reference = serial.run(640)
        shared = min(len(result.records), len(reference.records))
        assert shared > 0
        for mine, theirs in zip(result.records[:shared],
                                reference.records[:shared]):
            assert mine.n_traces == theirs.n_traces
            assert mine.ranks == theirs.ranks
            assert mine.recovered_key == theirs.recovered_key
        for byte_index in range(len(KEY)):
            np.testing.assert_allclose(
                parallel.accumulator.correlation(byte_index),
                serial.accumulator.correlation(byte_index),
                atol=1e-10,
            )

    def test_early_stop_spares_remaining_shards(self, tmp_path):
        quiet = SyntheticCampaignSpec(key=KEY, noise=0.3, samples=40)
        campaign = ParallelCampaign(
            quiet, seed=3, workers=1, store_root=tmp_path, **self.KWARGS
        )
        result = campaign.run(5000)
        assert result.early_stopped
        assert result.n_traces < 5000
        captured = sum(
            len(TraceStore.open(p)) for p in tmp_path.glob("shard-*")
        )
        assert captured == result.n_traces

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        first = ParallelCampaign(
            SPEC, seed=5, workers=2, store_root=tmp_path, **self.KWARGS
        )
        partial = first.run(256)
        resumed = ParallelCampaign(
            SPEC, seed=5, workers=2, store_root=tmp_path, **self.KWARGS
        )
        result = resumed.run(640)
        assert result.resumed_from == partial.n_traces
        fresh = ParallelCampaign(SPEC, seed=5, workers=1, **self.KWARGS)
        straight = fresh.run(640)
        assert [(r.n_traces, r.ranks) for r in result.records] == [
            (r.n_traces, r.ranks) for r in straight.records
        ]
        np.testing.assert_allclose(
            resumed.accumulator._class_sums, fresh.accumulator._class_sums,
            rtol=1e-12, atol=1e-9,
        )

    def test_resume_with_a_smaller_budget_replays_the_prefix(self, tmp_path):
        """Shrinking max_traces on resume must not crash (regression)."""
        big = ParallelCampaign(
            SPEC, seed=8, workers=1, store_root=tmp_path, **self.KWARGS
        )
        big.run(640)
        small = ParallelCampaign(
            SPEC, seed=8, workers=1, store_root=tmp_path, **self.KWARGS
        )
        result = small.run(400)
        fresh = ParallelCampaign(SPEC, seed=8, workers=1, **self.KWARGS)
        straight = fresh.run(400)
        assert [(r.n_traces, r.ranks) for r in result.records] == [
            (r.n_traces, r.ranks) for r in straight.records
        ]

    def test_unknown_key_campaign_stops_on_stable_recovery(self):
        masked = SyntheticCampaignSpec(key=KEY, noise=0.3, samples=40)

        class Unknown(type(masked)):
            @property
            def true_key(self):
                return None

        spec = Unknown(key=KEY, noise=0.3, samples=40)
        campaign = ParallelCampaign(spec, seed=6, workers=1, **self.KWARGS)
        result = campaign.run(2000)
        assert result.true_key is None
        assert result.records[-1].ranks is None
        assert result.early_stopped              # stable recovered key
        assert result.traces_to_rank1 is None
        assert result.recovered_key == KEY       # it still finds the key

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelCampaign(SPEC, seed=0, workers=0)
        with pytest.raises(ValueError):
            ParallelCampaign(SPEC, seed=0, shard_size=0)
        with pytest.raises(ValueError):
            ParallelCampaign(SPEC, seed=0, checkpoint_growth=1.0)
        with pytest.raises(ValueError):
            ParallelCampaign(SPEC, seed=0, rank1_patience=0)
        with pytest.raises(ValueError):
            ParallelCampaign(SPEC, seed=0, batch_size=0)
        with pytest.raises(ValueError):
            ParallelCampaign(SPEC, seed=0).run(MIN_CPA_TRACES - 1)


class TestPlatformCampaignSpec:
    def test_exposes_the_platform_countermeasure(self):
        spec = PlatformCampaignSpec(
            platform=PlatformSpec("aes", max_delay=0, jitter=10),
            key=KEY, segment_length=64,
        )
        assert spec.countermeasure == "RD-0+CJ-10"
        assert spec.capture_mode == "exact"


class TestReducedKeySource:
    def test_truncates_plaintexts_and_key(self):
        source = ReducedKeySource(SPEC.build_source(shard_seed(0, 0)), 4)
        assert source.block_size == 4
        assert source.true_key == KEY[:4]
        traces, pts = source.capture(10)
        assert pts.shape == (10, 4)
        assert traces.shape == (10, SPEC.samples)

    def test_truncation_preserves_the_stream_prefix(self):
        full = SPEC.build_source(shard_seed(0, 0))
        reduced = ReducedKeySource(SPEC.build_source(shard_seed(0, 0)), 4)
        t_full, p_full = full.capture(10)
        t_red, p_red = reduced.capture(10)
        np.testing.assert_array_equal(t_full, t_red)
        np.testing.assert_array_equal(p_full[:, :4], p_red)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReducedKeySource(SPEC.build_source(shard_seed(0, 0)), 0)
        with pytest.raises(ValueError):
            ReducedKeySource(SPEC.build_source(shard_seed(0, 0)), 17)
