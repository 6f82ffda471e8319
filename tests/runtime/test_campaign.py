"""Attack campaigns: early stopping, sharded resume, platform and engine wiring."""

from __future__ import annotations

import numpy as np
import pytest
from factories import (
    KEY,
    SyntheticCampaignSpec,
    SyntheticSource,
    load_shard_stores,
    small_platform,
)

from repro.attacks import CpaAttack
from repro.campaign import TraceStore
from repro.evaluation import (
    format_campaign,
    guessing_entropy,
    guessing_entropy_curve,
    rank_convergence_curve,
)
from repro.runtime import (
    AttackCampaign,
    ExperimentEngine,
    ParallelCampaign,
    PlatformSegmentSource,
)
from repro.runtime.plan import BatchPlan, ScenarioSpec


class TestEarlyStopping:
    def test_reaches_rank1_and_stops_early(self):
        source = SyntheticSource(KEY, seed=1, noise=0.6)
        campaign = AttackCampaign(source, rank1_patience=2, batch_size=64)
        result = campaign.run(5000)
        assert result.early_stopped
        assert result.traces_to_rank1 is not None
        assert result.n_traces < 5000, "early stop must beat the budget"
        assert result.recovered_key == KEY
        assert result.key_recovered
        assert result.records[-1].all_rank1
        assert result.records[-2].all_rank1
        # the reported rank-1 point opens the terminal streak
        assert result.traces_to_rank1 == result.records[-2].n_traces
        # no trace captured beyond the stopping checkpoint
        assert source.captured == result.n_traces

    def test_budget_exhaustion_without_leakage(self):
        source = SyntheticSource(KEY, seed=2, noise=1.0)
        source.capture = lambda count, _rng=source._rng: (  # pure noise
            _rng.normal(0, 1, (count, source.n_samples)),
            _rng.integers(0, 256, (count, 16), dtype=np.uint8),
        )
        campaign = AttackCampaign(source, batch_size=64)
        result = campaign.run(120)
        assert not result.early_stopped
        assert result.traces_to_rank1 is None
        assert result.n_traces == 120

    def test_checkpoints_follow_geometric_ladder(self):
        source = SyntheticSource(KEY, seed=3, noise=50.0)  # never converges
        campaign = AttackCampaign(
            source, first_checkpoint=10, checkpoint_growth=2.0, batch_size=32
        )
        result = campaign.run(100)
        assert [r.n_traces for r in result.records] == [10, 20, 40, 80, 100]

    def test_validates_parameters(self):
        source = SyntheticSource(KEY)
        with pytest.raises(ValueError):
            AttackCampaign(source, checkpoint_growth=1.0)
        with pytest.raises(ValueError):
            AttackCampaign(source, rank1_patience=0)
        with pytest.raises(ValueError):
            AttackCampaign(source, batch_size=0)
        with pytest.raises(ValueError):
            AttackCampaign(source).run(2)


class TestResume:
    """Durable campaigns are sharded: ``ParallelCampaign(workers=1)`` over
    a ``store_root`` of per-shard stores is the resume path."""

    KWARGS = dict(workers=1, shard_size=32, batch_size=32)

    def _campaign(self, root, spec=None, seed=4, **kwargs):
        return ParallelCampaign(
            spec if spec is not None else SyntheticCampaignSpec(noise=2.5),
            seed=seed, store_root=root, **{**self.KWARGS, **kwargs},
        )

    def test_resumes_half_written_store(self, tmp_path):
        partial = self._campaign(tmp_path, rank1_patience=9).run(70)
        assert not partial.early_stopped

        # a crash mid-append leaves an orphan file the manifest ignores
        shard = tmp_path / "shard-000002"
        np.save(shard / f"traces-{TraceStore.open(shard).n_shards:06d}.npy",
                np.zeros((3, 40)))

        assert len(load_shard_stores(tmp_path)[0]) == 70
        result = self._campaign(tmp_path, rank1_patience=2).run(5000)
        assert result.resumed_from == 70
        assert result.early_stopped
        assert result.recovered_key == KEY
        # the stores now hold every trace both processes captured
        assert len(load_shard_stores(tmp_path)[0]) == result.n_traces

    def test_resumed_statistics_match_batch_over_store(self, tmp_path):
        spec = SyntheticCampaignSpec(noise=0.8)
        self._campaign(tmp_path, spec, seed=6, rank1_patience=9).run(50)
        campaign = self._campaign(tmp_path, spec, seed=6, rank1_patience=9)
        assert campaign.run(50).resumed_from == 50
        traces, pts = load_shard_stores(tmp_path)
        assert campaign.accumulator.recovered_key() == (
            CpaAttack().recovered_key(traces, pts)
        )

    def test_resumed_past_rank1_stops_without_capturing(self, tmp_path):
        """A store already at rank 1 replays to the same early stop."""
        spec = SyntheticCampaignSpec(noise=0.4)
        done = self._campaign(tmp_path, spec, seed=8, rank1_patience=1)
        first = done.run(5000)
        assert first.early_stopped
        resumed = self._campaign(tmp_path, spec, seed=8, rank1_patience=1)
        result = resumed.run(5000)
        assert result.early_stopped
        assert result.n_traces == result.resumed_from == first.n_traces
        assert result.capture_seconds == 0.0

    def test_store_source_shape_mismatch_rejected(self, tmp_path):
        self._campaign(tmp_path, rank1_patience=9).run(32)
        wide = SyntheticCampaignSpec(noise=2.5, samples=99)
        with pytest.raises(ValueError, match="n_samples"):
            self._campaign(tmp_path, wide).run(64)
        narrow = SyntheticCampaignSpec(key=KEY[:8], noise=2.5)
        with pytest.raises(ValueError):
            self._campaign(tmp_path, narrow).run(64)

    def test_store_captured_under_another_key_rejected(self, tmp_path):
        self._campaign(tmp_path, rank1_patience=9).run(64)
        other = SyntheticCampaignSpec(key=bytes(b ^ 0xFF for b in KEY),
                                      noise=2.5)
        with pytest.raises(ValueError, match="key"):
            self._campaign(tmp_path, other).run(128)
        # the stores are untouched, and the right key still resumes them
        resumed = self._campaign(tmp_path, rank1_patience=9).run(64)
        assert resumed.resumed_from == 64

    def test_source_with_an_unknown_key_resumes_a_keyed_store(self, tmp_path):
        self._campaign(tmp_path, seed=10, rank1_patience=9).run(32)

        class KeylessSpec(SyntheticCampaignSpec):
            """A device under attack: it captures, but its key is unknown."""

            @property
            def true_key(self):
                return None

        resumed = self._campaign(tmp_path, KeylessSpec(noise=2.5), seed=10,
                                 rank1_patience=9).run(32)
        assert resumed.resumed_from == 32
        assert resumed.true_key is None

    def test_resume_continues_the_capture_stream(self, tmp_path):
        """Interrupted + resumed == uninterrupted, trace for trace.

        The resume path must fast-forward each shard's (seeded) source past
        its replayed traces — without it, post-resume captures would
        duplicate the stored ones and bias the statistics.
        """
        spec = SyntheticCampaignSpec(noise=30.0)   # never converges
        kwargs = dict(seed=11, first_checkpoint=30, rank1_patience=9)
        self._campaign(tmp_path / "a", spec, **kwargs).run(200)
        self._campaign(tmp_path / "b", spec, **kwargs).run(70)
        self._campaign(tmp_path / "b", spec, **kwargs).run(200)

        t_straight, p_straight = load_shard_stores(tmp_path / "a")
        t_resumed, p_resumed = load_shard_stores(tmp_path / "b")
        np.testing.assert_array_equal(t_straight, t_resumed)
        np.testing.assert_array_equal(p_straight, p_resumed)


class TestPlatformCampaign:
    def test_rd0_platform_campaign_recovers_key(self):
        platform = small_platform("aes", max_delay=0, seed=42)
        source = PlatformSegmentSource(platform, segment_length=1600)
        campaign = AttackCampaign(
            source, aggregate=8, first_checkpoint=128,
            rank1_patience=1, batch_size=128,
        )
        result = campaign.run(768)
        assert result.true_key == source.true_key
        assert result.recovered_key == source.true_key
        assert result.traces_to_rank1 is not None

    def test_platform_segments_shape_and_determinism(self):
        platform = small_platform("aes", max_delay=2, seed=5)
        key = platform.random_key()
        segments, pts = platform.capture_attack_segments(
            12, key=key, segment_length=800
        )
        assert segments.shape == (12, 800)
        assert pts.shape == (12, 16)
        replay = small_platform("aes", max_delay=2, seed=5)
        replay_key = replay.random_key()
        assert replay_key == key
        segments2, pts2 = replay.capture_attack_segments(
            12, key=replay_key, segment_length=800
        )
        np.testing.assert_array_equal(segments, segments2)
        np.testing.assert_array_equal(pts, pts2)

    def test_skip_fast_forward_matches_contiguous_capture(self):
        """Regression (sharded resume): skip(R) + capture(C) must equal
        capture(R+C) with the first R traces dropped, bit for bit."""
        key = bytes(range(16))

        def source(seed=5):
            return PlatformSegmentSource(
                small_platform("aes", max_delay=2, seed=seed),
                key=key, segment_length=700, batch_size=64,
            )

        straight, jumped = source(), source()
        traces, pts = straight.capture(150)
        jumped.skip(90)   # crosses a 64-trace capture-batch boundary
        tail_traces, tail_pts = jumped.capture(60)
        np.testing.assert_array_equal(traces[90:], tail_traces)
        np.testing.assert_array_equal(pts[90:], tail_pts)


class TestEngineIntegration:
    def test_run_campaigns_sweep_with_stores(self, tmp_path):
        engine = ExperimentEngine(seed=0)
        plan = BatchPlan(
            scenarios=(
                ScenarioSpec(cipher="aes", max_delay=0, seed=1001),
                ScenarioSpec(cipher="aes", max_delay=0, noise_std=0.5,
                             seed=1002),
            ),
            batch_size=128,
        )
        results = engine.run_campaigns(
            plan, max_traces=640, store_root=tmp_path,
            aggregate=8, segment_length=1600, rank1_patience=1,
        )
        assert len(results) == 2
        for result in results:
            assert result.recovered_key == result.true_key
            assert result.store_path is not None
            stored, _ = load_shard_stores(result.store_path)
            assert len(stored) == result.n_traces
        # distinct scenarios landed in distinct stores
        assert len({r.store_path for r in results}) == 2

    def test_rerun_resumes_from_store_root(self, tmp_path):
        engine = ExperimentEngine(seed=0)
        plan = BatchPlan(
            scenarios=(ScenarioSpec(cipher="aes", max_delay=0, seed=1003),),
            batch_size=64,
        )
        kwargs = dict(aggregate=8, segment_length=1600, rank1_patience=1)
        first = engine.run_campaigns(
            plan, max_traces=64, store_root=tmp_path, **kwargs
        )[0]
        second = engine.run_campaigns(
            plan, max_traces=512, store_root=tmp_path, **kwargs
        )[0]
        assert second.resumed_from == first.n_traces


class TestConvergenceReporting:
    def _result(self):
        source = SyntheticSource(KEY, seed=10, noise=0.6)
        return AttackCampaign(source, batch_size=64).run(2000)

    def test_curves_and_table(self):
        result = self._result()
        counts, max_ranks = rank_convergence_curve(result.records)
        assert list(counts) == [r.n_traces for r in result.records]
        assert max_ranks[-1] == 1
        counts_ge, entropy = guessing_entropy_curve(result.records)
        np.testing.assert_array_equal(counts, counts_ge)
        assert entropy[-1] == 0.0
        table = format_campaign(result)
        assert "max rank" in table
        assert str(result.n_traces) in table

    def test_guessing_entropy_values(self):
        assert guessing_entropy([1] * 16) == 0.0
        assert guessing_entropy([2] * 16) == 1.0
        with pytest.raises(ValueError):
            guessing_entropy([])
        with pytest.raises(ValueError):
            guessing_entropy([0, 1])
