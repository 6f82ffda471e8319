"""Engine and campaign error paths: bad ladders, bad budgets, bad names."""

from __future__ import annotations

import pytest
from factories import KEY, SyntheticCampaignSpec, SyntheticSource

from repro.attacks.key_rank import (
    MIN_CPA_TRACES,
    geometric_checkpoints,
    next_checkpoint,
)
from repro.campaign import TraceStore
from repro.runtime import AttackCampaign, ExperimentEngine, ScenarioSpec


class TestUnknownCipherNames:
    def test_platform_construction_names_the_alternatives(self):
        engine = ExperimentEngine(seed=0)
        spec = ScenarioSpec(cipher="rijndael", max_delay=0)
        with pytest.raises(KeyError, match="available"):
            engine.platform_for(spec)

    def test_run_campaign_propagates_the_lookup_error(self, tmp_path):
        engine = ExperimentEngine(seed=0)
        spec = ScenarioSpec(cipher="not-a-cipher", max_delay=0)
        with pytest.raises(KeyError, match="not-a-cipher"):
            engine.run_campaign(spec, max_traces=100)
        with pytest.raises(KeyError, match="not-a-cipher"):
            engine.run_campaign(spec, max_traces=100, workers=2)


class TestBadLadders:
    def test_geometric_ladder_rejects_non_growing_factors(self):
        with pytest.raises(ValueError):
            geometric_checkpoints(100, growth=1.0)
        with pytest.raises(ValueError):
            next_checkpoint(10, growth=0.5)

    def test_campaign_rejects_non_growing_factors(self):
        with pytest.raises(ValueError):
            AttackCampaign(SyntheticSource(KEY), checkpoint_growth=0.9)

    def test_explicit_ladder_must_hold_an_attackable_rung(self):
        source = SyntheticSource(KEY)
        with pytest.raises(ValueError, match="ladder"):
            AttackCampaign(source, checkpoints=[])
        with pytest.raises(ValueError, match="ladder"):
            AttackCampaign(source, checkpoints=[0, 1, MIN_CPA_TRACES - 1])

    def test_explicit_ladder_is_sanitised_and_honoured(self):
        source = SyntheticSource(KEY, seed=3, noise=50.0)  # never converges
        campaign = AttackCampaign(
            source, checkpoints=[40, 10, 10, 1, 40, 20], batch_size=16
        )
        result = campaign.run(60)
        # dirty ladder -> {10, 20, 40}, then straight to the budget
        assert [r.n_traces for r in result.records] == [10, 20, 40, 60]


class TestZeroTraceBudgets:
    def test_campaign_run_needs_an_attackable_budget(self):
        with pytest.raises(ValueError):
            AttackCampaign(SyntheticSource(KEY)).run(MIN_CPA_TRACES - 1)

    def test_engine_campaign_propagates_the_budget_error(self):
        engine = ExperimentEngine(seed=0)
        spec = ScenarioSpec(cipher="aes", max_delay=0, seed=1)
        with pytest.raises(ValueError, match="max_traces"):
            engine.run_campaign(spec, max_traces=2, segment_length=64)

    def test_minimum_budget_yields_a_single_checkpoint(self):
        source = SyntheticSource(KEY, seed=1)
        result = AttackCampaign(source, batch_size=8).run(MIN_CPA_TRACES)
        assert [r.n_traces for r in result.records] == [MIN_CPA_TRACES]


class TestEngineParallelWiring:
    def test_every_call_runs_the_sharded_campaign(self, tmp_path):
        engine = ExperimentEngine(seed=0)
        spec = ScenarioSpec(cipher="aes", max_delay=0, seed=1001)
        kwargs = dict(max_traces=256, segment_length=1600, aggregate=8,
                      rank1_patience=1, batch_size=128, shard_size=128)
        inline = engine.run_campaign(
            spec, store_dir=tmp_path / "shards", **kwargs
        )
        pooled = engine.run_campaign(spec, workers=2, **kwargs)
        assert inline.recovered_key == inline.true_key
        assert [(r.n_traces, r.ranks) for r in inline.records] == [
            (r.n_traces, r.ranks) for r in pooled.records
        ]
        assert (tmp_path / "shards" / "shard-000000").is_dir()
        assert (tmp_path / "shards" / "journal.json").is_file()

    def test_store_modes_do_not_silently_mix(self, tmp_path):
        """A single serial store is refused; a shard root resumes."""
        engine = ExperimentEngine(seed=0)
        spec = ScenarioSpec(cipher="aes", max_delay=0, seed=1001)
        kwargs = dict(max_traces=128, segment_length=1600, aggregate=8,
                      rank1_patience=1, batch_size=64, shard_size=64)
        # What `repro profile` (or an older serial campaign) leaves behind.
        TraceStore.create(tmp_path / "serial", n_samples=1600)
        with pytest.raises(ValueError, match="serial TraceStore"):
            engine.run_campaign(spec, store_dir=tmp_path / "serial", **kwargs)
        first = engine.run_campaign(spec, store_dir=tmp_path / "shards",
                                    **kwargs)
        again = engine.run_campaign(spec, store_dir=tmp_path / "shards",
                                    **kwargs)
        assert again.resumed_from == first.n_traces

    def test_reduced_key_attack_narrows_the_ranks(self):
        engine = ExperimentEngine(seed=0)
        spec = ScenarioSpec(cipher="aes", max_delay=0, seed=1001)
        result = engine.run_campaign(
            spec, max_traces=256, segment_length=1600, aggregate=8,
            rank1_patience=1, batch_size=128, shard_size=128,
            attack_bytes=4,
        )
        assert len(result.true_key) == 4
        assert len(result.records[-1].ranks) == 4
        assert result.recovered_key == result.true_key
