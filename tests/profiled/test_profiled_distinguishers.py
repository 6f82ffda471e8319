"""Template / NN-profiled distinguishers on the campaign core."""

from __future__ import annotations

import numpy as np
import pytest
from factories import KEY, SyntheticCampaignSpec, feed_in_chunks, leaky_traces

from repro.attacks.distinguishers import (
    DistinguisherSpec,
    available_distinguishers,
    get_distinguisher,
)
from repro.profiled import (
    NnProfiledDistinguisher,
    TemplateDistinguisher,
    fit_nn_profile,
    fit_template_profile,
)
from repro.runtime import AttackCampaign, ParallelCampaign

SMALL_KEY = KEY[:4]
POIS = [[2 * b, 2 * b + 1] for b in range(4)]


@pytest.fixture(scope="module")
def profiles():
    rng = np.random.default_rng(11)
    traces, pts = leaky_traces(rng, 1200, SMALL_KEY)
    template = fit_template_profile((traces, pts), SMALL_KEY, pois=POIS)
    nn = fit_nn_profile((traces, pts), SMALL_KEY, pois=POIS, epochs=6)
    return {"template": template, "nnp": nn}


@pytest.fixture(scope="module")
def attack_set():
    rng = np.random.default_rng(23)
    return leaky_traces(rng, 400, SMALL_KEY)


def _build(name, profiles):
    cls = TemplateDistinguisher if name == "template" else NnProfiledDistinguisher
    return cls(profiles[name])


class TestRegistry:
    def test_both_names_are_registered(self):
        names = available_distinguishers()
        assert "template" in names and "nnp" in names

    def test_get_distinguisher_builds_from_a_path(self, profiles, tmp_path):
        profiles["template"].save(tmp_path / "p")
        acc = get_distinguisher("template", profile=str(tmp_path / "p"))
        assert isinstance(acc, TemplateDistinguisher)

    def test_spec_requires_a_profile(self):
        with pytest.raises(ValueError, match="profile directory"):
            DistinguisherSpec(name="nnp").build()

    def test_spec_rejects_a_leakage_model_override(self, profiles, tmp_path):
        profiles["template"].save(tmp_path / "p")
        spec = DistinguisherSpec(
            name="template", profile=str(tmp_path / "p"), leakage_model="msb"
        )
        with pytest.raises(ValueError, match="manifest"):
            spec.build()

    def test_aggregate_must_stay_one(self, profiles):
        with pytest.raises(ValueError, match="aggregate"):
            TemplateDistinguisher(profiles["template"], aggregate=2)


@pytest.mark.parametrize("name", ["template", "nnp"])
class TestAccumulation:
    def test_recovers_the_key(self, name, profiles, attack_set):
        acc = _build(name, profiles)
        acc.update(*attack_set)
        assert acc.key_ranks(SMALL_KEY) == [1, 1, 1, 1]
        assert acc.recovered_key() == SMALL_KEY

    def test_batch_equals_online_equals_merged(self, name, profiles, attack_set):
        traces, pts = attack_set
        batch = _build(name, profiles)
        batch.update(traces, pts)
        online = feed_in_chunks(_build(name, profiles), traces, pts, [37, 150, 288])
        merged = _build(name, profiles)
        merged.update(traces[:190], pts[:190])
        shard = _build(name, profiles)
        shard.update(traces[190:], pts[190:])
        merged.merge(shard)
        # The statistic is chunking-invariant up to floating-point noise:
        # float64 noise for the templates' quadratic form, float32 noise
        # for the nn stack's forward pass.
        atol = 1e-9 if name == "template" else 1e-4
        for other in (online, merged):
            assert other.n_traces == batch.n_traces
            np.testing.assert_allclose(
                other._ll_sums, batch._ll_sums, atol=atol
            )
            np.testing.assert_allclose(
                other.guess_scores(), batch.guess_scores(), atol=atol
            )

    def test_a_single_trace_is_scoreable(self, name, profiles, attack_set):
        traces, pts = attack_set
        acc = _build(name, profiles)
        assert acc.min_traces == 1
        acc.update(traces[:1], pts[:1])
        assert acc.guess_scores().shape == (4, 256)

    def test_scores_are_signed_log_likelihoods(self, name, profiles, attack_set):
        acc = _build(name, profiles)
        acc.update(*attack_set)
        scores = acc.guess_scores()
        # Shifted per byte: the best guess sits at exactly zero, all
        # others below — an abs-based ranking would have inverted this.
        np.testing.assert_allclose(scores.max(axis=1), 0.0, atol=1e-12)
        assert (scores <= 0).all()
        assert np.argmax(scores, axis=1).tolist() == list(SMALL_KEY)


@pytest.mark.parametrize("name", ["template", "nnp"])
class TestCampaignIntegration:
    def test_parallel_matches_serial_at_every_checkpoint(
        self, name, profiles, tmp_path
    ):
        profiles[name].save(tmp_path / name)
        spec = DistinguisherSpec(name=name, profile=str(tmp_path / name))
        source_spec = SyntheticCampaignSpec(key=SMALL_KEY, noise=0.8, samples=40)
        kwargs = dict(shard_size=128, first_checkpoint=100,
                      rank1_patience=2, batch_size=64)
        parallel = ParallelCampaign(
            source_spec, seed=2, workers=3, distinguisher=spec, **kwargs
        )
        result = parallel.run(512)
        serial = AttackCampaign(
            parallel.sharded_source(),
            checkpoints=parallel.checkpoints(512),
            rank1_patience=2,
            batch_size=64,
            distinguisher=spec,
        )
        reference = serial.run(512)
        shared = min(len(result.records), len(reference.records))
        assert shared > 0
        for mine, theirs in zip(result.records[:shared],
                                reference.records[:shared]):
            assert mine.n_traces == theirs.n_traces
            assert mine.ranks == theirs.ranks
        assert result.traces_to_rank1 is not None

    def test_campaign_checkpoints_resume_from_a_store(
        self, name, profiles, tmp_path
    ):
        profiles[name].save(tmp_path / name)
        spec = DistinguisherSpec(name=name, profile=str(tmp_path / name))
        source_spec = SyntheticCampaignSpec(key=SMALL_KEY, noise=0.8, samples=40)
        kwargs = dict(seed=9, workers=1, shard_size=64, batch_size=64,
                      rank1_patience=99, distinguisher=spec)
        store_root = tmp_path / f"{name}-store"
        ParallelCampaign(source_spec, store_root=store_root, **kwargs).run(128)
        result = ParallelCampaign(
            source_spec, store_root=store_root, **kwargs
        ).run(256)
        assert result.resumed_from == 128
        uninterrupted = ParallelCampaign(source_spec, **kwargs).run(256)
        # Every checkpoint of the resumed run must agree exactly.
        assert [(r.n_traces, r.ranks) for r in result.records] == [
            (r.n_traces, r.ranks) for r in uninterrupted.records
        ]
