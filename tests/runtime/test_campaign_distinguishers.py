"""Campaigns × distinguishers: checkpoints, resume, and merge exactness.

The acceptance bar for the pluggable framework: for **every** registered
distinguisher, the sharded parallel campaign must report per-byte key
ranks identical to the serial campaign at every shared checkpoint, and a
store-interrupted sharded campaign must resume to the uninterrupted result.
"""

from __future__ import annotations

import numpy as np
import pytest
from factories import (
    KEY,
    SyntheticCampaignSpec,
    SyntheticMaskedCampaignSpec,
    SyntheticMaskedSource,
    SyntheticSource,
)

from repro.attacks.distinguishers import DistinguisherSpec
from repro.runtime.campaign import AttackCampaign
from repro.runtime.parallel import ParallelCampaign

KEY4 = KEY[:4]
MASKED_WINDOWS = dict(
    window1=SyntheticMaskedSource.window1, window2=SyntheticMaskedSource.window2
)

#: (distinguisher spec, campaign-source spec) per registered distinguisher.
CONFIGS = [
    pytest.param(
        DistinguisherSpec(name="cpa"),
        SyntheticCampaignSpec(key=KEY4, noise=0.8, samples=24),
        id="cpa",
    ),
    pytest.param(
        DistinguisherSpec(name="dpa"),
        SyntheticCampaignSpec(key=KEY4, noise=0.6, samples=24),
        id="dpa",
    ),
    pytest.param(
        DistinguisherSpec(name="cpa2", **MASKED_WINDOWS),
        SyntheticMaskedCampaignSpec(key=KEY4, noise=0.6, samples=24),
        id="cpa2",
    ),
    pytest.param(
        DistinguisherSpec(name="lra"),
        SyntheticCampaignSpec(key=KEY4, noise=0.8, samples=24),
        id="lra",
    ),
]


@pytest.mark.parametrize("dspec,source_spec", CONFIGS)
class TestParallelMatchesSerial:
    def test_ranks_identical_at_every_checkpoint(self, dspec, source_spec):
        """4-worker sharded == serial, rank-for-rank, per distinguisher."""
        parallel = ParallelCampaign(
            source_spec, seed=17, workers=4, shard_size=75,
            rank1_patience=2, batch_size=50, distinguisher=dspec,
        )
        serial = AttackCampaign(
            parallel.sharded_source(),
            checkpoints=parallel.checkpoints(600),
            rank1_patience=2, batch_size=50, distinguisher=dspec,
        )
        p_result = parallel.run(600)
        s_result = serial.run(600)
        assert p_result.distinguisher == s_result.distinguisher == dspec.name
        assert len(p_result.records) == len(s_result.records)
        for p_record, s_record in zip(p_result.records, s_result.records):
            assert p_record.n_traces == s_record.n_traces
            assert p_record.ranks == s_record.ranks
            assert p_record.recovered_key == s_record.recovered_key
        assert p_result.traces_to_rank1 == s_result.traces_to_rank1
        # The merged and streamed statistics agree far below rank ties.
        for byte_index in range(len(KEY4)):
            np.testing.assert_allclose(
                parallel.accumulator.score_matrix(byte_index),
                serial.accumulator.score_matrix(byte_index),
                atol=1e-10,
            )

    def test_worker_count_invariance(self, dspec, source_spec):
        """1 worker vs 3 workers: identical checkpoint records."""
        results = []
        for workers in (1, 3):
            campaign = ParallelCampaign(
                source_spec, seed=5, workers=workers, shard_size=60,
                rank1_patience=1, batch_size=60, distinguisher=dspec,
            )
            results.append(campaign.run(300))
        solo, fleet = results
        assert [r.ranks for r in solo.records] == [r.ranks for r in fleet.records]
        assert solo.recovered_key == fleet.recovered_key


def _synthetic_source():
    return SyntheticSource(KEY4, seed=23, samples=24)


@pytest.mark.parametrize("name", ["cpa2", "lra"])
def test_store_resume_matches_uninterrupted(tmp_path, name):
    """Interrupt + resume == uninterrupted, for the new distinguishers."""
    masked = name == "cpa2"
    dspec = (
        DistinguisherSpec(name="cpa2", **MASKED_WINDOWS)
        if masked else DistinguisherSpec(name="lra")
    )
    source_spec = (
        SyntheticMaskedCampaignSpec(key=KEY4, samples=24) if masked
        else SyntheticCampaignSpec(key=KEY4, samples=24)
    )

    def build_campaign(store_root=None):
        # Patience beyond the checkpoint count: no early stop, so the first
        # run genuinely interrupts mid-campaign at its 160-trace budget.
        return ParallelCampaign(
            source_spec, seed=23, workers=1, shard_size=40,
            store_root=store_root, first_checkpoint=60, rank1_patience=9,
            batch_size=40, distinguisher=dspec,
        )

    build_campaign(tmp_path).run(160)        # interrupted early
    resumed_campaign = build_campaign(tmp_path)
    resumed = resumed_campaign.run(400)
    assert resumed.resumed_from == 160

    straight_campaign = build_campaign()
    uninterrupted = straight_campaign.run(400)
    assert resumed.n_traces == uninterrupted.n_traces
    assert resumed.recovered_key == uninterrupted.recovered_key
    assert resumed.records[-1].ranks == uninterrupted.records[-1].ranks
    np.testing.assert_allclose(
        resumed_campaign.accumulator.score_matrix(0),
        straight_campaign.accumulator.score_matrix(0),
        atol=1e-10,
    )


def test_parallel_campaign_rejects_live_accumulator():
    from repro.attacks.distinguishers import CpaDistinguisher

    with pytest.raises(TypeError, match="picklable"):
        ParallelCampaign(
            SyntheticCampaignSpec(key=KEY4),
            seed=0, distinguisher=CpaDistinguisher(),
        )


def test_serial_campaign_accepts_name_and_instance():
    from repro.attacks.distinguishers import DpaDistinguisher

    result = AttackCampaign(
        _synthetic_source(), first_checkpoint=50, rank1_patience=1,
        batch_size=50, distinguisher="dpa",
    ).run(200)
    assert result.distinguisher == "dpa"
    instance = DpaDistinguisher(aggregate=2)
    campaign = AttackCampaign(
        _synthetic_source(), rank1_patience=1, distinguisher=instance,
    )
    assert campaign.accumulator is instance
    assert campaign.aggregate == 2


def test_lra_min_traces_floors_the_ladder():
    """LRA's 11-trace minimum pushes the first checkpoint up."""
    campaign = AttackCampaign(
        _synthetic_source(), first_checkpoint=4, rank1_patience=1,
        distinguisher="lra",
    )
    assert campaign.first_checkpoint == 11
    with pytest.raises(ValueError):
        AttackCampaign(
            _synthetic_source(), checkpoints=[4, 8],
            distinguisher="lra",
        )
