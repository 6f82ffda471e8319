"""Store integrity: digests, verify(), recover(), quarantine, resume."""

from __future__ import annotations

import json

import numpy as np
import pytest
from factories import SyntheticCampaignSpec, make_chunk

from repro.campaign import (
    CorruptManifestError,
    StoreVerification,
    TraceStore,
    atomic_write_json,
)
from repro.runtime import ParallelCampaign
from repro.runtime.faults import corrupt_store
from repro.runtime.journal import CampaignJournal


def _store_with(tmp_path, n_shards=3, count=8, samples=16, seed=0):
    rng = np.random.default_rng(seed)
    store = TraceStore.create(tmp_path / "store", n_samples=samples)
    for _ in range(n_shards):
        store.append(*make_chunk(rng, count, samples=samples))
    return store


class TestDigests:
    def test_append_records_both_payload_digests(self, tmp_path):
        store = _store_with(tmp_path, n_shards=2)
        manifest = json.loads((store.path / "manifest.json").read_text())
        for shard in manifest["shards"]:
            digests = shard["sha256"]
            assert set(digests) == {shard["traces"], shard["plaintexts"]}
            assert all(len(d) == 64 for d in digests.values())

    def test_digestless_manifest_stays_readable_and_verifiable(self, tmp_path):
        store = _store_with(tmp_path, n_shards=2)
        manifest = json.loads((store.path / "manifest.json").read_text())
        for shard in manifest["shards"]:
            del shard["sha256"]
        atomic_write_json(store.path / "manifest.json", manifest)
        reopened = TraceStore.open(store.path)
        assert len(reopened) == 16
        assert reopened.verify().clean
        # Structural damage is still caught without digests.
        corrupt_store(reopened.path, mode="truncate", shard=1)
        assert reopened.verify().corrupt == (1,)


class TestVerify:
    def test_clean_store(self, tmp_path):
        report = _store_with(tmp_path).verify()
        assert report == StoreVerification((), ())
        assert report.intact and report.clean

    def test_bitflip_needs_the_deep_digest_check(self, tmp_path):
        store = _store_with(tmp_path)
        corrupt_store(store.path, mode="bitflip", shard=1)
        assert store.verify(deep=True).corrupt == (1,)
        # The flipped byte is mid-payload: shape and header still parse.
        assert store.verify(deep=False).intact

    def test_truncation_is_structural(self, tmp_path):
        store = _store_with(tmp_path)
        corrupt_store(store.path, mode="truncate", shard=2)
        assert store.verify(deep=False).corrupt == (2,)

    def test_missing_payload(self, tmp_path):
        store = _store_with(tmp_path)
        (store.path / "plaintexts-000000.npy").unlink()
        assert store.verify().corrupt == (0,)

    def test_orphans_are_spotted_but_not_corrupt(self, tmp_path):
        store = _store_with(tmp_path, n_shards=2)
        np.save(store.path / "traces-000002.npy", np.zeros((3, 16)))
        report = store.verify()
        assert report.intact
        assert report.orphans == ("traces-000002.npy",)
        assert not report.clean


class TestRecover:
    def test_clean_store_is_untouched(self, tmp_path):
        store = _store_with(tmp_path)
        report = store.recover()
        assert report.clean and report.quarantined == ()
        assert not (store.path / "quarantine").exists()

    def test_corrupt_shard_truncates_to_the_intact_prefix(self, tmp_path):
        store = _store_with(tmp_path, n_shards=4, count=8)
        corrupt_store(store.path, mode="bitflip", shard=1)
        report = store.recover()
        # Shards 1..3 drop (prefix property), all six payloads quarantined.
        assert report.corrupt == (1,)
        assert len(report.quarantined) == 6
        assert len(store) == 8 and store.n_shards == 1
        quarantine = store.path / "quarantine"
        assert sorted(p.name for p in quarantine.iterdir()) == sorted(
            report.quarantined
        )
        # The reopened store agrees, and verifies clean.
        reopened = TraceStore.open(store.path)
        assert len(reopened) == 8
        assert reopened.verify().clean

    def test_orphans_are_swept_without_touching_the_manifest(self, tmp_path):
        store = _store_with(tmp_path, n_shards=2, count=8)
        np.save(store.path / "traces-000002.npy", np.zeros((3, 16)))
        np.save(store.path / "plaintexts-000002.npy",
                np.zeros((3, 16), dtype=np.uint8))
        report = store.recover()
        assert len(store) == 16
        assert sorted(report.quarantined) == [
            "plaintexts-000002.npy", "traces-000002.npy",
        ]

    def test_append_after_recover_reuses_the_freed_index(self, tmp_path):
        rng = np.random.default_rng(7)
        store = _store_with(tmp_path, n_shards=3, count=8, seed=7)
        corrupt_store(store.path, mode="truncate", shard=1)
        store.recover()
        store.append(*make_chunk(rng, 8, samples=16))
        assert store.n_shards == 2
        assert store.verify().clean

    def test_quarantine_name_collisions_get_serials(self, tmp_path):
        store = _store_with(tmp_path, n_shards=2, count=8)
        for _ in range(2):
            np.save(store.path / "traces-000002.npy", np.zeros((3, 16)))
            store.recover()
        names = sorted(p.name for p in (store.path / "quarantine").iterdir())
        assert names == ["traces-000002.npy", "traces-000002.npy.1"]


class TestCorruptManifest:
    def test_unparseable_manifest_raises_the_typed_error(self, tmp_path):
        store = _store_with(tmp_path)
        (store.path / "manifest.json").write_text("{ not json")
        with pytest.raises(CorruptManifestError):
            TraceStore.open(store.path)

    def test_schemaless_manifest_raises_the_typed_error(self, tmp_path):
        store = _store_with(tmp_path)
        (store.path / "manifest.json").write_text('{"version": 1}')
        with pytest.raises(CorruptManifestError):
            TraceStore.open(store.path)

    def test_the_typed_error_is_still_a_valueerror(self):
        assert issubclass(CorruptManifestError, ValueError)


class TestCampaignRecovery:
    def test_corrupt_tail_resume_matches_the_uninterrupted_run(self, tmp_path):
        """A damaged shard store resumes to the bit-identical final result."""
        spec = SyntheticCampaignSpec(noise=0.6)
        kwargs = dict(seed=9, workers=1, shard_size=128, rank1_patience=2,
                      batch_size=32)
        baseline = ParallelCampaign(spec, **kwargs).run(256)

        ParallelCampaign(spec, store_root=tmp_path, **kwargs).run(256)
        corrupt_store(tmp_path / "shard-000001", mode="bitflip", shard=-1)

        result = ParallelCampaign(spec, store_root=tmp_path, **kwargs).run(256)
        journal = CampaignJournal.load(tmp_path)
        assert journal.shard_states()[1].get("quarantined")
        assert result.resumed_from < 256
        assert result.recovered_key == baseline.recovered_key
        assert result.n_traces == baseline.n_traces
        assert [r.ranks for r in result.records][-1] == \
            [r.ranks for r in baseline.records][-1]
