#!/usr/bin/env python
"""Streaming attack campaign: capture → store → online CPA → early stop.

Demonstrates the campaign subsystem end to end on the simulated platform:

1. a fixed-key campaign streams capture batches into a constant-memory
   :class:`~repro.attacks.distinguishers.CpaDistinguisher` accumulator and
   on-disk :class:`~repro.campaign.store.TraceStore` shards under one store
   root, evaluating key ranks at shard-aligned checkpoints and stopping
   early once every byte holds rank 1 (``workers=1`` runs the shards
   inline; more workers change the wall clock, never the ranks);
2. the process then "crashes" (we simply build a new campaign object) and
   *resumes* from the half-written store root — the persisted shards are
   replayed into a fresh accumulator and capture continues where the
   stores left off, mid-shard included;
3. the recovered key is compared against the batch CPA over every stored
   trace, showing the streaming path is exact, not approximate.

Memory never grows with the trace count: a million-trace campaign holds
the same sufficient statistics as this small one.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.attacks import CpaAttack
from repro.campaign import TraceStore
from repro.evaluation import format_campaign
from repro.runtime import ParallelCampaign, PlatformCampaignSpec
from repro.soc import SimulatedPlatform
from repro.soc.platform import PlatformSpec


def build_campaign(store_root: Path, args) -> ParallelCampaign:
    """A fresh campaign over (possibly pre-existing) durable storage."""
    probe = SimulatedPlatform("aes", max_delay=0, seed=args.seed)
    spec = PlatformCampaignSpec(
        platform=PlatformSpec(cipher_name="aes", max_delay=0),
        key=probe.random_key(),
        segment_length=1600,
    )
    return ParallelCampaign(
        spec, seed=args.seed, workers=1, shard_size=args.shard_size,
        store_root=store_root, aggregate=args.aggregate, rank1_patience=2,
    )


def load_store_root(store_root: Path):
    """Every stored trace, concatenated in shard order."""
    chunks = [TraceStore.open(manifest.parent).load()
              for manifest in sorted(store_root.glob("shard-*/manifest.json"))]
    return (np.concatenate([traces for traces, _ in chunks]),
            np.concatenate([plaintexts for _, plaintexts in chunks]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=600,
                        help="total trace budget")
    parser.add_argument("--interrupt-at", type=int, default=120,
                        help="traces captured before the simulated crash")
    parser.add_argument("--shard-size", type=int, default=64,
                        help="traces per shard (the checkpoint resolution)")
    parser.add_argument("--aggregate", type=int, default=8)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as root:
        store_root = Path(root) / "campaign_store"

        print(f"[1/3] campaign interrupted after {args.interrupt_at} traces ...")
        partial = build_campaign(store_root, args).run(args.interrupt_at)
        print(f"      {partial.summary()}")
        # the "crash": only the on-disk shard stores survive

        print("[2/3] resuming from the store root and finishing the attack ...")
        result = build_campaign(store_root, args).run(args.traces, verbose=True)
        print(f"      replayed {result.resumed_from} stored traces")
        print()
        print(format_campaign(result))
        print()
        print(f"true key      : {result.true_key.hex()}")
        print(f"recovered key : {result.recovered_key.hex()}")
        assert result.key_recovered, "campaign should recover the key at RD-0"

        print("[3/3] cross-checking the streaming statistics against the "
              "batch CPA ...")
        traces, plaintexts = load_store_root(store_root)
        assert len(traces) == result.n_traces
        batch_key = CpaAttack(aggregate=args.aggregate).recovered_key(
            traces, plaintexts
        )
        assert batch_key == result.recovered_key
        print(f"      batch CPA over all {len(traces)} stored traces agrees: "
              f"{batch_key.hex()}")


if __name__ == "__main__":
    main()
