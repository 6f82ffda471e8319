"""Streaming attack-campaign primitives.

The campaign layer turns the batch attacks of :mod:`repro.attacks` into a
streaming pipeline suitable for production-scale trace counts.  The
constant-memory accumulators are the :mod:`repro.attacks.distinguishers`
themselves (e.g. :class:`~repro.attacks.distinguishers.CpaDistinguisher`),
updated chunk-by-chunk; this package holds what they stream from:

* :class:`~repro.campaign.store.TraceStore` — an append-only, sharded
  on-disk store (``.npy`` segments + JSON manifest, memory-mapped reads)
  so captured traces survive the process and campaigns can resume.

The :class:`~repro.runtime.campaign.AttackCampaign` orchestrator in
:mod:`repro.runtime` drives capture → store → accumulate → checkpoint on
top of these pieces.
"""

from repro.campaign.store import (
    CorruptManifestError,
    StoreVerification,
    TraceStore,
    atomic_write_json,
)

__all__ = [
    "CorruptManifestError",
    "StoreVerification",
    "TraceStore",
    "atomic_write_json",
]
