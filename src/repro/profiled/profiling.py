"""The profiling phase: known-key capture into a store + streaming stats.

A :class:`ProfilingCampaign` is the profiling-phase sibling of
:class:`~repro.runtime.campaign.AttackCampaign`: it drives the same
:class:`~repro.runtime.campaign.SegmentSource` machinery (so every
platform, capture mode and batch path works unchanged), **requires** an
on-disk :class:`~repro.campaign.store.TraceStore` — profile fitting
replays the store, and profiling runs must be durable — and folds every
batch into streaming :class:`~repro.profiled.stats.ClassStats` for
SNR/t-test POI ranking.  Re-running over the same store resumes exactly
like an attack-campaign shard: persisted chunks are replayed into the
statistics and the source is fast-forwarded past them, so an
interrupted-and-resumed profiling run accumulates exactly the traces an
uninterrupted one would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.campaign import TraceStore
from repro.profiled.stats import ClassStats, select_pois
from repro.runtime.campaign import SegmentSource

__all__ = ["ProfilingCampaign", "ProfilingResult"]


@dataclass
class ProfilingResult:
    """Everything a finished profiling run hands to the fitting step."""

    stats: ClassStats
    store: TraceStore
    n_traces: int
    resumed_from: int
    capture_seconds: float

    def snr(self) -> np.ndarray:
        """Per-byte, per-sample SNR map of the accumulated statistics."""
        return self.stats.snr()

    def select_pois(self, count: int, min_spacing: int = 1) -> np.ndarray:
        """Top-SNR POIs per byte over the accumulated statistics."""
        return select_pois(self.snr(), count, min_spacing=min_spacing)


class ProfilingCampaign:
    """Known-key capture → store → streaming class statistics.

    Parameters
    ----------
    source:
        A :class:`SegmentSource` whose ``true_key`` is known — profiling
        labels every trace with the class of its key-dependent
        intermediate, so an unkeyed source cannot be profiled.
    store:
        The trace store profiling captures persist to (required: the
        fitting step replays it, and profile provenance lives in its
        metadata).  Existing content is replayed and resumed.
    model:
        Leakage model defining the class labels (``hw`` for unmasked
        first-order targets, ``hd`` for the masked-AES pair).
    """

    def __init__(
        self,
        source: SegmentSource,
        store: TraceStore,
        model: str = "hw",
        batch_size: int = 256,
    ) -> None:
        if store is None:
            raise ValueError(
                "profiling needs a trace store: profile fitting replays it"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        key = getattr(source, "true_key", None)
        if key is None:
            raise ValueError("profiling needs a source with a known true_key")
        if store.n_samples != source.n_samples:
            raise ValueError(
                f"store holds {store.n_samples}-sample segments, source "
                f"produces {source.n_samples}"
            )
        if store.block_size != source.block_size:
            raise ValueError(
                f"store holds {store.block_size}-byte plaintexts, source "
                f"produces {source.block_size}-byte ones"
            )
        if store.key is not None and store.key != key:
            raise ValueError(
                "store was captured under a different key than the source's"
            )
        self.source = source
        self.store = store
        self.batch_size = int(batch_size)
        self.stats = ClassStats(key, model=model)
        self.resumed_from = 0
        if len(store):
            for traces, plaintexts in store.iter_chunks(self.batch_size):
                self.stats.update(traces, plaintexts)
            self.resumed_from = len(store)
            skip = getattr(source, "skip", None)
            if skip is not None:
                skip(self.resumed_from)

    def run(self, n_traces: int, verbose: bool = False) -> ProfilingResult:
        """Capture until the store holds ``n_traces`` traces.

        Resumed traces count toward the budget, as in a resumed
        :class:`~repro.runtime.parallel.ParallelCampaign`.
        """
        if n_traces < 1:
            raise ValueError("n_traces must be >= 1")
        capture_seconds = 0.0
        n = self.stats.n_traces
        while n < n_traces:
            begin = time.perf_counter()
            traces, plaintexts = self.source.capture(
                min(self.batch_size, n_traces - n)
            )
            capture_seconds += time.perf_counter() - begin
            self.store.append(traces, plaintexts)
            n = self.stats.update(traces, plaintexts)
            if verbose:
                print(f"[profiling] {n:>8d}/{n_traces} traces")
        return ProfilingResult(
            stats=self.stats,
            store=self.store,
            n_traces=n,
            resumed_from=self.resumed_from,
            capture_seconds=capture_seconds,
        )
