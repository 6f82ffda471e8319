"""Shared test factories: platforms, leaky trace batches, campaign sources.

Importable from every test package (``tests/conftest.py`` puts this
directory on ``sys.path``), replacing the copy-pasted setup that used to
live in ``tests/campaign/``, ``tests/runtime/``, and ``tests/soc/``.
Everything here is deterministic given its seed arguments, and the
campaign source classes are picklable so process-pool tests can ship them
to workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.attacks.leakage_models import hw_byte
from repro.campaign import TraceStore
from repro.ciphers.aes import SBOX
from repro.soc import PlatformSpec, SimulatedPlatform

SBOX_TABLE = np.asarray(SBOX, dtype=np.uint8)

#: The FIPS-197 appendix key most campaign tests attack.
KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def small_platform(
    cipher: str = "aes",
    max_delay: int = 0,
    seed: int = 0,
    noise_std: float = 1.0,
) -> SimulatedPlatform:
    """A cheap simulated platform with the engine's noise convention."""
    return PlatformSpec(
        cipher_name=cipher, max_delay=max_delay, noise_std=noise_std
    ).build(seed)


def leaky_traces(rng, n, key, noise=1.0, samples=40, offset=0.0):
    """Traces leaking HW(SBOX[pt ^ key_b]) per byte at known positions."""
    n_bytes = len(key)
    pts = rng.integers(0, 256, (n, n_bytes), dtype=np.uint8)
    traces = rng.normal(offset, noise, (n, samples))
    for b in range(n_bytes):
        traces[:, (2 * b) % samples] += hw_byte(SBOX_TABLE[pts[:, b] ^ key[b]])
    return traces, pts


def feed_in_chunks(acc, traces, pts, splits):
    """Update an accumulator with uneven chunks cut at ``splits``."""
    begin = 0
    for end in list(splits) + [traces.shape[0]]:
        if end > begin:
            acc.update(traces[begin:end], pts[begin:end])
            begin = end
    return acc


def load_shard_stores(store_root):
    """A sharded campaign's stored ``(traces, plaintexts)``, in shard order."""
    chunks = [
        TraceStore.open(manifest.parent).load()
        for manifest in sorted(Path(store_root).glob("shard-*/manifest.json"))
    ]
    return (np.concatenate([t for t, _ in chunks]),
            np.concatenate([p for _, p in chunks]))


def make_chunk(rng, count, samples=32, block=16):
    """One random (traces, plaintexts) pair for trace-store tests."""
    return (
        rng.normal(0, 1, (count, samples)),
        rng.integers(0, 256, (count, block), dtype=np.uint8),
    )


class SyntheticSource:
    """A deterministic leaky segment source (no platform, fast).

    Randomness is drawn per trace so the stream, like the platform's, is
    invariant to capture-chunk boundaries — ``skip``/resume and shard
    determinism rely on it.
    """

    def __init__(self, key: bytes, seed=0, noise: float = 1.0,
                 samples: int = 40):
        self.true_key = key
        self.n_samples = samples
        self.block_size = len(key)
        self.noise = noise
        self._rng = np.random.default_rng(seed)
        self.captured = 0

    def capture(self, count: int):
        pts = np.empty((count, self.block_size), dtype=np.uint8)
        traces = np.empty((count, self.n_samples))
        for i in range(count):
            pts[i] = self._rng.integers(0, 256, self.block_size, dtype=np.uint8)
            traces[i] = self._rng.normal(0, self.noise, self.n_samples)
        for b in range(self.block_size):
            traces[:, (2 * b) % self.n_samples] += hw_byte(
                SBOX_TABLE[pts[:, b] ^ self.true_key[b]]
            )
        self.captured += count
        return traces, pts

    def skip(self, count: int):
        if count > 0:
            self.capture(count)
            self.captured -= count


@dataclass(frozen=True)
class SyntheticCampaignSpec:
    """Picklable campaign-source spec over :class:`SyntheticSource`.

    The parallel-campaign analogue of ``PlatformCampaignSpec`` for tests:
    workers rebuild one independent synthetic source per shard from the
    shard's child seed.
    """

    key: bytes = KEY
    noise: float = 1.0
    samples: int = 40

    @property
    def n_samples(self) -> int:
        return self.samples

    @property
    def block_size(self) -> int:
        return len(self.key)

    @property
    def true_key(self) -> bytes:
        return self.key

    def build_source(self, seed) -> SyntheticSource:
        return SyntheticSource(
            self.key, seed=seed, noise=self.noise, samples=self.samples
        )


def masked_leaky_traces(rng, n, key, noise=0.6, samples=24,
                        window1=(2, 6), window2=(12, 16), offset=0.0):
    """Traces with first-order boolean masking: two shares, no direct leak.

    Byte ``b`` draws a fresh mask per trace and leaks ``HW(v ^ mask)`` in
    ``window1`` and ``HW(SBOX[v] ^ mask)`` in ``window2`` (``v = pt ^ k``),
    at offset ``b`` within each window.  No single sample correlates with
    unmasked data, so first-order attacks fail while the centred product
    of the two windows recovers ``HW(v ^ SBOX[v])`` — the ``hd`` model.
    """
    n_bytes = len(key)
    assert window1[0] + n_bytes <= window1[1] <= samples
    assert window2[0] + n_bytes <= window2[1] <= samples
    pts = rng.integers(0, 256, (n, n_bytes), dtype=np.uint8)
    traces = rng.normal(offset, noise, (n, samples))
    for b in range(n_bytes):
        mask = rng.integers(0, 256, n, dtype=np.uint8)
        v = pts[:, b] ^ key[b]
        traces[:, window1[0] + b] += hw_byte(v ^ mask)
        traces[:, window2[0] + b] += hw_byte(SBOX_TABLE[v] ^ mask)
    return traces, pts


class SyntheticMaskedSource:
    """A deterministic masked segment source (two shares per byte).

    Randomness is drawn per trace, so the stream is invariant to capture
    chunking — the same contract as :class:`SyntheticSource`.
    """

    window1 = (2, 6)
    window2 = (12, 16)

    def __init__(self, key: bytes, seed=0, noise: float = 0.6,
                 samples: int = 24):
        self.true_key = key
        self.n_samples = samples
        self.block_size = len(key)
        self.noise = noise
        self._rng = np.random.default_rng(seed)

    def capture(self, count: int):
        pts = np.empty((count, self.block_size), dtype=np.uint8)
        traces = np.empty((count, self.n_samples))
        for i in range(count):
            t, p = masked_leaky_traces(
                self._rng, 1, self.true_key, noise=self.noise,
                samples=self.n_samples, window1=self.window1,
                window2=self.window2,
            )
            traces[i], pts[i] = t[0], p[0]
        return traces, pts

    def skip(self, count: int):
        if count > 0:
            self.capture(count)


@dataclass(frozen=True)
class SyntheticMaskedCampaignSpec:
    """Picklable campaign-source spec over :class:`SyntheticMaskedSource`."""

    key: bytes = KEY[:4]
    noise: float = 0.6
    samples: int = 24

    @property
    def n_samples(self) -> int:
        return self.samples

    @property
    def block_size(self) -> int:
        return len(self.key)

    @property
    def true_key(self) -> bytes:
        return self.key

    def build_source(self, seed) -> SyntheticMaskedSource:
        return SyntheticMaskedSource(
            self.key, seed=seed, noise=self.noise, samples=self.samples
        )
