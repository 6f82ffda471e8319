"""Sliding Window Classification (Section III-C).

The Slicing block cuts the inference trace into ``N_inf``-sample windows
every ``stride`` samples; the trained CNN scores each window; the resulting
signal ``swc`` (one score per window position) feeds the segmentation stage.

Two scoring engines with identical semantics are provided:

* ``windowed`` — the literal method: materialise every window, run the CNN
  on each.  Faithful but does O(N/s) redundant convolution work, spread
  over every CPU in the process's affinity mask.
* ``dense`` (default) — exploits that every layer before global average
  pooling is translation-equivariant: run the convolutional trunk *once*
  over the whole trace (in bounded-memory chunks), then evaluate each
  window's global average with a prefix sum and push only the pooled
  32-vector through the fully-connected head.  With the locator of
  ``perfbench/run.py --workload locate-rd4`` (2-CPU container, one BLAS
  thread, median of twelve runs) it scores 330 k samples/s batched over
  four sessions on one thread, against 41 k for ``windowed`` on both
  CPUs (8x; 21 k on one CPU, 15x).  It
  differs from ``windowed`` only at window borders (full-trace context
  instead of per-window zero padding); the test suite bounds the
  difference and the segmentation results agree.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.model import LocatorCNN, scores_from_logits
from repro.nn import GlobalAvgPool1d, Sequential
from repro.nn.layers import Conv1d

__all__ = ["SlidingWindowClassifier"]


def _collect_kernel_extent(module) -> int:
    """Total (kernel-1) mass of all Conv1d layers in a subtree.

    A safe upper bound on the half receptive field of the trunk, used as
    the chunk-overlap margin of the dense engine.
    """
    extent = 0
    if isinstance(module, Conv1d):
        extent += module.kernel_size - 1
    for _, child in module.children():
        extent += _collect_kernel_extent(child)
    return extent


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where it has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SlidingWindowClassifier:
    """Scores a trace with the trained CNN at a fixed window and stride.

    The windowed engine runs ``batch_size`` windows per CNN forward; 64
    keeps one layer's FFT spectra cache-sized.  On the ``locate-rd4``
    session it beat 512 in ten of ten alternating runs (medians 24 k
    against 21 k samples/s, one thread).  The batches run on every CPU
    in the process's affinity mask: numpy's FFTs and matrix products
    release the interpreter lock, and an eval-mode network keeps no
    per-call state, so threads share it.  Batch boundaries never depend
    on the thread count, so neither do the scores.
    """

    def __init__(
        self,
        cnn: LocatorCNN,
        window: int,
        stride: int,
        score_mode: str = "margin",
        method: str = "dense",
        batch_size: int = 64,
        chunk_size: int = 65_536,
    ) -> None:
        if window < 8:
            raise ValueError("window must be >= 8")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if method not in ("dense", "windowed"):
            raise ValueError(f"unknown method {method!r}")
        self.cnn = cnn
        self.window = int(window)
        self.stride = int(stride)
        self.score_mode = score_mode
        self.method = method
        self.batch_size = int(batch_size)
        self.chunk_size = int(chunk_size)
        network = cnn.network
        gap_index = next(
            (i for i, step in enumerate(network.steps) if isinstance(step, GlobalAvgPool1d)),
            None,
        )
        if gap_index is None:
            raise ValueError("locator network must contain a GlobalAvgPool1d stage")
        self._trunk = Sequential(*network.steps[:gap_index])
        self._head = Sequential(*network.steps[gap_index + 1:])
        self._margin = _collect_kernel_extent(self._trunk)

    # ------------------------------------------------------------------ #

    def num_windows(self, trace_length: int) -> int:
        """Number of window positions the slicer produces for a trace."""
        if trace_length < self.window:
            return 0
        return (trace_length - self.window) // self.stride + 1

    def window_offsets(self, trace_length: int) -> np.ndarray:
        """Sample offset of each window position."""
        return np.arange(self.num_windows(trace_length), dtype=np.int64) * self.stride

    def score_trace(self, trace: np.ndarray) -> np.ndarray:
        """The ``swc`` signal: one score per window position.

        The caller is responsible for normalisation (the locator applies
        its profiling-calibrated affine transform before scoring).
        """
        trace = np.asarray(trace, dtype=np.float32)
        if trace.ndim != 1:
            raise ValueError(f"expected a 1D trace, got shape {trace.shape}")
        if self.num_windows(trace.size) == 0:
            return np.zeros(0, dtype=np.float64)
        if self.method == "windowed":
            return self._score_windowed(trace)
        return self._score_dense_batch([trace])[0]

    def score_batch(self, traces) -> "list[np.ndarray]":
        """Score several traces, reusing the dense trunk across the batch.

        The batch analogue of :meth:`score_trace`: chunk by chunk, the
        traces (which may have different lengths) whose chunk segments end
        at the same sample go through the convolutional trunk *together*,
        so the expensive convolutions amortise across the batch; each
        trace's window means then go through the FC head in one call per
        chunk.  A trace's segment is never zero-padded to another's length
        (past the first conv, padding is not zero), so every trace's scores
        match the single-trace computation up to FFT rounding.  With
        ``method="windowed"`` the traces are scored independently (that
        engine is per-window already).

        Returns one ``swc`` array per input trace.
        """
        traces = [np.asarray(t, dtype=np.float32) for t in traces]
        for trace in traces:
            if trace.ndim != 1:
                raise ValueError(f"expected 1D traces, got shape {trace.shape}")
        if not traces:
            return []
        if self.method == "windowed":
            return [self.score_trace(t) for t in traces]
        return self._score_dense_batch(traces)

    # ------------------------------------------------------------------ #

    def _score_dense_batch(self, traces: "list[np.ndarray]") -> "list[np.ndarray]":
        self.cnn.network.eval()
        counts = [self.num_windows(t.size) for t in traces]
        results = [np.empty(nw, dtype=np.float64) for nw in counts]
        max_windows = max(counts)
        if max_windows == 0:
            return results
        margin = self._margin
        offsets = np.arange(max_windows, dtype=np.int64) * self.stride
        chunk_windows = max(1, self.chunk_size // self.stride)
        for begin in range(0, max_windows, chunk_windows):
            batch_offsets = offsets[begin: begin + chunk_windows]
            span_start = int(batch_offsets[0])
            span_end = int(batch_offsets[-1]) + self.window
            ext_start = max(0, span_start - margin)
            # Traces share a trunk pass only where their segments end at
            # the same sample: zero padding past a trace's end is exact for
            # the first conv only, as biases and BatchNorm shifts make the
            # deeper layers' padding non-zero.
            groups: dict[int, list[int]] = {}
            for i, nw in enumerate(counts):
                if nw > begin:
                    groups.setdefault(min(traces[i].size, span_end + margin), []).append(i)
            pooled_parts = []
            spans = []
            for ext_end, rows in groups.items():
                segment = np.stack([traces[i][ext_start:ext_end] for i in rows])
                features = self._trunk.forward(segment[:, None, :])  # (R, C, len)
                csum = np.concatenate(
                    [np.zeros((features.shape[0], features.shape[1], 1), dtype=np.float64),
                     np.cumsum(features, axis=2, dtype=np.float64)],
                    axis=2,
                )
                for r, i in enumerate(rows):
                    here = min(counts[i], begin + batch_offsets.size) - begin
                    local = batch_offsets[:here] - ext_start
                    pooled = (csum[r][:, local + self.window]
                              - csum[r][:, local]).T / self.window
                    pooled_parts.append(pooled.astype(np.float32))
                    spans.append((i, here))
            logits = self._head.forward(np.concatenate(pooled_parts, axis=0))
            scores = scores_from_logits(logits, self.score_mode)
            cursor = 0
            for i, here in spans:
                results[i][begin: begin + here] = scores[cursor: cursor + here]
                cursor += here
        return results

    # ------------------------------------------------------------------ #

    def _score_windowed(self, trace: np.ndarray) -> np.ndarray:
        offsets = self.window_offsets(trace.size)
        scores = np.empty(offsets.size, dtype=np.float64)
        windows_view = np.lib.stride_tricks.sliding_window_view(trace, self.window)
        network = self.cnn.network.eval()
        size = self.batch_size
        begins = range(0, offsets.size, size)
        pending = iter(begins)
        lock = threading.Lock()

        def drain() -> None:
            while True:
                with lock:
                    begin = next(pending, None)
                if begin is None:
                    return
                batch = windows_view[offsets[begin: begin + size]][:, None, :]
                scores[begin: begin + size] = scores_from_logits(
                    network.forward(batch), self.score_mode
                )

        # The calling thread scores batches too: buffers freed on a pool
        # thread stay in that thread's malloc arena, while the caller's
        # are reused by whatever runs next (the dense engine, say).  The
        # pool lives for this call only, so a process forked later (a
        # shard worker) inherits no pool threads.
        helpers = min(_cpu_count(), len(begins)) - 1
        if helpers == 0:
            drain()
        else:
            with ThreadPoolExecutor(helpers) as pool:
                futures = [pool.submit(drain) for _ in range(helpers)]
                drain()
                for future in futures:
                    future.result()
        return scores
