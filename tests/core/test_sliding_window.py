"""Sliding-window classifier: slicing math and dense/windowed agreement."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import sliding_window
from repro.core.model import LocatorCNN, build_locator_cnn
from repro.core.sliding_window import SlidingWindowClassifier


@pytest.fixture(scope="module")
def cnn():
    net = build_locator_cnn(kernel_size=9, rng=np.random.default_rng(0))
    # Freeze BN statistics on representative data so eval mode is sane.
    net.train()
    rng = np.random.default_rng(1)
    for _ in range(5):
        net.forward(rng.normal(0, 1, (16, 1, 64)).astype(np.float32))
    net.eval()
    return LocatorCNN(net)


def _random_stats_cnn() -> LocatorCNN:
    """Kernel 63 (the FFT path), randomised BN statistics and affine
    parameters.  The traces below span several overlap-save blocks."""
    net = build_locator_cnn(kernel_size=63, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    state = net.state_dict()
    for name, value in state.items():
        if name.endswith("running_mean") or name.endswith("beta"):
            state[name] = rng.normal(0, 0.3, value.shape).astype(np.float32)
        elif name.endswith("running_var") or name.endswith("gamma"):
            state[name] = rng.uniform(0.5, 2.0, value.shape).astype(np.float32)
    net.load_state_dict(state)
    net.eval()
    return LocatorCNN(net)


@pytest.fixture(scope="module")
def fft_cnn():
    return _random_stats_cnn()


class TestSlicing:
    def test_num_windows(self, cnn):
        classifier = SlidingWindowClassifier(cnn, window=64, stride=16)
        assert classifier.num_windows(64) == 1
        assert classifier.num_windows(65) == 1
        assert classifier.num_windows(80) == 2
        assert classifier.num_windows(63) == 0

    def test_window_offsets(self, cnn):
        classifier = SlidingWindowClassifier(cnn, window=64, stride=10)
        np.testing.assert_array_equal(classifier.window_offsets(100), [0, 10, 20, 30])

    def test_short_trace_gives_empty_swc(self, cnn, rng):
        classifier = SlidingWindowClassifier(cnn, window=64, stride=8)
        assert classifier.score_trace(rng.normal(0, 1, 32).astype(np.float32)).size == 0

    def test_rejects_bad_params(self, cnn):
        with pytest.raises(ValueError):
            SlidingWindowClassifier(cnn, window=4, stride=8)
        with pytest.raises(ValueError):
            SlidingWindowClassifier(cnn, window=64, stride=0)
        with pytest.raises(ValueError):
            SlidingWindowClassifier(cnn, window=64, stride=8, method="magic")


class TestEngines:
    @pytest.mark.parametrize("mode", ["margin", "class1", "prob"])
    def test_engines_exact_when_window_spans_trace(self, cnn, rng, mode):
        """With a single full-trace window there is no context difference,
        so the two engines must agree to float tolerance."""
        trace = rng.normal(0, 1, 64).astype(np.float32)
        windowed = SlidingWindowClassifier(cnn, 64, 16, score_mode=mode, method="windowed")
        dense = SlidingWindowClassifier(cnn, 64, 16, score_mode=mode, method="dense")
        np.testing.assert_allclose(
            windowed.score_trace(trace), dense.score_trace(trace), atol=1e-3
        )

    def test_windowed_and_dense_agree_statistically(self, cnn, rng):
        """At realistic window/kernel ratios the engines differ only at
        window borders (full-trace context vs per-window zero padding);
        the scores must stay strongly correlated."""
        trace = rng.normal(0, 1, 4000).astype(np.float32)
        windowed = SlidingWindowClassifier(cnn, 256, 32, method="windowed")
        dense = SlidingWindowClassifier(cnn, 256, 32, method="dense")
        sw = windowed.score_trace(trace)
        sd = dense.score_trace(trace)
        assert sw.shape == sd.shape
        corr = np.corrcoef(sw, sd)[0, 1]
        assert corr > 0.9

    def test_dense_chunking_invariant(self, cnn, rng):
        """Chunk size must not change the dense scores."""
        trace = rng.normal(0, 1, 2000).astype(np.float32)
        big = SlidingWindowClassifier(cnn, 64, 16, chunk_size=65_536)
        small = SlidingWindowClassifier(cnn, 64, 16, chunk_size=512)
        np.testing.assert_allclose(
            big.score_trace(trace), small.score_trace(trace), atol=1e-3
        )

    def test_swc_length_matches_num_windows(self, cnn, rng):
        trace = rng.normal(0, 1, 500).astype(np.float32)
        classifier = SlidingWindowClassifier(cnn, 64, 8)
        swc = classifier.score_trace(trace)
        assert swc.size == classifier.num_windows(500)

    def test_rejects_2d_trace(self, cnn):
        classifier = SlidingWindowClassifier(cnn, 64, 8)
        with pytest.raises(ValueError):
            classifier.score_trace(np.zeros((2, 100), dtype=np.float32))

    def test_network_without_gap_rejected(self, rng):
        from repro.nn import Linear, Sequential

        bogus = LocatorCNN.__new__(LocatorCNN)
        bogus.network = Sequential(Linear(4, 2, rng=rng))
        with pytest.raises(ValueError):
            SlidingWindowClassifier(bogus, window=64, stride=8)


class TestScoreBatch:
    def test_dense_batch_matches_single_traces(self, cnn, rng):
        """Batched trunk scoring agrees with per-trace dense scoring.

        A shorter trace is never zero-padded to a longer one's length
        (biases and BatchNorm shifts make the deeper layers' padding
        non-zero), so the only difference is FFT rounding and the
        tolerance is a small fraction of the score scale.
        """
        classifier = SlidingWindowClassifier(cnn, 128, 16, method="dense",
                                             chunk_size=1024)
        traces = [rng.normal(0, 1, n).astype(np.float32)
                  for n in (2000, 900, 100, 50, 3000)]
        batch = classifier.score_batch(traces)
        for trace, swc in zip(traces, batch):
            single = classifier.score_trace(trace)
            assert swc.shape == single.shape
            if single.size:
                np.testing.assert_allclose(swc, single, atol=1e-3)
                if single.size > 1 and np.std(single) > 1e-6:
                    assert np.corrcoef(swc, single)[0, 1] > 0.999

    def test_windowed_batch_matches_single_traces(self, cnn, rng):
        classifier = SlidingWindowClassifier(cnn, 64, 16, method="windowed")
        traces = [rng.normal(0, 1, n).astype(np.float32) for n in (500, 300)]
        batch = classifier.score_batch(traces)
        for trace, swc in zip(traces, batch):
            np.testing.assert_array_equal(swc, classifier.score_trace(trace))

    def test_empty_batch(self, cnn):
        classifier = SlidingWindowClassifier(cnn, 64, 16)
        assert classifier.score_batch([]) == []

    def test_all_short_traces(self, cnn, rng):
        classifier = SlidingWindowClassifier(cnn, 64, 16)
        batch = classifier.score_batch(
            [rng.normal(0, 1, 10).astype(np.float32) for _ in range(3)]
        )
        assert [swc.size for swc in batch] == [0, 0, 0]

    def test_rejects_2d_traces(self, cnn):
        classifier = SlidingWindowClassifier(cnn, 64, 16)
        with pytest.raises(ValueError):
            classifier.score_batch([np.zeros((2, 100), dtype=np.float32)])


class TestWindowedThreads:
    """The windowed engine scores its fixed batches on every CPU of the
    affinity mask; the scores must not depend on how many there are."""

    #: Windows of 64 samples every 4, in the default batches of 64: three
    #: full batches and a partial one of 17; two batches (fewer than the
    #: threads); one partial batch.
    WINDOW_COUNTS = (209, 100, 7)

    def _scores(self, cnn, trace, threads, monkeypatch, batch_size=64):
        monkeypatch.setattr(sliding_window, "_cpu_count", lambda: threads)
        classifier = SlidingWindowClassifier(cnn, 64, 4, method="windowed",
                                             batch_size=batch_size)
        return classifier.score_trace(trace)

    @pytest.mark.parametrize("windows", WINDOW_COUNTS)
    def test_scores_identical_for_any_thread_count(self, cnn, rng, windows,
                                                   monkeypatch):
        trace = rng.normal(0, 1, 64 + 4 * (windows - 1)).astype(np.float32)
        serial = self._scores(cnn, trace, 1, monkeypatch)
        assert serial.size == windows
        for threads in (2, 4):
            np.testing.assert_array_equal(
                self._scores(cnn, trace, threads, monkeypatch), serial)

    def test_threaded_scores_match_per_batch_forwards(self, cnn, rng, monkeypatch):
        """Each batch's scores are the network's own output on it."""
        trace = rng.normal(0, 1, 64 + 4 * 208).astype(np.float32)
        scores = self._scores(cnn, trace, 4, monkeypatch)
        windows = np.lib.stride_tricks.sliding_window_view(trace, 64)[::4]
        for begin in range(0, windows.shape[0], 64):
            logits = cnn.network.forward(
                np.ascontiguousarray(windows[begin: begin + 64, None, :]))
            np.testing.assert_array_equal(scores[begin: begin + 64],
                                          logits[:, 1] - logits[:, 0])

    def test_no_thread_outlives_the_call(self, cnn, rng, monkeypatch):
        trace = rng.normal(0, 1, 64 + 4 * 208).astype(np.float32)
        before = threading.active_count()
        self._scores(cnn, trace, 4, monkeypatch)
        assert threading.active_count() == before

    def test_many_threads_with_fast_switching(self, cnn, rng, monkeypatch):
        """Eight threads sharing 14 batches, switching every microsecond:
        every batch is scored exactly once."""
        trace = rng.normal(0, 1, 64 + 4 * 208).astype(np.float32)
        serial = self._scores(cnn, trace, 1, monkeypatch, batch_size=16)
        forward = cnn.network.forward
        sizes = []
        monkeypatch.setattr(cnn.network, "forward",
                            lambda x: sizes.append(x.shape[0]) or forward(x))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self._scores(cnn, trace, 8, monkeypatch, batch_size=16)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(threaded, serial)
        assert sorted(sizes) == [1] + [16] * 13

    def test_concurrent_eval_forwards_match_serial(self, cnn, rng):
        """Eval forwards keep no per-call state, so threads may share
        one network."""
        inputs = [rng.normal(0, 1, (8, 1, 64 + 16 * i)).astype(np.float32)
                  for i in range(8)]
        network = cnn.network.eval()
        serial = [network.forward(x) for x in inputs]
        start = threading.Barrier(4, timeout=60)

        def run(indices):
            start.wait()
            return [network.forward(inputs[i]) for i in indices for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(run, [range(i, 8, 4) for i in range(4)],
                                        timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for i, outputs in enumerate(results):
            expected = [serial[j] for j in range(i, 8, 4) for _ in range(3)]
            for got, want in zip(outputs, expected):
                np.testing.assert_array_equal(got, want)


class TestEnginesOnFftPath(TestEngines):
    """The engine tests on the kernel-63 network (the FFT conv path)."""

    @pytest.fixture
    def cnn(self, fft_cnn):
        return fft_cnn


class TestScoreBatchOnFftPath(TestScoreBatch):
    """The batch tests on the kernel-63 network (the FFT conv path)."""

    @pytest.fixture
    def cnn(self, fft_cnn):
        return fft_cnn


class TestWindowedThreadsOnFftPath(TestWindowedThreads):
    """The thread tests on the kernel-63 network (the FFT conv path)."""

    @pytest.fixture
    def cnn(self, fft_cnn):
        return fft_cnn
