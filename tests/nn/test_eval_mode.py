"""Eval-mode kernels: the FFT and direct convolutions against a brute-force
reference, the BatchNorm fold, and the state an eval forward leaves behind."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import build_locator_cnn
from repro.nn import (
    BatchNorm1d,
    Conv1d,
    GlobalAvgPool1d,
    Linear,
    ReLU,
    ResidualBlock1d,
    Sequential,
)
from repro.nn.layers import _BLOCK, _FFT_KERNEL_THRESHOLD


def brute_force(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                pad_left: int) -> np.ndarray:
    """"Same" cross-correlation in float64, straight from the definition."""
    k = weight.shape[2]
    padded = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad_left, k - 1 - pad_left)))
    cols = np.lib.stride_tricks.sliding_window_view(padded, k, axis=2)   # (B, C, N, K)
    return np.einsum("bcnk,ock->bon", cols, weight) + bias[None, :, None]


def randomise(bn: BatchNorm1d, rng: np.random.Generator) -> None:
    """Non-trivial running statistics and affine parameters."""
    bn.running_mean = rng.normal(0, 0.5, bn.channels).astype(np.float32)
    bn.running_var = rng.uniform(0.3, 3.0, bn.channels).astype(np.float32)
    bn.gamma.data[...] = rng.uniform(0.5, 2.0, bn.channels)
    bn.beta.data[...] = rng.normal(0, 0.3, bn.channels)


def eval_conv(kernel: int, cin: int = 3, cout: int = 4, seed: int = 5) -> Conv1d:
    conv = Conv1d(cin, cout, kernel, rng=np.random.default_rng(seed))
    conv.bias.data[...] = np.random.default_rng(seed + 1).normal(0, 1, cout)
    return conv.eval()


#: Odd and even kernels on both sides of the FFT threshold, the paper's
#: 64, and one longer than a block.
KERNELS = (1, 2, 5, _FFT_KERNEL_THRESHOLD, _FFT_KERNEL_THRESHOLD + 1, 31, 63, 64,
           _BLOCK + 77)
#: Shorter than most kernels, one block, and several overlap-save blocks.
LENGTHS = (7, 40, 3 * _BLOCK + 17)


class TestEvalConvolution:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_brute_force(self, kernel, n, rng):
        conv = eval_conv(kernel)
        x = rng.normal(0, 1, (2, 3, n)).astype(np.float32)
        y = conv.forward(x)
        assert y.shape == (2, 4, n) and y.dtype == np.float32
        ref = brute_force(x, conv.weight.data, conv.bias.data, conv.pad_left)
        np.testing.assert_allclose(y, ref, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("kernel", (5, 64))
    def test_matches_training_mode(self, kernel, rng):
        conv = eval_conv(kernel)
        x = rng.normal(0, 1, (3, 3, 200)).astype(np.float32)
        y_eval = conv.forward(x)
        np.testing.assert_allclose(conv.train().forward(x), y_eval, rtol=1e-4, atol=1e-4)

    def test_non_contiguous_input(self, rng):
        conv = eval_conv(63)
        x = rng.normal(0, 1, (2, 300, 3)).astype(np.float32).transpose(0, 2, 1)
        ref = brute_force(x, conv.weight.data, conv.bias.data, conv.pad_left)
        np.testing.assert_allclose(conv.forward(x), ref, rtol=1e-4, atol=1e-4)

    def test_blocks_do_not_leak_across_the_batch(self, rng):
        """Each row of a multi-block batch is scored on its own."""
        conv = eval_conv(64)
        x = rng.normal(0, 1, (3, 3, 2 * _BLOCK)).astype(np.float32)
        batched = conv.forward(x)
        for row in range(3):
            np.testing.assert_allclose(batched[row: row + 1], conv.forward(x[row: row + 1]),
                                       rtol=1e-5, atol=1e-5)


class TestBatchNormFold:
    @pytest.mark.parametrize("kernel", (1, 9, 63, 64))
    @pytest.mark.parametrize("n", (40, 2 * _BLOCK + 5))
    def test_folded_conv_matches_conv_then_norm(self, kernel, n, rng):
        conv = eval_conv(kernel)
        bn = BatchNorm1d(4)
        randomise(bn, rng)
        bn.eval()
        assert conv.folds(bn)
        x = rng.normal(0, 1, (2, 3, n)).astype(np.float32)
        conv_out = brute_force(x, conv.weight.data, conv.bias.data, conv.pad_left)
        scale = bn.gamma.data / np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
        ref = ((conv_out - bn.running_mean[None, :, None]) * scale[None, :, None]
               + bn.beta.data[None, :, None])
        np.testing.assert_allclose(conv.forward(x, fold=bn), ref, rtol=1e-4, atol=1e-4)

    def test_fold_is_decided_by_each_layer_flag(self):
        conv, bn = eval_conv(9, cout=2), BatchNorm1d(2)
        assert not conv.folds(bn)                 # the norm still trains
        bn.eval()
        assert conv.folds(bn)
        conv.train()
        assert not conv.folds(bn)
        assert not conv.eval().folds(ReLU().eval())

    @pytest.mark.parametrize("channels", (1, 3))
    def test_mismatched_norm_does_not_fold(self, channels, rng):
        """A norm over another channel count stays a separate step, so
        the pair still fails with BatchNorm1d's own error."""
        conv, bn = eval_conv(9, cout=4), BatchNorm1d(channels).eval()
        assert not conv.folds(bn)
        net = Sequential(conv, bn)
        with pytest.raises(ValueError, match="BatchNorm1d expects"):
            net.forward(rng.normal(0, 1, (2, 3, 20)).astype(np.float32))

    def test_training_conv_refuses_to_fold(self, rng):
        conv = Conv1d(1, 2, 3, rng=rng)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 1, 8), dtype=np.float32), fold=BatchNorm1d(2).eval())

    def test_training_container_with_eval_children_folds(self, rng):
        """A container made in training mode around eval children (as the
        dense engine builds its trunk) folds by the children's flags."""
        net = build_locator_cnn(kernel_size=63, rng=np.random.default_rng(2)).eval()
        wrapper = Sequential(*net.steps)
        assert wrapper.training
        x = rng.normal(0, 1, (2, 1, 300)).astype(np.float32)
        np.testing.assert_array_equal(wrapper.forward(x), net.forward(x))

    @pytest.mark.parametrize("kernel", (9, 63))
    def test_locator_cnn_matches_unfolded_layer_by_layer(self, kernel, rng):
        net = build_locator_cnn(kernel_size=kernel, rng=np.random.default_rng(3))
        for module in _modules(net):
            if isinstance(module, BatchNorm1d):
                randomise(module, rng)
            if isinstance(module, Conv1d):
                module.bias.data[...] = rng.normal(0, 0.3, module.out_channels)
        net.eval()
        x = rng.normal(0, 1, (4, 1, 464)).astype(np.float32)
        ref = _unfolded_forward(net, x)
        out = net.forward(x)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


def _modules(module):
    yield module
    for _, child in module.children():
        yield from _modules(child)


def _unfolded_forward(net: Sequential, x: np.ndarray) -> np.ndarray:
    """Eval forward one layer at a time, every BatchNorm on its own."""
    for step in net.steps:
        if isinstance(step, ResidualBlock1d):
            branch = step.relu1.forward(step.bn1.forward(step.conv1.forward(x)))
            branch = step.bn2.forward(step.conv2.forward(branch))
            shortcut = x
            if step.proj_conv is not None:
                shortcut = step.proj_bn.forward(step.proj_conv.forward(x))
            x = step.relu_out.forward(branch + shortcut)
        else:
            x = step.forward(x)
    return x


class TestEvalState:
    """An eval forward keeps nothing for backward, so backward must raise,
    also after a training forward had left its state behind."""

    @pytest.mark.parametrize("kernel", (3, 63))
    def test_conv_backward_after_eval_forward_raises(self, kernel, rng):
        conv = Conv1d(2, 3, kernel, rng=rng)
        x = rng.normal(0, 1, (2, 2, 30)).astype(np.float32)
        conv.forward(x)
        conv.eval().forward(x)
        with pytest.raises(RuntimeError):
            conv.backward(np.ones((2, 3, 30), dtype=np.float32))

    def test_relu_backward_after_eval_forward_raises(self, rng):
        relu = ReLU()
        x = rng.normal(0, 1, (2, 5)).astype(np.float32)
        relu.forward(x)
        relu.eval().forward(x)
        with pytest.raises(RuntimeError):
            relu.backward(np.ones((2, 5), dtype=np.float32))

    def test_linear_backward_after_eval_forward_raises(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = rng.normal(0, 1, (3, 4)).astype(np.float32)
        layer.forward(x)
        layer.eval().forward(x)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((3, 2), dtype=np.float32))

    def test_pool_backward_after_eval_forward_raises(self, rng):
        pool = GlobalAvgPool1d()
        x = rng.normal(0, 1, (2, 3, 7)).astype(np.float32)
        pool.forward(x)
        pool.eval().forward(x)
        with pytest.raises(RuntimeError):
            pool.backward(np.ones((2, 3), dtype=np.float32))

    def test_folded_norm_backward_raises(self, rng):
        conv, bn = Conv1d(1, 2, 63, rng=rng), BatchNorm1d(2)
        x = rng.normal(0, 1, (2, 1, 80)).astype(np.float32)
        bn.forward(conv.forward(x))
        conv.eval()
        bn.eval()
        conv.forward(x, fold=bn)
        with pytest.raises(RuntimeError):
            bn.backward(np.ones((2, 2, 80), dtype=np.float32))

    @pytest.mark.parametrize("training", (True, False))
    def test_relu_never_mutates_its_input(self, training, rng):
        relu = ReLU() if training else ReLU().eval()
        x = rng.normal(0, 1, (3, 4, 10)).astype(np.float32)
        before = x.copy()
        out = relu.forward(x)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(out, np.maximum(before, 0))

    def test_eval_network_holds_no_activations(self, rng):
        net = build_locator_cnn(kernel_size=63, rng=np.random.default_rng(4))
        x = rng.normal(0, 1, (2, 1, 200)).astype(np.float32)
        net.forward(x)                         # training: caches filled
        net.eval().forward(x)
        for module in _modules(net):
            for attr in ("_cache", "_mask", "_x", "_n"):
                assert getattr(module, attr, None) is None, (type(module).__name__, attr)
