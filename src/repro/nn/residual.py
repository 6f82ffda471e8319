"""Residual blocks of the paper's 1D ResNet (Figure 2, after [18]).

A block is two convolutional blocks (Conv1d + BatchNorm + ReLU, the second
without its ReLU) summed element-wise with a shortcut, then rectified.  When
the block changes the channel count (the paper's second residual block goes
16 -> 32 filters) the shortcut is a 1x1 convolution + BatchNorm projection,
exactly as in the original ResNet.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv1d, ReLU
from repro.nn.module import Module, forward_pair
from repro.nn.norm import BatchNorm1d

__all__ = ["ResidualBlock1d"]


class ResidualBlock1d(Module):
    """Two conv blocks plus a (possibly projected) identity shortcut."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.conv1 = Conv1d(in_channels, out_channels, kernel_size, rng=rng)
        self.bn1 = BatchNorm1d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv1d(out_channels, out_channels, kernel_size, rng=rng)
        self.bn2 = BatchNorm1d(out_channels)
        if in_channels != out_channels:
            self.proj_conv: Conv1d | None = Conv1d(in_channels, out_channels, 1, rng=rng)
            self.proj_bn: BatchNorm1d | None = BatchNorm1d(out_channels)
        else:
            self.proj_conv = None
            self.proj_bn = None
        self.relu_out = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        branch = self.relu1.forward(forward_pair(self.conv1, self.bn1, x))
        branch = forward_pair(self.conv2, self.bn2, branch)
        if self.proj_conv is not None:
            shortcut = forward_pair(self.proj_conv, self.proj_bn, x)
        else:
            shortcut = x
        return self.relu_out.forward(branch + shortcut)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.relu_out.backward(grad)
        # The sum node fans the gradient to both the branch and the shortcut.
        branch_grad = self.bn2.backward(grad)
        branch_grad = self.conv2.backward(branch_grad)
        branch_grad = self.relu1.backward(branch_grad)
        branch_grad = self.bn1.backward(branch_grad)
        dx = self.conv1.backward(branch_grad)
        if self.proj_conv is not None:
            dx = dx + self.proj_conv.backward(self.proj_bn.backward(grad))
        else:
            dx = dx + grad
        return dx
