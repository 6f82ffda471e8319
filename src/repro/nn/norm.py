"""Batch normalisation for (batch, channels, N) feature maps [19]."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["BatchNorm1d"]


class BatchNorm1d(Module):
    """Per-channel batch normalisation with running statistics.

    In training mode the statistics come from the batch (over the batch and
    temporal axes) and exponential running estimates are updated; in eval
    mode the running estimates are used, so single-window inference is
    deterministic.
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.channels = channels
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ValueError(f"BatchNorm1d expects (B, {self.channels}, N), got {x.shape}")
        x = np.asarray(x, dtype=np.float32)
        if self.training:
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        else:
            mean = self.running_mean
            var = self.running_var
            self._cache = None  # a stale training cache must not leak here
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None]) * inv_std[None, :, None]
        if self.training:
            self._cache = (x_hat, inv_std)
        return self.gamma.data[None, :, None] * x_hat + self.beta.data[None, :, None]

    def fold(self, weight: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(weight, bias)`` of the conv that this eval-mode layer
        normalises, with the normalisation folded in.

        Eval mode is the affine map ``y = s * (x - mean) + beta`` with
        ``s = gamma / sqrt(var + eps)``, so it becomes a conv with
        ``weight * s`` and ``(bias - mean) * s + beta``.
        """
        self._cache = None  # this stands for an eval forward (see forward)
        scale = self.gamma.data / np.sqrt(self.running_var.astype(np.float64) + self.eps)
        folded_weight = (weight * scale[:, None, None]).astype(np.float32)
        folded_bias = ((bias - self.running_mean) * scale + self.beta.data).astype(np.float32)
        return folded_weight, folded_bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (training mode)")
        x_hat, inv_std = self._cache
        grad = np.asarray(grad, dtype=np.float32)
        m = grad.shape[0] * grad.shape[2]
        self.gamma.grad += (grad * x_hat).sum(axis=(0, 2))
        self.beta.grad += grad.sum(axis=(0, 2))
        dx_hat = grad * self.gamma.data[None, :, None]
        sum_dx_hat = dx_hat.sum(axis=(0, 2), keepdims=True)
        sum_dx_hat_xhat = (dx_hat * x_hat).sum(axis=(0, 2), keepdims=True)
        dx = (inv_std[None, :, None] / m) * (
            m * dx_hat - sum_dx_hat - x_hat * sum_dx_hat_xhat
        )
        self._cache = None
        return dx
