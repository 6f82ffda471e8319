"""Core layers: 1D convolution, linear, ReLU, global average pooling.

The convolution is the performance-critical piece.  Training mode has two
equivalent implementations, selected by kernel size:

* **direct** (im2col + BLAS matmul) for small kernels, where the O(N·K)
  inner product is cheap and FFT bookkeeping would dominate;
* **FFT** (overlap-free circular convolution via ``scipy.fft`` with batched
  per-frequency matmuls) for the large kernels the paper uses (size 64).

Eval mode keeps no state for a backward pass: an eval forward sets
nothing on a layer but ``None``, so threads can share one eval network.
Small kernels run the direct path without its cache; large ones have
their own kernel, overlap-save FFT blocks of at most :data:`_BLOCK`
samples, so a window is one block and a long dense-engine chunk is many,
and the weight spectra stay block-sized.  An eval-mode ``BatchNorm1d``
that follows the conv is folded into its weight and bias
(:meth:`Conv1d.folds`).  On the repository benchmark's ``locate-rd4``
workload (2-CPU container, one BLAS thread, median of twelve runs) the
locator scores 21 k samples/s per CPU through its windowed engine and
330 k on one thread through its dense engine.

All paths share exact semantics — stride 1, "same" zero padding
``(p_l, p_r) = ((K-1)//2, K-1-(K-1)//2)`` — and the test suite checks them
against each other, against a brute-force reference and against
numerical gradients.  The backward identities used:

* ``dW[o,c,k] = sum_{b,n} x_pad[b,c,n+k] * dy[b,o,n]`` — a cross
  correlation of the padded input with the output gradient;
* ``dx = conv(dy, W)`` evaluated with mirrored padding ``(p_r, p_l)``.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as spfft

from repro.nn.module import Module, Parameter
from repro.nn.norm import BatchNorm1d

__all__ = ["Conv1d", "Linear", "ReLU", "GlobalAvgPool1d", "Flatten"]

#: Kernel sizes strictly above this use the FFT path.  Per-call time in
#: ms, direct/FFT, at the locator's shapes (one BLAS thread, 2-CPU
#: container, mean of two medians of 40 calls; training is forward plus
#: backward on 8 x 512 samples, eval a forward of 64 windows x 464):
#:
#:   k               3     5     9    12    13    17    31
#:   train 16->16  4/8   6/8   8/6  10/7   9/7  11/5  15/7
#:   train 32->32  6/20  8/22 11/20 13/19 14/21 22/20 36/17
#:   eval  16->16  7/9   9/11 13/11 15/9  14/8  17/9  35/9
#:   eval  32->32 19/21 20/21 31/20 41/22 43/24 54/22 81/27
#:
#: The crossover moves with mode and width, from k = 9 to k = 17, so no
#: single threshold wins on every row and 12 stays.  No locator layer has
#: 1 < k < 63.
_FFT_KERNEL_THRESHOLD = 12

#: Longest overlap-save block of the eval-mode FFT kernel.  Swept on the
#: dense engine (kernel 63, four RD-4 sessions batched, k samples/s):
#: 512 -> 280, 1024 -> 303, 2048 -> 285, 4096 -> 298, 8192 -> 259.  512
#: would also split a 464-sample window into two blocks, halving the
#: windowed engine's throughput.
_BLOCK = 1024


def _he_std(fan_in: int) -> float:
    return float(np.sqrt(2.0 / fan_in))


def _correlate_fft(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   pad_left: int) -> np.ndarray:
    """Eval-mode "same" correlation plus bias by overlap-save FFT blocks.

    Blocks are ``min(next_fast_len(n + k - 1), _BLOCK)`` long (at least
    ``2k``, for kernels near the block size) and each yields
    ``length - k + 1`` outputs.  When the whole input fits one
    block, the zero tail ``rfft`` appends wraps round to act as the left
    padding, so the taps carry the "same" shift and ``x`` is transformed
    as it is.
    """
    b, c, n = x.shape
    o, _, k = weight.shape
    length = min(spfft.next_fast_len(n + k - 1), max(_BLOCK, spfft.next_fast_len(2 * k)))
    taps = np.zeros((o, c, length), dtype=np.float32)
    if n + k - 1 <= length:
        frames, count, step = x[:, :, None, :], 1, n
        taps[:, :, :k - pad_left] = weight[:, :, pad_left:]
        taps[:, :, length - pad_left:] = weight[:, :, :pad_left]
    else:
        step = length - k + 1
        count = -(-n // step)
        padded = np.zeros((b, c, (count - 1) * step + length), dtype=np.float32)
        padded[:, :, pad_left:pad_left + n] = x
        frames = np.lib.stride_tricks.sliding_window_view(padded, length, axis=2)[:, :, ::step]
        taps[:, :, :k] = weight
    wf = np.ascontiguousarray(np.conj(spfft.rfft(taps, axis=2)).transpose(2, 1, 0))
    xf = spfft.rfft(frames, length, axis=3)                          # (B, C, count, F)
    bins = xf.shape[3]
    # Each spectrum is dropped once used: the dense engine's chunk spectra
    # set its peak memory, and each windowed-engine thread holds its own.
    yf = np.matmul(xf.transpose(3, 0, 2, 1).reshape(bins, b * count, c), wf)
    del xf
    blocks = spfft.irfft(yf.reshape(bins, b, count, o).transpose(1, 3, 2, 0),
                         length, axis=3)                             # (B, O, count, length)
    del yf
    y = np.empty((b, o, count, step), dtype=np.float32)
    np.add(blocks[..., :step], bias[None, :, None, None], out=y)
    return y.reshape(b, o, count * step)[:, :, :n]


class Conv1d(Module):
    """1D convolution with stride 1 and "same" zero padding.

    Matches the paper's convolutional layers: arbitrary kernel size, stride
    1, zero padding chosen to keep the temporal length ``N`` unchanged
    (Section III-B).  Input/output layout is ``(batch, channels, N)``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        std = _he_std(in_channels * kernel_size)
        self.weight = Parameter(rng.normal(0.0, std, (out_channels, in_channels, kernel_size)))
        self.bias = Parameter(np.zeros(out_channels))
        self.pad_left = (kernel_size - 1) // 2
        self.pad_right = kernel_size - 1 - self.pad_left
        self._cache: tuple | None = None

    # -- public interface -------------------------------------------------- #

    def forward(self, x: np.ndarray, fold: BatchNorm1d | None = None) -> np.ndarray:
        """Convolve ``x``; with ``fold`` (see :meth:`folds`), also normalise."""
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(f"Conv1d expects (B, {self.in_channels}, N), got {x.shape}")
        if not self.training:
            return self._forward_eval(np.asarray(x, dtype=np.float32), fold)
        if fold is not None:
            raise ValueError("a training-mode Conv1d cannot fold a BatchNorm1d")
        x = np.ascontiguousarray(x, dtype=np.float32)
        if self.kernel_size > _FFT_KERNEL_THRESHOLD:
            y = self._forward_fft(x)
        else:
            y, cols2d = self._forward_direct(x, self.weight.data)
            self._cache = ("direct", cols2d, x.shape)
        return y + self.bias.data[None, :, None]

    def folds(self, following: Module) -> bool:
        """Whether ``forward(x, fold=following)`` can stand for
        ``following.forward(self.forward(x))``: both layers in eval mode
        and ``following`` a ``BatchNorm1d`` over this conv's output
        channels, which is exactly affine then.  A mismatched pair does
        not fold, so ``following`` still rejects the shape."""
        return (isinstance(following, BatchNorm1d)
                and following.channels == self.out_channels
                and not self.training and not following.training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = np.ascontiguousarray(grad, dtype=np.float32)
        self.bias.grad += grad.sum(axis=(0, 2))
        mode = self._cache[0]
        if mode == "fft":
            dx = self._backward_fft(grad)
        else:
            dx = self._backward_direct(grad)
        self._cache = None
        return dx

    # -- eval mode ---------------------------------------------------------- #

    def _forward_eval(self, x: np.ndarray, fold: BatchNorm1d | None) -> np.ndarray:
        self._cache = None
        weight, bias = self.weight.data, self.bias.data
        if fold is not None:
            weight, bias = fold.fold(weight, bias)
        if self.kernel_size > _FFT_KERNEL_THRESHOLD:
            return _correlate_fft(x, weight, bias, self.pad_left)
        y, _ = self._forward_direct(x, weight)
        y += bias[None, :, None]
        return y

    # -- direct (im2col) path ---------------------------------------------- #

    def _forward_direct(self, x: np.ndarray,
                        weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The correlation and its im2col matrix (the training cache)."""
        b, c, n = x.shape
        k = self.kernel_size
        padded = np.pad(x, ((0, 0), (0, 0), (self.pad_left, self.pad_right)))
        cols = np.lib.stride_tricks.sliding_window_view(padded, k, axis=2)
        cols2d = np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(b * n, c * k)
        w2d = weight.reshape(self.out_channels, c * k)
        y = (cols2d @ w2d.T).reshape(b, n, self.out_channels).transpose(0, 2, 1)
        return y, cols2d

    def _backward_direct(self, grad: np.ndarray) -> np.ndarray:
        _, cols2d, (b, c, n) = self._cache
        k = self.kernel_size
        o = self.out_channels
        g2d = np.ascontiguousarray(grad.transpose(0, 2, 1)).reshape(b * n, o)
        self.weight.grad += (g2d.T @ cols2d).reshape(o, c, k)
        grad_padded = np.pad(grad, ((0, 0), (0, 0), (self.pad_right, self.pad_left)))
        gcols = np.lib.stride_tricks.sliding_window_view(grad_padded, k, axis=2)
        gcols2d = np.ascontiguousarray(gcols.transpose(0, 2, 1, 3)).reshape(b * n, o * k)
        w_flip = np.ascontiguousarray(
            self.weight.data[:, :, ::-1].transpose(0, 2, 1)
        ).reshape(o * k, c)
        return (gcols2d @ w_flip).reshape(b, n, c).transpose(0, 2, 1)

    # -- FFT path ------------------------------------------------------------ #

    def _forward_fft(self, x: np.ndarray) -> np.ndarray:
        b, c, n = x.shape
        k = self.kernel_size
        length = spfft.next_fast_len(n + 2 * k - 2)
        x_pad = np.pad(x, ((0, 0), (0, 0), (self.pad_left, self.pad_right)))
        xf = spfft.rfft(x_pad, length, axis=2)                                  # (B, C, F)
        w_rev_f = spfft.rfft(self.weight.data[:, :, ::-1], length, axis=2)
        yf = np.matmul(xf.transpose(2, 0, 1), w_rev_f.transpose(2, 1, 0))       # (F, B, O)
        y_full = spfft.irfft(np.ascontiguousarray(yf.transpose(1, 2, 0)), length, axis=2)
        self._cache = ("fft", xf, (b, c, n), length)
        return y_full[:, :, k - 1: k - 1 + n]

    def _backward_fft(self, grad: np.ndarray) -> np.ndarray:
        _, xf, (b, c, n), length = self._cache
        k = self.kernel_size
        gf = spfft.rfft(grad, length, axis=2)                                   # (B, O, F)
        # dW: cross-correlation of padded input with the output gradient.
        dwf = np.matmul(xf.transpose(2, 1, 0), np.conj(gf).transpose(2, 0, 1))  # (F, C, O)
        dw_full = spfft.irfft(np.ascontiguousarray(dwf.transpose(1, 2, 0)), length, axis=2)
        self.weight.grad += dw_full[:, :, :k].transpose(1, 0, 2)
        # dx: convolution of the output gradient with the (unflipped) kernel.
        wf = spfft.rfft(self.weight.data, length, axis=2)                       # (O, C, F)
        dxf = np.matmul(gf.transpose(2, 0, 1), wf.transpose(2, 0, 1))           # (F, B, C)
        dx_full = spfft.irfft(np.ascontiguousarray(dxf.transpose(1, 2, 0)), length, axis=2)
        return dx_full[:, :, self.pad_left: self.pad_left + n]


class Linear(Module):
    """Fully connected layer ``y = x W^T + b`` on ``(batch, features)``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(rng.normal(0.0, _he_std(in_features), (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"Linear expects (B, {self.in_features}), got {x.shape}")
        x = np.asarray(x, dtype=np.float32)
        self._x = x if self.training else None
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad, dtype=np.float32)
        self.weight.grad += grad.T @ self._x
        self.bias.grad += grad.sum(axis=0)
        dx = grad @ self.weight.data
        self._x = None
        return dx


class ReLU(Module):
    """Elementwise rectifier; masks the gradient where the input was <= 0.

    Eval mode keeps no mask.  Neither mode writes into its input.
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            self._mask = None
            return np.maximum(x, np.float32(0))
        self._mask = x > 0
        return np.where(self._mask, x, np.float32(0))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        dx = np.where(self._mask, grad, np.float32(0))
        self._mask = None
        return dx


class GlobalAvgPool1d(Module):
    """Average over the temporal axis: ``(B, C, N) -> (B, C)``.

    This is the layer that makes the paper's network length-agnostic —
    training with ``N_train`` and inferring with a different ``N_inf``
    (Section IV-B) works because the pooled feature size is ``C`` only.
    """

    def __init__(self) -> None:
        super().__init__()
        self._n: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"GlobalAvgPool1d expects (B, C, N), got {x.shape}")
        self._n = x.shape[2] if self.training else None
        return x.mean(axis=2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._n is None:
            raise RuntimeError("backward called before forward")
        dx = np.repeat(grad[:, :, None] / self._n, self._n, axis=2)
        self._n = None
        return dx


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        dx = grad.reshape(self._shape)
        self._shape = None
        return dx
