"""The array kernel table under the measured hot loops.

The capture→accumulate spine spends nearly all of its time in a handful of
elementwise/scatter kernels: the Hamming-weight leakage model, the ADC
quantiser, the RD-window gather, and the fused pulse→FIR→quantise window
synthesis on the capture side, and the class-conditional scatter on the
accumulation side.  This package holds exactly those kernels in one
:class:`ArrayBackend` table, implemented in numpy by
:mod:`repro.backend.numpy_backend` — **bit-identical** to the historical
inline code (it *is* that code, moved verbatim).

Every call site looks the table up through :func:`get_backend` at call
time, so a test or the benchmark tracer can substitute kernels without
touching any calling code: save the module attribute ``_active``, assign a
modified copy (``dataclasses.replace(get_backend(), quantize=...)``), and
restore it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["ArrayBackend", "get_backend"]


@dataclass(frozen=True)
class ArrayBackend:
    """The kernel table the hot loops call.

    ``accumulate_class_stats(counts, class_sums, t, pts)``
        In-place scatter of a centred chunk into per-(byte, class) counts
        ``(b, 256)`` and sums ``(b, 256, m)``; ``t`` is ``(n, m)`` float64,
        ``pts`` is ``(n, b)`` uint8.
    ``hw_power(table, alpha, values, kinds)``
        ``pedestal[kind] + alpha * popcount(value)`` over uint64 values;
        returns float64 of the same shape.
    ``quantize(analog, lsb, max_code)``
        ADC clip + round to the code grid; returns float32 of the same
        shape.
    ``gather_delayed_windows(positions, values32, kinds32, dummy_values,
    dummy_kinds, dummy_bounds, los, widths)``
        Batched RD-window gather: materialise delayed-stream positions
        ``[los[b], los[b] + widths[b])`` of every trace in one pass.
        ``positions`` is the ``(B, n32)`` stack of per-trace
        ``DelayPlan.new_positions`` (each row sorted), ``values32`` the
        ``(B, n32)`` real op values with shared ``(n32,)`` kinds, and the
        ragged per-trace dummy streams travel concatenated with
        ``dummy_bounds`` ``(B+1,)`` row offsets.  Returns
        ``(win_values, win_kinds)`` of shape ``(B, max(widths))`` uint64 /
        uint8, short rows tail-padded by replicating their last element.
    ``synthesize_rows(power, widths, pulse, kernel, offsets, n_out,
    lengths, noise, lsb, max_code)``
        Fused window capture over a ``(B, W)`` power matrix: per-op pulse
        expansion, per-row sample-level edge replication past
        ``widths[b]`` ops, the band-limiting FIR (edge-padded, taps
        accumulated in ``np.convolve`` order), the ``n_out``-sample cut
        at per-row sample ``offsets``, optional pre-scaled float32
        ``noise`` addition, ADC quantisation, and zeroing beyond
        ``lengths[b]`` — one ``(B, n_out)`` float32 result, bit-identical
        to the historical unfused chain.
    """

    name: str
    accumulate_class_stats: Callable
    hw_power: Callable
    quantize: Callable
    gather_delayed_windows: Callable
    synthesize_rows: Callable


_active: ArrayBackend | None = None


def get_backend() -> ArrayBackend:
    """The active kernel table: the numpy kernels unless substituted."""
    global _active
    if _active is None:
        from repro.backend.numpy_backend import BACKEND
        _active = BACKEND
    return _active
