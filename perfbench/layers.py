"""Which public calls of each layer the traced run wraps, and how the
spans and counts become the per-layer metrics.

Names are wrapped where the caller looks them up: ``repro.core.locator``
imports ``build_window_dataset`` and ``segment_regions`` by name, and
``ParallelCampaign`` reaches ``run_shard`` and the imported
``evaluate_checkpoint`` through ``repro.runtime.parallel``'s globals, so
those are patched on the calling module.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from perfbench.tracer import Tracer

LAYERS = (
    "nn",
    "core.dataset",
    "core.locator",
    "core.sliding_window",
    "core.segmentation",
    "soc",
    "backend",
    "campaign.store",
    "attacks.distinguishers",
    "runtime",
)

_NN_MODES = ("Conv1d", "BatchNorm1d", "ReLU", "Linear")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: dict[str, str] = {}
for _cls in _NN_MODES:
    PER_LAYER[f"nn.{_cls}.forward.train_s"] = "s"
    PER_LAYER[f"nn.{_cls}.forward.eval_s"] = "s"
    PER_LAYER[f"nn.{_cls}.backward_s"] = "s"
PER_LAYER.update({
    "nn.GlobalAvgPool1d.forward_s": "s",
    "nn.ResidualBlock1d.self_s": "s",
    "nn.Conv1d.calls": "count",
    "nn.Conv1d.elements": "count",
    "nn.Adam.step_s": "s",
    "nn.SoftmaxCrossEntropy_s": "s",
    "nn.Trainer.epoch_s": "s",
    "nn.Trainer.evaluate_s": "s",
    "core.dataset.build_window_dataset_s": "s",
    "core.dataset.windows": "count",
    "core.locator.fit_s": "s",
    "core.locator.calibrate_bias_s": "s",
    "core.sliding_window.score_trace_s": "s",
    "core.sliding_window.score_batch_s": "s",
    "core.sliding_window.windows": "count",
    "core.segmentation.segment_regions_s": "s",
    "core.segmentation.regions": "count",
    "soc.capture_s": "s",
    "soc.samples": "count",
    "backend.synthesize_rows_s": "s",
    "backend.gather_delayed_windows_s": "s",
    "backend.calls": "count",
    "campaign.store.append_s": "s",
    "campaign.store.mb_written": "MB",
    "campaign.store.iter_chunks_s": "s",
    "campaign.store.verify_s": "s",
    "attacks.distinguishers.update_s": "s",
    "attacks.distinguishers.update_traces": "count",
    "attacks.distinguishers.merge_s": "s",
    "attacks.distinguishers.key_ranks_s": "s",
    "attacks.checkpoints": "count",
    "runtime.run_s": "s",
    "runtime.shards": "count",
    "runtime.retries": "count",
    "runtime.failed_shards": "count",
    "runtime.resumed_traces": "count",
    "runtime.worker_capture_s": "s",
    "runtime.parent_attack_s": "s",
    "runtime.worker_busy_ratio": "ratio",
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.layers_self_s": "s",
    "trace.remainder_s": "s",
})


def _mode(prefix: str):
    return lambda args: f"{prefix}.{'train' if args[0].training else 'eval'}"


def _samples(result) -> int:
    """Trace samples in whatever a platform capture method returned."""
    if isinstance(result, np.ndarray):         # noise trace
        return int(result.size)
    if isinstance(result, tuple):              # (traces, plaintexts)
        return int(np.asarray(result[0]).size)
    if isinstance(result, list):               # list[CipherTrace]
        return sum(int(c.trace.size) for c in result)
    return int(result.trace.size)              # SessionTrace


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public calls; ``tracer.restore()`` undoes it."""
    import repro.backend
    import repro.core.locator as locator_mod
    import repro.runtime.parallel as parallel_mod
    from repro.attacks.distinguishers.base import SufficientStatisticDistinguisher
    from repro.attacks.distinguishers.class_conditional import (
        ClassConditionalDistinguisher,
    )
    from repro.campaign.store import TraceStore
    from repro.core.sliding_window import SlidingWindowClassifier
    from repro.nn import (
        Adam, BatchNorm1d, Conv1d, GlobalAvgPool1d, Linear, ReLU,
        ResidualBlock1d, SoftmaxCrossEntropy, Trainer,
    )
    from repro.runtime.campaign import PlatformSegmentSource
    from repro.soc.platform import SimulatedPlatform

    wrap = tracer.wrap

    # nn: layer forward by mode, backward, optimiser, loss, trainer.
    def conv_counter(t, args, kwargs, result):
        t.count("nn.Conv1d.calls")
        t.count("nn.Conv1d.elements", np.asarray(args[1]).size)

    for cls in (Conv1d, BatchNorm1d, ReLU, Linear):
        name = f"nn.{cls.__name__}"
        wrap(cls, "forward", "nn", _mode(f"{name}.forward"),
             conv_counter if cls is Conv1d else None)
        wrap(cls, "backward", "nn", f"{name}.backward")
    wrap(GlobalAvgPool1d, "forward", "nn", "nn.GlobalAvgPool1d.forward")
    wrap(ResidualBlock1d, "forward", "nn", "nn.ResidualBlock1d.forward")
    wrap(ResidualBlock1d, "backward", "nn", "nn.ResidualBlock1d.backward")
    wrap(Adam, "step", "nn", "nn.Adam.step")
    wrap(SoftmaxCrossEntropy, "forward", "nn", "nn.SoftmaxCrossEntropy.forward")
    wrap(SoftmaxCrossEntropy, "backward", "nn", "nn.SoftmaxCrossEntropy.backward")
    wrap(Trainer, "fit", "nn", "nn.Trainer.fit",
         lambda t, a, k, history: t.count("nn.Trainer.epochs",
                                          len(history.train_loss)))
    wrap(Trainer, "evaluate", "nn", "nn.Trainer.evaluate")

    # core: dataset, locator training steps, scoring engines, segmentation.
    wrap(locator_mod, "build_window_dataset", "core.dataset",
         "core.dataset.build_window_dataset",
         lambda t, a, k, dataset: t.count("core.dataset.windows", len(dataset)))
    wrap(locator_mod.CryptoLocator, "fit", "core.locator", "core.locator.fit")
    wrap(locator_mod.CryptoLocator, "calibrate_bias", "core.locator",
         "core.locator.calibrate_bias")
    wrap(SlidingWindowClassifier, "score_trace", "core.sliding_window",
         "core.sliding_window.score_trace",
         lambda t, a, k, swc: t.count("core.sliding_window.windows", swc.size))

    def batch_windows(t, args, kwargs, swcs):
        # The windowed engine's score_batch delegates to score_trace,
        # which already counted its windows.
        if args[0].method == "dense":
            t.count("core.sliding_window.windows", sum(s.size for s in swcs))

    wrap(SlidingWindowClassifier, "score_batch", "core.sliding_window",
         "core.sliding_window.score_batch", batch_windows)
    wrap(locator_mod, "segment_regions", "core.segmentation",
         "core.segmentation.segment_regions",
         lambda t, a, k, regions: t.count("core.segmentation.regions",
                                          len(regions)))

    # soc: every platform capture path, counted once at the outermost call.
    def count_samples(t, args, kwargs, result):
        t.count("soc.samples", _samples(result))

    for method in ("capture_cipher_traces", "capture_noise_trace",
                   "capture_session_trace", "capture_attack_segments"):
        wrap(SimulatedPlatform, method, "soc", "soc.capture", count_samples)
    wrap(PlatformSegmentSource, "capture", "soc", "soc.capture", count_samples)

    # backend: the kernel table is a frozen dataclass, so trace a copy.
    backend = repro.backend.get_backend()
    kernels = {
        kernel: tracer.traced(getattr(backend, kernel), "backend",
                              f"backend.{kernel}",
                              lambda t, a, k, r: t.count("backend.calls"))
        for kernel in ("synthesize_rows", "gather_delayed_windows")
    }
    tracer.replace(repro.backend, "_active",
                   dataclasses.replace(backend, **kernels))

    # campaign.store
    def bytes_written(t, args, kwargs, total):
        store, traces, plaintexts = args[0], args[1], args[2]
        size = np.asarray(traces).size * store.dtype.itemsize
        t.count("campaign.store.mb_written",
                (size + np.asarray(plaintexts).size) / 1e6)

    wrap(TraceStore, "append", "campaign.store", "campaign.store.append",
         bytes_written)
    wrap(TraceStore, "iter_chunks", "campaign.store", "campaign.store.iter_chunks")
    wrap(TraceStore, "verify", "campaign.store", "campaign.store.verify")

    # attacks.distinguishers (merge is overridden by the class-conditional
    # family, which calls up to the base; same span name, counted once).
    wrap(SufficientStatisticDistinguisher, "update", "attacks.distinguishers",
         "attacks.distinguishers.update",
         lambda t, a, k, r: t.count("attacks.distinguishers.update_traces",
                                    len(a[1])))
    for cls in (SufficientStatisticDistinguisher, ClassConditionalDistinguisher):
        wrap(cls, "merge", "attacks.distinguishers",
             "attacks.distinguishers.merge")
    wrap(SufficientStatisticDistinguisher, "key_ranks", "attacks.distinguishers",
         "attacks.distinguishers.key_ranks")

    # runtime: the orchestrator, its shard task and its checkpoint step.
    wrap(parallel_mod.ParallelCampaign, "run", "runtime", "runtime.run")
    wrap(parallel_mod, "run_shard", "runtime", "runtime.run_shard",
         lambda t, a, k, r: t.count("runtime.shards"))
    wrap(parallel_mod, "evaluate_checkpoint", "runtime",
         "runtime.evaluate_checkpoint",
         lambda t, a, k, r: t.count("attacks.checkpoints"))


def per_layer_metrics(tracer: Tracer, runtime: dict[str, float],
                      untraced_wall: float, traced_wall: float) -> dict[str, float]:
    """Fold the traced phase's spans and counts into :data:`PER_LAYER`.

    ``runtime`` carries the ``runtime.*`` figures read off an untraced
    pool run's ``CampaignResult`` (pool workers are separate processes the
    tracer cannot see); ``runtime.shards`` comes from the traced phase.
    """
    s = tracer.seconds
    values: dict[str, float] = {}
    for cls in _NN_MODES:
        for mode in ("train", "eval"):
            values[f"nn.{cls}.forward.{mode}_s"] = s(f"nn.{cls}.forward.{mode}")
        values[f"nn.{cls}.backward_s"] = s(f"nn.{cls}.backward")
    epochs = tracer.counts.get("nn.Trainer.epochs", 0)
    values.update({
        "nn.GlobalAvgPool1d.forward_s": s("nn.GlobalAvgPool1d.forward"),
        "nn.ResidualBlock1d.self_s": (
            tracer.self_seconds("nn.ResidualBlock1d.forward")
            + tracer.self_seconds("nn.ResidualBlock1d.backward")),
        "nn.Adam.step_s": s("nn.Adam.step"),
        "nn.SoftmaxCrossEntropy_s": (s("nn.SoftmaxCrossEntropy.forward")
                                     + s("nn.SoftmaxCrossEntropy.backward")),
        "nn.Trainer.epoch_s": s("nn.Trainer.fit") / epochs if epochs else 0.0,
        "nn.Trainer.evaluate_s": s("nn.Trainer.evaluate"),
    })
    for name in ("core.dataset.build_window_dataset", "core.locator.fit",
                 "core.locator.calibrate_bias",
                 "core.sliding_window.score_trace",
                 "core.sliding_window.score_batch",
                 "core.segmentation.segment_regions",
                 "backend.synthesize_rows", "backend.gather_delayed_windows",
                 "campaign.store.append", "campaign.store.iter_chunks",
                 "campaign.store.verify", "attacks.distinguishers.update",
                 "attacks.distinguishers.merge",
                 "attacks.distinguishers.key_ranks"):
        values[f"{name}_s"] = s(name)
    values["soc.capture_s"] = s("soc.capture")
    for name, unit in PER_LAYER.items():
        if unit in ("count", "MB") and name in tracer.counts:
            values[name] = float(tracer.counts[name])
    values.update(runtime)
    layer_self = tracer.layer_self_seconds()
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    covered = sum(layer_self.values())
    values.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.layers_self_s": covered,
        "trace.remainder_s": traced_wall - covered,
    })
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
