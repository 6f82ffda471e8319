"""The batched capture→locate→attack experiment engine.

:class:`ExperimentEngine` executes a :class:`~repro.runtime.plan.BatchPlan`
end to end on top of the repository's batched primitives:

* **profiling / training** — one locator per (cipher, RD, SNR) condition,
  profiled through the platform's batched capture path and cached for the
  engine's lifetime (an injectable ``locator_provider`` lets benchmarks
  reuse their own cache);
* **capture** — one attack session per scenario via the batched
  ``capture_session_trace``;
* **locate** — all of a condition's sessions scored together through
  :meth:`CryptoLocator.locate_many` in ``batch_size`` chunks;
* **attack** — optionally, the Section IV-C CPA on each located session.

Every step is deterministic given the plan and the engine seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import PipelineConfig, default_config
from repro.core.locator import CryptoLocator
from repro.evaluation.experiments import (
    default_tolerance,
    run_cpa_scenario,
    train_locator,
)
from repro.evaluation.hits import HitStats, match_hits
from repro.soc.platform import SessionTrace, SimulatedPlatform
from repro.runtime.campaign import AttackCampaign, CampaignResult, PlatformSegmentSource
from repro.runtime.parallel import ParallelCampaign, PlatformCampaignSpec
from repro.runtime.plan import BatchPlan, ScenarioSpec
from repro.runtime.retry import run_shards
from repro.soc.platform import PlatformSpec

__all__ = ["ExperimentEngine", "ScenarioResult"]


def _ge_repetition(
    platform_spec: PlatformSpec,
    seed: int,
    segment_length: int | None,
    batch_size: int | None,
    ladder: "list[int]",
    aggregate: int,
    distinguisher,
    max_traces: int,
):
    """One guessing-entropy repetition, self-contained for pool workers.

    Rebuilds the repetition's platform from the picklable recipe (the key
    is drawn from the platform's seeded stream, exactly as the serial
    loop draws it), runs the full-ladder campaign with early stopping
    disabled, and ships the checkpoint records back.
    """
    source = PlatformSegmentSource(
        platform_spec.build(seed),
        segment_length=segment_length,
        batch_size=batch_size,
    )
    campaign = AttackCampaign(
        source,
        aggregate=aggregate,
        checkpoints=ladder,
        rank1_patience=len(ladder) + 1,
        batch_size=batch_size if batch_size is not None else 256,
        distinguisher=distinguisher,
    )
    return campaign.run(max_traces).records


@dataclass
class ScenarioResult:
    """Everything the engine measured for one scenario."""

    spec: ScenarioSpec
    stats: HitStats
    located: np.ndarray
    session: SessionTrace
    capture_seconds: float
    locate_seconds: float
    cpa_traces: int | None = None   # traces-to-rank-1, None = not run / failed
    extras: dict = field(default_factory=dict)

    def row(self) -> list[str]:
        """A formatted table row (scenario, hits, FPs, |err|, CPA)."""
        return [
            self.spec.describe(),
            f"{self.stats.hit_rate * 100:5.1f}%",
            str(self.stats.false_positives),
            f"{self.stats.mean_abs_error:.0f}",
            "-" if self.cpa_traces is None else str(self.cpa_traces),
        ]

    @staticmethod
    def header() -> list[str]:
        return ["scenario", "hits", "false pos", "mean |err|", "CPA (N. COs)"]


class ExperimentEngine:
    """Sweeps scenario plans through the shared batched pipeline.

    Parameters
    ----------
    dataset_scale:
        Table-I dataset scale for locator training (see
        :func:`repro.config.default_config`).
    seed:
        Engine seed: clone platforms and locator initialisation derive from
        it; target platforms use each scenario's own seed.
    locator_provider:
        Optional ``(cipher, max_delay, noise_std) -> CryptoLocator``
        override.  Benchmarks inject their session-wide locator cache here;
        by default the engine trains with
        :func:`repro.evaluation.experiments.train_locator` and caches per
        condition.
    method:
        Sliding-window engine for location: ``"windowed"`` (training
        faithful, default) or ``"dense"`` (fast batched trunk).
    train_noise_ops, config_overrides:
        Training knobs forwarded to the default provider.
    capture_mode:
        Capture path for every platform the engine builds: ``"exact"``
        (bit-identical to the scalar reference, default) or ``"fast"``
        (bulk randomness — see
        :class:`~repro.soc.platform.SimulatedPlatform`).
    """

    def __init__(
        self,
        dataset_scale: float = 1 / 64,
        seed: int = 0,
        locator_provider=None,
        method: str = "windowed",
        train_noise_ops: int = 60_000,
        config_overrides: "dict[str, PipelineConfig] | None" = None,
        verbose: bool = False,
        capture_mode: str = "exact",
    ) -> None:
        self.dataset_scale = float(dataset_scale)
        self.seed = int(seed)
        self.method = method
        self.train_noise_ops = int(train_noise_ops)
        self.config_overrides = dict(config_overrides or {})
        self.verbose = verbose
        self.capture_mode = capture_mode
        self._provider = locator_provider
        self._locators: dict[tuple[str, int, float], CryptoLocator] = {}

    # ------------------------------------------------------------------ #
    # locator management                                                 #
    # ------------------------------------------------------------------ #

    def locator_for(self, cipher: str, max_delay: int, noise_std: float = 1.0,
                    batch_size: int | None = None) -> CryptoLocator:
        """The (cached) trained locator for one condition.

        ``batch_size`` bounds the profiling-capture batches during
        training; it does not change the trained locator (captures are
        chunking-invariant), so it is not part of the cache key.
        """
        key = (cipher, int(max_delay), float(noise_std))
        locator = self._locators.get(key)
        if locator is None:
            if self._provider is not None:
                locator = self._provider(cipher, int(max_delay), float(noise_std))
            else:
                locator = self._train(cipher, int(max_delay), float(noise_std),
                                      batch_size)
            self._locators[key] = locator
        return locator

    def _train(self, cipher: str, max_delay: int, noise_std: float,
               batch_size: int | None = None) -> CryptoLocator:
        config = self.config_overrides.get(
            cipher, default_config(cipher, self.dataset_scale)
        )
        if self.verbose:
            print(f"[engine] training {cipher} RD-{max_delay} "
                  f"sigma={noise_std:g} locator ...")
        if noise_std == 1.0:
            locator, _ = train_locator(
                cipher, max_delay=max_delay, seed=self.seed, config=config,
                noise_ops=self.train_noise_ops, batch_size=batch_size,
            )
            return locator
        clone = self.platform_for(
            ScenarioSpec(cipher=cipher, max_delay=max_delay,
                         noise_std=noise_std, seed=self.seed),
            clone=True,
        )
        locator = CryptoLocator(config, seed=self.seed + 1)
        locator.fit_from_platform(clone, noise_ops=self.train_noise_ops,
                                  batch_size=batch_size)
        return locator

    # ------------------------------------------------------------------ #
    # capture / locate / attack                                          #
    # ------------------------------------------------------------------ #

    def platform_spec_for(self, spec: ScenarioSpec) -> PlatformSpec:
        """The platform recipe (countermeasures included) for a scenario."""
        return PlatformSpec(
            cipher_name=spec.cipher,
            max_delay=spec.max_delay,
            noise_std=spec.noise_std,
            capture_mode=self.capture_mode,
            shuffle=spec.shuffle,
            jitter=spec.jitter,
            masking_order=spec.masking_order,
        )

    def platform_for(self, spec: ScenarioSpec, clone: bool = False) -> SimulatedPlatform:
        """Build the (clone or target) platform for a scenario."""
        return self.platform_spec_for(spec).build(
            self.seed if clone else spec.seed
        )

    def capture_session(self, spec: ScenarioSpec) -> SessionTrace:
        """Capture one scenario's attack session via the batched path."""
        target = self.platform_for(spec)
        return target.capture_session_trace(
            spec.n_cos, noise_interleaved=spec.noise_interleaved
        )

    def locate_sessions(
        self,
        locator: CryptoLocator,
        sessions: "list[SessionTrace]",
        batch_size: int,
    ) -> "list[np.ndarray]":
        """Locate COs in several sessions with one batched scoring pass."""
        return locator.locate_many(
            [session.trace for session in sessions],
            method=self.method,
            batch_size=batch_size,
        )

    def run(
        self,
        plan: BatchPlan,
        with_cpa: bool = False,
        aggregate: int = 64,
        distinguisher=None,
    ) -> "list[ScenarioResult]":
        """Execute a plan; returns one :class:`ScenarioResult` per scenario.

        Scenarios sharing a condition reuse one locator and are located
        together in ``plan.batch_size`` chunks.  Results come back in plan
        order.
        """
        indices: dict[tuple[str, int, float], list[int]] = {}
        for position, spec in enumerate(plan.scenarios):
            indices.setdefault(spec.condition, []).append(position)
        results: list[ScenarioResult | None] = [None] * len(plan.scenarios)
        for condition, specs in plan.grouped():
            positions = indices[condition]
            locator = self.locator_for(*condition, batch_size=plan.batch_size)
            tolerance = default_tolerance(locator.config)
            sessions = []
            capture_times = []
            for spec in specs:
                begin = time.perf_counter()
                sessions.append(self.capture_session(spec))
                capture_times.append(time.perf_counter() - begin)
                if self.verbose:
                    print(f"[engine] captured {spec.describe()} "
                          f"({sessions[-1].trace.size} samples)")
            begin = time.perf_counter()
            located = self.locate_sessions(locator, sessions, plan.batch_size)
            locate_seconds = (time.perf_counter() - begin) / max(len(specs), 1)
            for position, spec, session, starts, capture_seconds in zip(
                positions, specs, sessions, located, capture_times
            ):
                stats = match_hits(starts, session.true_starts, tolerance)
                cpa = None
                if with_cpa:
                    cpa = run_cpa_scenario(
                        locator, session, starts, aggregate=aggregate,
                        distinguisher=distinguisher,
                    )
                results[position] = ScenarioResult(
                    spec=spec,
                    stats=stats,
                    located=starts,
                    session=session,
                    capture_seconds=capture_seconds,
                    locate_seconds=locate_seconds,
                    cpa_traces=cpa,
                )
        return results

    # ------------------------------------------------------------------ #
    # streaming campaigns                                                #
    # ------------------------------------------------------------------ #

    def run_campaign(
        self,
        spec: ScenarioSpec,
        max_traces: int,
        store_dir=None,
        aggregate: int = 32,
        segment_length: int | None = None,
        first_checkpoint: int = 25,
        checkpoint_growth: float = 1.5,
        rank1_patience: int = 2,
        batch_size: int | None = None,
        workers: int = 1,
        shard_size: int = 1024,
        attack_bytes: int | None = None,
        distinguisher=None,
    ) -> CampaignResult:
        """Run one scenario's streaming attack campaign.

        Builds the target platform for ``spec`` (cipher, random delay,
        oscilloscope noise), draws the attack key and segment length from
        it, and runs a sharded
        :class:`~repro.runtime.parallel.ParallelCampaign`:
        ``shard_size``-trace shards with per-shard spawned seeds, run
        inline at ``workers=1`` or fanned out over a process pool, merged
        at shard-aligned checkpoints until early stop or ``max_traces``.
        With ``store_dir`` the campaign is durable: the directory is the
        root of per-shard trace stores, and the same call resumes an
        interrupted campaign.  ``attack_bytes`` optionally reduces the
        attack to the leading key bytes.

        ``distinguisher`` selects the attack statistic (a registry name or
        :class:`~repro.attacks.distinguishers.DistinguisherSpec`); the
        default is the first-order HW CPA with the given ``aggregate``.
        """
        platform = self.platform_for(spec)
        campaign_spec = PlatformCampaignSpec(
            platform=self.platform_spec_for(spec),
            key=platform.random_key(),
            segment_length=int(
                segment_length if segment_length is not None
                else platform.mean_co_samples()
            ),
            batch_size=batch_size,
            attack_bytes=attack_bytes,
        )
        campaign = ParallelCampaign(
            campaign_spec,
            seed=spec.seed,
            workers=workers,
            shard_size=shard_size,
            store_root=store_dir,
            aggregate=aggregate,
            first_checkpoint=first_checkpoint,
            checkpoint_growth=checkpoint_growth,
            rank1_patience=rank1_patience,
            batch_size=batch_size if batch_size is not None else 256,
            distinguisher=distinguisher,
        )
        return campaign.run(max_traces, verbose=self.verbose)

    def run_ge_curve(
        self,
        spec: ScenarioSpec,
        max_traces: int,
        repetitions: int = 5,
        aggregate: int = 32,
        segment_length: int | None = None,
        first_checkpoint: int = 25,
        checkpoint_growth: float = 1.5,
        batch_size: int | None = None,
        distinguisher=None,
        accumulator=None,
        workers: int = 1,
    ):
        """Averaged guessing-entropy curve over independent repetitions.

        One streaming campaign per repetition, each on a fresh target
        seeded ``spec.seed + rep`` (fresh key, fresh countermeasure
        randomness, same configuration).  Every repetition is pinned to
        the same explicit checkpoint ladder so the per-checkpoint bins
        align, and early stopping is disabled — an averaged curve has to
        span the full trace budget even after rank 1 is reached.  The
        per-repetition ranks fold into a
        :class:`~repro.evaluation.ge_curves.GuessingEntropyAccumulator`
        (pass ``accumulator`` to continue one from earlier repetitions,
        e.g. a loaded checkpoint); the accumulator is returned.

        Repetitions are independent streams, dispatched as one-rung shards
        through :func:`~repro.runtime.retry.run_shards` (``workers > 1``
        fans them over a process pool, with the same retry, watchdog and
        interrupt cleanup as the sharded campaigns); the accumulator
        folds the records in repetition order, so the curve does not
        depend on ``workers``.  A repetition that exhausts its retries
        raises its :class:`~repro.runtime.retry.ShardFailure`.  The
        ``distinguisher`` must be picklable (``None``, a registry name, or
        a ``DistinguisherSpec``), not a live accumulator.
        """
        from dataclasses import replace

        from repro.attacks.distinguishers import resolve_distinguisher
        from repro.attacks.key_rank import geometric_checkpoints
        from repro.evaluation.ge_curves import (
            GuessingEntropyAccumulator,
        )

        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        distinguisher, _ = resolve_distinguisher(
            distinguisher, aggregate=aggregate
        )
        if distinguisher is None:
            raise TypeError(
                "run_ge_curve needs a picklable DistinguisherSpec (or a "
                "registry name), not a live accumulator — every repetition "
                "builds its own"
            )
        ladder = geometric_checkpoints(
            max_traces, first=first_checkpoint, growth=checkpoint_growth
        )
        ge = accumulator if accumulator is not None \
            else GuessingEntropyAccumulator()
        run_shards(
            [
                (_ge_repetition, self.platform_spec_for(replace(spec, seed=seed)),
                 seed, segment_length, batch_size, ladder, aggregate,
                 distinguisher, max_traces)
                for seed in range(spec.seed, spec.seed + repetitions)
            ],
            ge.update,
            workers=workers,
            min_merged=repetitions,
            label="ge",
            verbose=self.verbose,
        )
        return ge

    def run_campaigns(
        self,
        plan: BatchPlan,
        max_traces: int,
        store_root=None,
        **campaign_kwargs,
    ) -> "list[CampaignResult]":
        """Sweep streaming campaigns over a plan (cipher × RD × noise).

        One campaign per scenario, in plan order.  With ``store_root``
        each scenario persists under ``store_root/<scenario-slug>`` and a
        repeated sweep resumes every campaign from its own store.
        """
        results = []
        for spec in plan.scenarios:
            store_dir = None
            if store_root is not None:
                slug = spec.describe().replace(" ", "_").replace("=", "-")
                store_dir = Path(store_root) / slug
            if self.verbose:
                print(f"[engine] campaign {spec.describe()} "
                      f"(<= {max_traces} traces) ...")
            results.append(
                self.run_campaign(
                    spec, max_traces, store_dir=store_dir,
                    batch_size=plan.batch_size, **campaign_kwargs,
                )
            )
        return results
