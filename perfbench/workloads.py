"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed alone, runs its
measured loop through the library's public API, checks the outputs and
returns an :class:`Outcome`.  The library receives only the generated
platforms, sessions and campaign specs.

* ``fit-rd4``      — locator training: ``CryptoLocator.fit_from_platform``.
* ``locate-rd4``   — locator inference: windowed ``locate`` and dense
  ``locate_many`` with a locator trained during set-up.
* ``campaign-rd2`` — a sharded ``ParallelCampaign`` run fresh, then resumed
  over the same on-disk store.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import PipelineConfig
from repro.core.locator import CryptoLocator
from repro.evaluation import match_hits
from repro.evaluation.experiments import default_tolerance
from repro.runtime.parallel import ParallelCampaign, PlatformCampaignSpec, plan_shards
from repro.soc import SimulatedPlatform
from repro.soc.platform import PlatformSpec, SessionTrace

#: The end-to-end integration test's ``SMALL_AES`` locator configuration
#: with every window population halved, trained for 2 epochs in batches
#: of 8 at learning rate 1e-3.
LOCATOR_CONFIG = dataclasses.replace(
    PipelineConfig(
        cipher="aes", n_train=512, n_inf=464, stride=24, kernel_size=63,
        n_start_windows=640, n_rest_windows=640, n_noise_windows=384,
        epochs=8, learning_rate=5e-4, start_augmentation=4,
    ).scaled(0.5),
    epochs=2, batch_size=8, learning_rate=1e-3,
)
NOISE_OPS = 40_000
BOUNDARY_COS = 48
RECALL_FLOOR_PCT = 75.0          # the end-to-end test's Figure 3 floor

#: Session lengths in samples: every seed locates the same amount of
#: trace.  The windowed engine scores one noise-interleaved session; the
#: dense engine scores two interleaved and two back-to-back sessions.
WINDOWED_SESSION = 64_000
DENSE_SESSIONS = ((64_000, True), (64_000, True), (40_000, False), (40_000, False))
SESSION_COS = 8                  # captured per session, then cut to length
HIT_RATE_FLOOR = 0.5

CAMPAIGN_FRESH = 32_768
CAMPAIGN_TOTAL = 65_536
CAMPAIGN_WORKERS = 2
CAMPAIGN = dict(shard_size=1024, aggregate=64, checkpoint_growth=1.5,
                rank1_patience=10**6)          # never stop early
SEGMENT_LENGTH = 1200

SETUP_REPEATS = 5


def derive_seed(seed: int, *tag: int) -> int:
    """A 32-bit child seed of the benchmark seed, one per input."""
    return int(np.random.SeedSequence([seed, *tag]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    iter_s: list[float]
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Correctness: must hold on every seed; any failure fails the run.
    checks: dict[str, bool] = field(default_factory=dict)
    #: The paper-level quality floors: reported, not gated (see README).
    quality: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def timed(fn, *args, **kwargs):
    begin = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - begin, result


def repeat_for(seconds: float, step, min_iterations: int = 1) -> list:
    """Call ``step()`` until ``seconds`` have passed (at least ``min_iterations``)."""
    results = []
    begin = time.perf_counter()
    while len(results) < min_iterations or time.perf_counter() - begin < seconds:
        results.append(step())
    return results


def median_setup(build) -> tuple[float, object]:
    """Median time of :data:`SETUP_REPEATS` builds, and the last build."""
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, built = timed(build)
        times.append(elapsed)
    return statistics.median(times), built


# ---------------------------------------------------------------------- #
# fit-rd4                                                                #
# ---------------------------------------------------------------------- #


class FitRd4:
    min_iterations = 1

    def __init__(self, seed: int) -> None:
        self.clone_seed = derive_seed(seed, 1)
        self.locator_seed = derive_seed(seed, 2)

    def build(self):
        return (SimulatedPlatform("aes", max_delay=4, seed=self.clone_seed),
                CryptoLocator(LOCATOR_CONFIG, seed=self.locator_seed))

    def setup(self) -> float:
        setup_s, _ = median_setup(self.build)
        return setup_s

    def iteration(self) -> tuple[float, dict]:
        platform, locator = self.build()
        elapsed, _ = timed(locator.fit_from_platform, platform,
                           noise_ops=NOISE_OPS, boundary_cos=BOUNDARY_COS)
        confusion = locator.test_confusion()
        return elapsed, {"c0": float(confusion[0, 0]), "c1": float(confusion[1, 1]),
                         "threshold": locator.threshold}

    def evaluate(self, runs) -> Outcome:
        outcome = Outcome(iter_s=[elapsed for elapsed, _ in runs])
        results = [result for _, result in runs]
        first = results[0]
        outcome.attempted = len(results)
        outcome.failed = sum(r != first for r in results)
        outcome.checks = {"fits_repeat_exactly": outcome.failed == 0}
        outcome.quality = {
            f"figure3_diagonal_above_{RECALL_FLOOR_PCT:g}pct":
                min(first["c0"], first["c1"]) > RECALL_FLOOR_PCT,
        }
        outcome.report = {
            "fit_s": (statistics.median(outcome.iter_s), "s"),
            "c1_recall_pct": (first["c1"], "%"),
            "c0_recall_pct": (first["c0"], "%"),
        }
        return outcome


# ---------------------------------------------------------------------- #
# locate-rd4                                                             #
# ---------------------------------------------------------------------- #


def cut_session(platform: SimulatedPlatform, length: int,
                interleaved: bool) -> SessionTrace:
    """A session of exactly ``length`` samples.

    Keeps the true starts of the COs whose first inference window fits
    inside the cut (no later start can be located).
    """
    session = platform.capture_session_trace(SESSION_COS,
                                             noise_interleaved=interleaved)
    if session.trace.size < length:
        raise ValueError(f"{SESSION_COS}-CO session is only "
                         f"{session.trace.size} samples, need {length}")
    kept = int(np.count_nonzero(session.true_starts + LOCATOR_CONFIG.n_inf <= length))
    return dataclasses.replace(
        session, trace=session.trace[:length],
        true_starts=session.true_starts[:kept],
        plaintexts=session.plaintexts[:kept],
        ciphertexts=session.ciphertexts[:kept])


def valid_starts(starts: np.ndarray, trace: np.ndarray) -> bool:
    return bool(np.all(np.diff(starts) > 0)
                and (starts.size == 0 or 0 <= starts[0] <= starts[-1] < trace.size))


class LocateRd4:
    min_iterations = 2           # the repeat-call check compares two

    def __init__(self, seed: int) -> None:
        self.fit = FitRd4(seed)
        self.target_seed = derive_seed(seed, 3)

    def setup(self) -> float:
        """Train the locator and capture the target sessions (once: the
        training dominates and is itself a single long, steady step)."""
        begin = time.perf_counter()
        platform, self.locator = self.fit.build()
        self.locator.fit_from_platform(platform, noise_ops=NOISE_OPS,
                                       boundary_cos=BOUNDARY_COS)
        target = SimulatedPlatform("aes", max_delay=4, seed=self.target_seed)
        self.windowed_session = cut_session(target, WINDOWED_SESSION, True)
        self.dense_sessions = [cut_session(target, length, interleaved)
                               for length, interleaved in DENSE_SESSIONS]
        return time.perf_counter() - begin

    def iteration(self) -> tuple[float, float, np.ndarray, list[np.ndarray]]:
        windowed_s, windowed = timed(self.locator.locate,
                                     self.windowed_session.trace)
        dense_s, dense = timed(self.locator.locate_many,
                               [s.trace for s in self.dense_sessions],
                               method="dense")
        return windowed_s, dense_s, windowed, dense

    def evaluate(self, runs) -> Outcome:
        outcome = Outcome(iter_s=[w + d for w, d, _, _ in runs])
        tolerance = default_tolerance(LOCATOR_CONFIG)
        _, _, windowed, dense = runs[0]
        w_stats = match_hits(windowed, self.windowed_session.true_starts, tolerance)
        d_stats = [match_hits(starts, s.true_starts, tolerance)
                   for starts, s in zip(dense, self.dense_sessions)]
        d_hits = sum(s.hits for s in d_stats)
        d_cos = sum(len(s.true_starts) for s in self.dense_sessions)
        d_fp = sum(s.false_positives for s in d_stats)
        w_rate, d_rate = w_stats.hit_rate, d_hits / d_cos
        sessions = [self.windowed_session, *self.dense_sessions]
        # One located trace is one operation: the windowed call or one of
        # the dense batch's traces.  It fails when a repeat call on the
        # same trace returns other starts, or the starts are not sorted
        # sample indices inside the trace.
        outcome.attempted = len(runs) * len(sessions)
        outcome.failed = sum(
            not (np.array_equal(starts, first) and valid_starts(starts, s.trace))
            for _, _, w, d in runs
            for starts, first, s in zip([w, *d], [windowed, *dense], sessions)
        )
        outcome.checks = {"repeat_calls_return_identical_valid_starts":
                          outcome.failed == 0}
        outcome.quality = {
            "windowed_hit_rate_at_least_0.5": w_rate >= HIT_RATE_FLOOR,
            "dense_hit_rate_at_least_0.5": d_rate >= HIT_RATE_FLOOR,
        }
        windowed_samples = self.windowed_session.trace.size
        dense_samples = sum(s.trace.size for s in self.dense_sessions)
        outcome.report = {
            "windowed_samples_per_s": (
                windowed_samples / statistics.median(r[0] for r in runs), "1/s"),
            "dense_samples_per_s": (
                dense_samples / statistics.median(r[1] for r in runs), "1/s"),
            "windowed_hit_rate": (w_rate, "fraction"),
            "dense_hit_rate": (d_rate, "fraction"),
            "windowed_false_positives": (w_stats.false_positives, "count"),
            "dense_false_positives": (d_fp, "count"),
        }
        return outcome


# ---------------------------------------------------------------------- #
# campaign-rd2                                                           #
# ---------------------------------------------------------------------- #


class CampaignRd2:
    min_iterations = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.store_root = work_dir / "campaign-store"

    def build(self) -> PlatformCampaignSpec:
        platform = PlatformSpec("aes", max_delay=2, capture_mode="fast")
        key = platform.build(derive_seed(self.seed, 4)).random_key()
        return PlatformCampaignSpec(platform=platform, key=key,
                                    segment_length=SEGMENT_LENGTH)

    def setup(self) -> float:
        setup_s, self.spec = median_setup(self.build)
        return setup_s

    def campaign(self, workers: int) -> ParallelCampaign:
        return ParallelCampaign(self.spec, seed=derive_seed(self.seed, 5),
                                workers=workers, store_root=self.store_root,
                                **CAMPAIGN)

    def iteration(self, workers: int = CAMPAIGN_WORKERS):
        """Fresh to :data:`CAMPAIGN_FRESH`, then resume to :data:`CAMPAIGN_TOTAL`."""
        shutil.rmtree(self.store_root, ignore_errors=True)
        try:
            fresh_s, fresh = timed(self.campaign(workers).run, CAMPAIGN_FRESH)
            resume_s, resumed = timed(self.campaign(workers).run, CAMPAIGN_TOTAL)
        finally:
            shutil.rmtree(self.store_root, ignore_errors=True)
        return fresh_s, resume_s, fresh, resumed

    def runtime_metrics(self, run) -> dict[str, float]:
        """The runtime layer's per-layer figures for one untraced
        ``workers=2`` iteration (pool workers are invisible to the tracer)."""
        fresh_s, resume_s, fresh, resumed = run
        wall = fresh_s + resume_s
        capture = fresh.capture_seconds + resumed.capture_seconds
        return {
            "runtime.run_s": wall,
            "runtime.retries": float(fresh.retries + resumed.retries),
            "runtime.failed_shards": float(len(fresh.failed_shards)
                                           + len(resumed.failed_shards)),
            "runtime.resumed_traces": float(resumed.resumed_from),
            "runtime.worker_capture_s": capture,
            "runtime.parent_attack_s": fresh.attack_seconds + resumed.attack_seconds,
            "runtime.worker_busy_ratio": capture / (CAMPAIGN_WORKERS * wall),
        }

    def evaluate(self, runs) -> Outcome:
        outcome = Outcome(iter_s=[f + r for f, r, _, _ in runs])
        shards_per_run = (len(plan_shards(0, CAMPAIGN_FRESH, CAMPAIGN["shard_size"]))
                          + len(plan_shards(0, CAMPAIGN_TOTAL, CAMPAIGN["shard_size"])))
        outcome.attempted = len(runs) * shards_per_run
        outcome.failed = sum(len(f.failed_shards) + len(r.failed_shards)
                             for _, _, f, r in runs)
        _, _, fresh, resumed = runs[0]
        resumed_ranks = {r.n_traces: r.ranks for r in resumed.records}
        shared = [r for r in fresh.records if r.n_traces in resumed_ranks]
        outcome.checks = {
            "key_recovered": all(r.key_recovered for _, _, _, r in runs),
            "resumed_from_equals_fresh_traces": all(
                r.resumed_from == f.n_traces == CAMPAIGN_FRESH
                for _, _, f, r in runs),
            "shared_prefix_ranks_identical": bool(shared) and all(
                resumed_ranks[r.n_traces] == r.ranks for r in shared),
            "no_retries_or_failed_shards": all(
                f.retries == r.retries == 0 and not (f.partial or r.partial)
                for _, _, f, r in runs),
            "runs_repeat_exactly": all(
                r.records == resumed.records for _, _, _, r in runs),
        }
        outcome.report = {
            "campaign_traces_per_s": (
                CAMPAIGN_FRESH / statistics.median(f for f, _, _, _ in runs), "1/s"),
            "resume_traces_per_s": (
                CAMPAIGN_TOTAL / statistics.median(r for _, r, _, _ in runs), "1/s"),
            "traces_to_rank1": (resumed.traces_to_rank1 or 0, "traces"),
        }
        return outcome
