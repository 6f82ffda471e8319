"""Batch-first experiment runtime.

The runtime layer turns the repository's batched primitives — vectorized
``encrypt_batch``, batched trace synthesis, batched sliding-window scoring —
into a scenario-sweep engine:

* :class:`~repro.runtime.plan.ScenarioSpec` — one experimental condition
  (cipher x random-delay x noise interleaving x oscilloscope SNR);
* :class:`~repro.runtime.plan.BatchPlan` — an ordered sweep of scenarios
  plus the batch size every batched primitive should use;
* :class:`~repro.runtime.engine.ExperimentEngine` — executes a plan:
  trains (and caches) one locator per condition, captures attack sessions
  through the batched platform paths, locates with
  :meth:`CryptoLocator.locate_many`, scores hits, and optionally mounts the
  CPA.

The CLI (``repro bench``), the ablation benchmarks, and the examples drive
their sweeps through this engine, so every workload shares the same batched
capture→locate→attack pipeline.

The streaming layer lives alongside the engine:
:class:`~repro.runtime.campaign.AttackCampaign` is the in-memory
capture→accumulate→checkpoint loop, and
:class:`~repro.runtime.parallel.ParallelCampaign` is the one durable
campaign path: the trace budget is cut into deterministically seeded
shards (:func:`~repro.runtime.parallel.plan_shards`), captured inline
(``workers=1``) or by a process pool into per-shard
:mod:`repro.campaign` stores, and the parent merges the additive
sufficient statistics at shard-aligned rank checkpoints — bit-identical
results regardless of the worker count.
:meth:`ExperimentEngine.run_campaigns` sweeps it across scenario plans.

Every sharded fan-out — parallel campaigns, sharded TVLA and GE curves —
goes through one loop, :func:`~repro.runtime.retry.run_shards`.
Execution is fault tolerant: :class:`~repro.runtime.retry.ShardExecutor`
retries failed shards with exponential backoff (re-captures are
bit-identical by the deterministic-reseed property), rebuilds broken
pools, watchdogs hung shards, and degrades exhausted campaigns to
``partial`` results; :class:`~repro.runtime.journal.CampaignJournal`
records per-shard lifecycle states crash-safely under the store root;
:mod:`repro.runtime.faults` provides the deterministic fault-injection
harness the chaos suite drives all of it with.
"""

from repro.runtime.campaign import (
    AttackCampaign,
    CampaignResult,
    CheckpointRecord,
    PlatformSegmentSource,
)
from repro.runtime.engine import ExperimentEngine, ScenarioResult
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFault
from repro.runtime.journal import CampaignJournal
from repro.runtime.parallel import (
    ParallelCampaign,
    PlatformCampaignSpec,
    ReducedKeySource,
    ShardedSegmentSource,
    ShardSpec,
    plan_shards,
    run_shard,
    shard_aligned_checkpoints,
)
from repro.runtime.plan import BatchPlan, ScenarioSpec
from repro.runtime.retry import RetryPolicy, ShardExecutor, ShardFailure

__all__ = [
    "AttackCampaign",
    "BatchPlan",
    "CampaignJournal",
    "CampaignResult",
    "CheckpointRecord",
    "ExperimentEngine",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ParallelCampaign",
    "PlatformCampaignSpec",
    "PlatformSegmentSource",
    "ReducedKeySource",
    "RetryPolicy",
    "ScenarioResult",
    "ScenarioSpec",
    "ShardExecutor",
    "ShardFailure",
    "ShardSpec",
    "ShardedSegmentSource",
    "plan_shards",
    "run_shard",
    "shard_aligned_checkpoints",
]
