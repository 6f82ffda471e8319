"""Crash-safe campaign state journal.

A :class:`CampaignJournal` is a small JSON document under a campaign's
``store_root`` recording the campaign phase (``capturing``, then one of
``converged`` / ``exhausted`` / ``complete`` / ``partial`` / ``failed`` /
``interrupted``), the run's pool rebuilds, and the lifecycle state of
every shard (``queued`` → ``capturing`` → ``retrying``* → ``done`` /
``failed`` / ``quarantined``).  Every mutation rewrites the file through
:func:`~repro.campaign.store.atomic_write_json`, so a crash at any point
leaves either the previous or the next journal — never a torn one.  The
journal is *descriptive*, not authoritative: resume correctness comes
from the per-shard :class:`~repro.campaign.store.TraceStore` manifests;
the journal exists so ``repro campaign --status`` (and eventually the
ROADMAP's campaign registry) can answer "where is this run?" without
loading any trace data.
"""

from __future__ import annotations

from pathlib import Path
import json

from repro.campaign.store import atomic_write_json

__all__ = ["CampaignJournal"]

_JOURNAL = "journal.json"
_VERSION = 1


class CampaignJournal:
    """Per-shard state journal persisted atomically under ``root``."""

    def __init__(self, root, state: dict) -> None:
        self._root = Path(root)
        self._state = state

    # -- constructors --------------------------------------------------

    @classmethod
    def open_or_create(cls, root, kind: str, meta: dict | None = None) -> "CampaignJournal":
        """Open the journal under ``root``, creating it if absent.

        ``kind`` names the campaign flavour (``parallel_campaign`` /
        ``parallel_tvla``); reopening with a different kind is an error
        because it means two different campaigns share a ``store_root``.
        """
        path = Path(root) / _JOURNAL
        if path.exists():
            journal = cls.load(root)
            if journal._state["kind"] != kind:
                raise ValueError(
                    f"campaign journal at {path} belongs to a "
                    f"{journal._state['kind']!r} campaign, not {kind!r}"
                )
            if meta:
                journal._state["meta"].update(meta)
                journal._write()
            return journal
        state = {
            "version": _VERSION,
            "kind": kind,
            "phase": "capturing",
            "meta": dict(meta or {}),
            "shards": {},
        }
        journal = cls(root, state)
        journal._write()
        return journal

    @classmethod
    def load(cls, root) -> "CampaignJournal":
        """Load an existing journal; raises if missing or corrupt."""
        path = Path(root) / _JOURNAL
        if not path.exists():
            raise FileNotFoundError(f"no campaign journal at {path}")
        try:
            state = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt campaign journal at {path}: {exc}") from exc
        if (
            not isinstance(state, dict)
            or not isinstance(state.get("shards"), dict)
            or "kind" not in state
            or "phase" not in state
        ):
            raise ValueError(f"corrupt campaign journal at {path}: bad schema")
        return cls(root, state)

    # -- mutation ------------------------------------------------------

    def begin(self, total_shards: int) -> None:
        """Reset to a fresh run over ``total_shards`` queued shards."""
        self._state["phase"] = "capturing"
        self._state["pool_rebuilds"] = 0
        self._state["shards"] = {
            str(index): {"state": "queued"} for index in range(int(total_shards))
        }
        self._write()

    def update_shard(self, index: int, state: str, **attrs) -> None:
        entry = self._state["shards"].setdefault(str(int(index)), {})
        entry["state"] = state
        if state == "retrying":
            entry["retries"] = entry.get("retries", 0) + 1
        entry.update(attrs)
        self._write()

    def set_phase(self, phase: str, pool_rebuilds: int = 0) -> None:
        """Record the campaign phase and the run's process-pool rebuilds."""
        self._state["phase"] = phase
        self._state["pool_rebuilds"] = int(pool_rebuilds)
        self._write()

    def _write(self) -> None:
        atomic_write_json(self._root / _JOURNAL, self._state)

    # -- inspection ----------------------------------------------------

    @property
    def kind(self) -> str:
        return self._state["kind"]

    @property
    def phase(self) -> str:
        return self._state["phase"]

    @property
    def pool_rebuilds(self) -> int:
        return int(self._state.get("pool_rebuilds", 0))

    @property
    def meta(self) -> dict:
        return dict(self._state["meta"])

    def shard_states(self) -> dict[int, dict]:
        return {int(k): dict(v) for k, v in self._state["shards"].items()}

    def counts(self) -> dict[str, int]:
        """Shard-state histogram, e.g. ``{"done": 7, "failed": 1}``."""
        out: dict[str, int] = {}
        for entry in self._state["shards"].values():
            out[entry["state"]] = out.get(entry["state"], 0) + 1
        return out

    def describe(self) -> str:
        """Human-readable status block for ``repro campaign --status``."""
        shards = self.shard_states()
        lines = [
            f"campaign: {self.kind}",
            f"phase:    {self.phase}",
            f"shards:   {len(shards)}",
        ]
        counts = self.counts()
        for state in ("queued", "capturing", "retrying", "done",
                      "failed", "quarantined"):
            if state in counts:
                lines.append(f"  {state:<12}{counts.pop(state)}")
        for state, count in sorted(counts.items()):
            lines.append(f"  {state:<12}{count}")
        retried = sorted(i for i, e in shards.items() if e.get("retries"))
        if retried:
            total = sum(shards[i].get("retries", 0) for i in retried)
            lines.append(f"retries:  {total} (shards {retried})")
        if self.pool_rebuilds:
            lines.append(f"pool rebuilds: {self.pool_rebuilds}")
        failed = sorted(i for i, e in shards.items() if e["state"] == "failed")
        if failed:
            lines.append(f"failed shards: {failed}")
        for key, value in sorted(self.meta.items()):
            lines.append(f"meta.{key}: {value}")
        return "\n".join(lines)
