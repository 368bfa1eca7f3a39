"""Long-lived streaming monitor service: shards, sessions, checkpoints.

The batch front ends (:class:`repro.core.monitor.IntegrityMonitor`,
:class:`repro.core.plan.PlannedMonitor`) assume one caller feeding one
update stream and a process that lives exactly as long as the history.
Production monitoring is none of that: updates arrive interleaved from
concurrent *sessions*, the constraint set is wide enough to split into
independent groups, and the process gets killed and restarted.
:class:`MonitorService` is the paper-faithful answer to all three, built
entirely from pieces the repo already has:

* **sharding** — :func:`repro.core.plan.partition_constraints` splits
  the constraint set into relation-disjoint groups (union-find over
  relation names), each checked by its own
  :class:`~repro.core.plan.PlannedMonitor` executing the hierarchy
  dispatch plan.  Because shards share no relations, their grounding
  domains never interact and the merged verdict stream is identical to
  an unsharded monitor's (property-tested).

* **sessions** — the async front (:meth:`~MonitorService.start` /
  :meth:`~MonitorService.submit`) funnels every producer through one
  FIFO queue with a single consumer task, so updates are applied in
  global arrival order and each session's updates in its own submission
  order.  Per-session counts land in the service-level
  :class:`~repro.core.monitor.MonitorStats` ``stream_updates`` map.

* **checkpoint/resume** — :meth:`~MonitorService.snapshot` captures
  each shard's Lemma 4.2 state (progressed remainders and grounding
  bookkeeping via :func:`repro.database.serialize.monitor_to_dict`;
  past-closed constraints need only the history, stored once for all
  shards and replayed through the history-less tables on restore).  A
  killed service resumed with :meth:`~MonitorService.restore` produces
  verdicts identical to the uninterrupted run — the whole point of
  progression monitoring is that the remainder *is* the sufficient
  statistic, so resuming costs O(1) decisions, not a re-progression of
  the prefix (DESIGN.md §12).

The synchronous surface (:meth:`~MonitorService.apply`,
:meth:`~MonitorService.apply_state`) works without an event loop; the
async methods are a thin ordered front over it.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.monitor import MonitorStats, UpdateReport
from ..core.plan import (
    MonitorPlan,
    PlannedMonitor,
    _require_names,
    partition_constraints,
)
from ..database.history import History
from ..database.serialize import (
    decode_list,
    history_from_dict,
    history_to_dict,
    stats_from_jsonable,
)
from ..database.state import DatabaseState
from ..database.updates import Update
from ..errors import StateError
from ..logic.formulas import Formula

__all__ = ["SERVICE_SNAPSHOT_FORMAT", "MonitorService"]

#: Format tag stamped into :meth:`MonitorService.snapshot` payloads.
SERVICE_SNAPSHOT_FORMAT = "repro-service-snapshot/v2"

#: Queue sentinel + item shape: (session, update, state, future).
_QueueItem = tuple[
    str, Update | None, DatabaseState | None, "asyncio.Future[UpdateReport]"
]


class MonitorService:
    """A sharded, session-aware, checkpointable streaming monitor.

    Parameters mirror :class:`~repro.core.plan.PlannedMonitor`, plus
    ``shards``: an upper bound on the number of relation-disjoint
    constraint groups; the actual count is ``min(shards, #components)``.
    Shards are applied one after another in the caller's thread.
    """

    def __init__(
        self,
        constraints: Mapping[str, Formula] | Sequence[Formula],
        initial: History,
        *,
        shards: int = 1,
        assume_safety: bool = False,
        strategy: str = "incremental",
        spare: int = 2,
        lint: str = "warn",
    ) -> None:
        if not isinstance(constraints, Mapping):
            constraints = {
                f"constraint_{index}": formula
                for index, formula in enumerate(constraints)
            }
        self._order = tuple(constraints)
        self._history = initial
        self._shards = [
            PlannedMonitor(
                group,
                initial,
                assume_safety=assume_safety,
                strategy=strategy,
                spare=spare,
                lint=lint,
            )
            for group in partition_constraints(constraints, shards)
        ]
        self._stats = MonitorStats()
        self._queue: asyncio.Queue[_QueueItem | None] | None = None
        self._consumer: asyncio.Task[None] | None = None

    # -- introspection -------------------------------------------------------

    @property
    def history(self) -> History:
        return self._history

    @property
    def now(self) -> int:
        return self._history.now

    @property
    def shard_count(self) -> int:
        """How many relation-disjoint shards the partition produced."""
        return len(self._shards)

    @property
    def service_stats(self) -> MonitorStats:
        """Service-level counters: ``stream_updates`` maps each session
        name to the number of updates it has submitted."""
        return self._stats

    def shard_plans(self) -> list[MonitorPlan]:
        """The per-shard dispatch plans, in shard order."""
        return [shard.plan for shard in self._shards]

    def sessions(self) -> dict[str, int]:
        """Updates applied so far, per session name."""
        return dict(self._stats.stream_updates)

    def violations(self) -> dict[str, int]:
        """Violated constraints and first-violation instants, merged
        across shards in registration order."""
        merged: dict[str, int] = {}
        for shard in self._shards:
            merged.update(shard.violations())
        return {
            name: merged[name] for name in self._order if name in merged
        }

    def stats(self) -> dict[str, MonitorStats]:
        """Per-constraint work counters, merged across shards."""
        merged: dict[str, MonitorStats] = {}
        for shard in self._shards:
            merged.update(shard.stats())
        return {name: merged[name] for name in self._order}

    def is_satisfied(self, name: str) -> bool:
        if name not in self._order:
            raise KeyError(name)
        return name not in self.violations()

    # -- synchronous core ----------------------------------------------------

    def apply_state(
        self, state: DatabaseState, session: str = "default"
    ) -> UpdateReport:
        """Append the next database state on behalf of ``session``."""
        reports = [shard.append_state(state) for shard in self._shards]
        self._history = self._history.extended(state)
        self._stats.stream_updates[session] = (
            self._stats.stream_updates.get(session, 0) + 1
        )
        satisfied: dict[str, bool] = {}
        fresh: set[str] = set()
        for report in reports:
            satisfied.update(report.satisfied)
            fresh.update(report.new_violations)
        return UpdateReport(
            instant=self._history.now,
            satisfied={name: satisfied[name] for name in self._order},
            new_violations=tuple(
                name for name in self._order if name in fresh
            ),
        )

    def apply(
        self, update: Update, session: str = "default"
    ) -> UpdateReport:
        """Apply a delta update on behalf of ``session``."""
        return self.apply_state(
            update.apply(self._history.current), session
        )

    # -- async streaming front ----------------------------------------------

    async def start(self) -> None:
        """Start the single-consumer ingest task.  Must run inside an
        event loop; idempotent ``stop()`` is the counterpart."""
        if self._consumer is not None:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue()
        self._consumer = asyncio.create_task(self._ingest())

    async def stop(self) -> None:
        """Drain the queue and stop the ingest task."""
        if self._queue is None or self._consumer is None:
            return
        await self._queue.put(None)
        await self._consumer
        self._queue = None
        self._consumer = None

    async def submit(
        self, update: Update, session: str = "default"
    ) -> UpdateReport:
        """Enqueue a delta update from ``session``; resolves with the
        merged report once the update has been applied in order."""
        return await self._enqueue(session, update=update)

    async def submit_state(
        self, state: DatabaseState, session: str = "default"
    ) -> UpdateReport:
        """Enqueue a full next state from ``session``."""
        return await self._enqueue(session, state=state)

    async def _enqueue(
        self,
        session: str,
        *,
        update: Update | None = None,
        state: DatabaseState | None = None,
    ) -> UpdateReport:
        if self._queue is None:
            raise RuntimeError(
                "service not started; call `await service.start()` first "
                "(or use the synchronous apply/apply_state surface)"
            )
        future: asyncio.Future[UpdateReport] = (
            asyncio.get_running_loop().create_future()
        )
        await self._queue.put((session, update, state, future))
        return await future

    async def _ingest(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            try:
                if item is None:
                    return
                session, update, state, future = item
                try:
                    if state is None:
                        assert update is not None
                        state = update.apply(self._history.current)
                    report = self.apply_state(state, session)
                except Exception as exc:  # noqa: BLE001 - forwarded
                    if not future.cancelled():
                        future.set_exception(exc)
                else:
                    if not future.cancelled():
                        future.set_result(report)
            finally:
                self._queue.task_done()

    # -- checkpoint / resume -------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready checkpoint of the whole service.

        Contains the history once, one :meth:`PlannedMonitor.snapshot`
        per shard without its own copy of it, and the service-level
        bookkeeping (session counters, registration order).  Call
        between updates — from the consumer's thread or while the
        service is stopped.

        Raises
        ------
        StateError
            If a shard is at another instant than the service: an update
            that failed half-way cannot be saved against one history.
        """
        adrift = {
            index: shard.now
            for index, shard in enumerate(self._shards)
            if shard.now != self.now
        }
        if adrift:
            raise StateError(
                f"cannot checkpoint: the service is at instant {self.now} "
                f"but shard(s) are at {adrift} (a half-applied update)"
            )
        return {
            "format": SERVICE_SNAPSHOT_FORMAT,
            "config": {"shards": len(self._shards)},
            "order": list(self._order),
            "service_stats": self._stats.as_dict(),
            "history": history_to_dict(self._history),
            "shards": [
                shard.snapshot(with_history=False) for shard in self._shards
            ],
        }

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "MonitorService":
        """Rebuild a service from :meth:`snapshot` output.

        The restored service produces verdicts identical to the
        uninterrupted run (property-tested), resumes its session
        counters, and keeps the original shard layout.  The history is
        decoded once and the same :class:`History` is handed to every
        shard.  The ``config`` block is informational and is not read
        back.  ``order`` must name exactly the restored shards'
        constraints, each once, or this raises :class:`StateError`
        before any update can half-apply.
        """
        if not isinstance(data, Mapping):
            raise StateError(
                "service snapshot must be a mapping, got "
                f"{type(data).__name__}"
            )
        tag = data.get("format")
        if tag != SERVICE_SNAPSHOT_FORMAT:
            raise StateError(
                f"unsupported service-snapshot format {tag!r} "
                f"(expected {SERVICE_SNAPSHOT_FORMAT!r})"
            )
        try:
            order = tuple(
                decode_list(data["order"], "service snapshot 'order'", str)
            )
            stats = stats_from_jsonable(
                data["service_stats"], "service snapshot 'service_stats'"
            )
            history_data = data["history"]
            shard_data = decode_list(
                data["shards"], "service snapshot 'shards'"
            )
        except KeyError as exc:
            raise StateError(
                f"service snapshot is missing the {exc.args[0]!r} key"
            ) from None
        service = cls.__new__(cls)
        service._order = order
        history = history_from_dict(history_data)
        service._history = history
        service._shards = [
            PlannedMonitor.from_snapshot(shard, history)
            for shard in shard_data
        ]
        _require_names(
            "service snapshot order",
            order,
            (
                entry.name
                for shard in service._shards
                for entry in shard.plan.entries
            ),
        )
        service._stats = stats
        service._queue = None
        service._consumer = None
        return service

    def save(self, path: str | Path) -> None:
        """Write the snapshot to ``path`` as JSON."""
        Path(path).write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "MonitorService":
        """Read a snapshot written by :meth:`save` and restore it."""
        return cls.restore(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )
