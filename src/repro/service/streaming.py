"""Long-lived streaming monitor service: sessions and checkpoints.

The batch front end (:class:`repro.core.monitor.IntegrityMonitor`)
assumes one caller feeding one update stream and a process that lives
exactly as long as the history.
Production monitoring is neither: updates arrive interleaved from
concurrent *sessions*, and the process gets killed and restarted.
:class:`MonitorService` is one :class:`~repro.core.monitor.IntegrityMonitor`
plus what only a service needs:

* **sessions** — the async front (:meth:`~MonitorService.start` /
  :meth:`~MonitorService.submit`) funnels every producer through one
  FIFO queue with a single consumer task, so updates are applied in
  global arrival order and each session's updates in its own submission
  order.  Per-session counts land in the service-level
  :class:`~repro.core.monitor.MonitorStats` ``stream_updates`` map.

* **checkpoint/resume** — :meth:`~MonitorService.snapshot` captures the
  monitor's state (via :func:`repro.database.serialize.monitor_to_dict`:
  the state at ``now``, each progressed constraint's Lemma 4.2 table and
  relevant set, and each past-closed constraint's evaluator tables) and
  the session counters; no history.  A killed service resumed with
  :meth:`~MonitorService.restore` produces verdicts identical to the
  uninterrupted run — the whole point of progression monitoring is that
  the remainder *is* the sufficient statistic, so resuming decodes the
  tables and replays nothing (DESIGN.md §12).

The current state, verdicts, counters and caches are the monitor's own.  The
synchronous surface (:meth:`~MonitorService.apply`,
:meth:`~MonitorService.apply_state`) works without an event loop; the
async methods are a thin ordered front over it.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.monitor import IntegrityMonitor, MonitorStats, UpdateReport
from ..core.plan import MonitorPlan
from ..database.history import History
from ..database.serialize import (
    decode_list,
    decode_mapping,
    stats_from_jsonable,
)
from ..database.state import DatabaseState
from ..database.updates import Update
from ..errors import StateError
from ..logic.formulas import Formula

__all__ = ["SERVICE_SNAPSHOT_FORMAT", "MonitorService"]

#: Format tag stamped into :meth:`MonitorService.snapshot` payloads.
SERVICE_SNAPSHOT_FORMAT = "repro-service-snapshot/v7"

#: Queue sentinel + item shape: (session, update, state, future).
_QueueItem = tuple[
    str, Update | None, DatabaseState | None, "asyncio.Future[UpdateReport]"
]


class MonitorService:
    """A session-aware, checkpointable streaming monitor.

    Parameters are :class:`~repro.core.monitor.IntegrityMonitor`'s: the
    service runs one monitor built with them.
    """

    def __init__(
        self,
        constraints: Mapping[str, Formula] | Sequence[Formula],
        initial: History,
        *,
        assume_safety: bool = False,
        lint: str = "warn",
    ) -> None:
        self._monitor = IntegrityMonitor(
            constraints, initial, assume_safety=assume_safety, lint=lint
        )
        self._stats = MonitorStats()
        self._queue: asyncio.Queue[_QueueItem | None] | None = None
        self._consumer: asyncio.Task[None] | None = None

    # -- introspection -------------------------------------------------------

    @property
    def current(self) -> DatabaseState:
        """The state at :attr:`now`, which :meth:`apply` applies its
        update to."""
        return self._monitor.current

    @property
    def now(self) -> int:
        return self._monitor.now

    @property
    def service_stats(self) -> MonitorStats:
        """Service-level counters: ``stream_updates`` maps each session
        name to the number of updates it has submitted."""
        return self._stats

    def shard_plans(self) -> list[MonitorPlan]:
        """The monitor's dispatch plan, as the one item of a list (the
        layout of a snapshot's ``shards``)."""
        return [self._monitor.plan]

    def cache_info(self) -> dict[str, int]:
        """The monitor's cache sizes and resets (see
        :meth:`~repro.core.monitor.IntegrityMonitor.cache_info`)."""
        return self._monitor.cache_info()

    def sessions(self) -> dict[str, int]:
        """Updates applied so far, per session name."""
        return dict(self._stats.stream_updates)

    def violations(self) -> dict[str, int]:
        """Violated constraints and first-violation instants, in
        registration order."""
        return self._monitor.violations()

    def stats(self) -> dict[str, MonitorStats]:
        """Per-constraint work counters."""
        return self._monitor.stats()

    def is_satisfied(self, name: str) -> bool:
        return self._monitor.is_satisfied(name)

    # -- synchronous core ----------------------------------------------------

    def apply_state(
        self, state: DatabaseState, session: str = "default"
    ) -> UpdateReport:
        """Append the next database state on behalf of ``session``."""
        report = self._monitor.append_state(state)
        self._stats.stream_updates[session] = (
            self._stats.stream_updates.get(session, 0) + 1
        )
        return report

    def apply(
        self, update: Update, session: str = "default"
    ) -> UpdateReport:
        """Apply a delta update on behalf of ``session``."""
        return self.apply_state(update.apply(self.current), session)

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
        report once the update has been applied in order."""
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
                        state = update.apply(self.current)
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

        Holds the monitor's snapshot
        (:func:`~repro.database.serialize.monitor_to_dict`) as the one
        item of ``shards``, and the session counters.  Call between
        updates — from the
        consumer's thread or while the service is stopped.  After an
        update that failed half-way this raises
        :class:`~repro.errors.StateError`
        (:meth:`~repro.core.monitor.IntegrityMonitor.append_state`).
        """
        # Looked up at call time, so a tracer that wraps the codec in its
        # module sees these calls too.
        from ..database.serialize import monitor_to_dict

        return {
            "format": SERVICE_SNAPSHOT_FORMAT,
            "service_stats": self._stats.as_dict(),
            "shards": [monitor_to_dict(self._monitor)],
        }

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "MonitorService":
        """Rebuild a service from :meth:`snapshot` output.

        The restored service produces verdicts identical to the
        uninterrupted run (property-tested) and resumes its session
        counters.  ``shards`` must hold exactly one monitor snapshot, or
        this raises :class:`StateError`.
        """
        from ..database.serialize import monitor_from_dict

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
            stats = stats_from_jsonable(
                data["service_stats"], "service snapshot 'service_stats'"
            )
            shards = decode_list(data["shards"], "service snapshot 'shards'")
        except KeyError as exc:
            raise StateError(
                f"service snapshot is missing the {exc.args[0]!r} key"
            ) from None
        if len(shards) != 1:
            raise StateError(
                "service snapshot 'shards' must hold exactly one monitor "
                f"snapshot, got {len(shards)}"
            )
        monitor = decode_mapping(shards[0], "service snapshot 'shards'")
        service = cls.__new__(cls)
        service._monitor = monitor_from_dict(dict(monitor))
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
        """Read a snapshot written by :meth:`save` and restore it;
        :class:`StateError` naming the file if it is not JSON."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise StateError(
                f"service snapshot {str(path)!r} is not JSON: {exc}"
            ) from None
        return cls.restore(data)
