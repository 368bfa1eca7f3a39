"""Process-pool fan-out for independent Lemma 4.2 decision streams.

Three axes of the workload are embarrassingly parallel and this module
fans each across a :class:`concurrent.futures.ProcessPoolExecutor`:

* **constraints** — each monitored constraint progresses and decides its
  own remainder stream; :func:`run_monitor` partitions the constraint set
  across workers and merges the per-instant reports back in declaration
  order, so ``jobs=1`` and ``jobs=N`` produce identical
  :class:`repro.core.monitor.UpdateReport` sequences and violation
  instants;
* **trigger substitutions** — the Theorem 4.1 sweep over ``R_D^k`` ground
  substitutions; :class:`repro.core.triggers.TriggerManager` chunks the
  candidate substitutions through :func:`parallel_map`;
* **experiment sweep points** — ``python -m repro.experiments --jobs N``
  runs whole experiments side by side.

Soundness of crossing the process boundary rests on PR 2's pickle
behaviour: interned formulas serialize through ``__reduce__`` and
*re-intern* on load, so a worker's results refer to canonical objects in
the parent again and every identity-keyed cache stays coherent.  Workers
are forked (the default start method on Linux), so they inherit the
parent's warm caches for free.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, TypeVar

from ..database.history import History
from ..database.state import DatabaseState
from ..logic.formulas import Formula
from .monitor import IntegrityMonitor, MonitorStats, UpdateReport

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "MonitorRun",
    "parallel_map",
    "resolve_jobs",
    "run_monitor",
    "split_chunks",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/1 -> serial, <= 0 -> cpu count."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


def split_chunks(items: Sequence[T], chunks: int) -> list[list[T]]:
    """Split into at most ``chunks`` contiguous, balanced, non-empty runs.

    Contiguity keeps the merge order-preserving: concatenating the chunk
    results in chunk order reproduces the serial order exactly.
    """
    items = list(items)
    chunks = max(1, min(chunks, len(items)))
    quotient, remainder = divmod(len(items), chunks)
    out: list[list[T]] = []
    start = 0
    for index in range(chunks):
        size = quotient + (1 if index < remainder else 0)
        out.append(items[start : start + size])
        start += size
    return [chunk for chunk in out if chunk]


def parallel_map(
    function: Callable[[T], R], items: Sequence[T], jobs: int = 1
) -> list[R]:
    """``[function(item) for item in items]``, optionally across processes.

    Order-preserving.  ``function`` and every item/result must be
    picklable (interned formulas are — they re-intern on load).  With
    ``jobs <= 1`` or fewer than two items this never forks.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    # Imported here: the pool pulls in multiprocessing, which serial
    # callers (every plain ``import repro``) never need.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(function, items))


# --------------------------------------------------------------------------
# Monitor fan-out: partition constraints across workers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitorRun:
    """Merged outcome of a (possibly parallel) monitor replay.

    ``reports`` has one :class:`UpdateReport` per replayed state, with the
    constraints back in their declaration order; ``violations`` maps each
    violated constraint to its first violation instant; ``stats`` carries
    the per-constraint work counters of whichever worker owned the
    constraint.
    """

    reports: tuple[UpdateReport, ...]
    violations: dict[str, int]
    stats: dict[str, MonitorStats]


def _monitor_worker(
    args: tuple[
        dict[str, Formula],
        History,
        list[DatabaseState],
        dict[str, Any],
    ],
) -> MonitorRun:
    constraints, initial, states, kwargs = args
    monitor = IntegrityMonitor(constraints, initial, **kwargs)
    reports = tuple(monitor.append_state(state) for state in states)
    return MonitorRun(
        reports=reports,
        violations=monitor.violations(),
        stats=monitor.stats(),
    )


def run_monitor(
    constraints: Mapping[str, Formula],
    initial: History,
    states: Sequence[DatabaseState],
    jobs: int = 1,
    **monitor_kwargs: Any,
) -> MonitorRun:
    """Replay ``states`` through a monitor over ``constraints``.

    With ``jobs > 1`` the constraints are partitioned across worker
    processes (each worker monitors its share over the same state
    sequence) and the reports are merged back in declaration order — the
    result is equal to the serial run, state by state: constraints are
    independent, so per-constraint satisfaction, violation instants and
    stats do not depend on which process decided them.

    Keyword arguments are forwarded to :class:`IntegrityMonitor`
    (``assume_safety=``, ``strategy=``, ``spare=``, ``lint=``).
    """
    names = list(constraints)
    states = list(states)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(names) <= 1:
        return _monitor_worker(
            (dict(constraints), initial, states, monitor_kwargs)
        )
    groups = split_chunks(names, jobs)
    partials = parallel_map(
        _monitor_worker,
        [
            (
                {name: constraints[name] for name in group},
                initial,
                states,
                monitor_kwargs,
            )
            for group in groups
        ],
        jobs=jobs,
    )
    reports: list[UpdateReport] = []
    for position in range(len(states)):
        satisfied: dict[str, bool] = {}
        flagged: set[str] = set()
        instant = partials[0].reports[position].instant
        for partial in partials:
            report = partial.reports[position]
            satisfied.update(report.satisfied)
            flagged.update(report.new_violations)
        reports.append(
            UpdateReport(
                instant=instant,
                satisfied={name: satisfied[name] for name in names},
                new_violations=tuple(
                    name for name in names if name in flagged
                ),
            )
        )
    violations: dict[str, int] = {}
    stats: dict[str, MonitorStats] = {}
    for partial in partials:
        violations.update(partial.violations)
        stats.update(partial.stats)
    return MonitorRun(
        reports=tuple(reports),
        violations={
            name: violations[name] for name in names if name in violations
        },
        stats={name: stats[name] for name in names},
    )
