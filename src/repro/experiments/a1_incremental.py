"""A1 — ablation: monitoring strategies (scratch / incremental).

The monitor's whole point is that an update should not cost ``O(t)``.
Two workload regimes expose the trade-off:

* **few arrivals** — the relevant domain stabilizes early: incremental
  stops regrounding; scratch, a fresh monitor built on every prefix,
  re-progresses the full history per update (quadratic total).
* **growing domain** — every few updates introduce a fresh element:
  incremental regrounds on each arrival, grounding only the new element's
  assignments and replaying only their chains over the whole prefix.
"""

from __future__ import annotations

import time

from ..core.monitor import IntegrityMonitor
from ..database.history import History
from ..database.state import DatabaseState
from ..workloads.orders import (
    ORDER_VOCABULARY,
    OrderWorkloadConfig,
    generate_orders,
    submit_once,
)
from .common import print_table


def _run_incremental(trace_states: list[DatabaseState]) -> dict:
    """One monitor fed every update."""
    monitor = IntegrityMonitor(
        {"once": submit_once()}, History.empty(ORDER_VOCABULARY)
    )
    start = time.perf_counter()
    for state in trace_states:
        monitor.append_state(state)
    elapsed = time.perf_counter() - start
    stats = monitor.stats()["once"]
    return {
        "strategy": "incremental",
        "seconds": elapsed,
        "progressions": stats.progressions,
        "regrounds": stats.regrounds,
    }


def _run_scratch(trace_states: list[DatabaseState]) -> dict:
    """The naive baseline: a fresh monitor on every prefix, which grounds
    and progresses the whole history each time; its counters are summed."""
    prefixes = [History.empty(ORDER_VOCABULARY)]
    for state in trace_states:
        prefixes.append(prefixes[-1].extended(state))
    progressions = regrounds = 0
    start = time.perf_counter()
    for prefix in prefixes:
        monitor = IntegrityMonitor({"once": submit_once()}, prefix, lint="off")
        stats = monitor.stats()["once"]
        progressions += stats.progressions
        regrounds += stats.regrounds
    elapsed = time.perf_counter() - start
    return {
        "strategy": "scratch",
        "seconds": elapsed,
        "progressions": progressions,
        "regrounds": regrounds,
    }


def run(fast: bool = False) -> list[dict]:
    length = 30 if fast else 80
    rows: list[dict] = []

    few_orders = generate_orders(
        OrderWorkloadConfig(length=length, arrival_probability=0.1, seed=1)
    )
    growing = generate_orders(
        OrderWorkloadConfig(length=length, arrival_probability=0.9, seed=1)
    )

    for regime, trace in (("few arrivals", few_orders), ("growing", growing)):
        for run_strategy in (_run_scratch, _run_incremental):
            row = run_strategy(trace.states())
            row["regime"] = regime
            rows.append(row)

    print_table(
        "A1  monitoring strategies: per-update work vs domain growth",
        ["regime", "strategy", "seconds", "progressions", "regrounds"],
        rows,
        note="scratch builds a fresh monitor on every prefix, "
        "re-progressing the whole history per update; "
        "incremental pays O(t) only when a fresh element arrives",
    )
    return rows
