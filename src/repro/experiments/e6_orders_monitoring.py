"""E6 — online monitoring cost on the paper's order constraints.

The framework's intended use: per-update potential-satisfaction checking.
Sweeps the arrival rate (hence the relevant-domain growth rate) and
reports per-update latency and the monitor's work counters for the
standard constraint set.
"""

from __future__ import annotations

import time

from ..core.monitor import IntegrityMonitor
from ..database.history import History
from ..workloads.orders import (
    ORDER_VOCABULARY,
    OrderWorkloadConfig,
    generate_orders,
    standard_constraints,
)
from .common import print_table


def run(fast: bool = False) -> list[dict]:
    length = 25 if fast else 40
    rates = (0.2, 0.5) if fast else (0.2, 0.5, 0.9)
    rows: list[dict] = []
    for rate in rates:
        trace = generate_orders(
            OrderWorkloadConfig(
                length=length, arrival_probability=rate, seed=13
            )
        )
        monitor = IntegrityMonitor(
            standard_constraints(), History.empty(ORDER_VOCABULARY)
        )
        start = time.perf_counter()
        for state in trace.states():
            monitor.append_state(state)
        elapsed = time.perf_counter() - start
        stats = monitor.stats()
        rows.append(
            {
                "arrival rate": rate,
                "updates": length,
                "orders": len(trace.submitted),
                "violations": len(monitor.violations()),
                "ms_per_update": 1e3 * elapsed / length,
                "regrounds": sum(s.regrounds for s in stats.values()),
                "sat_calls": sum(s.sat_calls for s in stats.values()),
            }
        )
    print_table(
        "E6  online monitoring of the paper's order constraints",
        ["arrival rate", "updates", "orders", "violations",
         "ms_per_update", "regrounds", "sat_calls"],
        rows,
        note="clean traces (no injected violations); latency grows "
        "with the live domain, not with t",
    )
    return rows
