"""E6 — per-update monitoring cost on the order constraints."""

import pytest

from repro.core.monitor import IntegrityMonitor
from repro.database.history import History
from repro.workloads.orders import (
    ORDER_VOCABULARY,
    OrderWorkloadConfig,
    generate_orders,
    standard_constraints,
)


@pytest.mark.parametrize("rate", [0.2, 0.5])
def test_e6_monitor_trace(benchmark, rate):
    trace = generate_orders(
        OrderWorkloadConfig(length=20, arrival_probability=rate, seed=13)
    )
    states = trace.states()

    def kernel():
        monitor = IntegrityMonitor(
            standard_constraints(), History.empty(ORDER_VOCABULARY)
        )
        for state in states:
            monitor.append_state(state)
        return monitor

    monitor = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert monitor.violations() == {}
