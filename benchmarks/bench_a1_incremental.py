"""A1 — monitoring strategies ablation.

``scratch`` is the naive baseline: a fresh monitor built on every prefix,
which grounds and progresses the whole history each time.
"""

import pytest

from repro.core.monitor import IntegrityMonitor
from repro.database.history import History
from repro.workloads.orders import (
    ORDER_VOCABULARY,
    OrderWorkloadConfig,
    generate_orders,
    submit_once,
)

TRACE = generate_orders(
    OrderWorkloadConfig(length=40, arrival_probability=0.5, seed=1)
).states()


@pytest.mark.parametrize("strategy", ["scratch", "incremental"])
def test_a1_strategy(benchmark, strategy):
    def scratch():
        history = History.empty(ORDER_VOCABULARY)
        for state in TRACE:
            history = history.extended(state)
            monitor = IntegrityMonitor(
                {"once": submit_once()}, history, lint="off"
            )
        return monitor

    def kernel():
        if strategy == "scratch":
            return scratch()
        monitor = IntegrityMonitor(
            {"once": submit_once()}, History.empty(ORDER_VOCABULARY)
        )
        for state in TRACE:
            monitor.append_state(state)
        return monitor

    monitor = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert monitor.violations() == {}
