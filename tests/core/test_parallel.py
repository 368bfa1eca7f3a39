"""Parallel fan-out equals the serial run, exactly.

The process-pool paths (constraint partitioning in ``run_monitor``,
substitution chunking in ``TriggerManager``) must produce byte-identical
reports, violation instants and firings — parallelism is an execution
detail, never a semantic one.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.core import run_monitor
from repro.core.parallel import parallel_map, resolve_jobs, split_chunks
from repro.core.triggers import Trigger, TriggerManager
from repro.database.history import History
from repro.errors import NotSafetyError
from repro.logic.parser import parse
from repro.workloads.orders import (
    ORDER_VOCABULARY,
    OrderWorkloadConfig,
    generate_orders,
    trace_with_duplicate,
)


class TestChunking:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_split_chunks_partitions_in_order(self):
        items = list(range(10))
        for chunks in (1, 2, 3, 4, 10, 99):
            parts = split_chunks(items, chunks)
            assert [x for part in parts for x in part] == items
            assert all(parts)
            assert len(parts) <= max(1, chunks)
            sizes = [len(part) for part in parts]
            assert max(sizes) - min(sizes) <= 1

    def test_split_chunks_empty(self):
        assert split_chunks([], 4) == []

    def test_parallel_map_preserves_order(self):
        items = list(range(7))
        assert parallel_map(str, items, jobs=1) == [str(i) for i in items]
        assert parallel_map(str, items, jobs=3) == [str(i) for i in items]

    def test_import_leaves_process_pool_unloaded(self):
        script = "import sys, repro; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


def _monitor_fixture():
    trace = generate_orders(
        OrderWorkloadConfig(length=10, arrival_probability=0.5, seed=7)
    )
    constraints = {
        "once": parse("forall x . G (Sub(x) -> X G !Sub(x))"),
        "filled_once": parse("forall x . G (Fill(x) -> X G !Fill(x))"),
        "fifo": parse(
            "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
            "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))"
        ),
    }
    return constraints, History.empty(ORDER_VOCABULARY), trace.states()


class TestMonitorEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_reports_and_violations_identical(self, jobs):
        constraints, initial, states = _monitor_fixture()
        serial = run_monitor(constraints, initial, states, jobs=1)
        fanned = run_monitor(constraints, initial, states, jobs=jobs)
        assert fanned.reports == serial.reports
        assert fanned.violations == serial.violations
        assert set(fanned.stats) == set(serial.stats)

    def test_reports_keep_declaration_order(self):
        constraints, initial, states = _monitor_fixture()
        fanned = run_monitor(constraints, initial, states, jobs=3)
        for report in fanned.reports:
            assert list(report.satisfied) == list(constraints)

    def test_kwargs_forwarded(self):
        constraints, initial, states = _monitor_fixture()
        # Not syntactically safety: a monitor refuses it unless told to
        # assume safety, so the workers must have received the flag.
        constraints["filled"] = parse("forall x . G (Sub(x) -> F Fill(x))")
        with pytest.raises(NotSafetyError):
            run_monitor(constraints, initial, states, jobs=1)
        fanned = run_monitor(
            constraints, initial, states, jobs=2, assume_safety=True
        )
        serial = run_monitor(
            constraints, initial, states, jobs=1, assume_safety=True
        )
        assert fanned.reports == serial.reports
        assert set(fanned.stats) == set(constraints)


def _trigger_sweep(jobs: int):
    trace = trace_with_duplicate(10, violate_at=5, seed=21)
    states = trace.states()
    manager = TriggerManager(
        [
            Trigger("resubmitted", parse("F (Sub(x) & X F Sub(x))")),
            Trigger("double_fill", parse("F (Fill(x) & X F Fill(x))")),
        ],
        jobs=jobs,
    )
    for upto in range(1, len(states) + 1):
        manager.check(
            History(
                vocabulary=ORDER_VOCABULARY, states=tuple(states[:upto])
            )
        )
    return manager


class TestTriggerEquivalence:
    def test_firings_identical_across_jobs(self):
        serial = _trigger_sweep(jobs=1)
        fanned = _trigger_sweep(jobs=4)
        assert serial.log == fanned.log
        assert serial.log  # the duplicate workload must fire

    def test_remainder_memo_hits(self):
        """Quiet instants progress ¬Cθ to the same interned remainder, so
        the Lemma 4.2 decision is made once and memoized thereafter."""
        manager = _trigger_sweep(jobs=1)
        assert manager.decisions > 0
        assert manager.memo_hits > 0
        assert manager.memo_hits > manager.decisions

    def test_engine_validated(self):
        with pytest.raises(ValueError):
            TriggerManager([], engine="nonsense")
