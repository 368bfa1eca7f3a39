"""Tests for G(past) constraints on the monitor's history-less entries."""

import pytest

from repro.analysis.hierarchy import past_body
from repro.core import IntegrityMonitor
from repro.database import (
    DatabaseState,
    History,
    monitor_from_dict,
    monitor_to_dict,
    vocabulary,
)
from repro.errors import ClassificationError, EvaluationError, SchemaError
from repro.logic import parse

V = vocabulary({"Sub": 1, "Fill": 1})
AUDIT = parse("forall x . G (Fill(x) -> Y O Sub(x))")


def state(*facts):
    return DatabaseState.from_facts(V, facts)


def audit_monitor(first=()):
    """The audit rule on a monitor whose instant 0 holds ``first``."""
    return IntegrityMonitor({"audit": AUDIT}, History.from_facts(V, [first]))


class TestPastBody:
    def test_extracts_body_under_prefix(self):
        body = past_body(AUDIT)
        assert body == parse("forall x . Fill(x) -> Y O Sub(x)")

    def test_rejects_non_g_matrix(self):
        with pytest.raises(ClassificationError, match="G A"):
            past_body(parse("forall x . Fill(x) -> Y O Sub(x)"))

    def test_rejects_future_body(self):
        with pytest.raises(ClassificationError, match="past"):
            past_body(parse("forall x . G (Sub(x) -> X Fill(x))"))


class TestMonitoring:
    def test_clean_run(self):
        monitor = audit_monitor([("Sub", (1,))])
        for facts in ([("Fill", (1,))], []):
            report = monitor.append_state(state(*facts))
            assert report.all_satisfied
        assert monitor.violations() == {}

    def test_violation_at_earliest_body_failure(self):
        monitor = audit_monitor([("Sub", (1,))])
        report = monitor.append_state(state(("Fill", (2,))))
        assert report.new_violations == ("audit",)
        assert monitor.violations() == {"audit": 1}

    def test_same_instant_fill_not_yet_submitted(self):
        # Y O Sub: the submission must be strictly earlier.
        monitor = audit_monitor()
        report = monitor.append_state(
            state(("Sub", (1,)), ("Fill", (1,)))
        )
        assert report.new_violations == ("audit",)

    def test_violation_sticky(self):
        monitor = audit_monitor([("Fill", (9,))])
        assert monitor.violations() == {"audit": 0}
        report = monitor.append_state(state())
        assert not report.satisfied["audit"]
        assert report.new_violations == ()
        # A violated entry stops evaluating, as a progressed one stops
        # stepping.
        assert monitor.stats()["audit"].past_updates == 1

    def test_replay(self):
        # The initial history is replayed through the evaluator at
        # construction.
        history = History.from_facts(
            V, [[("Sub", (1,))], [("Fill", (1,))]]
        )
        monitor = IntegrityMonitor({"audit": AUDIT}, history)
        assert monitor.now == 1
        assert monitor.violations() == {}
        assert monitor.stats()["audit"].past_updates == 2

    def test_memory_history_less(self):
        monitor = audit_monitor([("Sub", (1,))])
        footprint = None
        for _ in range(25):
            monitor.append_state(state())
            if footprint is None:
                footprint = monitor.stats()["audit"].past_memory
        assert monitor.stats()["audit"].past_memory == footprint

    def test_memory_counts_the_rows_a_checkpoint_stores(self):
        monitor = audit_monitor()
        assert monitor.stats()["audit"].past_memory == 0
        for facts, rows in (
            ([("Sub", (1,))], 1),
            ([("Sub", (2,)), ("Fill", (1,))], 2),
            ([], 2),
        ):
            monitor.append_state(state(*facts))
            (snap,) = monitor.snapshot_entries()
            assert snap.violated_at is None
            assert sum(map(len, snap.tables.values())) == rows
            assert monitor.stats()["audit"].past_memory == rows
            assert snap.stats.past_memory == rows
        restored = monitor_from_dict(monitor_to_dict(monitor))
        assert restored.stats()["audit"].past_memory == 2

    def test_agreement_with_reference_evaluator(self):
        from repro.eval import evaluate_past

        body = past_body(AUDIT)
        trace = [
            [("Sub", (1,))],
            [("Fill", (1,))],
            [("Sub", (2,)), ("Fill", (1,))],
            [("Fill", (2,))],
        ]
        monitor = audit_monitor(trace[0])
        for index in range(1, len(trace)):
            report = monitor.append_state(state(*trace[index]))
            history = History.from_facts(V, trace[: index + 1])
            reference = evaluate_past(body, history, instant=index)
            if "audit" not in monitor.violations() or (
                monitor.violations()["audit"] == index
            ):
                assert report.satisfied["audit"] == reference

    def test_agreement_with_exact_checker_via_future_form(self):
        """The audit constraint has an equivalent future-only form
        ('no fill until a fill-free submission'); the monitor's verdicts
        on the past form coincide with the exact checker's on the future
        form, instant by instant."""
        from repro.core import potentially_satisfied

        future_form = parse(
            "forall x . (!Fill(x)) W (Sub(x) & !Fill(x))"
        )
        trace = [[("Sub", (1,))], [("Fill", (1,))], [("Fill", (3,))]]
        monitor = audit_monitor(trace[0])
        for index in range(len(trace)):
            if index:
                monitor.append_state(state(*trace[index]))
            history = History.from_facts(V, trace[: index + 1])
            exact = potentially_satisfied(future_form, history)
            past_view = "audit" not in monitor.violations()
            assert exact == past_view


class TestConstants:
    def test_constant_bindings(self):
        vc = vocabulary({"Fill": 1}, constants=["Vip"])
        constraint = parse("G (Fill(Vip) -> Y Fill(Vip))")
        monitor = IntegrityMonitor(
            {"vip": constraint}, History.empty(vc, {"Vip": 3})
        )
        report = monitor.append_state(
            DatabaseState.from_facts(vc, [("Fill", (3,))])
        )
        assert report.new_violations == ("vip",)

    def test_unbound_constant_rejected_at_construction(self):
        vc = vocabulary({"Fill": 1})
        constraint = parse("G (Fill(Vip) -> Y Fill(Vip))")
        with pytest.raises(EvaluationError, match="Vip"):
            IntegrityMonitor({"vip": constraint}, History.empty(vc))


class TestSchema:
    def test_undeclared_relation_rejected_at_construction(self):
        constraint = parse("forall x . G (Fil(x) -> Y O Sub(x))")
        with pytest.raises(SchemaError, match="undeclared predicate 'Fil'"):
            IntegrityMonitor({"audit": constraint}, History.empty(V))

    def test_wrong_arity_rejected_at_construction(self):
        constraint = parse("forall x y . G (Fill(x, y) -> Y O Sub(x))")
        with pytest.raises(SchemaError, match="arity"):
            IntegrityMonitor({"audit": constraint}, History.empty(V))
