"""Tests for the G(past) history-less monitor."""

import pytest

from repro.database import DatabaseState, History, vocabulary
from repro.errors import ClassificationError, EvaluationError, SchemaError
from repro.logic import parse
from repro.pasteval import PastMonitor, past_body

V = vocabulary({"Sub": 1, "Fill": 1})
AUDIT = parse("forall x . G (Fill(x) -> Y O Sub(x))")


def state(*facts):
    return DatabaseState.from_facts(V, facts)


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
        monitor = PastMonitor({"audit": AUDIT}, V)
        for facts in ([("Sub", (1,))], [("Fill", (1,))], []):
            report = monitor.append_state(state(*facts))
            assert report.all_satisfied
        assert monitor.violations() == {}

    def test_violation_at_earliest_body_failure(self):
        monitor = PastMonitor({"audit": AUDIT}, V)
        monitor.append_state(state(("Sub", (1,))))
        report = monitor.append_state(state(("Fill", (2,))))
        assert report.new_violations == ("audit",)
        assert monitor.violations() == {"audit": 1}

    def test_same_instant_fill_not_yet_submitted(self):
        # Y O Sub: the submission must be strictly earlier.
        monitor = PastMonitor({"audit": AUDIT}, V)
        report = monitor.append_state(
            state(("Sub", (1,)), ("Fill", (1,)))
        )
        assert report.new_violations == ("audit",)

    def test_violation_sticky(self):
        monitor = PastMonitor({"audit": AUDIT}, V)
        monitor.append_state(state(("Fill", (9,))))
        report = monitor.append_state(state())
        assert not report.satisfied["audit"]
        assert report.new_violations == ()

    def test_replay(self):
        monitor = PastMonitor({"audit": AUDIT}, V)
        history = History.from_facts(
            V, [[("Sub", (1,))], [("Fill", (1,))]]
        )
        report = monitor.replay(history)
        assert report.instant == 1
        assert report.all_satisfied

    def test_memory_history_less(self):
        monitor = PastMonitor({"audit": AUDIT}, V)
        monitor.append_state(state(("Sub", (1,))))
        footprint = None
        for _ in range(25):
            monitor.append_state(state())
            if footprint is None:
                footprint = monitor.memory_size()
        assert monitor.memory_size() == footprint

    def test_agreement_with_reference_evaluator(self):
        from repro.eval import evaluate_past

        body = past_body(AUDIT)
        trace = [
            [("Sub", (1,))],
            [("Fill", (1,))],
            [("Sub", (2,)), ("Fill", (1,))],
            [("Fill", (2,))],
        ]
        monitor = PastMonitor({"audit": AUDIT}, V)
        for index in range(len(trace)):
            report = monitor.append_state(state(*trace[index]))
            history = History.from_facts(V, trace[: index + 1])
            reference = evaluate_past(body, history, instant=index)
            if "audit" not in monitor.violations() or (
                monitor.violations()["audit"] == index
            ):
                assert report.satisfied["audit"] == reference

    def test_agreement_with_exact_checker_via_future_form(self):
        """The audit constraint has an equivalent future-only form
        ('no fill until a fill-free submission'); the PastMonitor verdicts
        on the past form coincide with the exact checker's on the future
        form, instant by instant."""
        from repro.core import potentially_satisfied

        future_form = parse(
            "forall x . (!Fill(x)) W (Sub(x) & !Fill(x))"
        )
        trace = [[("Sub", (1,))], [("Fill", (1,))], [("Fill", (3,))]]
        monitor = PastMonitor({"audit": AUDIT}, V)
        for index in range(len(trace)):
            monitor.append_state(state(*trace[index]))
            history = History.from_facts(V, trace[: index + 1])
            exact = potentially_satisfied(future_form, history)
            past_view = "audit" not in monitor.violations()
            assert exact == past_view


class TestConstants:
    def test_constant_bindings(self):
        vc = vocabulary({"Fill": 1}, constants=["Vip"])
        constraint = parse("G (Fill(Vip) -> Y Fill(Vip))")
        monitor = PastMonitor(
            {"vip": constraint}, vc, constant_bindings={"Vip": 3}
        )
        report = monitor.append_state(
            DatabaseState.from_facts(vc, [("Fill", (3,))])
        )
        assert report.new_violations == ("vip",)

    def test_unbound_constant_rejected_at_construction(self):
        vc = vocabulary({"Fill": 1}, constants=["Vip"])
        constraint = parse("G (Fill(Vip) -> Y Fill(Vip))")
        with pytest.raises(EvaluationError, match="Vip"):
            PastMonitor({"vip": constraint}, vc)


class TestSchema:
    def test_undeclared_relation_rejected_at_construction(self):
        constraint = parse("forall x . G (Fil(x) -> Y O Sub(x))")
        with pytest.raises(SchemaError, match="undeclared predicate 'Fil'"):
            PastMonitor({"audit": constraint}, V)

    def test_wrong_arity_rejected_at_construction(self):
        constraint = parse("forall x y . G (Fill(x, y) -> Y O Sub(x))")
        with pytest.raises(SchemaError, match="arity"):
            PastMonitor({"audit": constraint}, V)
