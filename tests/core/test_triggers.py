"""Tests for temporal triggers (duality with constraint satisfaction)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.triggers as triggers_module
from repro.core import (
    Trigger,
    TriggerManager,
    candidate_substitutions,
    fires,
    firings,
    potentially_satisfied,
)
from repro.database import DatabaseState, History, vocabulary
from repro.errors import ClassificationError
from repro.logic import not_, parse, var
from repro.logic.transform import nnf
from repro.workloads.orders import ORDER_VOCABULARY, trace_with_duplicate

V = vocabulary({"Sub": 1, "Fill": 1})

RESUBMIT = parse("F (Sub(x) & X F Sub(x))")


def history(*facts_per_state):
    return History.from_facts(V, list(facts_per_state))


class TestFires:
    def test_fires_on_duplicate(self):
        trigger = Trigger("resub", RESUBMIT)
        h = history([("Sub", (1,))], [("Sub", (1,))])
        assert fires(trigger, h, {var("x"): 1})
        assert not fires(trigger, h, {var("x"): 2})

    def test_no_firing_while_future_open(self):
        trigger = Trigger("resub", RESUBMIT)
        h = history([("Sub", (1,))])
        # A second submission may still never happen.
        assert not fires(trigger, h, {var("x"): 1})

    def test_missing_substitution_rejected(self):
        trigger = Trigger("resub", RESUBMIT)
        with pytest.raises(ClassificationError, match="missing"):
            fires(trigger, history([]), {})

    def test_duality_with_constraint(self):
        """fires(C, theta)  iff  not potentially_satisfied(!C theta)."""
        trigger = Trigger("resub", RESUBMIT)
        h = history([("Sub", (1,))], [("Sub", (1,))])
        # Build !C[x := 1] by hand with an auxiliary constant.
        from repro.core.triggers import _augment_history, _instantiate

        inst, bindings = _instantiate(RESUBMIT, {var("x"): 1})
        negated = nnf(not_(inst))
        augmented = _augment_history(h, bindings)
        assert fires(trigger, h, {var("x"): 1}) == (
            not potentially_satisfied(negated, augmented)
        )


class TestEnumeration:
    def test_candidates_cover_relevant_and_fresh(self):
        trigger = Trigger("resub", RESUBMIT)
        h = history([("Sub", (1,)), ("Sub", (5,))])
        values = {
            subst[var("x")]
            for subst in candidate_substitutions(trigger, h)
        }
        assert {1, 5} <= values
        assert len(values) == 3  # plus one fresh representative

    def test_without_fresh(self):
        trigger = Trigger("resub", RESUBMIT)
        h = history([("Sub", (1,))])
        values = list(
            candidate_substitutions(trigger, h, include_fresh=False)
        )
        assert len(values) == 1

    def test_firings_report(self):
        trigger = Trigger("resub", RESUBMIT)
        h = history([("Sub", (1,))], [("Sub", (1,)), ("Sub", (2,))])
        found = firings(trigger, h)
        assert len(found) == 1
        assert found[0].values() == {"x": 1}
        assert found[0].instant == 1


def _duplicate_workload_manager(triggers):
    trace = trace_with_duplicate(10, violate_at=5, seed=21)
    states = trace.states()
    manager = TriggerManager(triggers)
    for upto in range(1, len(states) + 1):
        manager.check(
            History(vocabulary=ORDER_VOCABULARY, states=tuple(states[:upto]))
        )
    return manager


ORDER_TRIGGERS = [
    Trigger("resubmitted", RESUBMIT),
    Trigger("double_fill", parse("F (Fill(x) & X F Fill(x))")),
]


class TestManager:
    def test_deduplicates_firings(self):
        trigger = Trigger("resub", RESUBMIT)
        manager = TriggerManager([trigger])
        h2 = history([("Sub", (1,))], [("Sub", (1,))])
        assert len(manager.check(h2)) == 1
        h3 = history([("Sub", (1,))], [("Sub", (1,))], [])
        assert manager.check(h3) == []  # already fired
        assert len(manager.log) == 1

    def test_action_callback_invoked(self):
        calls = []
        trigger = Trigger(
            "resub",
            RESUBMIT,
            action=lambda hist, values: calls.append(values),
        )
        manager = TriggerManager([trigger])
        manager.check(history([("Sub", (2,))], [("Sub", (2,))]))
        assert calls == [{"x": 2}]

    def test_multiple_triggers(self):
        double_fill = Trigger(
            "dfill", parse("F (Fill(x) & X F Fill(x))")
        )
        resub = Trigger("resub", RESUBMIT)
        manager = TriggerManager([resub, double_fill])
        h = history(
            [("Sub", (1,))],
            [("Sub", (1,)), ("Fill", (3,))],
            [("Fill", (3,))],
        )
        fired = manager.check(h)
        assert {f.trigger for f in fired} == {"resub", "dfill"}

    def test_duplicate_names_rejected(self):
        # Firings are deduplicated per (name, substitution): a second
        # trigger under the same name would lose its firings and actions.
        with pytest.raises(ValueError, match="unique"):
            TriggerManager(
                [
                    Trigger("t", RESUBMIT),
                    Trigger("t", parse("F (Fill(x) & X F Fill(x))")),
                ]
            )

    def test_remainder_memo_hits(self):
        """Quiet instants progress ¬Cθ to the same interned remainder, so
        the Lemma 4.2 decision is made once and memoized thereafter."""
        manager = _duplicate_workload_manager(ORDER_TRIGGERS)
        assert manager.decisions > 0
        assert manager.memo_hits > 0
        assert manager.memo_hits > manager.decisions

    def test_bounded_memo_resets_without_changing_firings(self, monkeypatch):
        unbounded = _duplicate_workload_manager(ORDER_TRIGGERS)
        assert unbounded.stats()["memo_resets"] == 0
        monkeypatch.setattr(triggers_module, "_REMAINDER_MEMO_SIZE", 2)
        bounded = _duplicate_workload_manager(ORDER_TRIGGERS)
        stats = bounded.stats()
        assert stats["memo_resets"] > 0
        assert stats["memo_entries"] <= 2
        assert bounded.log == unbounded.log
        assert unbounded.log  # the duplicate workload fires


facts = st.lists(
    st.tuples(st.sampled_from(["Sub", "Fill"]), st.tuples(st.integers(0, 3))),
    max_size=2,
)
# Each state comes with whether the manager is asked at that instant.
checked_traces = st.lists(
    st.tuples(facts, st.booleans()), min_size=1, max_size=5
)

ORACLE_TRIGGERS = (
    Trigger("resub", RESUBMIT),
    Trigger("double_fill", parse("F (Fill(x) & X F Fill(x))")),
    # Fires for every y once x is resubmitted, so an element that first
    # appears in Fill, while Sub is quiet, brings new firings.
    Trigger("resub_any", parse("F (Sub(x) & X F Sub(x)) & y = y")),
    # Its negation G (Sub(x) -> X Fill(x)) mentions Fill positively, so
    # the sweep skip never applies to it.
    Trigger("unfilled", parse("F (Sub(x) & X !Fill(x))")),
)


def run_against_oracle(triggers, trace):
    """Drive a manager over ``(facts, checked)`` pairs and, at every
    checked instant and the last one, check that it reports exactly the
    not-yet-reported firings of the from-scratch definition, in order."""
    manager = TriggerManager(triggers, lint="off")
    reported = set()
    h = History.empty(V)
    for position, (state_facts, checked) in enumerate(trace):
        h = h.extended(DatabaseState.from_facts(V, state_facts))
        if not checked and position < len(trace) - 1:
            continue
        expected = [
            firing
            for trigger in triggers
            for firing in firings(trigger, h)
            if (firing.trigger, firing.substitution) not in reported
        ]
        assert manager.check(h) == expected
        reported.update((f.trigger, f.substitution) for f in expected)
    return manager


class TestTriggerEquivalence:
    """The manager's incremental sweep (compiled kernels, remainder memo,
    sweep skip) against :func:`firings`, the paper's definition decided
    from scratch on the whole history."""

    # A new element arriving through Fill alone, and a quiet instant
    # after an unchecked one: the cases the sweep skip must not skip.
    @example(trace=[([("Sub", (1,))], True)] * 2 + [([("Fill", (2,))], True)])
    @example(
        trace=[([("Sub", (1,))], True), ([("Sub", (1,))], False), ([], True)]
    )
    @given(trace=checked_traces)
    @settings(max_examples=40, deadline=None)
    def test_check_matches_firings_oracle(self, trace):
        run_against_oracle(ORACLE_TRIGGERS, trace)

    def test_quiet_sweeps_are_skipped(self):
        trace = [[("Sub", (1,))], [], [], [("Sub", (1,))]]
        manager = run_against_oracle(
            (Trigger("resub", RESUBMIT),), [(f, True) for f in trace]
        )
        assert manager.skipped_sweeps > 0
        # The resubmission at the last instant is still caught after the
        # skipped sweeps.
        assert any(f.instant == 4 for f in manager.log)
