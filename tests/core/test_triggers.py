"""Tests for temporal triggers (duality with constraint satisfaction)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestEngineSelection:
    def test_compiled_trigger_manager_matches_bitset(self):
        trace = [
            [("Sub", (1,))],
            [("Sub", (1,))],
            [("Fill", (1,))],
            [("Fill", (1,))],
        ]
        logs = {}
        for engine in ("compiled", "bitset", "reference"):
            manager = TriggerManager(
                [
                    Trigger("resub", parse("F (Sub(x) & X F Sub(x))")),
                    Trigger("refill", parse("F (Fill(x) & X F Fill(x))")),
                ],
                engine=engine,
                lint="off",
            )
            h = History.empty(V)
            for facts in trace:
                h = h.extended(DatabaseState.from_facts(V, facts))
                manager.check(h)
            logs[engine] = manager.log
        assert logs["compiled"] == logs["bitset"] == logs["reference"]
        assert logs["compiled"]  # the duplicate submission fires

    def test_trigger_manager_rejects_bad_engine(self):
        with pytest.raises(ValueError, match="engine"):
            TriggerManager([], engine="vectorized")


traces = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["Sub", "Fill"]),
            st.tuples(st.integers(0, 2)),
        ),
        max_size=2,
    ),
    min_size=1,
    max_size=4,
)


def run_triggers(trace, prune):
    manager = TriggerManager(
        [Trigger("resub", RESUBMIT)], lint="off", prune=prune
    )
    h = History.empty(V)
    for facts in trace:
        h = h.extended(DatabaseState.from_facts(V, facts))
        manager.check(h)
    return manager


class TestTriggerEquivalence:
    """The static sweep skip (DESIGN.md §9) must leave the firing log
    exactly as the exhaustive sweep produces it."""

    @given(trace=traces)
    @settings(max_examples=40, deadline=None)
    def test_pruned_matches_unpruned_firings(self, trace):
        assert run_triggers(trace, True).log == run_triggers(trace, False).log

    def test_quiet_sweeps_are_skipped(self):
        trace = [[("Sub", (1,))], [], [], [("Sub", (1,))]]
        pruned = run_triggers(trace, True)
        naive = run_triggers(trace, False)
        assert pruned.skipped_sweeps > 0
        assert naive.skipped_sweeps == 0
        assert pruned.log == naive.log
        # The resubmission at the last instant is still caught after the
        # skipped sweeps.
        assert any(f.instant == 4 for f in pruned.log)
