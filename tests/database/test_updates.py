"""Tests for updates and state diffs."""

import pytest

from repro.analysis import UpdateDependencyIndex
from repro.database import (
    DatabaseState,
    Update,
    diff_states,
    vocabulary,
)
from repro.errors import SchemaError, StateError
from repro.logic.parser import parse

V = vocabulary({"p": 1})


def state(*facts):
    return DatabaseState.from_facts(V, facts)


class TestUpdate:
    def test_insert_delete_apply(self):
        s = state(("p", (1,)))
        u = Update(
            inserts=frozenset({("p", (2,))}),
            deletes=frozenset({("p", (1,))}),
        )
        s2 = u.apply(s)
        assert s2.holds("p", (2,)) and not s2.holds("p", (1,))

    def test_conflicting_update_rejected(self):
        with pytest.raises(StateError, match="inserts and deletes"):
            Update(
                inserts=frozenset({("p", (1,))}),
                deletes=frozenset({("p", (1,))}),
            )

    def test_noop(self):
        assert Update.noop().is_noop()
        s = state(("p", (1,)))
        assert Update.noop().apply(s) == s

    def test_touched_elements(self):
        u = Update.insert(("p", (3,))) | Update.delete(("p", (9,)))
        assert u.touched_elements() == {3, 9}

    def test_merge_operator(self):
        u = Update.insert(("p", (1,))) | Update.insert(("p", (2,)))
        assert len(u.inserts) == 2

    def test_merge_conflict_raises(self):
        with pytest.raises(StateError):
            Update.insert(("p", (1,))) | Update.delete(("p", (1,)))


class TestDiff:
    def test_diff_roundtrip(self):
        a = state(("p", (1,)), ("p", (2,)))
        b = state(("p", (2,)), ("p", (3,)))
        u = diff_states(a, b)
        assert u.apply(a) == b

    def test_diff_of_equal_states_is_noop(self):
        a = state(("p", (1,)))
        assert diff_states(a, a).is_noop()


class TestDeltaEdgeCases:
    """The deltas the pruning index must classify correctly."""

    def test_noop_update_touches_nothing(self):
        u = Update.noop()
        assert u.touched_elements() == frozenset()

    def test_diff_ignores_redundant_insert(self):
        # Re-inserting a present fact while deleting another one: the
        # diff of the resulting transition must only contain the real
        # change, so the dependence index sees a pure delete.
        a = state(("p", (1,)), ("p", (2,)))
        u = Update.insert(("p", (1,))) | Update.delete(("p", (2,)))
        b = u.apply(a)
        delta = diff_states(a, b)
        assert delta.inserts == frozenset()
        assert delta.deletes == {("p", (2,))}

    def test_duplicate_insert_then_delete_across_instants(self):
        # Inserting a fact that is already there is a semantic no-op;
        # the later delete is the only observable transition.
        states = [state(("p", (1,)))]
        for update in (Update.insert(("p", (1,))), Update.delete(("p", (1,)))):
            states.append(update.apply(states[-1]))
        assert states[0] == states[1]
        assert diff_states(states[0], states[1]).is_noop()
        assert not states[2].holds("p", (1,))

    def test_insert_and_delete_same_fact_one_instant_rejected(self):
        # Within a single instant there is no ordering, so
        # insert-then-delete of one fact is a conflict, not a no-op.
        with pytest.raises(StateError, match="inserts and deletes"):
            Update(
                inserts=frozenset({("p", (1,))}),
                deletes=frozenset({("p", (1,))}),
            )

    def test_update_on_relation_outside_vocabulary(self):
        # The update itself is schema-agnostic; applying it to a state
        # over a vocabulary without the relation fails loudly, and the
        # dependence index lists no constraint over the relation.
        u = Update.insert(("q", (1,)))
        with pytest.raises(SchemaError, match="q"):
            u.apply(state(("p", (1,))))
        index = UpdateDependencyIndex({"c": parse("forall x . G p(x)")})
        assert "q" not in index.monitored_by
        assert "q" not in index.insert_violates
