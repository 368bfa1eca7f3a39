"""Tests for database states (finite relations, closed world)."""

import pytest

from repro.database import DatabaseState, vocabulary
from repro.errors import SchemaError

V = vocabulary({"p": 1, "edge": 2})


def state(*facts):
    return DatabaseState.from_facts(V, facts)


class TestBasics:
    def test_closed_world(self):
        s = state(("p", (1,)))
        assert s.holds("p", (1,))
        assert not s.holds("p", (2,))

    def test_empty_state(self):
        s = DatabaseState.empty(V)
        assert s.fact_count() == 0
        assert s.active_domain() == frozenset()

    def test_facts_sorted_iteration(self):
        s = state(("edge", (2, 1)), ("p", (3,)), ("edge", (0, 1)))
        assert list(s.facts()) == [
            ("edge", (0, 1)),
            ("edge", (2, 1)),
            ("p", (3,)),
        ]

    def test_active_domain(self):
        s = state(("edge", (2, 7)), ("p", (3,)))
        assert s.active_domain() == {2, 3, 7}

    def test_schema_enforced_on_construction(self):
        with pytest.raises(SchemaError):
            state(("p", (1, 2)))

    def test_schema_enforced_on_holds(self):
        with pytest.raises(SchemaError):
            state().holds("q", (1,))

    def test_relation_of_unknown_predicate(self):
        with pytest.raises(SchemaError):
            state().relation("nope")


class TestUpdatesImmutability:
    def test_with_facts_returns_new(self):
        s = state(("p", (1,)))
        s2 = s.with_facts([("p", (2,))])
        assert s2.holds("p", (2,)) and not s.holds("p", (2,))

    def test_without_facts(self):
        s = state(("p", (1,)), ("p", (2,)))
        s2 = s.without_facts([("p", (1,))])
        assert not s2.holds("p", (1,)) and s2.holds("p", (2,))

    def test_without_missing_fact_ignored(self):
        s = state(("p", (1,)))
        assert s.without_facts([("p", (9,))]) == s


class TestEqualityAndHash:
    def test_structural_equality(self):
        assert state(("p", (1,))) == state(("p", (1,)))
        assert state(("p", (1,))) != state(("p", (2,)))

    def test_hashable(self):
        assert len({state(("p", (1,))), state(("p", (1,)))}) == 1

    def test_empty_relations_normalized_away(self):
        s = DatabaseState(vocabulary=V, relations={"p": frozenset()})
        assert s == DatabaseState.empty(V)


class TestRestrictionAndRenaming:
    def test_rename(self):
        s = state(("edge", (1, 2)))
        r = s.rename({1: 10, 2: 20})
        assert r.holds("edge", (10, 20))

    def test_rename_must_be_injective(self):
        with pytest.raises(ValueError):
            state(("p", (1,))).rename({1: 5, 2: 5})
