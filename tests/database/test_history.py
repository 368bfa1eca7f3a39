"""Tests for finite-time temporal databases (histories)."""

import pytest

from repro.database import DatabaseState, History, Update, vocabulary
from repro.database.serialize import history_from_dict, history_to_dict
from repro.database.vocabulary import Vocabulary
from repro.errors import SchemaError, StateError

V = vocabulary({"p": 1, "edge": 2}, constants=["c"])
VPLAIN = vocabulary({"p": 1})


class TestConstruction:
    def test_from_facts(self):
        h = History.from_facts(VPLAIN, [[("p", (1,))], []])
        assert len(h) == 2
        assert h[0].holds("p", (1,))
        assert h.now == 1

    def test_empty_history_rejected(self):
        with pytest.raises(StateError):
            History(vocabulary=VPLAIN, states=())

    def test_constants_must_be_bound(self):
        with pytest.raises(SchemaError, match="without interpretation"):
            History.from_facts(V, [[]])

    def test_undeclared_constant_rejected(self):
        with pytest.raises(SchemaError, match="undeclared"):
            History.from_facts(VPLAIN, [[]], {"nope": 1})

    def test_constant_lookup(self):
        h = History.from_facts(V, [[]], {"c": 7})
        assert h.constant("c") == 7

    def test_unbound_constant_lookup(self):
        h = History.from_facts(VPLAIN, [[]])
        with pytest.raises(SchemaError):
            h.constant("c")


class TestGrowth:
    def test_extended(self):
        h = History.empty(VPLAIN)
        h2 = h.extended(DatabaseState.from_facts(VPLAIN, [("p", (1,))]))
        assert len(h) == 1 and len(h2) == 2
        assert h2.current.holds("p", (1,))

    def test_extended_compares_only_the_new_state(self, monkeypatch):
        """After a restore the history's vocabulary is a new object, so
        each check is a structural comparison; an append makes at most
        one, however long the history."""
        original = History.from_facts(
            VPLAIN, [[("p", (i,))] for i in range(50)]
        )
        restored = history_from_dict(history_to_dict(original))
        assert restored.vocabulary is not VPLAIN
        appended = [
            DatabaseState.from_facts(VPLAIN, [("p", (i,))])
            for i in range(20)
        ]
        comparisons = 0
        real_eq = Vocabulary.__eq__

        def counting_eq(self, other):
            nonlocal comparisons
            comparisons += 1
            return real_eq(self, other)

        monkeypatch.setattr(Vocabulary, "__eq__", counting_eq)
        history = restored
        for state in appended:
            history = history.extended(state)
        assert len(history) == 70
        assert history.current is appended[-1]
        assert comparisons <= len(appended)

    def test_extended_rejects_a_foreign_state(self):
        history = History.from_facts(VPLAIN, [[("p", (1,))], []])
        foreign = DatabaseState.from_facts(V, [("edge", (1, 2))])
        with pytest.raises(SchemaError, match="share its vocabulary"):
            history.extended(foreign)
        with pytest.raises(SchemaError, match="share its vocabulary"):
            history.updated(Update.insert(("p", (2,)))).extended(foreign)

    def test_updated_applies_delta(self):
        h = History.from_facts(VPLAIN, [[("p", (1,))]])
        h2 = h.updated(Update.insert(("p", (2,))))
        assert h2.current.holds("p", (1,))  # persists
        assert h2.current.holds("p", (2,))


class TestRelevantElements:
    def test_includes_all_states_and_constants(self):
        h = History.from_facts(
            V, [[("p", (3,))], [("edge", (5, 6))]], {"c": 9}
        )
        assert h.relevant_elements() == {3, 5, 6, 9}

    def test_active_domain_excludes_constants(self):
        h = History.from_facts(V, [[("p", (3,))]], {"c": 9})
        assert h.active_domain() == {3}

    def test_fact_count(self):
        h = History.from_facts(
            VPLAIN, [[("p", (1,)), ("p", (2,))], [("p", (1,))]]
        )
        assert h.fact_count() == 3


class TestRestrictionRenaming:
    def test_rename_remaps_constants_too(self):
        h = History.from_facts(V, [[("p", (3,))]], {"c": 3})
        r = h.rename({3: 30})
        assert r.constant("c") == 30
        assert r[0].holds("p", (30,))
