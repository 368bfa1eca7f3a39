"""Tests for the Theorem 4.1 reduction."""

import pytest

from repro.core import Anon, RelAtom, ground_domain, reduce_universal
from repro.core.reduction import decode_state, state_to_props
from repro.database import History, vocabulary
from repro.errors import SchemaError
from repro.logic import parse
from repro.logic.classify import require_universal
from repro.ptl import Prop

V = vocabulary({"Sub": 1, "Fill": 1})


def reduction_for(text, history, fold=True):
    info = require_universal(parse(text))
    return reduce_universal(history, info, fold=fold)


class TestGroundDomain:
    def test_relevant_then_anonymous(self):
        domain = ground_domain(frozenset({3, 1}), 2)
        assert domain == (1, 3, Anon(1), Anon(2))

    def test_empty_relevant_set(self):
        assert ground_domain(frozenset(), 1) == (Anon(1),)

    def test_constraint_scope_ignores_foreign_relations(self):
        from repro.core.reduction import constraint_relevant_elements
        from repro.logic.classify import require_universal

        v = vocabulary({"Sub": 1, "Audit": 1})
        h = History.from_facts(
            v, [[("Sub", (1,)), ("Audit", (9,))]]
        )
        info = require_universal(
            parse("forall x . G (Sub(x) -> X G !Sub(x))")
        )
        assert constraint_relevant_elements(h, info) == {1}
        full = reduce_universal(h, info, scope="full")
        narrow = reduce_universal(h, info, scope="constraint")
        assert narrow.assignment_count < full.assignment_count

    def test_invalid_scope(self):
        h = History.empty(V)
        info = require_universal(
            parse("forall x . G (Sub(x) -> X G !Sub(x))")
        )
        import pytest as _pytest

        with _pytest.raises(ValueError):
            reduce_universal(h, info, scope="partial")


class TestReduction:
    def test_instance_count_is_m_to_the_k(self, submit_once, fifo_fill):
        h = History.from_facts(V, [[("Sub", (1,)), ("Sub", (2,))]])
        r1 = reduction_for("forall x . G (Sub(x) -> X G !Sub(x))", h)
        assert r1.assignment_count == 3  # |{1, 2, z1}|^1
        info = require_universal(fifo_fill)
        r2 = reduce_universal(h, info)
        assert r2.assignment_count == 16  # |{1, 2, z1, z2}|^2

    def test_prefix_length_matches_history(self):
        h = History.from_facts(V, [[("Sub", (1,))], [], [("Fill", (1,))]])
        r = reduction_for("forall x . G !(Sub(x) & Fill(x))", h)
        assert len(r.prefix) == 3

    def test_prefix_states_are_fact_letters(self):
        h = History.from_facts(V, [[("Sub", (1,))]])
        r = reduction_for("forall x . G Sub(x)", h)
        assert r.prefix[0] == frozenset({Prop(RelAtom("Sub", (1,)))})

    def test_vocabulary_mismatch_rejected(self):
        h = History.from_facts(V, [[]])
        with pytest.raises(SchemaError, match="undeclared"):
            reduction_for("forall x . G !Missing(x)", h)

    def test_arity_mismatch_rejected(self):
        h = History.from_facts(V, [[]])
        with pytest.raises(SchemaError, match="arity"):
            reduction_for("forall x . G !Sub(x, x)", h)

    def test_extended_vocabulary_rejected(self):
        h = History.from_facts(V, [[]])
        with pytest.raises(SchemaError, match="extended"):
            reduction_for("forall x y . G (succ(x, y) -> !Sub(x))", h)

    def test_unbound_formula_constant_rejected(self):
        h = History.from_facts(V, [[]])
        with pytest.raises(SchemaError):
            reduction_for("forall x . G !Sub(Vip)", h)

    def test_literal_mode_is_bigger(self, submit_once):
        h = History.from_facts(V, [[("Sub", (1,))]])
        info = require_universal(submit_once)
        folded = reduce_universal(h, info, fold=True)
        literal = reduce_universal(h, info, fold=False)
        assert literal.formula_size() > folded.formula_size()

    def test_literal_prefix_contains_identity_letters(self, submit_once):
        from repro.core import EqAtom

        h = History.from_facts(V, [[("Sub", (1,))]])
        info = require_universal(submit_once)
        literal = reduce_universal(h, info, fold=False)
        assert Prop(EqAtom(1, 1)) in literal.prefix[0]


class TestDecoding:
    def test_decode_state_roundtrip(self):
        h = History.from_facts(V, [[("Sub", (1,)), ("Fill", (2,))]])
        r = reduction_for("forall x . G !(Sub(x) & Fill(x))", h)
        decoded = decode_state(r.prefix[0], V, r)
        assert decoded == h[0]

    def test_decode_ignores_non_fact_letters(self):
        h = History.from_facts(V, [[("Sub", (1,))]])
        r = reduction_for("forall x . G Sub(x)", h)
        props = r.prefix[0] | {
            Prop(RelAtom("Fill", (Anon(1),))),  # anonymous: no fact
        }
        decoded = decode_state(props, V, r)
        assert decoded == h[0]

    def test_state_to_props_folded_has_no_equalities(self):
        h = History.from_facts(V, [[("Sub", (1,))]])
        props = state_to_props(h[0], (1, Anon(1)), fold=True)
        assert all(isinstance(p.name, RelAtom) for p in props)


