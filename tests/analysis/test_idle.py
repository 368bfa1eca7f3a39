"""Tests for idle-step classification and registration-time verdicts."""

from repro import classify, parse
from repro.analysis import IdleClass, idle_class, static_verdict


class TestIdleClass:
    def test_equality_only_is_state_independent(self):
        assert idle_class(parse("forall x . G (x = x)")) is (
            IdleClass.STATE_INDEPENDENT
        )

    def test_past_only_is_past_closed(self):
        f = parse("forall x . (Fill(x) -> O Sub(x))")
        assert idle_class(f) is IdleClass.PAST_CLOSED

    def test_nontemporal_state_constraint_is_past_closed(self):
        f = parse("forall x . (Fill(x) -> Sub(x))")
        assert idle_class(f) is IdleClass.PAST_CLOSED

    def test_future_constraint_is_live(self):
        f = parse("forall x . G (Sub(x) -> X G !Sub(x))")
        assert idle_class(f) is IdleClass.LIVE


class TestStaticVerdict:
    def test_valid_equality_constraint(self):
        assert static_verdict(parse("forall x . G (x = x)")) is True

    def test_unsatisfiable_equality_constraint(self):
        assert static_verdict(parse("forall x . F !(x = x)")) is False

    def test_distinct_variables_fail_somewhere(self):
        # Over the anonymous two-element domain x = y fails for one
        # assignment, so the universal closure is violated everywhere.
        assert static_verdict(parse("forall x . forall y . G (x = y)")) is False

    def test_predicate_formula_is_undecided(self):
        f = parse("forall x . G (Sub(x) -> X G !Sub(x))")
        assert static_verdict(f) is None

    def test_constant_formula_is_undecided(self):
        assert static_verdict(parse("forall x . G (x = A)")) is None

    def test_past_formula_is_undecided(self):
        assert static_verdict(parse("forall x . O (x = x)")) is None

    def test_nonuniversal_formula_is_undecided(self):
        f = parse("forall x . G (exists y . (y = x))")
        assert static_verdict(f) is None

    def test_closed_formula_without_quantifiers(self):
        f = parse("forall x . G (x = x)")
        info = classify(f)
        assert static_verdict(f, info) is True
