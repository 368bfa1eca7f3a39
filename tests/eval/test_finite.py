"""Tests for finite-history FOTL evaluation (exact past, truncated future)."""

import pytest

from repro.database import History, vocabulary
from repro.errors import EvaluationError
from repro.eval import evaluate_finite, evaluate_past
from repro.logic import parse

V = vocabulary({"p": 1, "q": 1, "edge": 2})
VC = vocabulary({"p": 1}, constants=["C"])


def hist(*facts_per_state, constants=None, vocab=V):
    return History.from_facts(vocab, list(facts_per_state), constants)


class TestStateFormulas:
    def test_atom(self):
        h = hist([("p", (1,))])
        assert evaluate_finite(parse("exists x . p(x)"), h)
        assert not evaluate_finite(parse("exists x . q(x)"), h)

    def test_forall_over_infinite_universe(self):
        # 'forall x . p(x)' is false: the universe has untouched elements.
        h = hist([("p", (1,))])
        assert not evaluate_finite(parse("forall x . p(x)"), h)

    def test_forall_negative(self):
        h = hist([("p", (1,))])
        assert evaluate_finite(parse("forall x . !q(x)"), h)

    def test_equality_and_fresh_elements(self):
        # Distinct fresh elements exist: exists x y . x != y & !p(x) & !p(y)
        h = hist([("p", (1,))])
        f = parse("exists x . exists y . x != y & !p(x) & !p(y)")
        assert evaluate_finite(f, h)

    def test_constants(self):
        h = hist([("p", (7,))], constants={"C": 7}, vocab=VC)
        assert evaluate_finite(parse("p(C)"), h)

    def test_unbound_constant_raises(self):
        h = hist([("p", (1,))])
        with pytest.raises(Exception):
            evaluate_finite(parse("p(C)"), h)

    def test_unbound_variable_raises(self):
        h = hist([("p", (1,))])
        with pytest.raises(EvaluationError, match="unbound"):
            evaluate_finite(parse("p(x)"), h)


class TestPast:
    def test_prev_false_at_origin(self):
        h = hist([("p", (1,))], [])
        assert not evaluate_past(parse("Y (exists x . p(x))"), h, instant=0)
        assert evaluate_past(parse("Y (exists x . p(x))"), h, instant=1)

    def test_once(self):
        h = hist([("p", (1,))], [], [])
        assert evaluate_past(parse("exists x . O p(x)"), h, instant=2)

    def test_since(self):
        # q(1) at t0, p(1) at t1 and t2: p S q at t2.
        h = hist([("q", (1,))], [("p", (1,))], [("p", (1,))])
        f = parse("exists x . p(x) S q(x)")
        assert evaluate_past(f, h, instant=2)

    def test_since_broken_chain(self):
        h = hist([("q", (1,))], [], [("p", (1,))])
        f = parse("exists x . p(x) S q(x)")
        assert not evaluate_past(f, h, instant=2)

    def test_historically(self):
        h = hist([("p", (1,))], [("p", (1,))])
        assert evaluate_past(parse("exists x . H p(x)"), h, instant=1)

    def test_future_rejected_in_past_mode(self):
        h = hist([])
        with pytest.raises(EvaluationError, match="future"):
            evaluate_past(parse("X (exists x . p(x))"), h)

    def test_default_instant_is_now(self):
        h = hist([("p", (1,))], [("q", (1,))])
        assert evaluate_past(parse("exists x . Y p(x)"), h)


class TestTruncatedFuture:
    def test_next_policies(self):
        h = hist([("p", (1,))])
        f = parse("X (exists x . p(x))")
        assert not evaluate_finite(f, h, future="strong")
        assert evaluate_finite(f, h, future="weak")
        with pytest.raises(EvaluationError):
            evaluate_finite(f, h, future="error")

    def test_until_fulfilled_within_history(self):
        h = hist([("p", (1,))], [("q", (1,))])
        f = parse("exists x . p(x) U q(x)")
        assert evaluate_finite(f, h, future="strong")

    def test_until_pending(self):
        h = hist([("p", (1,))], [("p", (1,))])
        f = parse("exists x . p(x) U q(x)")
        assert not evaluate_finite(f, h, future="strong")
        assert evaluate_finite(f, h, future="weak")

    def test_always_strong_is_false(self):
        h = hist([("p", (1,))])
        f = parse("G (exists x . p(x))")
        assert not evaluate_finite(f, h, future="strong")
        assert evaluate_finite(f, h, future="weak")

    def test_polarity_flips_at_negation(self):
        # Weak evaluation of X f and of !X f are both true at the end —
        # weak truth is an upper bound, not a consistent valuation.
        h = hist([])
        f = "X (exists x . p(x))"
        assert evaluate_finite(parse(f), h, future="weak")
        assert evaluate_finite(parse(f"!({f})"), h, future="weak")

    def test_biconditional_with_next_is_weakly_true_at_end(self):
        h = hist([("p", (1,))])
        f = parse("(X (exists x . p(x))) <-> (exists x . p(x))")
        assert evaluate_finite(f, h, future="weak")

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            evaluate_finite(parse("p(n0)"), hist([]), future="maybe")

    def test_instant_bounds(self):
        with pytest.raises(EvaluationError):
            evaluate_finite(parse("true"), hist([]), instant=5)


class TestWeakIsUpperBound:
    """If some infinite extension satisfies f, the weak evaluation is true
    (the property the baseline checker relies on)."""

    @pytest.mark.parametrize(
        "text",
        [
            "G (exists x . p(x) -> X q(x))",
            "forall x . G (p(x) -> F q(x))",
            "exists x . p(x) U q(x)",
            "forall x . G (p(x) -> X G !p(x))",
        ],
    )
    def test_weak_true_on_extendable_prefixes(self, text):
        from repro.database import LassoDatabase
        from repro.eval import evaluate_lasso_db

        f = parse(text)
        h = hist([("p", (1,))], [("q", (1,))])
        prefix = History(vocabulary=V, states=h.states[:1])
        db = LassoDatabase.constant_extension(prefix)
        # Only check the implication when an actual extension exists.
        extension_exists = False
        try:
            extension_exists = evaluate_lasso_db(f, db)
        except Exception:
            pass
        if extension_exists:
            assert evaluate_finite(f, prefix, future="weak")


class TestBuiltins:
    def test_builtin_requires_domain(self):
        h = hist([("p", (1,))])
        f = parse("exists x . Zero(x) & p(x)")
        with pytest.raises(EvaluationError, match="domain"):
            evaluate_finite(f, h)

    def test_builtin_with_domain(self):
        h = hist([("p", (0,))])
        f = parse("exists x . Zero(x) & p(x)")
        assert evaluate_finite(f, h, domain=frozenset(range(3)))

    def test_succ_and_leq(self):
        h = hist([("p", (0,)), ("p", (1,))])
        dom = frozenset(range(3))
        assert evaluate_finite(
            parse("exists x y . succ(x, y) & p(x) & p(y)"), h, domain=dom
        )
        assert evaluate_finite(
            parse("forall x y . (p(x) & succ(x, y) & p(y)) -> leq(x, y)"),
            h,
            domain=dom,
        )
