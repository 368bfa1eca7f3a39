"""Tests for the history-less incremental past evaluator.

The key property: the incremental evaluator agrees with the reference
(whole-history) past evaluator on every state of every history — including
histories whose active domain grows — while its memory footprint stays
independent of the history length.
"""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.grounding import Anon
from repro.database import DatabaseState, History, vocabulary
from repro.errors import ClassificationError, EvaluationError, SchemaError
from repro.eval import evaluate_past
from repro.logic import parse
from repro.logic.formulas import (
    And,
    Atom,
    Eq,
    Exists,
    FalseFormula,
    Forall,
    Historically,
    Iff,
    Implies,
    Not,
    Once,
    Or,
    Prev,
    Since,
    TrueFormula,
)
from repro.logic.terms import Constant, Variable
from repro.pasteval import IncrementalPastEvaluator

V = vocabulary({"Sub": 1, "Fill": 1})


def run_both(formula_text, facts_per_state, vocab=V):
    """Advance the incremental evaluator and compare with the reference."""
    formula = parse(formula_text)
    evaluator = IncrementalPastEvaluator(formula, vocab)
    outcomes = []
    for instant in range(len(facts_per_state)):
        state = DatabaseState.from_facts(vocab, facts_per_state[instant])
        incremental = evaluator.advance(state)
        history = History.from_facts(vocab, facts_per_state[: instant + 1])
        reference = evaluate_past(formula, history, instant=instant)
        outcomes.append((incremental, reference))
    return outcomes


AUDIT = "forall x . Fill(x) -> Y O Sub(x)"
SINCE2 = (
    "forall x y . (Fill(x) & Fill(y)) -> "
    "((!Fill(x)) S Sub(y) | x = y | O Sub(x))"
)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "formula",
        [
            AUDIT,
            SINCE2,
            "forall x . H !Fill(x) | O Sub(x)",
            "exists x . Y Sub(x)",
            "forall x . Sub(x) -> !(Y O Sub(x))",
        ],
    )
    def test_fixed_trace(self, formula):
        trace = [
            [("Sub", (1,))],
            [("Fill", (1,))],
            [("Fill", (2,))],
            [("Sub", (2,))],
            [("Fill", (2,)), ("Sub", (3,))],
            [],
            [("Fill", (3,))],
        ]
        for incremental, reference in run_both(formula, trace):
            assert incremental == reference

    @given(
        trace=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["Sub", "Fill"]),
                    st.tuples(st.integers(0, 3)),
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_traces_audit(self, trace):
        for incremental, reference in run_both(AUDIT, trace):
            assert incremental == reference

    @given(
        trace=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["Sub", "Fill"]),
                    st.tuples(st.integers(0, 2)),
                ),
                max_size=2,
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traces_two_variables(self, trace):
        for incremental, reference in run_both(SINCE2, trace):
            assert incremental == reference


# -- random formulas ----------------------------------------------------------

RV = vocabulary({"Mark": 1, "Link": 2}, constants=["c"])
BINDINGS = {"c": 1}
NAMES = ("x", "y", "z")
#: Generic g_i of a table row is checked as the natural FRESH + i, which
#: no trace below ever mentions.
FRESH = 10_000


def _terms(scope):
    return st.sampled_from(
        [Variable(name) for name in scope] + [Constant("c")]
    )


@st.composite
def past_formulas(draw, scope=(), depth=4):
    """Random past formulas over ``Mark/1``, ``Link/2``, equality and the bound
    constant ``c``, free variables drawn from ``scope``; quantifiers open
    nested scopes of up to three variables."""
    ops = (
        "S", "Y", "O", "H", "and", "or", "implies", "iff", "not",
        "exists", "forall", "leaf",
    )
    op = draw(st.sampled_from(ops)) if depth else "leaf"
    if op == "leaf":
        kind = draw(st.sampled_from(("Link", "Mark", "eq", "true", "false")))
        if kind == "Mark":
            return Atom("Mark", (draw(_terms(scope)),))
        if kind == "Link":
            return Atom("Link", (draw(_terms(scope)), draw(_terms(scope))))
        if kind == "eq":
            return Eq(draw(_terms(scope)), draw(_terms(scope)))
        return TrueFormula() if kind == "true" else FalseFormula()
    if op in ("exists", "forall"):
        name = draw(st.sampled_from(NAMES))
        body = draw(past_formulas(tuple(sorted({*scope, name})), depth - 1))
        return (Exists if op == "exists" else Forall)(Variable(name), body)
    sub = past_formulas(scope, depth - 1)
    if op == "not":
        return Not(draw(sub))
    if op == "Y":
        return Prev(draw(sub))
    if op == "O":
        return Once(draw(sub))
    if op == "H":
        return Historically(draw(sub))
    left, right = draw(sub), draw(sub)
    binary = {"and": And, "or": Or}
    if op in binary:
        return binary[op]((left, right))
    return {"implies": Implies, "iff": Iff, "S": Since}[op](left, right)


@st.composite
def growing_traces(draw):
    """Traces whose element range widens by one each instant."""
    trace = []
    for instant in range(draw(st.integers(1, 5))):
        element = st.integers(0, 1 + instant)
        trace.append(
            draw(
                st.lists(
                    st.one_of(
                        st.tuples(st.just("Mark"), st.tuples(element)),
                        st.tuples(
                            st.just("Link"), st.tuples(element, element)
                        ),
                    ),
                    max_size=2,
                )
            )
        )
    return trace


def _reference_table(formula, prefix, width):
    """Every row over ``seen ∪ {g1..g_width}`` and whether
    :func:`evaluate_past` satisfies it on ``prefix``."""
    seen = sorted(prefix.active_domain() | frozenset(BINDINGS.values()))
    domain = seen + [Anon(i + 1) for i in range(width)]
    variables = sorted(formula.free_variables(), key=lambda v: v.name)
    table = {}
    for row in product(domain, repeat=len(variables)):
        valuation = {
            variable: FRESH + value.index if isinstance(value, Anon) else value
            for variable, value in zip(variables, row)
        }
        table[row] = evaluate_past(formula, prefix, valuation=valuation)
    return table


class TestRandomFormulas:
    @given(
        formula=st.sampled_from([("x", "y"), ("x",), ()]).flatmap(
            past_formulas
        ),
        trace=growing_traces(),
        cut=st.integers(0, 5),
    )
    # One closed child lifted into slots of two arities.
    @example(
        formula=Or(
            (
                And((Atom("Mark", (Variable("x"),)), TrueFormula())),
                And(
                    (
                        Atom("Link", (Variable("x"), Variable("y"))),
                        TrueFormula(),
                    )
                ),
            )
        ),
        trace=[[("Link", (0, 1))], [("Mark", (2,))]],
        cut=1,
    )
    @settings(max_examples=200, deadline=None)
    def test_tables_match_reference(self, formula, trace, cut):
        # At instant `cut` the evaluator is replaced by a fresh one
        # resumed from its seen-set and memory tables, which must carry
        # on as though it had never stopped.
        def fresh():
            evaluator = IncrementalPastEvaluator(formula, RV)
            evaluator.bind_constant("c", BINDINGS["c"])
            return evaluator

        evaluator = fresh()
        bound = {
            node.var
            for node in formula.walk()
            if isinstance(node, (Exists, Forall))
        }
        width = max(1, len(bound | formula.free_variables()))
        # The subformulas whose previous-instant tables the next step
        # reads: each Y's operand, and each O, H and S.
        remembered = {
            node.body if isinstance(node, Prev) else node
            for node in formula.walk()
            if isinstance(node, (Prev, Once, Historically, Since))
        }
        for instant in range(len(trace)):
            if instant == cut > 0:
                resumed = fresh()
                resumed.resume(evaluator.seen, evaluator.memory())
                evaluator = resumed
            verdict = evaluator.advance(
                DatabaseState.from_facts(RV, trace[instant])
            )
            prefix = History.from_facts(
                RV, trace[: instant + 1], constant_bindings=BINDINGS
            )
            table = _reference_table(formula, prefix, width)
            assert evaluator.satisfying_assignments() == {
                row for row, holds in table.items() if holds
            }
            assert verdict == all(table.values())
            if formula.is_closed():
                assert verdict == evaluate_past(formula, prefix)
            assert evaluator.memory_size == sum(
                sum(_reference_table(sub, prefix, width).values())
                for sub in remembered
            )


class TestHistoryLessness:
    def test_memory_independent_of_length(self):
        formula = parse(AUDIT)
        evaluator = IncrementalPastEvaluator(formula, V)
        state = DatabaseState.from_facts(V, [("Sub", (1,))])
        sizes = []
        for _ in range(30):
            evaluator.advance(state)
            sizes.append(evaluator.memory_size)
        # After the first step the footprint must be constant.
        assert len(set(sizes[2:])) == 1

    def test_memory_grows_with_domain_not_time(self):
        formula = parse(AUDIT)
        evaluator = IncrementalPastEvaluator(formula, V)
        for element in range(5):
            evaluator.advance(
                DatabaseState.from_facts(V, [("Sub", (element,))])
            )
        grown = evaluator.memory_size
        for _ in range(20):
            evaluator.advance(DatabaseState.empty(V))
        assert evaluator.memory_size == grown


class TestAPI:
    def test_future_formula_rejected(self):
        with pytest.raises(ClassificationError):
            IncrementalPastEvaluator(parse("F (exists x . Sub(x))"), V)

    @pytest.mark.parametrize("formula", ["O Fil(x)", "O Sub(x, x)"])
    def test_schema_checked_at_construction(self, formula):
        with pytest.raises(SchemaError):
            IncrementalPastEvaluator(parse(formula), V)

    def test_current_value_requires_closed(self):
        evaluator = IncrementalPastEvaluator(parse("O Sub(x)"), V)
        evaluator.advance(DatabaseState.empty(V))
        with pytest.raises(EvaluationError, match="free"):
            evaluator.current_value()

    def test_current_value_before_advance(self):
        evaluator = IncrementalPastEvaluator(
            parse("exists x . O Sub(x)"), V
        )
        with pytest.raises(EvaluationError):
            evaluator.current_value()

    def test_satisfying_assignments_generic_marker(self):
        from repro.core.grounding import Anon

        evaluator = IncrementalPastEvaluator(parse("!(O Sub(x))"), V)
        evaluator.advance(DatabaseState.from_facts(V, [("Sub", (1,))]))
        table = evaluator.satisfying_assignments()
        # Element 1 was submitted; the generic (never-seen) element and no
        # concrete element satisfy 'never submitted'.
        assert (1,) not in table
        assert any(isinstance(value[0], Anon) for value in table)

    def test_constant_binding(self):
        vc = vocabulary({"Sub": 1}, constants=["Vip"])
        evaluator = IncrementalPastEvaluator(parse("O Sub(Vip)"), vc)
        evaluator.bind_constant("Vip", 3)
        assert not evaluator.advance(
            DatabaseState.from_facts(vc, [("Sub", (1,))])
        )
        assert evaluator.advance(
            DatabaseState.from_facts(vc, [("Sub", (3,))])
        )

    def test_constant_binding_after_start_rejected(self):
        vc = vocabulary({"Sub": 1}, constants=["Vip"])
        evaluator = IncrementalPastEvaluator(parse("O Sub(Vip)"), vc)
        evaluator.bind_constant("Vip", 3)
        evaluator.advance(DatabaseState.empty(vc))
        with pytest.raises(EvaluationError):
            evaluator.bind_constant("Vip", 4)
