"""Memo durability under garbage collection.

The durability sweep replaced every ``id()``-keyed memo with keys that
hold the formula node itself (:mod:`repro.eval.finite`,
:mod:`repro.eval.lasso`): FOTL nodes are plain non-interned values, so
an id-keyed entry neither pins its node alive nor survives id recycling
— a collected node's id reused by a *different* formula would satisfy
the lookup and return a stale (wrong) verdict.  These tests force that
failure mode: every step discards its formula objects, allocates fresh
structurally-distinct garbage to encourage id reuse, runs a full
``gc.collect()``, and checks verdicts against an undisturbed reference.
The monitor and trigger sweeps cover the interned side too (progression
kernel rows, the trigger verdict memo), which key on stable kernel ids
by construction.
"""

import gc

from repro.core import IntegrityMonitor, TriggerManager, Trigger
from repro.database import DatabaseState, History, LassoDatabase, vocabulary
from repro.eval.finite import evaluate_finite, evaluate_past
from repro.eval.lasso import evaluate_lasso_db
from repro.logic import parse

V = vocabulary({"Sub": 1, "Fill": 1})

TRACE = [
    [("Sub", (1,))],
    [("Sub", (2,))],
    [("Fill", (1,)), ("Sub", (1,))],
    [],
    [("Fill", (2,))],
]


def _churn(step: int) -> None:
    """Allocate and drop many distinct formula nodes, then collect —
    maximizing the chance a recycled id lands where a stale
    id-keyed memo entry would be consulted."""
    garbage = [
        parse("forall x . G (Sub(x) -> X G !Fill(x))")
        for _ in range(10 + step)
    ]
    garbage += [parse("exists x . F Fill(x)") for _ in range(10)]
    del garbage
    gc.collect()


class TestEvalMemosUnderGC:
    def test_finite_eval_verdicts_stable(self):
        history = History.from_facts(V, TRACE)
        text = "G ((exists x . Sub(x)) -> F (exists y . Fill(y)))"
        expected = evaluate_finite(parse(text), history)
        for step in range(8):
            _churn(step)
            # A freshly parsed (new object, possibly recycled-id) copy
            # must evaluate identically.
            assert evaluate_finite(parse(text), history) == expected

    def test_past_eval_verdicts_stable(self):
        history = History.from_facts(V, TRACE)
        text = "forall x . (Fill(x) -> Y O Sub(x))"
        expected = evaluate_past(parse(text), history)
        for step in range(8):
            _churn(step)
            assert evaluate_past(parse(text), history) == expected

    def test_lasso_eval_verdicts_stable(self):
        history = History.from_facts(V, TRACE)
        db = LassoDatabase.constant_extension(history)
        text = "G ((exists x . Sub(x)) -> F (exists y . Fill(y)))"
        expected = evaluate_lasso_db(parse(text), db)
        for step in range(8):
            _churn(step)
            assert evaluate_lasso_db(parse(text), db) == expected


class TestMonitorUnderGC:
    def test_compiled_kernel_verdicts_stable(self):
        """Progression-kernel memos (transition rows) key on
        kernel-interned ids with strong references — GC churn between
        steps must not perturb a single verdict."""
        reference = IntegrityMonitor(
            {"once": parse("forall x . G (Sub(x) -> X G !Sub(x))")},
            History.empty(V),
        )
        stressed = IntegrityMonitor(
            {"once": parse("forall x . G (Sub(x) -> X G !Sub(x))")},
            History.empty(V),
        )
        for step, facts in enumerate(TRACE + [[("Sub", (2,))]]):
            state = DatabaseState.from_facts(V, facts)
            expected = reference.append_state(state)
            _churn(step)
            got = stressed.append_state(state)
            assert (got.satisfied, got.new_violations) == (
                expected.satisfied,
                expected.new_violations,
            )
        assert stressed.violations() == reference.violations()


class TestTriggersUnderGC:
    def test_trigger_firings_stable(self):
        """The trigger verdict memo is keyed by kernel ids, which the
        manager's kernel never reassigns — churn plus collection must not
        change which substitutions fire."""

        def build():
            return TriggerManager(
                [Trigger("dup", parse("F (Sub(x) & X F Sub(x))"))],
                lint="off",
            )

        reference, stressed = build(), build()
        prefix: list[list[tuple[str, tuple[int, ...]]]] = []
        for step, facts in enumerate(TRACE + [[("Sub", (1,))]]):
            prefix.append(facts)
            history = History.from_facts(V, prefix)
            expected = reference.check(history)
            _churn(step)
            got = stressed.check(history)
            assert [
                (f.trigger, f.substitution, f.instant) for f in got
            ] == [
                (f.trigger, f.substitution, f.instant) for f in expected
            ]
        assert [f.trigger for f in stressed.log] == [
            f.trigger for f in reference.log
        ]
