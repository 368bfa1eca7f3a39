"""E8 — trigger firing is dual to constraint violation (Section 2).

For each (history, instant, substitution), the trigger ``if C then A``
fires exactly when the negated instantiated condition stops being
potentially satisfied — verified exhaustively over an order workload, with
counts reported per trigger.
"""

from __future__ import annotations

from ..core.triggers import Trigger, TriggerManager, fires
from ..database.history import History
from ..logic.parser import parse
from ..logic.terms import Variable
from ..workloads.orders import ORDER_VOCABULARY, trace_with_duplicate
from .common import print_table

X = Variable("x")


def run(fast: bool = False) -> list[dict]:
    length = 10 if fast else 16
    trace = trace_with_duplicate(length, violate_at=length // 2, seed=21)
    triggers = {
        "resubmitted": Trigger(
            "resubmitted", parse("F (Sub(x) & X F Sub(x))")
        ),
        "double_fill": Trigger(
            "double_fill", parse("F (Fill(x) & X F Fill(x))")
        ),
    }
    manager = TriggerManager(list(triggers.values()))

    firings = []
    duality_checks = 0
    duality_agreements = 0
    states = trace.states()
    for length_so_far in range(1, len(states) + 1):
        history = History(
            vocabulary=ORDER_VOCABULARY,
            states=tuple(states[:length_so_far]),
        )
        fired_now = manager.check(history)
        firings.extend(fired_now)
        # Exhaustive duality verification at this instant.
        for name, trigger in triggers.items():
            for element in sorted(history.relevant_elements()):
                not_pot = fires(trigger, history, {X: element})
                fired_ever = any(
                    f.trigger == name and f.values() == {"x": element}
                    for f in firings
                )
                duality_checks += 1
                if not_pot == fired_ever:
                    duality_agreements += 1

    rows = [
        {
            "trigger": firing.trigger,
            "fired at instant": firing.instant,
            "substitution": dict(firing.values()),
        }
        for firing in firings
    ]
    if not rows:
        rows = [{"trigger": "(none fired)", "fired at instant": None,
                 "substitution": None}]
    print_table(
        "E8  trigger firing == dual constraint violation",
        ["trigger", "fired at instant", "substitution"],
        rows,
        note=f"duality verified pointwise: {duality_agreements}/"
        f"{duality_checks} (trigger fires iff !C-theta not potentially "
        "satisfied); verdict memo: "
        f"{manager.memo_hits} hits / {manager.decisions} decisions",
    )
    assert duality_agreements == duality_checks
    return rows
