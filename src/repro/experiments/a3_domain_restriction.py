"""A3 — ablation: Lemma 4.1-style domain restriction.

Theorem 4.1 grounds over ``M = R_D ∪ {z1..zk}`` — Lemma 4.1 is what
licenses stopping there, and the same restriction argument licenses going
one step further: elements that occur only in relations the constraint
never mentions are invisible to it and can be skipped too (the library's
default ``scope="constraint"``).

This ablation grows the *unrelated* part of the database (facts in a
``pad`` relation the constraint does not mention) and compares
``scope="full"`` (the paper's literal ``R_D``) against
``scope="constraint"``: the full scope pays for every padded element, the
constraint scope is flat — the cost Lemma 4.1-style reasoning removes.
(A single-quantifier constraint keeps the sweep feasible; E2 shows where
higher ``k`` hits the wall.)

The constraint ``forall x . G (p(x) -> X (q(x) | q(C)))`` ties every
ground instance to the bound constant's letter ``q(C)``, so the instances
form one letter-connected group and each padded element grows the
automaton.  The instances of ``forall x . G (p(x) -> X q(x))`` share no
letter, so the Büchi kernel decides them one by one and both scopes stay
flat; that family is reported in the ``disjoint`` columns.
"""

from __future__ import annotations

from ..core.checker import check_extension
from ..database.history import History
from ..database.vocabulary import vocabulary
from ..logic.parser import parse
from ..ptl.caches import clear_all_caches
from .common import print_table, timed

VOCAB = vocabulary({"p": 1, "q": 1, "pad": 1}, constants=["C"])

#: Instances joined through the bound constant's letter ``q(C)``.
CONSTRAINT = parse("forall x . G (p(x) -> X (q(x) | q(C)))")
#: Letter-disjoint instances: flat under per-group decisions.
DISJOINT = parse("forall x . G (p(x) -> X q(x))")


def _history(padding: int) -> History:
    facts = [("p", (0,)), ("p", (1,))]
    facts += [("pad", (10 + index,)) for index in range(padding)]
    return History.from_facts(VOCAB, [facts], {"C": 2})


def run(fast: bool = False) -> list[dict]:
    paddings = (0, 1, 2, 3) if fast else (0, 1, 2, 3, 4)
    rows: list[dict] = []
    for padding in paddings:
        history = _history(padding)
        row: dict = {"padding": padding}
        for prefix, constraint in (("", CONSTRAINT), ("disjoint ", DISJOINT)):
            for scope in ("full", "constraint"):
                # Cold per cell: at padding 0 both scopes ground the same
                # formula, and the memoized verdict would time the second.
                clear_all_caches()
                seconds, result = timed(
                    lambda h=history, c=constraint, s=scope: check_extension(
                        c, h, quick=False, scope=s
                    )
                )
                assert result.potentially_satisfied
                if not prefix:
                    row[f"{scope} |M|"] = len(result.reduction.domain)
                row[f"{prefix}{scope} s"] = seconds
        rows.append(row)
    print_table(
        "A3  cost of grounding beyond the constraint-visible domain",
        ["padding", "full |M|", "full s", "constraint |M|", "constraint s",
         "disjoint full s", "disjoint constraint s"],
        rows,
        note="2 live elements + `padding` inert ones; the full scope pays "
        "for every padded element, the constraint scope stays flat; the "
        "letter-disjoint family is flat in both scopes",
    )
    return rows
