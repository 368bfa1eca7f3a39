"""E2 — Theorem 4.2: checking time is exponential in ``|R_D|``, with the
number of external quantifiers ``k`` in the exponent.

The ground formula has ``|M|^k = (|R_D| + k)^k`` instances and the
satisfiability phase is exponential in the largest group of instances
joined by shared letters.  Two sweeps:

* ``k = 1`` (``G (p(x) -> X q(x))``): no two instances share a letter, so
  the Büchi kernel decides them one by one and the time stays flat;
* ``k = 2``: every pair of elements shares letters through
  ``p(x) & p(y)``, so the instances are one group and the wall arrives
  almost immediately; cells that exceed the per-cell budget are reported
  as timeouts — the timeout *is* the datum (the paper's point is
  precisely that ``|R_D|`` cannot leave the exponent).

The quick-path is disabled: the point is the engine's cost.  Histories are
single states in which every element carries an open next-step obligation,
so the satisfiability phase cannot collapse.
"""

from __future__ import annotations

from ..core.checker import check_extension
from ..database.history import History
from ..database.vocabulary import vocabulary
from ..logic.parser import parse
from .common import print_table, timed_with_timeout

VOCAB = vocabulary({"p": 1, "q": 1})

#: k=1: every p must be q-acknowledged at the very next instant.
K1 = parse("forall x . G (p(x) -> X q(x))")
#: k=2: no two elements may stay jointly p across an instant.
K2 = parse("forall x y . G ((p(x) & p(y)) -> (x = y | X (!p(x) | !p(y))))")


def _history(domain: int) -> History:
    facts = [("p", (element,)) for element in range(domain)]
    return History.from_facts(VOCAB, [facts])


def run(fast: bool = False) -> list[dict]:
    budget = 20.0 if fast else 60.0
    sizes = (1, 2, 3, 4, 5) if fast else (1, 2, 3, 4, 5, 6)
    rows: list[dict] = []
    walls = {"k=1": False, "k=2": False}
    for size in sizes:
        history = _history(size)
        row: dict = {"|R_D|": size}
        for label, constraint in (("k=1", K1), ("k=2", K2)):
            if walls[label]:
                row[f"{label} seconds"] = "(skipped)"
                continue
            seconds, result = timed_with_timeout(
                lambda h=history, c=constraint: check_extension(
                    c, h, quick=False
                ),
                budget,
            )
            if seconds is None:
                row[f"{label} instances"] = (size + int(label[-1])) ** int(
                    label[-1]
                )
                row[f"{label} seconds"] = f"> {budget:.0f}s (wall)"
                walls[label] = True
            else:
                assert result.potentially_satisfied
                row[f"{label} instances"] = (
                    result.reduction.assignment_count
                )
                row[f"{label} seconds"] = seconds
        rows.append(row)
    print_table(
        "E2  checking time vs relevant-domain size (Theorem 4.2: "
        "exponential, exponent max(k,l))",
        ["|R_D|", "k=1 instances", "k=1 seconds", "k=2 instances",
         "k=2 seconds"],
        rows,
        note="single-state histories with |R_D| live elements; quick-path "
        "disabled; k=1 instances share no letter and are decided one by "
        "one; a timeout cell is the exponential wall of k=2",
    )
    return rows
