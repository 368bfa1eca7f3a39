"""Seeded inputs of the benchmark: constraint texts and stream generators.

Everything a workload feeds the monitor is generated here from the
run's ``--seed``, so a change to the program cannot shift the inputs.
Constraint texts are parsed with ``repro.parse`` by the caller.

A stream is a list of per-instant fact lists for instants 1..n; instant 0
is the empty state of ``History.empty``.  Every stream records which
constraint its injected violations break and at which instant, so the
expected verdict of every report is known in advance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Fact = tuple[str, tuple[int, ...]]

#: The paper's order database: ``Sub(x)``/``Fill(x)`` are events.
ORDER_SCHEMA = {"Sub": 1, "Fill": 1}

#: Registration order matters: reports list verdicts in this order.
ORDER_CONSTRAINTS = {
    "submit_once": "forall x . G (Sub(x) -> X G !Sub(x))",
    "fifo_fill": (
        "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
        "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))"
    ),
    "fill_once": "forall x . G (Fill(x) -> X G !Fill(x))",
    # Past form of the audit rule; the planner routes it to pasteval.
    "audit": "forall x . G (Fill(x) -> Y O Sub(x))",
}

#: Constraints the from-scratch oracle decides with ``check_extension``;
#: the past-form audit rule is outside its fragment and is evaluated with
#: ``evaluate_finite`` instead.
ORDER_FUTURE = ("submit_once", "fifo_fill", "fill_once")

#: Injection kinds for order episodes and the constraint each breaks.
ORDER_INJECTIONS = {
    "duplicate_submit": "submit_once",
    "out_of_order_fill": "fifo_fill",
    "double_fill": "fill_once",
    "phantom_fill": "audit",
}

#: Order ids at or above this bound are never submitted.
PHANTOM_BASE = 10_000

STALENESS_FIELDS = ("price", "stock", "rating", "eta")
STALENESS_BUDGET = 2
#: Value ids per field.  At 4 ids one update's Büchi decisions take
#: 24 s instead of 0.2 s (README.md, the decide-layer cliff).
STALENESS_VALUES = 3
#: Per instant: an inactive value is stamped, a fresh one used, and one
#: at its deadline re-stamped (else dropped) with these probabilities.
STAMP_PROBABILITY = 0.4
USE_PROBABILITY = 0.5
REFRESH_PROBABILITY = 0.5


@dataclass
class Stream:
    """One generated stream plus its known violations."""

    facts: list[list[Fact]] = field(default_factory=list)
    #: Constraint name -> instant at which it is first violated.
    violations: dict[str, int] = field(default_factory=dict)


def unit_rng(workload: str, seed: int, unit: int) -> random.Random:
    """The generator for one unit (episode or stream) of one run."""
    return random.Random(f"{workload}:{seed}:{unit}")


def update_kinds(stream: Stream) -> list[str]:
    """Classify each instant of a stream by what changed.

    ``fresh``: the state mentions an element never seen before;
    ``idle``: an empty state after an empty state;
    ``drain``: an empty state after a non-empty one;
    ``touch``: a non-empty state with no new element.

    ``drain`` is split out of ``touch`` because on the order workload its
    updates cost about a third as much, so a percentile on the border
    between the two would flip between runs (README.md).
    """
    seen: set[int] = set()
    previous_empty = True  # instant 0 is the empty initial state
    kinds = []
    for facts in stream.facts:
        elements = {e for _pred, args in facts for e in args}
        if elements - seen:
            kinds.append("fresh")
        elif not facts:
            kinds.append("idle" if previous_empty else "drain")
        else:
            kinds.append("touch")
        seen |= elements
        previous_empty = not facts
    return kinds


def order_episode(
    rng: random.Random,
    length: int,
    orders: tuple[int, int],
    kill_at: int,
    fill_probability: float,
    inject_at: int,
    kind: str,
) -> Stream:
    """One order episode with a single injected violation.

    Exactly ``orders[0]`` submissions arrive at random distinct instants
    up to ``kill_at`` and ``orders[1]`` after it, so every episode grounds
    over the same number of order ids, and its checkpoint holds the same
    number; open orders fill oldest first with probability
    ``fill_probability``.  An order is
    never filled in the instant it was submitted, so the past audit rule
    holds on the clean part.  From ``inject_at`` on, the first instant
    where ``kind`` is feasible gets that violation (see
    :data:`ORDER_INJECTIONS`); an injection that never becomes feasible
    falls back to a phantom fill in the last instant.
    """
    arrivals = set(rng.sample(range(1, kill_at + 1), orders[0]))
    arrivals |= set(rng.sample(range(kill_at + 1, length + 1), orders[1]))
    stream = Stream()
    open_orders: list[int] = []
    filled: list[int] = []
    submitted_at: dict[int, int] = {}
    next_id = 1
    injected = False
    duplicate: tuple[int, int] | None = None  # (victim, instant)
    for instant in range(1, length + 1):
        facts: list[Fact] = []
        fill = bool(open_orders) and rng.random() < fill_probability
        if not injected and instant >= inject_at:
            if instant == length and kind not in _feasible(open_orders, filled):
                kind = "phantom_fill"
            if kind in _feasible(open_orders, filled):
                _inject(kind, instant, facts, open_orders, filled)
                stream.violations[ORDER_INJECTIONS[kind]] = instant
                injected = True
                if kind == "duplicate_submit":
                    duplicate = (facts[-1][1][0], instant)
                if kind == "out_of_order_fill":
                    fill = False  # the injected fill replaces the regular one
        if fill:
            order = open_orders.pop(0)
            facts.append(("Fill", (order,)))
            filled.append(order)
            # A re-submitted victim counts as open again from its second
            # submission, so filling any order submitted since then
            # breaks FIFO.
            if (
                duplicate is not None
                and order != duplicate[0]
                and submitted_at[order] >= duplicate[1]
            ):
                stream.violations.setdefault("fifo_fill", instant)
        if instant in arrivals:
            facts.append(("Sub", (next_id,)))
            open_orders.append(next_id)
            submitted_at[next_id] = instant
            next_id += 1
        stream.facts.append(facts)
    return stream


def _feasible(open_orders: list[int], filled: list[int]) -> list[str]:
    kinds = ["phantom_fill"]
    if filled:
        kinds += ["double_fill", "duplicate_submit"]
    if len(open_orders) >= 2:
        kinds.append("out_of_order_fill")
    return sorted(kinds)


def _inject(
    kind: str,
    instant: int,
    facts: list[Fact],
    open_orders: list[int],
    filled: list[int],
) -> None:
    """Append the facts of one injected violation."""
    if kind == "duplicate_submit":
        facts.append(("Sub", (filled[0],)))
    elif kind == "out_of_order_fill":
        facts.append(("Fill", (open_orders.pop(),)))
    elif kind == "double_fill":
        facts.append(("Fill", (filled[-1],)))
    else:
        facts.append(("Fill", (PHANTOM_BASE + instant,)))


def staleness_constraints() -> dict[str, str]:
    """``fresh_use`` (past form) and ``refresh_deadline`` (bounded
    future) per field, as constraint texts in registration order."""
    texts: dict[str, str] = {}
    for name in STALENESS_FIELDS:
        stamp, use, drop = _relations(name)
        window = f"{stamp}(x)"
        for _ in range(STALENESS_BUDGET):
            window = f"({stamp}(x) | Y {window})"
        texts[f"fresh_use_{name}"] = f"forall x . G ({use}(x) -> {window})"
        window = f"X ({stamp}(x) | {drop}(x))"
        for _ in range(STALENESS_BUDGET - 1):
            window = f"X ({stamp}(x) | {drop}(x) | {window})"
        texts[f"refresh_deadline_{name}"] = (
            f"forall x . G ({stamp}(x) -> {window})"
        )
    return texts


def staleness_schema() -> dict[str, int]:
    return {
        relation: 1
        for name in STALENESS_FIELDS
        for relation in _relations(name)
    }


def _relations(name: str) -> tuple[str, str, str]:
    base = name[0].upper() + name[1:]
    return (f"{base}Stamp", f"{base}Use", f"{base}Drop")


def staleness_stream(
    rng: random.Random,
    length: int,
    stale_use_at: int,
    missed_deadline_at: int,
) -> Stream:
    """A staleness stream over a fixed domain with two late violations.

    Each (field, value) runs a small lifecycle: an inactive value may be
    stamped; an active value may be used while fresh; at its deadline it
    is re-stamped or dropped.  From ``stale_use_at`` on, the first
    feasible instant gets a use of a value whose last stamp is out of
    budget (breaks ``fresh_use`` of one field); from
    ``missed_deadline_at`` on, the first deadline of another field is
    skipped (breaks its ``refresh_deadline``).
    """
    stale_field, missed_field = rng.sample(STALENESS_FIELDS, 2)
    last_stamp: dict[tuple[str, int], int | None] = {
        (name, value): None
        for name in STALENESS_FIELDS
        for value in range(STALENESS_VALUES)
    }
    stamped_ever: dict[tuple[str, int], int] = {}
    stream = Stream()
    stale_name = f"fresh_use_{stale_field}"
    missed_name = f"refresh_deadline_{missed_field}"
    for instant in range(1, length + 1):
        facts: list[Fact] = []
        stale_value = None
        if instant >= stale_use_at and stale_name not in stream.violations:
            candidates = [
                value
                for value in range(STALENESS_VALUES)
                if last_stamp[(stale_field, value)] is None
                and stamped_ever.get((stale_field, value), -10)
                < instant - STALENESS_BUDGET
            ]
            if candidates:
                stale_value = rng.choice(candidates)
                stream.violations[stale_name] = instant
        for name in STALENESS_FIELDS:
            stamp, use, drop = _relations(name)
            for value in range(STALENESS_VALUES):
                key = (name, value)
                stamped_at = last_stamp[key]
                if stamped_at is None:
                    if value == stale_value and name == stale_field:
                        facts.append((use, (value,)))
                    elif rng.random() < STAMP_PROBABILITY:
                        facts.append((stamp, (value,)))
                        last_stamp[key] = stamped_ever[key] = instant
                    continue
                if instant - stamped_at >= STALENESS_BUDGET:
                    if (
                        name == missed_field
                        and instant >= missed_deadline_at
                        and missed_name not in stream.violations
                    ):
                        stream.violations[missed_name] = instant
                        last_stamp[key] = None
                    elif rng.random() < REFRESH_PROBABILITY:
                        facts.append((stamp, (value,)))
                        last_stamp[key] = stamped_ever[key] = instant
                    else:
                        facts.append((drop, (value,)))
                        last_stamp[key] = None
                    continue
                if rng.random() < USE_PROBABILITY:
                    facts.append((use, (value,)))
        stream.facts.append(facts)
    if len(stream.violations) != 2:
        raise AssertionError("a staleness injection found no instant")
    return stream
