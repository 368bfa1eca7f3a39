"""Staleness-budget constraints: per-field validity intervals.

A production pattern the paper's constraint language captures directly: a
value of field ``f`` *stamped* (written/refreshed) at instant ``t`` is
valid through ``t + Δ`` and stale afterwards.  Each field gets three
event-style unary relations over value ids —

* ``<Field>Stamp(x)`` — value ``x`` was written or refreshed,
* ``<Field>Use(x)``   — value ``x`` was read/served,
* ``<Field>Drop(x)``  — value ``x`` was invalidated on purpose,

and a budget ``Δ`` compiles to two complementary temporal constraints:

* :func:`fresh_use` (past form, Proposition 2.1 shape): every use is
  covered by a stamp at most ``Δ`` instants back —
  ``forall x . G (Use(x) -> (Stamp(x) | Y (Stamp(x) | Y ...)))`` with the
  disjunction nested ``Δ`` deep.  Past-closed, so the dispatch planner
  routes it to the incremental past evaluator.
* :func:`refresh_deadline` (future form): every stamp is refreshed or
  dropped within the next ``Δ`` instants —
  ``forall x . G (Stamp(x) -> X (Stamp(x) | Drop(x) | X (...)))``.
  A bounded-future body under ``G`` — the safety class, handled by the
  progression backend.

Both encodings are *bounded*: the nesting depth is the budget, so the
formula size is ``O(Δ)`` and the remainder stays inside a fixed closure —
which is what keeps these constraints cheap to monitor and cheap to
checkpoint (DESIGN.md §12).

A zero budget is representable but degenerate: ``refresh_deadline`` with
``Δ = 0`` compiles to ``forall x . G (Stamp(x) -> false)``, an outright
ban on the relation.  The ``TIC140`` lint pass flags that (and the
vacuous window shape) at deploy time; the event generator refuses
``budget < 1`` for the same reason.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..database.history import History
from ..database.state import DatabaseState, Fact
from ..database.vocabulary import Vocabulary, vocabulary
from ..logic.formulas import Formula
from ..logic.parser import parse


@dataclass(frozen=True)
class StalenessSpec:
    """One field's staleness budget: values go stale ``budget`` instants
    after their last stamp.  ``budget`` must be non-negative; zero is
    accepted here (the linter's job is to warn about it) but rejected by
    the trace generator."""

    field: str
    budget: int

    def __post_init__(self) -> None:
        if not self.field or not self.field[0].isalpha():
            raise ValueError(
                f"field name must start with a letter, got {self.field!r}"
            )
        if self.budget < 0:
            raise ValueError(
                f"staleness budget must be non-negative, got {self.budget}"
            )


def staleness_predicates(field_name: str) -> tuple[str, str, str]:
    """The (stamp, use, drop) relation names of one field."""
    base = field_name[0].upper() + field_name[1:]
    return (f"{base}Stamp", f"{base}Use", f"{base}Drop")


def staleness_vocabulary(specs: tuple[StalenessSpec, ...]) -> Vocabulary:
    """The schema of a staleness workload: three unary relations per field."""
    predicates: dict[str, int] = {}
    for spec in specs:
        for pred in staleness_predicates(spec.field):
            predicates[pred] = 1
    return vocabulary(predicates)


def fresh_use(field_name: str, budget: int) -> Formula:
    """Past form: every use is covered by a stamp at most ``budget`` back.

    ``G (Use(x) -> (Stamp(x) | Y (Stamp(x) | Y ...)))``, nested ``budget``
    deep — a ``forall* G (past)`` constraint, checkable by the incremental
    past evaluator without any history retention.
    """
    if budget < 0:
        raise ValueError(f"staleness budget must be non-negative: {budget}")
    stamp, use, _drop = staleness_predicates(field_name)
    window = f"{stamp}(x)"
    for _ in range(budget):
        window = f"({stamp}(x) | Y {window})"
    return parse(f"forall x . G ({use}(x) -> {window})")


def refresh_deadline(field_name: str, budget: int) -> Formula:
    """Future form: every stamp is refreshed or dropped within ``budget``.

    ``G (Stamp(x) -> X (Stamp(x) | Drop(x) | X (...)))`` with the window
    nested ``budget`` deep — a bounded-future safety constraint.  With
    ``budget = 0`` the window is empty and this degenerates to
    ``G (Stamp(x) -> false)``: the relation is banned outright, which the
    ``TIC140`` lint pass reports as an error.
    """
    if budget < 0:
        raise ValueError(f"staleness budget must be non-negative: {budget}")
    stamp, _use, drop = staleness_predicates(field_name)
    if budget == 0:
        return parse(f"forall x . G ({stamp}(x) -> false)")
    window = f"X ({stamp}(x) | {drop}(x))"
    for _ in range(budget - 1):
        window = f"X ({stamp}(x) | {drop}(x) | {window})"
    return parse(f"forall x . G ({stamp}(x) -> {window})")


def staleness_constraints(
    specs: tuple[StalenessSpec, ...]
) -> dict[str, Formula]:
    """Both constraint forms for every field, named for plan reports."""
    out: dict[str, Formula] = {}
    for spec in specs:
        out[f"fresh_use_{spec.field}"] = fresh_use(spec.field, spec.budget)
        out[f"refresh_deadline_{spec.field}"] = refresh_deadline(
            spec.field, spec.budget
        )
    return out


@dataclass(frozen=True)
class StalenessWorkloadConfig:
    """Parameters of the staleness event generator.

    Attributes
    ----------
    specs:
        The monitored fields and their budgets (all budgets must be
        positive — a zero budget bans stamping, see module docs).
    length:
        Number of time instants to generate.
    values:
        Distinct value ids cycled through per field.
    stamp_probability:
        Chance an inactive value gets stamped at each instant.
    use_probability:
        Chance a fresh (in-budget) value is used at each instant.
    refresh_probability:
        When a value hits its deadline, chance it is re-stamped instead of
        dropped.
    stale_use_at:
        If set, inject a use of a never-stamped value id at this instant
        (violates ``fresh_use`` of the first field).
    seed:
        RNG seed (generation is deterministic given the config).
    """

    specs: tuple[StalenessSpec, ...] = (StalenessSpec("price", 2),)
    length: int = 30
    values: int = 3
    stamp_probability: float = 0.4
    use_probability: float = 0.5
    refresh_probability: float = 0.5
    stale_use_at: int | None = None
    seed: int = 0


@dataclass
class StalenessTrace:
    """A generated staleness trace: per-instant facts plus bookkeeping."""

    vocabulary: Vocabulary
    facts_per_instant: list[list[Fact]] = field(default_factory=list)
    #: Injected stale uses: (instant, field, value id).
    stale_uses: list[tuple[int, str, int]] = field(default_factory=list)

    def history(self) -> History:
        """Materialize the trace as a history over its vocabulary."""
        return History.from_facts(self.vocabulary, self.facts_per_instant)

    def states(self) -> list[DatabaseState]:
        """The per-instant states (for feeding a monitor one by one)."""
        return [
            DatabaseState.from_facts(self.vocabulary, facts)
            for facts in self.facts_per_instant
        ]


def generate_staleness(config: StalenessWorkloadConfig) -> StalenessTrace:
    """Generate a staleness trace honouring every budget.

    Each (field, value) runs a tiny lifecycle: inactive values may get
    stamped; active values may be used while fresh; a value reaching its
    deadline is forcibly re-stamped or dropped (never left to go stale),
    so the clean trace satisfies both constraint forms.  With
    ``stale_use_at`` set, a use of a reserved never-stamped value id is
    injected — a guaranteed ``fresh_use`` violation the monitor must
    catch.
    """
    for spec in config.specs:
        if spec.budget < 1:
            raise ValueError(
                f"the generator needs budget >= 1 for field "
                f"{spec.field!r} (a zero budget bans stamping entirely)"
            )
    rng = random.Random(config.seed)
    trace = StalenessTrace(vocabulary=staleness_vocabulary(config.specs))
    # Per (field, value): instant of the last stamp, or None if inactive.
    last_stamp: dict[tuple[str, int], int | None] = {
        (spec.field, value): None
        for spec in config.specs
        for value in range(config.values)
    }
    for t in range(config.length):
        facts: list[Fact] = []
        for spec in config.specs:
            stamp, use, drop = staleness_predicates(spec.field)
            for value in range(config.values):
                key = (spec.field, value)
                stamped_at = last_stamp[key]
                if stamped_at is None:
                    if rng.random() < config.stamp_probability:
                        facts.append((stamp, (value,)))
                        last_stamp[key] = t
                    continue
                if t - stamped_at >= spec.budget:
                    # Deadline instant: refresh or drop, never go stale.
                    if rng.random() < config.refresh_probability:
                        facts.append((stamp, (value,)))
                        last_stamp[key] = t
                    else:
                        facts.append((drop, (value,)))
                        last_stamp[key] = None
                    continue
                if rng.random() < config.use_probability:
                    facts.append((use, (value,)))
        if config.stale_use_at == t and config.specs:
            spec = config.specs[0]
            _stamp, use, _drop = staleness_predicates(spec.field)
            # A value id outside the generated range: never stamped, so
            # using it violates fresh_use regardless of the budget.
            stale_value = config.values
            facts.append((use, (stale_value,)))
            trace.stale_uses.append((t, spec.field, stale_value))
        trace.facts_per_instant.append(facts)
    return trace


def clean_staleness_trace(
    length: int = 30, budget: int = 2, seed: int = 0
) -> StalenessTrace:
    """A violation-free single-field trace (default spec)."""
    return generate_staleness(
        StalenessWorkloadConfig(
            specs=(StalenessSpec("price", budget),),
            length=length,
            seed=seed,
        )
    )


def trace_with_stale_use(
    length: int = 30, budget: int = 2, at: int = 15, seed: int = 0
) -> StalenessTrace:
    """A trace with one injected stale use (violates ``fresh_use``)."""
    return generate_staleness(
        StalenessWorkloadConfig(
            specs=(StalenessSpec("price", budget),),
            length=length,
            stale_use_at=at,
            seed=seed,
        )
    )
