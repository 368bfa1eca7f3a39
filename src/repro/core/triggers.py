"""Temporal Condition–Action triggers.

Section 2 of the paper defines trigger semantics by *duality* with
constraint satisfaction: a trigger ``if C then A`` fires at instant ``t``
for a ground substitution θ iff ``¬Cθ`` is **not** potentially satisfied at
``t`` — i.e. no possible future can make the (instantiated) condition
false; firing is unavoidable, so fire now, at the earliest possible moment.

Decidability therefore mirrors the constraint side: the *negation* of the
instantiated condition must be a universal safety sentence, which makes the
supported condition class ``exists* tense(Sigma_0)`` — negations of
biquantified formulas, exactly the expressive power the paper attributes to
the Sistla–Wolfson trigger language (Section 5).

Ground substitutions range over the relevant elements of the history plus
one fresh element as the representative of all untouched elements (they
are interchangeable, so one representative decides them all).  Substituted
elements are injected through reserved constant symbols, since formulas
cannot mention raw universe elements.

:func:`fires` and :func:`firings` decide the definition from scratch with
the reference engines.  :class:`TriggerManager` runs the same decision
incrementally on the monitor's engine: one lifted template-state table per
trigger (:mod:`repro.core.lifted`), which each state steps once, and is
tested against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from typing import AbstractSet, Callable, Iterator, Mapping, Sequence

from ..database.history import History
from ..database.state import DatabaseState
from ..database.vocabulary import Vocabulary
from ..errors import ClassificationError, StateError
from ..logic.builders import forall, not_
from ..logic.formulas import Formula
from ..logic.terms import Constant, Variable
from ..logic.transform import nnf, substitute
from ..ptl.bitset import BuchiKernel
from ..ptl.progkernel import ProgressionKernel
from .checker import potentially_satisfied, validate_constraint
from .lifted import LiftedTable, Tuple, constraint_table
from .reduction import check_vocabulary

#: A ground substitution: values for the condition's free variables.
Substitution = Mapping[Variable, int]

_PARAM_PREFIX = "__trig_"

#: Bound of :class:`TriggerManager`'s verdict memo, in kernel ids.
_REMAINDER_MEMO_SIZE = 4096


@dataclass(frozen=True)
class Trigger:
    """A Condition–Action trigger ``if condition then action``.

    Attributes
    ----------
    name:
        Identifier used in reports.
    condition:
        An FOTL formula, possibly with free variables; its negation (after
        instantiation) must be a universal safety sentence.
    action:
        Callback invoked as ``action(history, values)`` when the trigger
        fires, where ``values`` maps variable names to elements.  Optional —
        firing detection works without it.
    """

    name: str
    condition: Formula
    action: Callable[[History, Mapping[str, int]], None] | None = None

    def parameters(self) -> tuple[Variable, ...]:
        """The condition's free variables, sorted by name."""
        return tuple(
            sorted(self.condition.free_variables(), key=lambda v: v.name)
        )


@dataclass(frozen=True)
class Firing:
    """One trigger firing: which trigger, when, for which substitution."""

    trigger: str
    instant: int
    substitution: tuple[tuple[str, int], ...]

    def values(self) -> dict[str, int]:
        return dict(self.substitution)


def _instantiate(
    condition: Formula, substitution: Substitution
) -> tuple[Formula, dict[str, int]]:
    """Replace free variables by reserved constants bound to the values."""
    mapping = {}
    bindings: dict[str, int] = {}
    for variable, value in substitution.items():
        symbol = f"{_PARAM_PREFIX}{variable.name}"
        mapping[variable] = Constant(symbol)
        bindings[symbol] = value
    return substitute(condition, mapping), bindings


def _augment_history(history: History, bindings: dict[str, int]) -> History:
    vocabulary = Vocabulary(
        predicates=history.vocabulary.predicates,
        constant_symbols=history.vocabulary.constant_symbols
        | frozenset(bindings),
    )
    return History(
        vocabulary=vocabulary,
        states=tuple(
            type(state)(vocabulary=vocabulary, relations=state.relations)
            for state in history.states
        ),
        constant_bindings={**history.constant_bindings, **bindings},
    )


def _substitution_key(
    substitution: Substitution,
) -> tuple[tuple[str, int], ...]:
    """The canonical (sorted, hashable) form of a ground substitution."""
    return tuple(
        sorted(
            (variable.name, value)
            for variable, value in substitution.items()
        )
    )


def _negated_instance(
    condition: Formula, history: History, substitution: Substitution
) -> tuple[Formula, History]:
    """``¬Cθ`` in NNF, with the history its reserved constants are bound in."""
    instantiated, bindings = _instantiate(condition, substitution)
    return nnf(not_(instantiated)), _augment_history(history, bindings)


def fires(
    trigger: Trigger,
    history: History,
    substitution: Substitution,
    assume_safety: bool = False,
) -> bool:
    """Does the trigger fire at the current instant for this substitution?

    The paper's definition, decided from scratch on the whole history:
    the trigger fires iff ``¬Cθ`` is not potentially satisfied
    (:func:`repro.core.checker.potentially_satisfied`).  This is the
    oracle :class:`TriggerManager` is tested against.
    """
    missing = trigger.condition.free_variables() - set(substitution)
    if missing:
        raise ClassificationError(
            "substitution must cover all free variables; missing "
            + ", ".join(sorted(v.name for v in missing))
        )
    negated, augmented = _negated_instance(
        trigger.condition, history, substitution
    )
    return not potentially_satisfied(
        negated, augmented, assume_safety=assume_safety
    )


def candidate_substitutions(
    trigger: Trigger,
    history: History,
    include_fresh: bool = True,
) -> Iterator[Substitution]:
    """All ground substitutions over the relevant elements.

    With ``include_fresh`` one untouched element is added as the
    representative of the (infinitely many) irrelevant elements.
    """
    return _candidates(
        trigger.parameters(), history.relevant_elements(), include_fresh
    )


def _candidates(
    parameters: Sequence[Variable],
    relevant: AbstractSet[int],
    include_fresh: bool = True,
) -> Iterator[Substitution]:
    """:func:`candidate_substitutions` over the relevant set ``relevant``."""
    domain = sorted(relevant)
    if include_fresh:
        fresh = 0
        taken = set(domain)
        while fresh in taken:
            fresh += 1
        domain.append(fresh)
    for values in cartesian(domain, repeat=len(parameters)):
        yield dict(zip(parameters, values))


def firings(
    trigger: Trigger,
    history: History,
    assume_safety: bool = False,
) -> list[Firing]:
    """All firings of a trigger at the history's current instant, by
    :func:`fires` over every candidate substitution (fresh representative
    included)."""
    return [
        Firing(
            trigger=trigger.name,
            instant=history.now,
            substitution=_substitution_key(substitution),
        )
        for substitution in candidate_substitutions(trigger, history)
        if fires(trigger, history, substitution, assume_safety=assume_safety)
    ]


class TriggerManager:
    """Run a set of triggers over a growing history.

    The manager deduplicates firings: a (trigger, substitution) pair that
    has already fired is not reported again at later instants (a safety
    violation persists forever, so without deduplication every firing would
    repeat at every subsequent instant).  Pairs are keyed by trigger name,
    so names must be unique (``ValueError`` otherwise).

    Trigger conditions go through the :mod:`repro.lint` pre-flight gate in
    trigger mode at construction time: the duality analysis (``TIC009``)
    verifies that each condition's negation is a universal safety
    sentence — the supported ``exists* tense(Sigma_0)`` class.
    ``lint="strict"`` refuses unanalyzable conditions up front with
    :class:`repro.errors.LintError`; ``lint="warn"`` (default) surfaces
    warning-severity diagnostics; ``lint="off"`` skips the gate (errors
    then surface at the first :meth:`check`).

    Triggers run on the monitor's engine.  The manager keeps one
    :class:`~repro.core.lifted.LiftedTable` per trigger over the closure
    ``∀x̄ nnf(¬C)``, the condition's parameters ``x̄`` leading, built at
    the first :meth:`check` from that history's constant bindings.  Each
    state goes through every table once, by the monitor's absorb-then-step
    (:meth:`~repro.core.lifted.LiftedTable.advance`), so a check reads
    only the states no earlier check consumed, and grounds and replays
    nothing: its cost does not grow with the history's length.  A history
    that does not extend the last one checked raises
    :class:`~repro.errors.StateError`.

    A substitution θ fires iff its *group* is unsatisfiable: the stored
    tuples whose leading positions read θ, where each element of θ the
    table has not absorbed reads as a placeholder, numbered by first
    occurrence, and a tuple with any other placeholder is left out
    (:meth:`~repro.core.lifted.LiftedTable.groups`, DESIGN.md §10.2).  A
    group with a ``false`` state fires.  A one-tuple group, which is all
    a trigger without an inner ``∃`` has, is decided on its state; a
    larger one holds when every state holds on the all-false model, and
    else its conjunction, each state renamed onto its tuple, is decided.
    Decisions are memoized per kernel id (``memo_hits``; the memo holds at
    most ``_REMAINDER_MEMO_SIZE`` ids and is emptied when full, counted in
    ``memo_resets``); a new one (``decisions``) is the all-false model,
    else a Büchi search on the manager's
    :class:`repro.ptl.bitset.BuchiKernel`.  Firings equal :func:`firings`,
    the from-scratch definition (property-tested).

    :meth:`stats` reports these counters with the memo's size and the
    Büchi kernel's resets.
    """

    def __init__(
        self,
        triggers: Sequence[Trigger],
        assume_safety: bool = False,
        lint: str = "warn",
    ) -> None:
        names = [trigger.name for trigger in triggers]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(
                f"trigger names must be unique; repeated: {repeated}"
            )
        if lint != "off":
            from ..lint import preflight

            for trigger in triggers:
                preflight(
                    trigger.condition,
                    mode="trigger",
                    gate=lint,
                    assume_safety=assume_safety,
                )
        self._triggers = list(triggers)
        self._assume_safety = assume_safety
        self._fired: set[tuple[str, tuple[tuple[str, int], ...]]] = set()
        self._log: list[Firing] = []
        self._progkernel = ProgressionKernel()
        self._buchi = BuchiKernel()
        #: Lemma 4.2 verdict per kernel id.
        self._verdicts: dict[int, bool] = {}
        self.memo_hits = 0
        self.memo_resets = 0
        self.decisions = 0
        # Per trigger, its table and the relations it reads; built at the
        # first check.
        self._tables: list[tuple[LiftedTable, frozenset[str]]] | None = None
        # The states consumed so far: how many, the last one, and the
        # elements they show.
        self._consumed = 0
        self._last: DatabaseState | None = None
        self._shown: set[int] = set()

    @property
    def log(self) -> list[Firing]:
        """All firings so far, in order of detection."""
        return list(self._log)

    def stats(self) -> dict[str, int]:
        """Work and cache counters: decisions, verdict-memo hits, size and
        resets, and the Büchi kernel's resets."""
        return {
            "decisions": self.decisions,
            "memo_hits": self.memo_hits,
            "memo_entries": len(self._verdicts),
            "memo_resets": self.memo_resets,
            "buchi_resets": self._buchi.resets,
        }

    def check(self, history: History) -> list[Firing]:
        """Detect new firings at the history's current instant and run their
        actions.  ``history`` must extend the one of the last check."""
        tables = self._consume(history)
        relevant = self._shown.union(history.constant_bindings.values())
        new: list[Firing] = []
        for trigger, (table, _predicates) in zip(self._triggers, tables):
            parameters = trigger.parameters()
            groups = table.groups(len(parameters))
            for substitution in _candidates(parameters, relevant):
                key = (trigger.name, _substitution_key(substitution))
                # Already-fired pairs stay fired (safety violations are
                # irrecoverable) — skip the re-decision entirely.
                if key in self._fired:
                    continue
                head = table.group_key(substitution.values())
                if not self._fires(table, groups.get(head, ())):
                    continue
                firing = Firing(
                    trigger=trigger.name,
                    instant=history.now,
                    substitution=key[1],
                )
                self._fired.add(key)
                new.append(firing)
                self._log.append(firing)
                if trigger.action is not None:
                    trigger.action(history, dict(firing.values()))
        return new

    def _consume(
        self, history: History
    ) -> list[tuple[LiftedTable, frozenset[str]]]:
        """Take the states no check has consumed through every table,
        building the tables at the first check."""
        states = history.states
        consumed = self._consumed
        if len(states) < consumed or (
            consumed and states[consumed - 1] != self._last
        ):
            raise StateError(
                f"the trigger manager has consumed {consumed} states; a "
                "check's history must extend them"
            )
        tables = self._tables
        if tables is None:
            tables = self._tables = [
                self._table(trigger, history) for trigger in self._triggers
            ]
        for position in range(consumed, len(states)):
            state = states[position]
            for table, predicates in tables:
                table.advance(state.relations, predicates)
            self._shown |= state.active_domain()
        self._consumed = len(states)
        self._last = states[-1]
        return tables

    def _table(
        self, trigger: Trigger, history: History
    ) -> tuple[LiftedTable, frozenset[str]]:
        """The trigger's seeded table over ``∀x̄ nnf(¬C)``, and the
        relations it reads."""
        closure = forall(trigger.parameters(), nnf(not_(trigger.condition)))
        info = validate_constraint(closure, assume_safety=self._assume_safety)
        check_vocabulary(history, info)
        table, predicates, _disjoint = constraint_table(
            self._progkernel, info, history.constant_bindings
        )
        table.seed()
        return table, predicates

    def _fires(self, table: LiftedTable, group: Sequence[Tuple]) -> bool:
        """Duality verdict for one substitution: fire iff the conjunction
        of its group's states, each renamed onto its tuple, is
        unsatisfiable."""
        kernel = self._progkernel
        states = [table.where[values] for values in group]
        if kernel.false_id in states:
            return True
        if len(states) == 1:
            return not self._satisfiable(states[0])
        if all(kernel.holds_quiescent(state) for state in states):
            return False
        return not self._satisfiable(table.conjunction(group))

    def _satisfiable(self, oid: int) -> bool:
        """Is ``oid`` satisfiable: the memo, else the all-false model,
        else a Büchi search, counted as one decision and memoized."""
        memo = self._verdicts
        known = memo.get(oid)
        if known is not None:
            self.memo_hits += 1
            return known
        if len(memo) >= _REMAINDER_MEMO_SIZE:
            memo.clear()
            self.memo_resets += 1
        self.decisions += 1
        kernel = self._progkernel
        verdict = kernel.holds_quiescent(oid) or self._buchi.is_satisfiable(
            kernel.formula(oid)
        )
        memo[oid] = verdict
        return verdict
