"""History-less incremental evaluation of past formulas.

Section 6 of the paper singles out *history-less constraint evaluation*
(Chomicki, "History-less Checking of Dynamic Integrity Constraints", ICDE
1992) as the key practical notion: per-update work and memory should depend
on the number of distinct attribute values, not on the length of the
history.  This module implements that evaluation scheme for the past
fragment of FOTL.

The idea: for every subformula, maintain the set of satisfying assignments
*at the current instant*.  The past connectives obey one-step recurrences::

    [Y A]_t        = [A]_{t-1}
    [A S B]_t      = [B]_t  ∪ ([A]_t ∩ [A S B]_{t-1})
    [O A]_t        = [A]_t  ∪ [O A]_{t-1}
    [H A]_t        = [A]_t  ∩ [H A]_{t-1}

so the evaluator only ever stores the previous instant's tables — memory
``O(|adom|^m)`` and per-update time ``O(|formula| * |adom|^m)`` where ``m``
is the width (max number of free variables of a subformula), independent of
``t``.  The next step reads only the seen-set below and the tables of the
*memory slots* (the operand of each ``Y``, each ``O``, ``H`` and ``S``
itself), so a checkpoint stores just these and the evaluator resumes from
them (:meth:`IncrementalPastEvaluator.resume`).

Assignments range over the infinite universe; tables are kept finite by the
same genericity used throughout the library: elements never seen so far are
interchangeable, so each table is stored over ``seen ∪ {g1..gm}`` where the
``g_i`` are canonical generic placeholders (:class:`repro.core.grounding
.Anon`).  When an element is seen for the first time, its past coincides
with a generic's past, so lookups into the previous table canonicalize
through the *previous* seen-set — no table rewriting on domain growth.

The formula is compiled once into a post-order list of its distinct
subformulas (*slots*), and each instant fills one table per slot a whole
set at a time: atoms are read from the state's relation tuples, boolean
connectives are set algebra over the slot's assignments (children whose
variables are a subset are lifted by a projection), ``∃`` projects and
``∀`` complements the projected complement.  While the seen-set stays
put, every table is closed under permuting the generics, so the past
connectives read the previous tables as they are; the domain, the
per-arity assignment sets, the lift projections and the canonical forms
are rebuilt only when the seen-set grows, and like the tables they hold
``O(|adom|^m)`` rows per arity.
"""

from __future__ import annotations

from itertools import compress
from itertools import product as cartesian
from operator import itemgetter
from typing import Callable, Collection, Mapping

from ..core.grounding import Anon, GroundElement
from ..database.state import DatabaseState
from ..database.vocabulary import BUILTIN_PREDICATES, Vocabulary
from ..errors import (
    ClassificationError,
    EvaluationError,
    SchemaError,
    StateError,
)
from ..logic.classify import is_past_formula
from ..logic.formulas import (
    And,
    Atom,
    Eq,
    Exists,
    FalseFormula,
    Forall,
    Formula,
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
from ..logic.terms import Constant, Variable

Assignment = tuple[GroundElement, ...]
Table = frozenset[Assignment]

_UNIT: Table = frozenset({()})
_EMPTY: Table = frozenset()

#: Connectives whose children may have fewer variables than the node.
_LIFTING = (And, Or, Implies, Iff, Since)


def _sorted_vars(formula: Formula) -> tuple[Variable, ...]:
    return tuple(sorted(formula.free_variables(), key=lambda v: v.name))


def _canonicalize(
    values: Assignment, seen: frozenset[int]
) -> Assignment:
    """Replace elements outside ``seen`` by canonical generics, in order of
    first occurrence."""
    mapping: dict[GroundElement, Anon] = {}
    result: list[GroundElement] = []
    for value in values:
        if isinstance(value, int) and value in seen:
            result.append(value)
        else:
            if value not in mapping:
                mapping[value] = Anon(len(mapping) + 1)
            result.append(mapping[value])
    return tuple(result)


def _getter(positions: tuple[int, ...]) -> Callable[[tuple], Assignment]:
    """A function picking ``positions`` out of a row, always as a tuple."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


class _Slot:
    """One distinct subformula, compiled.

    ``kind`` is the subformula's node class, ``variables`` its sorted
    free variables (its table's columns) and ``children`` the slot
    numbers of its operands.  ``lifts`` holds, per child, the columns of
    this slot that carry the child's variables, or ``None`` when they are
    the same columns.  ``keep`` (quantifiers) picks the body columns left
    after dropping the bound variable; it is ``None`` when that variable
    is not free in the body.  Atoms read ``pred`` through ``select``,
    after the ``same`` (repeated variable) and ``fixed`` (constant
    argument) filters; ``select`` is ``None`` when the relation rows
    already are the table.  Equalities keep their two ``terms``.
    """

    __slots__ = (
        "kind", "variables", "children", "lifts", "keep",
        "pred", "select", "same", "fixed", "terms",
    )

    def __init__(
        self, kind: type[Formula], variables: tuple[Variable, ...]
    ) -> None:
        self.kind = kind
        self.variables = variables
        self.children: tuple[int, ...] = ()
        self.lifts: tuple[tuple[int, ...] | None, ...] = ()
        self.keep: Callable[[tuple], Assignment] | None = None
        self.pred = ""
        self.select: Callable[[tuple], Assignment] | None = None
        self.same: tuple[tuple[int, int], ...] = ()
        self.fixed: tuple[tuple[int, str], ...] = ()
        self.terms: tuple = ()


def _compile(formula: Formula, vocabulary: Vocabulary) -> list[_Slot]:
    """Post-order slots of the distinct subformulas of ``formula``; the
    last one is ``formula`` itself.

    Atoms are checked against ``vocabulary`` here, so a misspelt relation
    or a wrong arity fails at construction, not at the first state that
    carries an element.
    """
    slots: list[_Slot] = []
    index: dict[Formula, int] = {}

    def visit(node: Formula) -> int:
        found = index.get(node)
        if found is not None:
            return found
        children = tuple(visit(child) for child in node.children)
        variables = _sorted_vars(node)
        slot = _Slot(type(node), variables)
        slot.children = children
        if isinstance(node, _LIFTING):
            slot.lifts = tuple(
                None
                if slots[child].variables == variables
                else tuple(variables.index(v) for v in slots[child].variables)
                for child in children
            )
        if isinstance(node, Atom):
            _compile_atom(slot, node, vocabulary)
        elif isinstance(node, Eq):
            slot.terms = (node.left, node.right)
        elif isinstance(node, (Exists, Forall)):
            body = slots[children[0]].variables
            if node.var in body:
                slot.keep = _getter(
                    tuple(i for i, v in enumerate(body) if v != node.var)
                )
        index[node] = len(slots)
        slots.append(slot)
        return index[node]

    visit(formula)
    return slots


def _compile_atom(slot: _Slot, atom: Atom, vocabulary: Vocabulary) -> None:
    if atom.pred in BUILTIN_PREDICATES:
        raise EvaluationError(
            "extended-vocabulary predicates are not supported "
            "by the incremental evaluator"
        )
    if not vocabulary.has_predicate(atom.pred):
        raise SchemaError(
            f"constraint uses undeclared predicate {atom.pred!r}"
        )
    arity = vocabulary.arity(atom.pred)
    if len(atom.args) != arity:
        raise SchemaError(
            f"constraint uses {atom.pred!r} with arity {len(atom.args)}, "
            f"declared {arity}"
        )
    slot.pred = atom.pred
    first: dict[Variable, int] = {}
    same: list[tuple[int, int]] = []
    fixed: list[tuple[int, str]] = []
    for position, term in enumerate(atom.args):
        if not isinstance(term, Variable):
            fixed.append((position, term.name))
        elif term in first:
            same.append((first[term], position))
        else:
            first[term] = position
    slot.same = tuple(same)
    slot.fixed = tuple(fixed)
    columns = tuple(first[v] for v in slot.variables)
    if columns != tuple(range(arity)):
        slot.select = _getter(columns)


class IncrementalPastEvaluator:
    """Evaluate one past formula incrementally, state by state.

    >>> from ..logic import parse
    >>> from ..database import DatabaseState, vocabulary
    >>> v = vocabulary({"Fill": 1, "Sub": 1})
    >>> audit = parse("forall x . Fill(x) -> Y O Sub(x)")
    >>> ev = IncrementalPastEvaluator(audit, v)
    >>> ev.advance(DatabaseState.from_facts(v, [("Sub", (1,))]))
    True
    >>> ev.advance(DatabaseState.from_facts(v, [("Fill", (1,))]))
    True
    >>> ev.advance(DatabaseState.from_facts(v, [("Fill", (2,))]))
    False
    """

    def __init__(self, formula: Formula, vocabulary: Vocabulary) -> None:
        if not is_past_formula(formula):
            raise ClassificationError(
                "the incremental evaluator handles past formulas only "
                "(no future-tense connectives)"
            )
        self._slots = _compile(formula, vocabulary)
        # The slots whose previous-instant tables the next step reads.
        self._memory = tuple(
            sorted(
                {
                    slot.children[0] if slot.kind is Prev else number
                    for number, slot in enumerate(self._slots)
                    if slot.kind in (Prev, Once, Historically, Since)
                }
            )
        )
        # Width: enough generic placeholders for every variable in scope.
        variables = {
            node.var
            for node in formula.walk()
            if isinstance(node, (Exists, Forall))
        }
        variables |= formula.free_variables()
        self._width = max(1, len(variables))
        self._arities = {len(slot.variables) for slot in self._slots}
        self._constants = sorted(c.name for c in formula.constants())
        self._seen: frozenset[int] = frozenset()
        self._constant_bindings: dict[str, int] = {}
        # Per seen-set: the domain, every assignment per arity (as rows in
        # a fixed order and as a set) and the child-column projections of
        # those rows.
        self._domain: tuple[GroundElement, ...] = ()
        self._rows: dict[int, tuple[Assignment, ...]] = {}
        self._all: dict[int, Table] = {}
        self._projections: dict[
            tuple[int, tuple[int, ...]], list[Assignment]
        ] = {}
        # Canonical forms of the rows against the previous seen-set; only
        # read at the instant the seen-set grew.
        self._canonical: dict[int, list[Assignment]] = {}
        # Previous-instant tables, one per slot: the satisfying canonical
        # assignments to the slot's sorted free variables.  After a resume
        # only the memory slots' are known until the next step.
        self._previous: list[Table] | None = None
        self._resumed = False

    # -- configuration -------------------------------------------------------

    def bind_constant(self, symbol: str, value: int) -> None:
        """Fix the interpretation of a constant symbol (before advancing)."""
        if self._previous is not None:
            raise EvaluationError(
                "constants must be bound before the first state"
            )
        self._constant_bindings[symbol] = value

    # -- state transitions -----------------------------------------------------

    @property
    def seen(self) -> frozenset[int]:
        """The elements seen so far, the bound constants' values included
        once a state has been consumed."""
        return self._seen

    def memory(self) -> dict[int, Table]:
        """The tables the next step reads, by slot number: with
        :attr:`seen`, the evaluator's whole state (:meth:`resume`)."""
        if self._previous is None:
            return {}
        return {number: self._previous[number] for number in self._memory}

    def resume(self, seen: frozenset[int], memory: Mapping[int, Table]) -> None:
        """Continue as though the instant of this :attr:`seen` and
        :meth:`memory` had just been consumed (bind the constants first);
        a slot left out has an empty table.  Raises
        :class:`~repro.errors.StateError` unless every slot is a memory
        slot whose rows have its arity and hold only elements of ``seen``
        and generics, and ``seen`` holds the bound constants' values."""
        known = seen | {Anon(i + 1) for i in range(self._width)}
        tables = [_EMPTY] * len(self._slots)
        for number, rows in memory.items():
            if number not in self._memory:
                raise StateError(f"slot {number!r:.20} is no memory slot")
            arity = len(self._slots[number].variables)
            for row in rows:
                if len(row) != arity or not known.issuperset(row):
                    raise StateError(
                        f"slot {number} cannot hold the row {row!r:.60}: it "
                        f"takes {arity} seen or generic element(s)"
                    )
            tables[number] = frozenset(rows)
        unseen = sorted(set(self._constant_bindings.values()) - seen)
        if unseen:
            raise StateError(f"seen lacks the bound constants' values {unseen}")
        self._previous = None
        self._rebuild(frozenset(seen))
        self._previous = tables
        self._resumed = True

    @property
    def memory_size(self) -> int:
        """The rows :meth:`memory` holds — the history-less footprint."""
        if self._previous is None:
            return 0
        return sum(len(self._previous[number]) for number in self._memory)

    def advance(self, state: DatabaseState) -> bool:
        """Consume the next state; return the formula's truth value there.

        For an open formula the return value is whether *all* assignments
        satisfy it (use :meth:`satisfying_assignments` for the table).
        """
        if self._previous is None:
            for symbol in self._constants:
                if symbol not in self._constant_bindings:
                    raise EvaluationError(
                        f"constant symbol {symbol!r} is not bound"
                    )
        active = state.active_domain()
        grown = self._previous is None or not active <= self._seen
        if grown:
            self._rebuild(
                self._seen
                | active
                | frozenset(self._constant_bindings.values())
            )
        tables = self._fill(state.relations, grown)
        self._previous = tables
        self._resumed = False
        return len(tables[-1]) == len(self._all[len(self._slots[-1].variables)])

    def current_value(self) -> bool:
        """Truth of the (closed) formula at the last consumed instant."""
        if self._slots[-1].variables:
            raise EvaluationError(
                "formula has free variables; use satisfying_assignments()"
            )
        return () in self.satisfying_assignments()

    def satisfying_assignments(self) -> frozenset[Assignment]:
        """Canonical satisfying assignments of the formula's free variables.

        Generic placeholders in a returned assignment stand for arbitrary
        distinct elements never seen so far.
        """
        if self._previous is None or self._resumed:
            raise EvaluationError(
                "no state has been consumed since the start or the resume"
            )
        return self._previous[-1]

    # -- internals ------------------------------------------------------------

    def _rebuild(self, seen: frozenset[int]) -> None:
        """Re-derive every per-domain structure for a grown seen-set."""
        previous_seen = self._seen
        self._seen = seen
        self._domain = tuple(sorted(seen)) + tuple(
            Anon(i + 1) for i in range(self._width)
        )
        self._rows = {
            n: tuple(cartesian(self._domain, repeat=n)) for n in self._arities
        }
        self._all = {n: frozenset(rows) for n, rows in self._rows.items()}
        self._projections = {}
        self._canonical = {}
        if self._previous is not None:
            self._canonical = {
                n: [_canonicalize(row, previous_seen) for row in rows]
                for n, rows in self._rows.items()
            }

    def _equality(self, slot: _Slot) -> Table:
        left, right = slot.terms
        bindings = self._constant_bindings
        if isinstance(left, Constant) and isinstance(right, Constant):
            return _UNIT if bindings[left.name] == bindings[right.name] else _EMPTY
        if isinstance(left, Constant) or isinstance(right, Constant):
            constant = left if isinstance(left, Constant) else right
            return frozenset({(bindings[constant.name],)})
        if left == right:
            return self._all[1]
        return frozenset((value, value) for value in self._domain)

    def _lift(self, slot: _Slot, position: int, tables: list[Table]) -> Table:
        """The ``position``-th child's table over the slot's variables."""
        child = tables[slot.children[position]]
        columns = slot.lifts[position]
        if columns is None:
            return child
        arity = len(slot.variables)
        projected = self._projections.get((arity, columns))
        if projected is None:
            projected = list(map(_getter(columns), self._rows[arity]))
            self._projections[arity, columns] = projected
        return frozenset(
            compress(self._rows[arity], map(child.__contains__, projected))
        )

    def _before(self, number: int, grown: bool) -> Table:
        """Slot ``number``'s table at the previous instant, over the
        current domain: a new element's past is a generic's past."""
        if self._previous is None:
            return _EMPTY  # instant 0: strong past operators are false
        table = self._previous[number]
        if not grown:
            return table
        arity = len(self._slots[number].variables)
        return frozenset(
            compress(
                self._rows[arity],
                map(table.__contains__, self._canonical[arity]),
            )
        )

    def _atom(
        self, slot: _Slot, relations: Mapping[str, frozenset[tuple[int, ...]]]
    ) -> Table:
        rows: Collection[tuple[int, ...]] = relations.get(slot.pred, ())
        if not rows:
            return _EMPTY
        if slot.same or slot.fixed:
            bindings = self._constant_bindings
            rows = [
                row
                for row in rows
                if all(row[i] == row[j] for i, j in slot.same)
                and all(row[i] == bindings[name] for i, name in slot.fixed)
            ]
            if not slot.variables:
                return _UNIT if rows else _EMPTY
        if slot.select is None:
            return frozenset(rows)
        return frozenset(map(slot.select, rows))

    def _fill(
        self, relations: Mapping[str, frozenset[tuple[int, ...]]], grown: bool
    ) -> list[Table]:
        """One table per slot at the new instant, children first."""
        tables: list[Table] = []
        lift = self._lift
        for number, slot in enumerate(self._slots):
            kind = slot.kind
            if kind is Atom:
                table = self._atom(slot, relations)
            elif kind is Or:
                table = _EMPTY.union(
                    *(lift(slot, k, tables) for k in range(len(slot.children)))
                )
            elif kind is And:
                table = lift(slot, 0, tables).intersection(
                    *(
                        lift(slot, k, tables)
                        for k in range(1, len(slot.children))
                    )
                )
            elif kind is Not:
                table = self._all[len(slot.variables)] - tables[slot.children[0]]
            elif kind is Implies:
                table = (
                    self._all[len(slot.variables)] - lift(slot, 0, tables)
                ) | lift(slot, 1, tables)
            elif kind is Iff:
                table = self._all[len(slot.variables)] - (
                    lift(slot, 0, tables) ^ lift(slot, 1, tables)
                )
            elif kind is Prev:
                table = self._before(slot.children[0], grown)
            elif kind is Once:
                table = tables[slot.children[0]] | self._before(number, grown)
            elif kind is Historically:
                table = tables[slot.children[0]]
                if self._previous is not None:
                    table = table & self._before(number, grown)
            elif kind is Since:
                table = lift(slot, 1, tables) | (
                    lift(slot, 0, tables) & self._before(number, grown)
                )
            elif kind is Exists:
                body = tables[slot.children[0]]
                if slot.keep is None:
                    table = body
                elif slot.variables:
                    table = frozenset(map(slot.keep, body))
                else:
                    table = _UNIT if body else _EMPTY
            elif kind is Forall:
                body = tables[slot.children[0]]
                if slot.keep is None:
                    table = body
                else:
                    arity = len(slot.variables) + 1
                    failing = self._all[arity] - body
                    if slot.variables:
                        table = self._all[arity - 1] - frozenset(
                            map(slot.keep, failing)
                        )
                    else:
                        table = _EMPTY if failing else _UNIT
            elif kind is Eq:
                table = self._equality(slot)
            elif kind is TrueFormula:
                table = _UNIT
            else:  # FalseFormula
                table = _EMPTY
            tables.append(table)
        return tables
