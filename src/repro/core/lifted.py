"""Lifted remainders: one template-state table per progressed constraint.

Every ground instance ``psi[f]`` of a universal constraint is one
*template* with its letters renamed, and progression commutes with an
injective renaming of letters.  So the remainder of instance ``f`` is its
template progressed through ``f``'s own letter valuations, renamed onto
``f``, and instances that have seen the same valuations share a template
state.  A :class:`LiftedTable` holds a constraint's remainder that way:
kernel ids of template states, each with the tuples in it (DESIGN.md
§10.1).  The trigger manager keeps one per trigger, over the universal
closure of its negated condition (§10.2).

* **Templates.**  A tuple's *pattern* records which positions hold equal
  elements, which hold a constant's element and which hold an anonymous
  ``z_i``.  Its template is ``psi`` grounded by
  :func:`~repro.core.grounding.ground` over the pattern itself, with a
  :class:`~repro.core.grounding.Placeholder` for each class of equal
  non-constant elements, and interned in the kernel once; anonymous
  positions fold as in Theorem 4.1.
* **Tuples.**  The real tuples are the Theorem 4.1 instances over
  ``R_D ∪ {z1..zk}``, anonymous elements numbered by first occurrence
  (instances that differ only there are the same formula).  *Witness*
  tuples hold a placeholder where an element the history has not shown
  would go: Lemma 4.1's unseen elements, progressed with all-false
  valuations at those positions and never decided.  A tuple whose state
  is ``true`` is left out.
* **Updates.**  A fresh element copies its witness tuples' states, so
  nothing is grounded, replayed or read from the history.  Then the
  tuples over elements the state shows step with their own valuations,
  and every other tuple steps with its state, once per distinct state,
  under the valuation of the letters over constants alone.
"""

from __future__ import annotations

from itertools import product as cartesian
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from ..logic.classify import FormulaInfo
from ..logic.formulas import Atom, Eq, Formula
from ..logic.terms import Constant, Term, Variable
from ..ptl.progkernel import ProgressionKernel
from .grounding import (
    Anon,
    GroundContext,
    GroundElement,
    Placeholder,
    RelAtom,
    ground,
    rel_prop,
)
from .reduction import ground_domain

#: A tuple of the table: one element per quantified variable.
Tuple = tuple[GroundElement, ...]

#: The renaming memo of a table is emptied once it holds more than four
#: times the tuples stored and more than this many renamings.
RENAMED_MIN = 4096

#: A template letter that mentions a placeholder: its state bit, its
#: relation, and the tuple-to-arguments function for a tuple of the
#: template's pattern.
_OpenLetter = tuple[int, str, Callable[[Tuple], tuple]]


def _placeholders(limit: int) -> list[Placeholder]:
    return [Placeholder(index) for index in range(limit + 1)]


def is_witness(values: Tuple) -> bool:
    """Does the tuple hold a placeholder (an element not yet shown)?"""
    return any(isinstance(value, Placeholder) for value in values)


def _element_key(value: GroundElement) -> tuple[int, int]:
    if isinstance(value, Anon):
        return (1, value.index)
    if isinstance(value, Placeholder):
        return (2, value.index)
    return (0, value)


def tuple_key(values: Tuple) -> tuple[tuple[int, int], ...]:
    """A total order on tuples: concrete elements, then anonymous ones,
    then placeholders, each by number."""
    return tuple(_element_key(value) for value in values)


def _shape(info: FormulaInfo) -> tuple[frozenset[str], frozenset[str], bool]:
    """The relations and the constant symbols a universal constraint
    names, and whether its distinct ground instances share no letter,
    from one walk of the matrix.

    They share none when every atom names every quantified variable and
    each relation appears with one argument pattern: a letter then fixes
    the whole assignment.  (An atom over constants only, or a 0-ary one,
    names no variable.)  Equalities fold away under grounding.
    """
    variables = set(info.external_universals)
    disjoint = bool(variables)
    patterns: dict[str, tuple[Term, ...]] = {}
    constants: set[str] = set()
    for node in info.matrix.walk():
        if isinstance(node, Atom):
            terms: tuple[Term, ...] = node.args
            if patterns.setdefault(node.pred, terms) != terms or {
                t for t in terms if isinstance(t, Variable)
            } != variables:
                disjoint = False
        elif isinstance(node, Eq):
            terms = (node.left, node.right)
        else:
            continue
        constants.update(t.name for t in terms if isinstance(t, Constant))
    return frozenset(patterns), frozenset(constants), disjoint


class _Template:
    """One pattern's template: its root id and its open letters."""

    __slots__ = ("root", "open")

    def __init__(self, root: int, open_letters: Sequence[_OpenLetter]) -> None:
        self.root = root
        self.open = tuple(open_letters)

    def mask(
        self, values: Tuple, relations: Mapping[str, AbstractSet[tuple]]
    ) -> int:
        """The bits of the open letters true of ``values`` in a state."""
        mask = 0
        for bit, pred, args in self.open:
            rows = relations.get(pred)
            if rows and args(values) in rows:
                mask |= bit
        return mask


class LiftedTable:
    """One progressed constraint's remainder as template states.

    ``states`` maps each state id of the real tuples to the tuples in it,
    ``witnesses`` does the same for witness tuples, and ``where`` gives
    each stored tuple's state.  ``members`` lists, per non-constant
    element, the tuples made with it, each with its template and whether
    it is a witness (tuples that went ``true`` since stay listed; ``where``
    no longer has them).  ``version`` grows whenever the table changes,
    so :meth:`remainder` reuses its last build until then, and
    ``renamed`` memoizes each (state, tuple) renaming it has made.
    """

    __slots__ = (
        "kernel",
        "arity",
        "constants",
        "relevant",
        "states",
        "witnesses",
        "where",
        "members",
        "templates",
        "const_letters",
        "version",
        "renamed",
        "_keys",
        "_built",
        "_places",
    )

    def __init__(
        self,
        kernel: ProgressionKernel,
        matrix: Formula,
        variables: Sequence[Variable],
        context: GroundContext,
        constants: frozenset[int],
    ) -> None:
        arity = len(variables)
        self.kernel = kernel
        self.arity = arity
        self.constants = constants
        self.relevant = constants
        self.states: dict[int, set[Tuple]] = {}
        self.witnesses: dict[int, set[Tuple]] = {}
        self.where: dict[Tuple, int] = {}
        self.members: dict[int, list[tuple[Tuple, _Template, bool]]] = {}
        self.templates: dict[Tuple, _Template] = {}
        #: The letters over constants alone, as (bit, relation, arguments).
        self.const_letters: list[tuple[int, str, Tuple]] = []
        self.version = 0
        self.renamed: dict[tuple[int, Tuple], int] = {}
        self._keys: tuple[frozenset[int], list[Tuple]] = (frozenset(), [])
        self._built: tuple[int, int] | None = None
        self._places = _placeholders(arity)
        # Every pattern, each as its own tuple: the real tuples over
        # constants and anonymous elements, and one witness per pattern
        # with a placeholder.
        domain: list[GroundElement] = [
            *sorted(constants),
            *(Anon(i + 1) for i in range(arity)),
            *self._places[1:],
        ]
        for values in cartesian(domain, repeat=arity):
            if is_canonical(values):
                root = kernel.intern(
                    ground(matrix, dict(zip(variables, values)), context)
                )
                self.templates[values] = self._template(values, root)

    def seed(self) -> None:
        """Start every pattern's own tuple at its template: the table
        before any instant."""
        for values, template in self.templates.items():
            self.put(values, template.root, template)

    # -- templates ----------------------------------------------------------

    def pattern(self, values: Tuple) -> Tuple:
        """The pattern of a tuple: each class of equal non-constant
        elements (concrete or placeholder) as one placeholder, numbered
        by first occurrence; constants' elements and anonymous elements
        as they are."""
        places = self._places
        classes: dict[GroundElement, Placeholder] = {}
        out: list[GroundElement] = []
        for value in values:
            if isinstance(value, Anon) or value in self.constants:
                out.append(value)
            else:
                place = classes.get(value)
                if place is None:
                    place = classes[value] = places[len(classes) + 1]
                out.append(place)
        return tuple(out)

    def _template(self, pattern: Tuple, root: int) -> _Template:
        """The pattern's template, grounded as ``root``, with its letters
        sorted into open ones and the entry's letters over constants
        alone."""
        kernel = self.kernel
        first = {
            value: position
            for position, value in reversed(list(enumerate(pattern)))
        }
        open_letters: list[_OpenLetter] = []
        known = {bit for bit, _pred, _args in self.const_letters}
        for bit, letter in kernel.letters(root):
            atom = letter.name
            assert isinstance(atom, RelAtom)
            args = atom.args
            if not is_witness(args):
                if bit not in known:
                    known.add(bit)
                    self.const_letters.append((bit, atom.pred, args))
                continue
            open_letters.append((bit, atom.pred, _picker(args, first)))
        return _Template(root, open_letters)

    # -- table upkeep -------------------------------------------------------

    def put(
        self, values: Tuple, state: int, template: _Template | None = None
    ) -> None:
        """Store a tuple at ``state`` (a ``true`` one is left out);
        ``template`` is its pattern's, looked up if not given."""
        if state == self.kernel.true_id:
            return
        if template is None:
            template = self.templates[self.pattern(values)]
        self.version += 1
        self.where[values] = state
        witness = is_witness(values)
        table = self.witnesses if witness else self.states
        bucket = table.get(state)
        if bucket is None:
            table[state] = {values}
        else:
            bucket.add(values)
        member = (values, template, witness)
        constants = self.constants
        members = self.members
        for value in set(values):
            if isinstance(value, int) and value not in constants:
                listed = members.get(value)
                if listed is None:
                    members[value] = [member]
                else:
                    listed.append(member)

    def absorb(self, fresh: Iterable[int]) -> None:
        """Take in elements the history shows for the first time: each
        placeholder of each witness tuple, in turn, becomes the new
        element, and the tuple made copies the witness's state (and has
        the witness's pattern)."""
        places = self._places
        templates = self.templates
        pattern = self.pattern
        for element in fresh:
            made: list[tuple[Tuple, int, _Template]] = []
            for state, tuples in self.witnesses.items():
                for values in tuples:
                    template = templates[pattern(values)]
                    count = max(
                        value.index
                        for value in values
                        if isinstance(value, Placeholder)
                    )
                    for index in range(1, count + 1):
                        made.append(
                            (
                                _substitute(values, index, element, places),
                                state,
                                template,
                            )
                        )
            for values, state, template in made:
                self.put(values, state, template)
            self.relevant = self.relevant | {element}
            self.version += 1

    def advance(
        self,
        relations: Mapping[str, AbstractSet[tuple]],
        predicates: AbstractSet[str],
    ) -> int:
        """Take in one state: absorb the elements it shows for the first
        time in the relations ``predicates`` names, then :meth:`step`.
        Returns how many elements were absorbed."""
        shown: set[int] = set()
        for pred, tuples in relations.items():
            if pred in predicates:
                for args in tuples:
                    shown.update(args)
        fresh = shown - self.relevant
        if fresh:
            self.absorb(sorted(fresh))
        self.step(relations, shown)
        return len(fresh)

    def step(
        self, relations: Mapping[str, AbstractSet[tuple]], shown: Iterable[int]
    ) -> None:
        """Progress every tuple through one state: the tuples over an
        element of ``shown`` with their own valuations, grouped by (state,
        valuation), and the rest once per distinct state under the
        letters over constants alone."""
        kernel = self.kernel
        progress = kernel.progress_id
        true_id = kernel.true_id
        const_mask = 0
        for bit, pred, args in self.const_letters:
            rows = relations.get(pred)
            if rows and args in rows:
                const_mask |= bit
        where = self.where
        members = self.members
        states = self.states
        witnesses = self.witnesses
        touched: set[Tuple] = set()
        groups: dict[tuple[int, int], list[tuple[Tuple, bool]]] = {}
        for element in shown:
            listed = members.get(element)
            if listed is None:
                continue
            for values, template, witness in listed:
                if values in touched:
                    continue
                state = where.get(values)
                if state is None:
                    continue
                touched.add(values)
                key = (state, const_mask | template.mask(values, relations))
                group = groups.get(key)
                if group is None:
                    groups[key] = [(values, witness)]
                else:
                    group.append((values, witness))
                table = witnesses if witness else states
                bucket = table[state]
                bucket.discard(values)
                if not bucket:
                    del table[state]
        for table in (states, witnesses):
            moves: list[tuple[int, int]] = []
            for state in table:
                succ = progress(state, const_mask)
                if succ != state:
                    moves.append((state, succ))
            if not moves:
                continue
            self.version += 1
            moved = [(succ, table.pop(state)) for state, succ in moves]
            for succ, tuples in moved:
                if succ == true_id:
                    for values in tuples:
                        del where[values]
                    continue
                for values in tuples:
                    where[values] = succ
                bucket = table.get(succ)
                if bucket is None:
                    table[succ] = tuples
                elif len(bucket) < len(tuples):
                    tuples |= bucket
                    table[succ] = tuples
                else:
                    bucket |= tuples
        for (state, mask), members_of in groups.items():
            succ = progress(state, mask)
            if succ != state:
                self.version += 1
            if succ == true_id:
                for values, _witness in members_of:
                    del where[values]
                continue
            for values, witness in members_of:
                where[values] = succ
                table = witnesses if witness else states
                bucket = table.get(succ)
                if bucket is None:
                    table[succ] = {values}
                else:
                    bucket.add(values)

    def size(self) -> int:
        """Tuples stored, witnesses included."""
        return len(self.where)

    def remainder(self) -> int:
        """The remainder as one kernel id, the :meth:`conjunction` of the
        Theorem 4.1 instances' tuples, built again only when the table has
        changed since the last build."""
        built = self._built
        if built is not None and built[0] == self.version:
            return built[1]
        if self._keys[0] is not self.relevant:
            self._keys = (
                self.relevant,
                instance_keys(self.relevant, self.arity),
            )
        # Witness tuples hold a placeholder, so no instance looks them up.
        remainder = self.conjunction(self._keys[1])
        self._built = (self.version, remainder)
        return remainder

    def conjunction(self, keys: Iterable[Tuple]) -> int:
        """``pand_ids`` of the states of the stored tuples among ``keys``,
        each renamed onto its tuple (:func:`materialize`).  The renaming
        memo is emptied once it outgrows four times the tuples stored (and
        ``RENAMED_MIN``)."""
        if len(self.renamed) > max(RENAMED_MIN, 4 * len(self.where)):
            self.renamed.clear()
        return materialize(
            self.kernel, self.where, keys, self.constants, self.renamed
        )

    # -- trigger groups (DESIGN.md §10.2) -------------------------------------

    def group_key(self, values: Iterable[int]) -> Tuple:
        """The leading positions that read ``values``: each element the
        table has absorbed as itself, every other as a placeholder,
        numbered by first occurrence."""
        places = self._places
        classes: dict[int, Placeholder] = {}
        key: list[GroundElement] = []
        for value in values:
            if value in self.relevant:
                key.append(value)
                continue
            place = classes.get(value)
            if place is None:
                place = classes[value] = places[len(classes) + 1]
            key.append(place)
        return tuple(key)

    def groups(self, width: int) -> dict[Tuple, list[Tuple]]:
        """The stored tuples by their first ``width`` positions, each tuple
        with a placeholder those positions do not hold left out."""
        groups: dict[Tuple, list[Tuple]] = {}
        for values in self.where:
            head = values[:width]
            # Placeholders are numbered by first occurrence, so the head
            # holds exactly the numbers up to its highest.
            top = max(
                (v.index for v in head if isinstance(v, Placeholder)),
                default=0,
            )
            if any(
                isinstance(v, Placeholder) and v.index > top
                for v in values[width:]
            ):
                continue
            group = groups.get(head)
            if group is None:
                groups[head] = [values]
            else:
                group.append(values)
        return groups


def constraint_table(
    kernel: ProgressionKernel, info: FormulaInfo, bindings: Mapping[str, int]
) -> tuple[LiftedTable, frozenset[str], bool]:
    """An empty table for a universal constraint over a history's constant
    bindings, with the relations it reads and whether its distinct ground
    instances share no letter (:func:`_shape`)."""
    predicates, constants, disjoint = _shape(info)
    table = LiftedTable(
        kernel,
        info.matrix,
        info.external_universals,
        GroundContext(bindings),
        frozenset(bindings[name] for name in constants),
    )
    return table, predicates, disjoint


def is_canonical(values: Tuple) -> bool:
    """Are the anonymous elements and the placeholders of ``values`` each
    numbered 1, 2, ... by first occurrence?"""
    seen = {Anon: 0, Placeholder: 0}
    for value in values:
        if isinstance(value, (Anon, Placeholder)):
            kind = type(value)
            if value.index > seen[kind] + 1:
                return False
            seen[kind] = max(seen[kind], value.index)
    return True


def _substitute(
    values: Tuple, index: int, element: int, places: Sequence[Placeholder]
) -> Tuple:
    """``values`` with placeholder ``index`` replaced by ``element`` and
    the later placeholders renumbered down by one."""
    out: list[GroundElement] = []
    for value in values:
        if isinstance(value, Placeholder) and value.index >= index:
            out.append(
                element if value.index == index else places[value.index - 1]
            )
        else:
            out.append(value)
    return tuple(out)


def _picker(
    args: Sequence[GroundElement], first: Mapping[GroundElement, int]
) -> Callable[[Tuple], tuple]:
    """The function from a tuple of a pattern to the arguments of one of
    its template's letters: a placeholder reads the tuple at the
    placeholder's first position, other arguments stay."""
    picks = [
        (first[arg], None) if isinstance(arg, Placeholder) else (-1, arg)
        for arg in args
    ]
    if all(position >= 0 for position, _fixed in picks):
        positions = [position for position, _fixed in picks]
        if len(positions) == 1:
            (position,) = positions
            return lambda values: (values[position],)
        getter = itemgetter(*positions)
        return lambda values: getter(values)
    return lambda values: tuple(
        [values[position] if position >= 0 else fixed for position, fixed in picks]
    )


def canonical_tuple(values: Sequence[GroundElement]) -> Tuple:
    """An instance's tuple with its anonymous elements renumbered by first
    occurrence (instances differing only there are the same formula)."""
    if not any(isinstance(value, Anon) for value in values):
        return tuple(values)
    numbers: dict[GroundElement, Anon] = {}
    out: list[GroundElement] = []
    for value in values:
        if isinstance(value, Anon):
            anon = numbers.get(value)
            if anon is None:
                anon = numbers[value] = Anon(len(numbers) + 1)
            out.append(anon)
        else:
            out.append(value)
    return tuple(out)


def instance_keys(relevant: frozenset[int], arity: int) -> list[Tuple]:
    """The Theorem 4.1 instances' tuples in the order of
    ``cartesian(ground_domain(relevant, arity))``, anonymous elements
    renumbered by first occurrence, each tuple once."""
    keys: dict[Tuple, None] = {}
    for values in cartesian(ground_domain(relevant, arity), repeat=arity):
        keys.setdefault(canonical_tuple(values), None)
    return list(keys)


def materialize(
    kernel: ProgressionKernel,
    where: Mapping[Tuple, int],
    keys: Iterable[Tuple],
    constants: frozenset[int],
    renamed: dict[tuple[int, Tuple], int] | None = None,
) -> int:
    """``pand_ids`` over the stored tuples among ``keys`` of each one's
    state renamed onto it.  Over the instances' tuples
    (:func:`instance_keys`) this is the remainder, the node the Theorem
    4.1 reduction of the same history progresses to (DESIGN.md §10.1).
    ``renamed``, if given, memoizes each (state, tuple) renaming."""
    memo: dict[tuple[int, Tuple], int] = {} if renamed is None else renamed
    ids: list[int] = []
    for key in keys:
        state = where.get(key)
        if state is None:
            continue
        pair = (state, key)
        rid = memo.get(pair)
        if rid is None:
            rid = memo[pair] = _renamed(kernel, state, key, constants)
        ids.append(rid)
    return kernel.pand_ids(ids)


def _renamed(
    kernel: ProgressionKernel,
    state: int,
    values: Tuple,
    constants: frozenset[int],
) -> int:
    """A template state renamed onto a tuple: placeholder ``j`` is the
    tuple's ``j``-th distinct non-constant element, where a witness
    tuple's own placeholders count as elements."""
    elements: list[GroundElement] = []
    for value in values:
        if (
            not isinstance(value, Anon)
            and value not in constants
            and value not in elements
        ):
            elements.append(value)
    if not elements:
        return state
    letters: dict[int, int] = {}
    for _bit, letter in kernel.letters(state):
        atom = letter.name
        assert isinstance(atom, RelAtom)
        if not is_witness(atom.args):
            continue
        renamed = tuple(
            elements[arg.index - 1] if isinstance(arg, Placeholder) else arg
            for arg in atom.args
        )
        letters[kernel.intern(letter)] = kernel.intern(
            rel_prop(atom.pred, renamed)
        )
    return kernel.rename(state, letters, {})
