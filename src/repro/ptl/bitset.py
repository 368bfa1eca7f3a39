"""Bitset-compiled satisfiability kernels for the Lemma 4.2 decision.

The reference engines (:mod:`repro.ptl.buchi`, :mod:`repro.ptl.tableau`)
manipulate frozensets of interned formulas: every node-dedup key is a pair
of frozensets, every consistency test walks Python sets, every successor
check re-evaluates subformulas structurally.  This module *compiles* those
set manipulations down to integer masks:

* a :class:`ClosureIndex` assigns each closure member (subformulas and the
  auxiliary formulas produced by expansion) a bit index, so a GPVW node's
  ``old``/``next`` sets become two Python ints and the dedup key an int
  pair — hashing, union, membership and contradiction tests are single
  machine-word operations (amortized) instead of set traversals;
* :class:`BuchiKernel` re-implements the GPVW construction of
  :func:`repro.ptl.buchi.build_automaton` over those masks, *sharing* the
  compiled state space, the ``next``-mask -> successors map and the
  per-state fairness verdict across every formula the kernel decides —
  monitoring workloads decide long runs of structurally-overlapping
  remainders, and the shared kernel turns each re-decision into graph
  reuse; a top-level conjunction is decided one letter-connected group
  of conjuncts at a time, so the automaton never spans the product of
  parts that share no letter;
* :class:`TableauKernel` compiles the atom-graph tableau of
  :func:`repro.ptl.tableau.build_tableau` into truth tables over the full
  ``2^n`` atom space: each base subformula's truth table is one big int
  (bit ``a`` = "the formula holds in atom ``a``"), local consistency and
  acceptance become bitmap intersections, and the per-atom successor
  relation becomes a handful of mask refinements instead of an
  ``O(4^n)`` pairwise ``step_allowed`` sweep.

Both kernels answer exactly the same question as the reference engines —
the test suite cross-validates them on random formulas, and DESIGN.md
("Why the bitset encoding is faithful") walks through the argument.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from .formulas import (
    PAlways,
    PAnd,
    PEventually,
    PNext,
    PNot,
    POr,
    PRelease,
    PTLFalse,
    PTLFormula,
    PTLTrue,
    PUntil,
    Prop,
    pand,
)
from .nnf import ptl_nnf

__all__ = [
    "ClosureIndex",
    "BuchiKernel",
    "TableauKernel",
    "is_satisfiable_buchi_bitset",
    "is_satisfiable_tableau_bitset",
    "bitset_cache_clear",
    "bitset_cache_info",
]


def _iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClosureIndex:
    """A growable ``formula -> bit index`` assignment.

    Bits are handed out on demand and never reassigned, so every mask built
    against this index stays valid as the closure grows — the key property
    that lets one :class:`BuchiKernel` serve a whole stream of formulas.
    """

    __slots__ = ("members", "_index")

    def __init__(self) -> None:
        self.members: list[PTLFormula] = []
        self._index: dict[PTLFormula, int] = {}

    def bit(self, formula: PTLFormula) -> int:
        """The bit index of ``formula``, assigning a fresh one if needed."""
        index = self._index.get(formula)
        if index is None:
            index = len(self.members)
            self._index[formula] = index
            self.members.append(formula)
        return index

    def get(self, formula: PTLFormula) -> int | None:
        """The bit index of ``formula`` if already assigned, else None."""
        return self._index.get(formula)

    def formulas(self, mask: int) -> list[PTLFormula]:
        """The closure members named by the set bits of ``mask``."""
        members = self.members
        return [members[i] for i in _iter_bits(mask)]

    def __len__(self) -> int:
        return len(self.members)


def _pick(new: set[PTLFormula]) -> PTLFormula:
    """GPVW expansion order: literals first, conjunctive nodes next.

    Mirrors the ranking of :func:`repro.ptl.buchi.build_automaton` — the
    order only affects how fast contradictions prune, never the closed
    state set.
    """
    best: PTLFormula | None = None
    best_rank = 3
    for candidate in new:
        kind = type(candidate)
        if kind is Prop or kind is PNot or kind is PTLTrue or kind is PTLFalse:
            new.discard(candidate)
            return candidate
        rank = 1 if (kind is PAnd or kind is PNext or kind is PAlways) else 2
        if rank < best_rank:
            best, best_rank = candidate, rank
    assert best is not None
    new.discard(best)
    return best


def _letter_groups(conjuncts: Sequence[PTLFormula]) -> list[PTLFormula]:
    """The conjunctions of ``conjuncts`` grouped by shared letters.

    Union-find over conjunct positions: two conjuncts join when they share
    a proposition, so distinct groups mention disjoint letter sets.  Groups
    come out in order of their first conjunct; a single group is the
    original conjunction (formulas are interned).
    """
    parent = list(range(len(conjuncts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[Prop, int] = {}
    for i, conjunct in enumerate(conjuncts):
        for letter in conjunct.propositions():
            a, b = find(owner.setdefault(letter, i)), find(i)
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[PTLFormula]] = {}
    for i, conjunct in enumerate(conjuncts):
        groups.setdefault(find(i), []).append(conjunct)
    return [pand(*members) for members in groups.values()]


class BuchiKernel:
    """A shared, incrementally-growing bitset GPVW automaton.

    States are ``(old_mask, next_mask)`` pairs of closure bitmaps, interned
    to small integer ids.  The kernel keeps three cross-formula caches:

    * ``next_mask -> successor state ids`` — GPVW successor expansion
      depends only on the carried obligations, so distinct formulas whose
      states share a ``next`` mask share the expansion;
    * ``state id -> good`` — whether a fair (accepting) infinite path
      starts at the state; intrinsic to the state graph, so once decided a
      state never needs re-exploration;
    * ``formula -> verdict`` — the identity-keyed satisfiability memo
      (formulas are interned, so the lookup is one dict probe).

    Acceptance is tracked with a per-state ``bad`` bitmap over eventuality
    slots: slot ``u`` is set when the eventuality ``u`` is claimed
    (``u in old``) but unfulfilled (``right(u) not in old``); an SCC is
    fair iff the AND of its members' bad bitmaps is zero — exactly the
    generalized Büchi condition of the reference construction.
    """

    def __init__(self, max_states: int = 1 << 18) -> None:
        self.max_states = max_states
        self.decisions = 0
        #: Times the state space outgrew ``max_states`` and was dropped.
        self.resets = 0
        self.reset()

    def reset(self) -> None:
        """Drop the compiled state space and every cache."""
        self._closure = ClosureIndex()
        self._state_ids: dict[tuple[int, int], int] = {}
        self._old: list[int] = []
        self._next: list[int] = []
        self._bad: list[int] = []
        #: ``next`` mask -> successor state ids (shared across states).
        self._succ: dict[int, tuple[int, ...]] = {}
        #: state id -> "a fair infinite path starts here".
        self._good: dict[int, bool] = {}
        #: NNF formula -> initial state ids.
        self._initials: dict[PTLFormula, tuple[int, ...]] = {}
        #: formula (pre-NNF, or an NNF letter group) -> verdict.
        self._verdicts: dict[PTLFormula, bool] = {}
        #: closure bit of an eventuality -> (acceptance slot, bit of right).
        self._eventualities: dict[int, tuple[int, int]] = {}
        self._slots = 0

    # -- closure bookkeeping ------------------------------------------------

    def _bit(self, formula: PTLFormula) -> int:
        """Closure bit of ``formula``; registers eventualities on first use."""
        index = self._closure.get(formula)
        if index is None:
            index = self._closure.bit(formula)
            if isinstance(formula, (PUntil, PEventually)):
                slot = self._slots
                self._slots += 1
                right = (
                    formula.right
                    if isinstance(formula, PUntil)
                    else formula.body
                )
                self._eventualities[index] = (slot, self._bit(right))
        return index

    def _state_id(self, old: int, next_: int) -> int:
        key = (old, next_)
        sid = self._state_ids.get(key)
        if sid is None:
            sid = len(self._old)
            self._state_ids[key] = sid
            self._old.append(old)
            self._next.append(next_)
            # Eventualities registered later get bits above every bit of
            # ``old``, so computing ``bad`` against the current table is
            # exact and stable.
            bad = 0
            for ubit, (slot, rbit) in self._eventualities.items():
                if (old >> ubit) & 1 and not (old >> rbit) & 1:
                    bad |= 1 << slot
            self._bad.append(bad)
        return sid

    # -- GPVW expansion over masks ------------------------------------------

    def _expand(
        self, new0: Iterable[PTLFormula], old0: int, next0: int
    ) -> tuple[int, ...]:
        """Expand a GPVW node into its closed states (mask mirror of the
        reference ``while pending`` loop)."""
        bit = self._bit
        get = self._closure.get
        result: list[int] = []
        in_result: set[int] = set()
        pending: list[tuple[set[PTLFormula], int, int]] = [
            (set(new0), old0, next0)
        ]
        while pending:
            new, old, next_ = pending.pop()
            alive = True
            while new:
                eta = _pick(new)
                kind = type(eta)
                if kind is PTLTrue:
                    continue
                if kind is PTLFalse:
                    alive = False
                    break
                if kind is Prop or kind is PNot:
                    negated = (
                        eta.operand if kind is PNot else PNot(eta)  # type: ignore[attr-defined]
                    )
                    nbit = get(negated)
                    if nbit is not None and (old >> nbit) & 1:
                        alive = False  # literal contradiction
                        break
                    old |= 1 << bit(eta)
                    continue
                b = bit(eta)
                old |= 1 << b
                if kind is PAnd:
                    for op in eta.operands:  # type: ignore[attr-defined]
                        obit = get(op)
                        if obit is None or not (old >> obit) & 1:
                            new.add(op)
                    continue
                if kind is PNext:
                    next_ |= 1 << bit(eta.body)  # type: ignore[attr-defined]
                    continue
                if kind is PAlways:
                    body = eta.body  # type: ignore[attr-defined]
                    obit = get(body)
                    if obit is None or not (old >> obit) & 1:
                        new.add(body)
                    next_ |= 1 << b
                    continue
                if kind is POr:
                    ops = eta.operands  # type: ignore[attr-defined]
                    for op in ops[:-1]:
                        branch = set(new)
                        obit = get(op)
                        if obit is None or not (old >> obit) & 1:
                            branch.add(op)
                        pending.append((branch, old, next_))
                    last = ops[-1]
                    obit = get(last)
                    if obit is None or not (old >> obit) & 1:
                        new.add(last)
                    continue
                if kind is PUntil:
                    left, right = eta.left, eta.right  # type: ignore[attr-defined]
                    wait = set(new)
                    lbit = get(left)
                    if lbit is None or not (old >> lbit) & 1:
                        wait.add(left)
                    pending.append((wait, old, next_ | (1 << b)))
                    rbit = get(right)
                    if rbit is None or not (old >> rbit) & 1:
                        new.add(right)
                    continue
                if kind is PRelease:
                    left, right = eta.left, eta.right  # type: ignore[attr-defined]
                    hold = set(new)
                    rbit = get(right)
                    if rbit is None or not (old >> rbit) & 1:
                        hold.add(right)
                    pending.append((hold, old, next_ | (1 << b)))
                    for part in (left, right):
                        pbit = get(part)
                        if pbit is None or not (old >> pbit) & 1:
                            new.add(part)
                    continue
                if kind is PEventually:
                    pending.append((set(new), old, next_ | (1 << b)))
                    body = eta.body  # type: ignore[attr-defined]
                    obit = get(body)
                    if obit is None or not (old >> obit) & 1:
                        new.add(body)
                    continue
                raise TypeError(
                    f"unexpected connective in NNF core formula: {eta!r}"
                )
            if alive:
                sid = self._state_id(old, next_)
                if sid not in in_result:
                    in_result.add(sid)
                    result.append(sid)
        return tuple(result)

    def _successors(self, sid: int) -> tuple[int, ...]:
        next_ = self._next[sid]
        succ = self._succ.get(next_)
        if succ is None:
            succ = self._expand(self._closure.formulas(next_), 0, 0)
            self._succ[next_] = succ
        return succ

    # -- fairness search with cached per-state verdicts ----------------------

    def _has_fair_path(self, roots: tuple[int, ...]) -> bool:
        """True iff a fair (accepting) infinite path starts at some root.

        Iterative Tarjan over the states not yet decided.  SCCs pop in
        reverse topological order, so when a component is finalized every
        cross-component successor already carries its verdict (from this
        run or a previous one) and goodness propagates backwards in one
        pass.  All verdicts are recorded in ``self._good`` for reuse.
        """
        good = self._good
        for root in roots:
            if good.get(root):
                return True
        index_of: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        counter = 0
        for root in roots:
            if root in index_of or root in good:
                continue
            work: list[tuple[int, Iterator[int]]] = [
                (root, iter(self._successors(root)))
            ]
            index_of[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ in good:
                        continue  # finished in an earlier run
                    if succ not in index_of:
                        index_of[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(self._successors(succ))))
                        advanced = True
                        break
                    if succ in on_stack:
                        if index_of[succ] < low[node]:
                            low[node] = index_of[succ]
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index_of[node]:
                    component: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    members = set(component)
                    bad_all = -1
                    for member in component:
                        bad_all &= self._bad[member]
                    cyclic = len(component) > 1 or (
                        node in self._succ[self._next[node]]
                    )
                    verdict = cyclic and bad_all == 0
                    if not verdict:
                        for member in component:
                            for succ in self._succ[self._next[member]]:
                                if succ not in members and good[succ]:
                                    verdict = True
                                    break
                            if verdict:
                                break
                    for member in component:
                        good[member] = verdict
        return any(good[root] for root in roots)

    def _decide(self, normal: PTLFormula) -> bool:
        """Satisfiability of the NNF formula ``normal`` over the shared
        state space, memoized alongside the public verdicts."""
        verdict = self._verdicts.get(normal)
        if verdict is not None:
            return verdict
        if len(self._old) > self.max_states:
            self.reset()
            self.resets += 1
        if isinstance(normal, PTLTrue):
            verdict = True
        elif isinstance(normal, PTLFalse):
            verdict = False
        else:
            roots = self._initials.get(normal)
            if roots is None:
                roots = self._expand((normal,), 0, 0)
                self._initials[normal] = roots
            verdict = self._has_fair_path(roots)
        self._verdicts[normal] = verdict
        return verdict

    # -- public surface ------------------------------------------------------

    def is_satisfiable(self, formula: PTLFormula) -> bool:
        """Satisfiability of ``formula``, sharing state with every prior
        decision of this kernel.  Agrees with the reference engines.

        A top-level conjunction is decided per letter-connected group of
        conjuncts (:func:`_letter_groups`): groups over disjoint letters
        have models that merge letter by letter, so the conjunction is
        satisfiable iff every group is, and the automaton only ever spans
        one group's letters.
        """
        verdict = self._verdicts.get(formula)
        if verdict is not None:
            return verdict
        self.decisions += 1
        normal = ptl_nnf(formula)
        if isinstance(normal, PAnd):
            verdict = all(
                self._decide(group)
                for group in _letter_groups(normal.operands)
            )
        else:
            verdict = self._decide(normal)
        self._verdicts[formula] = verdict
        return verdict

    def stats(self) -> dict[str, int]:
        """Size counters for diagnostics and benchmarks."""
        return {
            "states": len(self._old),
            "closure": len(self._closure),
            "eventualities": self._slots,
            "next_masks": len(self._succ),
            "verdicts": len(self._verdicts),
            "decisions": self.decisions,
            "resets": self.resets,
        }


# --------------------------------------------------------------------------
# Tableau kernel: truth tables over the 2^n atom space
# --------------------------------------------------------------------------


def _var_table(bit: int, atom_count: int) -> int:
    """Truth table (one bit per atom) of base member ``bit``.

    Atom ``a`` claims base member ``i`` iff bit ``i`` of ``a`` is set, so
    the table is the periodic pattern ``2^bit`` zeros then ``2^bit`` ones,
    built by doubling.
    """
    table = ((1 << (1 << bit)) - 1) << (1 << bit)
    width = 2 << bit
    while width < atom_count:
        table |= table << width
        width <<= 1
    return table


def _table_bytes(table: int, atom_count: int) -> bytes:
    """Byte-array form of a truth table for O(1) per-atom membership."""
    return table.to_bytes((atom_count + 7) // 8, "little")


def _member(table: bytes, atom: int) -> int:
    return (table[atom >> 3] >> (atom & 7)) & 1


class TableauKernel:
    """The atom-graph tableau of one base, compiled to truth tables.

    ``base`` is the first-seen-ordered tuple of base subformulas
    (propositions and temporal nodes) of an NNF-core formula; atoms are the
    integers ``0 .. 2^n - 1`` (bit ``i`` = atom claims ``base[i]``).  The
    constructor precomputes:

    * a truth table per base member and, on demand, per boolean combination
      (:meth:`table`);
    * the local-consistency bitmap (the paper's atom conditions);
    * per-temporal-node successor rules that refine an "allowed successor"
      bitmap per atom (memoized — reachable atoms are usually few);
    * one acceptance bitmap per eventuality.

    ``decide`` then runs the same reachable-SCC nonemptiness search as the
    reference, but over ints.
    """

    def __init__(self, base: Sequence[PTLFormula]) -> None:
        self.base = tuple(base)
        count = 1 << len(self.base)
        self.atom_count = count
        self._full = (1 << count) - 1
        self._tables: dict[PTLFormula, int] = {
            member: _var_table(i, count) for i, member in enumerate(self.base)
        }
        self._verdicts: dict[PTLFormula, bool] = {}
        self._succ_memo: dict[int, int] = {}
        self._build_rules()

    def table(self, formula: PTLFormula) -> int:
        """Truth table of an NNF-core formula over this base's atoms."""
        table = self._tables.get(formula)
        if table is not None:
            return table
        kind = type(formula)
        if kind is PTLTrue:
            table = self._full
        elif kind is PTLFalse:
            table = 0
        elif kind is PNot:
            table = self._full & ~self.table(formula.operand)  # type: ignore[attr-defined]
        elif kind is PAnd:
            table = self._full
            for op in formula.operands:  # type: ignore[attr-defined]
                table &= self.table(op)
        elif kind is POr:
            table = 0
            for op in formula.operands:  # type: ignore[attr-defined]
                table |= self.table(op)
        else:
            raise KeyError(f"{formula!r} is not over this tableau base")
        self._tables[formula] = table
        return table

    def _build_rules(self) -> None:
        full = self._full
        count = self.atom_count
        consistent = full
        rules: list[tuple[Any, ...]] = []
        acceptance: list[bytes] = []
        for i, node in enumerate(self.base):
            claimed = self._tables[node]
            unclaimed = full & ~claimed
            if isinstance(node, PNext):
                body = self.table(node.body)
                rules.append(("X", i, body, full & ~body))
            elif isinstance(node, PUntil):
                a_now = self.table(node.left)
                b_now = self.table(node.right)
                # claimed -> (B now or A now); unclaimed -> not B now.
                consistent &= (unclaimed | a_now | b_now) & (
                    claimed | (full & ~b_now)
                )
                rules.append(
                    (
                        "U",
                        i,
                        _table_bytes(a_now, count),
                        _table_bytes(b_now, count),
                        claimed,
                        unclaimed,
                    )
                )
                acceptance.append(_table_bytes(unclaimed | b_now, count))
            elif isinstance(node, PRelease):
                a_now = self.table(node.left)
                b_now = self.table(node.right)
                # claimed -> B now; unclaimed -> not (A now and B now).
                consistent &= (unclaimed | b_now) & (
                    claimed | (full & ~(a_now & b_now))
                )
                rules.append(
                    (
                        "R",
                        i,
                        _table_bytes(a_now, count),
                        _table_bytes(b_now, count),
                        claimed,
                        unclaimed,
                    )
                )
            elif isinstance(node, PEventually):
                body = self.table(node.body)
                # unclaimed -> body false now.
                consistent &= claimed | (full & ~body)
                rules.append(
                    ("F", i, _table_bytes(body, count), claimed, unclaimed)
                )
                acceptance.append(_table_bytes(unclaimed | body, count))
            elif isinstance(node, PAlways):
                body = self.table(node.body)
                # claimed -> body true now.
                consistent &= unclaimed | body
                rules.append(
                    ("G", i, _table_bytes(body, count), claimed, unclaimed)
                )
        self._consistent = consistent
        self._rules = tuple(rules)
        self._acceptance = tuple(acceptance)

    def _succ_mask(self, atom: int) -> int:
        """Bitmap of the consistent atoms reachable from ``atom`` in one
        step (the compiled ``step_allowed`` relation)."""
        mask = self._succ_memo.get(atom)
        if mask is not None:
            return mask
        allowed = self._consistent
        for rule in self._rules:
            kind = rule[0]
            if kind == "X":
                _, i, body, not_body = rule
                allowed &= body if (atom >> i) & 1 else not_body
            elif kind == "U":
                _, i, a_now, b_now, claimed, unclaimed = rule
                if (atom >> i) & 1:
                    if _member(b_now, atom):
                        pass  # fulfilled now: any successor
                    elif _member(a_now, atom):
                        allowed &= claimed  # obligation carries over
                    else:
                        allowed = 0  # locally inconsistent (unreachable)
                else:
                    if _member(b_now, atom):
                        allowed = 0
                    elif _member(a_now, atom):
                        allowed &= unclaimed
            elif kind == "R":
                _, i, a_now, b_now, claimed, unclaimed = rule
                if (atom >> i) & 1:
                    if not _member(b_now, atom):
                        allowed = 0
                    elif _member(a_now, atom):
                        pass  # released now
                    else:
                        allowed &= claimed
                else:
                    if not _member(b_now, atom):
                        pass
                    elif _member(a_now, atom):
                        allowed = 0
                    else:
                        allowed &= unclaimed
            elif kind == "F":
                _, i, body, claimed, unclaimed = rule
                if (atom >> i) & 1:
                    if not _member(body, atom):
                        allowed &= claimed
                else:
                    if _member(body, atom):
                        allowed = 0
                    else:
                        allowed &= unclaimed
            else:  # "G"
                _, i, body, claimed, unclaimed = rule
                if (atom >> i) & 1:
                    if _member(body, atom):
                        allowed &= claimed
                    else:
                        allowed = 0
                else:
                    if _member(body, atom):
                        allowed &= unclaimed
            if not allowed:
                break
        self._succ_memo[atom] = allowed
        return allowed

    def _nonempty_from(self, initial: int) -> bool:
        """A reachable cyclic SCC fulfilling every eventuality exists."""
        if not initial:
            return False
        acceptance = self._acceptance
        index_of: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        counter = 0
        for root in _iter_bits(initial):
            if root in index_of:
                continue
            work: list[tuple[int, Iterator[int]]] = [
                (root, _iter_bits(self._succ_mask(root)))
            ]
            index_of[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index_of:
                        index_of[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, _iter_bits(self._succ_mask(succ))))
                        advanced = True
                        break
                    if succ in on_stack and index_of[succ] < low[node]:
                        low[node] = index_of[succ]
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index_of[node]:
                    component: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    cyclic = len(component) > 1 or bool(
                        (self._succ_mask(node) >> node) & 1
                    )
                    if cyclic and all(
                        any(_member(table, m) for m in component)
                        for table in acceptance
                    ):
                        return True
        return False

    def decide(self, normal: PTLFormula) -> bool:
        """Satisfiability of an NNF-core formula over this base."""
        verdict = self._verdicts.get(normal)
        if verdict is None:
            verdict = self._nonempty_from(
                self.table(normal) & self._consistent
            )
            self._verdicts[normal] = verdict
        return verdict


# --------------------------------------------------------------------------
# Module-level default kernels (process-wide, like the reference lru_caches)
# --------------------------------------------------------------------------

_DEFAULT_BUCHI = BuchiKernel()

#: Compiled tableau kernels keyed by their exact base tuple.
_TABLEAU_KERNELS: dict[tuple[PTLFormula, ...], TableauKernel] = {}
_TABLEAU_KERNEL_LIMIT = 64


def is_satisfiable_buchi_bitset(formula: PTLFormula) -> bool:
    """Bitset-engine satisfiability via the process-wide Büchi kernel."""
    return _DEFAULT_BUCHI.is_satisfiable(formula)


def is_satisfiable_tableau_bitset(
    formula: PTLFormula, max_base: int = 16
) -> bool:
    """Bitset-engine satisfiability via a compiled tableau kernel.

    Raises :class:`ValueError` beyond ``max_base`` base subformulas, with
    the same contract as the reference tableau.
    """
    from .tableau import _base_subformulas

    normal = ptl_nnf(formula)
    if isinstance(normal, PTLTrue):
        return True
    if isinstance(normal, PTLFalse):
        return False
    base = tuple(_base_subformulas(normal))
    if len(base) > max_base:
        raise ValueError(
            f"tableau base has {len(base)} subformulas; "
            f"2^{len(base)} atoms exceeds the max_base={max_base} limit"
        )
    kernel = _TABLEAU_KERNELS.get(base)
    if kernel is None:
        if len(_TABLEAU_KERNELS) >= _TABLEAU_KERNEL_LIMIT:
            _TABLEAU_KERNELS.clear()
        kernel = TableauKernel(base)
        _TABLEAU_KERNELS[base] = kernel
    return kernel.decide(normal)


def bitset_cache_clear() -> None:
    """Reset the default kernels (benchmark harness / tests)."""
    _DEFAULT_BUCHI.reset()
    _DEFAULT_BUCHI.decisions = 0
    _DEFAULT_BUCHI.resets = 0
    _TABLEAU_KERNELS.clear()


def bitset_cache_info() -> dict[str, Any]:
    """Size counters of the default kernels."""
    return {
        "buchi_kernel": _DEFAULT_BUCHI.stats(),
        "tableau_kernels": len(_TABLEAU_KERNELS),
    }
