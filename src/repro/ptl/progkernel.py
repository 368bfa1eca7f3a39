"""Compiled formula progression: one table-driven pass per instant.

:func:`repro.ptl.progression.progress` *interprets* the Section 4 rewrite
rules: every step walks the obligation's syntax tree, and even when the
memo answers every subformula from cache, a large ground conjunction costs
one tree traversal — frozenset slicing, tuple-key hashing and LRU traffic
per node — per instant.  Monitoring workloads progress millions of
structurally repetitive obligations, so the *lookup* is the hot path
(``BENCH_core.json`` E6: millions of transition probes dominating the
wall time).

This module compiles that lookup away, the same move
:mod:`repro.ptl.bitset` made for satisfiability:

* a :class:`ProgressionKernel` assigns every obligation in the progression
  closure a stable integer id (a :class:`repro.ptl.bitset.ClosureIndex`
  over whole formulas) and every propositional letter a stable bit, so a
  propositional state becomes one int mask and "the state restricted to
  the formula's letters" becomes a single ``&``;
* per obligation id it keeps a dense transition row ``sliced-state-mask ->
  successor id``; a progression step that has been seen before is two list
  indexings, one ``&`` and one int-keyed dict probe — no tree walk, no
  frozenset, no allocation;
* on a miss the kernel *discovers* the transition by running the Section 4
  rewrite rule natively on integer ids: every node kind (literals and
  constants, ``¬``, ``∧``, ``∨``, ``→``, ``X``, ``U``, ``W``, ``R``,
  ``F``, ``G``) has an id-space rule keyed by a per-id kind tag computed
  at intern time, and successors are reassembled through id-level mirrors
  of the smart constructors (:func:`~repro.ptl.formulas.pand`,
  :func:`~repro.ptl.formulas.por`, ...) — the table only ever contains
  rows the workload actually exercised, exactly like the Büchi kernel's
  lazily grown state space;
* :meth:`ProgressionKernel.progress_replay` progresses an obligation
  through a whole state sequence (the monitor's reground replay) by
  chaining each top-level conjunct on its own, in id space.

The recursive reference engine is *oracle-only*: the kernel never
consults (nor populates) the reference progression memo on the supported
fragment — ``reference_delegations`` counts the residual fallback, which
only exotic (out-of-fragment) node types can reach — and the property
suite pins every native rule to the reference on random formulas.
Remainders are not merely equal but pointer-identical, because both sides
intern through :mod:`repro.ptl.formulas` (DESIGN.md §10, "Why compiled
progression is faithful").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import AbstractSet, Any, Iterable, Mapping, Sequence

from .bitset import ClosureIndex, _iter_bits
from .formulas import (
    PFALSE,
    PTRUE,
    PAlways,
    PAnd,
    PEventually,
    PImplies,
    PNext,
    PNot,
    POr,
    PRelease,
    PTLFalse,
    PTLFormula,
    PTLTrue,
    PUntil,
    PWeakUntil,
    Prop,
)
from .progression import progress

__all__ = [
    "ProgressionKernel",
    "ProgKernelInfo",
    "progress_compiled",
    "progress_sequence_compiled",
    "progress_trace_compiled",
    "progkernel_cache_clear",
    "progkernel_cache_info",
]


# Per-id node-kind tags, assigned at intern time.  ``_miss`` dispatches its
# rewrite rule on these instead of re-inspecting node types per step.
(
    _K_TRUE,
    _K_FALSE,
    _K_PROP,
    _K_NOT,
    _K_AND,
    _K_OR,
    _K_IMPLIES,
    _K_NEXT,
    _K_UNTIL,
    _K_WEAK,
    _K_RELEASE,
    _K_EVENTUALLY,
    _K_ALWAYS,
    _K_OTHER,
) = range(14)

#: Bound of :meth:`ProgressionKernel.encode_state`'s memo, in states.
_STATE_MEMO_SIZE = 256

#: Stable rule names, indexed by kind tag (the ``misses_by_rule`` keys).
_RULE_NAMES = (
    "true",
    "false",
    "literal",
    "not",
    "and",
    "or",
    "implies",
    "next",
    "until",
    "weak_until",
    "release",
    "eventually",
    "always",
    "reference",
)

_KIND_OF_TYPE: dict[type, int] = {
    PTLTrue: _K_TRUE,
    PTLFalse: _K_FALSE,
    Prop: _K_PROP,
    PNot: _K_NOT,
    PAnd: _K_AND,
    POr: _K_OR,
    PImplies: _K_IMPLIES,
    PNext: _K_NEXT,
    PUntil: _K_UNTIL,
    PWeakUntil: _K_WEAK,
    PRelease: _K_RELEASE,
    PEventually: _K_EVENTUALLY,
    PAlways: _K_ALWAYS,
}


@dataclass(frozen=True)
class ProgKernelInfo:
    """Size and traffic counters of one :class:`ProgressionKernel`.

    ``misses_by_rule`` splits ``misses`` by the rewrite rule that computed
    the transition; ``reference_delegations`` counts the residual oracle
    fallback (out-of-fragment node kinds only — zero on the supported
    fragment, asserted by the benchmark harness).
    """

    obligations: int
    letters: int
    transitions: int
    hits: int
    misses: int
    evictions: int
    reference_delegations: int
    misses_by_rule: Mapping[str, int]

    @property
    def hit_rate(self) -> float:
        """Row hits over row probes (0.0 when the table was never probed)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0


class ProgressionKernel:
    """A shared, lazily grown transition table for formula progression.

    One kernel serves any number of formulas: ids and letter bits are
    handed out on demand and never reassigned, so every compiled row stays
    valid as the closure grows (the :class:`ClosureIndex` property).  The
    intended lifecycle matches :class:`repro.ptl.bitset.BuchiKernel` — one
    long-lived kernel per monitor (or the module-level default), absorbing
    the whole run's progression traffic.

    ``max_transitions`` bounds the total number of compiled transitions;
    on overflow every row is dropped (ids, letter bits and the id-space
    node metadata are kept, so outstanding masks stay valid) and
    ``evictions`` is bumped — the equivalent of the reference memo's LRU
    bound, coarse-grained because a full rebuild is cheap relative to
    per-entry bookkeeping.
    """

    __slots__ = (
        "max_transitions",
        "hits",
        "misses",
        "evictions",
        "reference_delegations",
        "_misses_by_rule",
        "_letters",
        "_oblig",
        "_letter_masks",
        "_kinds",
        "_subs",
        "_trans",
        "_conjuncts",
        "_disjuncts",
        "_state_masks",
        "_pand_memo",
        "_por_memo",
        "_pnot_memo",
        "_pimplies_memo",
        "_transitions",
        "true_id",
        "false_id",
    )

    def __init__(self, max_transitions: int = 1 << 20) -> None:
        if max_transitions < 1:
            raise ValueError(
                f"max_transitions must be >= 1, got {max_transitions}"
            )
        self.max_transitions = max_transitions
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.reference_delegations = 0
        self._misses_by_rule = [0] * len(_RULE_NAMES)
        #: letter -> bit index (letters are Prop nodes, interned).
        self._letters = ClosureIndex()
        #: obligation formula -> integer id.
        self._oblig = ClosureIndex()
        #: id -> mask of the formula's letters over the letter bits.
        self._letter_masks: list[int] = []
        #: id -> node-kind tag (the ``_miss`` rule dispatch key).
        self._kinds: list[int] = []
        #: id -> operand ids for non-∧/∨ compound kinds (¬/→/X/U/W/R/F/G).
        self._subs: list[tuple[int, ...] | None] = []
        #: id -> {sliced state mask -> successor id} (the transition rows).
        self._trans: list[dict[int, int]] = []
        #: id -> conjunct ids when the obligation is a top-level PAnd.
        self._conjuncts: list[tuple[int, ...] | None] = []
        #: id -> disjunct ids when the obligation is a top-level POr.
        self._disjuncts: list[tuple[int, ...] | None] = []
        #: encoded-state memo: props frozenset -> full state mask, emptied
        #: whenever it reaches ``_STATE_MEMO_SIZE`` entries.
        self._state_masks: dict[frozenset[Prop], int] = {}
        #: canonical conjunction index: flat conjunct ids -> id.  Id-space
        #: metadata like ``_conjuncts`` (grows with the closure, survives
        #: eviction): it is how reassembled successor conjunctions find
        #: existing ids without hashing their member formulas.
        self._pand_memo: dict[tuple[int, ...], int] = {}
        #: canonical disjunction index, the ∨ dual of ``_pand_memo``.
        self._por_memo: dict[tuple[int, ...], int] = {}
        #: operand id -> PNot id (the ¬ rule's reassembly index).
        self._pnot_memo: dict[int, int] = {}
        #: (antecedent id, consequent id) -> PImplies id.
        self._pimplies_memo: dict[tuple[int, int], int] = {}
        self._transitions = 0
        self.true_id = self.intern(PTRUE)
        self.false_id = self.intern(PFALSE)

    # -- closure bookkeeping ------------------------------------------------

    def intern(self, formula: PTLFormula) -> int:
        """The stable id of ``formula``, assigning one (and registering its
        kind tag, operand ids and letter mask) on first sight.

        Iterative post-order so deeply nested formulas don't recurse
        through Python frames; every subformula receives its own id, which
        is what lets the ``_miss`` rules run entirely on ids.
        """
        get = self._oblig._index.get
        oid = get(formula)
        if oid is not None:
            return oid
        register = self._register
        # ``expanded`` marks nodes whose missing children are already on
        # the stack: when such a node resurfaces those children are
        # registered (stack discipline; registrations are never undone),
        # so it registers without re-scanning its child list.
        expanded: set[int] = set()
        stack: list[PTLFormula] = [formula]
        while stack:
            node = stack[-1]
            if get(node) is not None:
                stack.pop()
                continue
            if id(node) in expanded:
                stack.pop()
                register(node)
                continue
            missing = [c for c in node.children if get(c) is None]
            if missing:
                expanded.add(id(node))
                stack.extend(missing)
            else:
                stack.pop()
                register(node)
        oid = get(formula)
        assert oid is not None
        return oid

    def _register(self, node: PTLFormula) -> int:
        """Assign an id to ``node`` (children already registered, ``node``
        itself not yet indexed) and fill in its per-id metadata: kind tag,
        operand ids, letter mask."""
        oblig = self._oblig
        index = oblig._index
        oid = len(oblig.members)
        index[node] = oid
        oblig.members.append(node)
        masks = self._letter_masks
        kind = _KIND_OF_TYPE.get(type(node), _K_OTHER)
        conjuncts: tuple[int, ...] | None = None
        disjuncts: tuple[int, ...] | None = None
        subs: tuple[int, ...] | None = None
        if kind == _K_PROP:
            mask = 1 << self._letters.bit(node)
        elif kind == _K_AND:
            conjuncts = tuple([index[op] for op in node.children])
            self._pand_memo.setdefault(conjuncts, oid)
            mask = 0
            for cid in conjuncts:
                mask |= masks[cid]
        elif kind == _K_OR:
            disjuncts = tuple([index[op] for op in node.children])
            self._por_memo.setdefault(disjuncts, oid)
            mask = 0
            for did in disjuncts:
                mask |= masks[did]
        elif kind == _K_TRUE or kind == _K_FALSE:
            mask = 0
        elif kind == _K_OTHER:
            # Exotic node (not part of the compiled fragment): index its
            # letters the generic way; progression will delegate.
            bit = self._letters.bit
            mask = 0
            for letter in node.propositions():
                mask |= 1 << bit(letter)
        else:
            children = node.children
            if len(children) == 1:
                sub0 = index[children[0]]
                subs = (sub0,)
                mask = masks[sub0]
                if kind == _K_NOT:
                    self._pnot_memo.setdefault(sub0, oid)
            else:
                sub0 = index[children[0]]
                sub1 = index[children[1]]
                subs = (sub0, sub1)
                mask = masks[sub0] | masks[sub1]
                if kind == _K_IMPLIES:
                    self._pimplies_memo.setdefault((sub0, sub1), oid)
        self._kinds.append(kind)
        self._subs.append(subs)
        self._trans.append({})
        self._conjuncts.append(conjuncts)
        self._disjuncts.append(disjuncts)
        masks.append(mask)
        return oid

    def formula(self, oid: int) -> PTLFormula:
        """The obligation formula carrying id ``oid``.

        Connectives discovered during progression (∧, ∨, ¬, →) are
        registered *virtually* (id, operand ids and letter mask only — see
        :meth:`_intern_conjunction` / :meth:`_intern_disjunction` /
        :meth:`_intern_virtual_sub`); the node itself is built here, on
        first observation.  Operands of a virtual node may themselves be
        virtual (canonical forms nest freely), so materialization walks
        iteratively.
        """
        members = self._oblig.members
        result = members[oid]
        if result is not None:
            return result
        conjuncts = self._conjuncts
        disjuncts = self._disjuncts
        subs = self._subs
        kinds = self._kinds
        index = self._oblig._index
        stack = [oid]
        while stack:
            vid = stack[-1]
            if members[vid] is not None:
                stack.pop()
                continue
            key = conjuncts[vid]
            if key is not None:
                ctor: type = PAnd
            else:
                key = disjuncts[vid]
                if key is not None:
                    ctor = POr
                else:
                    # Virtual ¬ or → id.
                    key = subs[vid]
                    assert key is not None
                    ctor = PNot if kinds[vid] == _K_NOT else PImplies
            vals: list[PTLFormula] = []
            missing: list[int] | None = None
            for i in key:
                m = members[i]
                if m is None:
                    if missing is None:
                        missing = [i]
                    else:
                        missing.append(i)
                elif missing is None:
                    vals.append(m)
            if missing is not None:
                stack.extend(missing)
                continue
            if ctor is PNot:
                node: PTLFormula = PNot(vals[0])
            elif ctor is PImplies:
                node = PImplies(vals[0], vals[1])
            else:
                node = ctor(tuple(vals))
            members[vid] = node
            # Bind the node into the index so a later intern() of the
            # same formula reuses this id's compiled rows.
            index.setdefault(node, vid)
            stack.pop()
        return members[oid]

    def encode_state(self, props: AbstractSet[Prop]) -> int:
        """One propositional state as a mask over the kernel's letter bits.

        Every letter of the state is indexed (bits are stable, so encoding
        can never go stale); letters no indexed formula mentions are
        sliced away by the per-row ``&`` anyway.

        The memo pays off within an instant (entries over the same domain
        encode the same state) and across the prefix replays of regrounds.
        A monitored stream rarely repeats a state otherwise, so the memo is
        bounded: it is emptied once it holds ``_STATE_MEMO_SIZE`` states,
        instead of growing with the stream.
        """
        if not isinstance(props, frozenset):
            props = frozenset(props)
        memo = self._state_masks
        mask = memo.get(props)
        if mask is None:
            if len(memo) >= _STATE_MEMO_SIZE:
                memo.clear()
            bit = self._letters.bit
            mask = 0
            for letter in props:
                mask |= 1 << bit(letter)
            memo[props] = mask
        return mask

    # -- progression --------------------------------------------------------

    def progress_id(self, oid: int, state_mask: int) -> int:
        """One progression step, compiled: successor id of ``oid`` through
        the state mask."""
        masked = self._letter_masks[oid] & state_mask
        succ = self._trans[oid].get(masked)
        if succ is None:
            return self._miss(oid, masked)
        self.hits += 1
        return succ

    def progress_replay(self, oid: int, state_masks: Sequence[int]) -> int:
        """Progress ``oid`` through a whole state sequence (reground
        replay), distributing over top-level conjuncts.

        Progression commutes with conjunction: the ``PAnd`` rewrite rule
        progresses each conjunct independently and conjoins, so after any
        number of steps the remainder equals the fold of the conjuncts'
        individually progressed remainders — flattening, constant folding
        and first-occurrence dedup included, because duplicates progress
        identically and order is preserved (DESIGN.md §10).  Chaining per
        conjunct touches one small transition row at a time and skips the
        per-step reassembly of the (large) intermediate conjunctions
        entirely; a conjunct that reaches a constant stops early.
        """
        conjuncts = self._conjuncts[oid]
        masks = self._letter_masks
        trans = self._trans
        true_id = self.true_id
        false_id = self.false_id
        hits = 0
        # The per-chain loops re-bind the letter mask and transition row
        # only when the obligation moves: self-loops dominate monitoring
        # chains, and eviction clears rows in place (the dict object is
        # stable), so the bindings stay valid across misses.
        miss = self._miss
        if conjuncts is None:
            current = oid
            if current != true_id and current != false_id:
                row_get = trans[current].get
                letters = masks[current]
                for mask in state_masks:
                    cm = letters & mask
                    sid = row_get(cm)
                    if sid is None:
                        sid = miss(current, cm)
                    else:
                        hits += 1
                    if sid != current:
                        current = sid
                        if current == false_id or current == true_id:
                            break
                        row_get = trans[current].get
                        letters = masks[current]
                self.hits += hits
            return current
        chain_finals: list[int] = []
        append_final = chain_finals.append
        for cid in conjuncts:
            current = cid
            row_get = trans[current].get
            letters = masks[current]
            for mask in state_masks:
                cm = letters & mask
                sid = row_get(cm)
                if sid is None:
                    sid = miss(current, cm)
                else:
                    hits += 1
                if sid != current:
                    if sid == false_id:
                        # One falsified conjunct sinks the whole
                        # conjunction, now and at every later instant.
                        self.hits += hits
                        return false_id
                    current = sid
                    if current == true_id:
                        break
                    row_get = trans[current].get
                    letters = masks[current]
            append_final(current)
        self.hits += hits
        # The same fold as _progress_conjunction, over the chain finals.
        all_conjuncts = self._conjuncts
        flat: list[int] = []
        seen: set[int] = set()
        seen_add = seen.add
        flat_append = flat.append
        for fid in chain_finals:
            parts = all_conjuncts[fid]
            if parts is None:
                if fid != true_id and fid not in seen:
                    seen_add(fid)
                    flat_append(fid)
            else:
                for part in parts:
                    if part != true_id and part not in seen:
                        seen_add(part)
                        flat_append(part)
        if not flat:
            return true_id
        if len(flat) == 1:
            return flat[0]
        key = tuple(flat)
        if key == conjuncts:
            return oid
        rid = self._pand_memo.get(key)
        if rid is None:
            rid = self._intern_conjunction(key)
            self._pand_memo[key] = rid
        return rid

    def progress_formula(
        self, formula: PTLFormula, props: AbstractSet[Prop]
    ) -> PTLFormula:
        """Formula-level convenience: intern, encode, progress, decode."""
        oid = self.intern(formula)
        succ = self.progress_id(oid, self.encode_state(props))
        return self.formula(succ)

    def _miss(self, oid: int, masked: int) -> int:
        """Discover one transition: run the Section 4 rewrite rule for the
        obligation's node kind natively on ids.

        ``masked`` is already sliced to this formula's letters, a superset
        of every operand's letters, so passing it down as the state mask
        is exact (each operand row re-slices with its own ``&``).
        """
        self.misses += 1
        kind = self._kinds[oid]
        self._misses_by_rule[kind] += 1
        # Dispatch ordered by observed E6 frequency: ∧, ¬, G, U/W carry
        # nearly all monitoring misses.
        if kind == _K_AND:
            conjuncts = self._conjuncts[oid]
            assert conjuncts is not None
            rid = self._progress_conjunction(oid, conjuncts, masked)
        elif kind == _K_NOT:
            sub = self._subs[oid]
            assert sub is not None
            if self._kinds[sub[0]] == _K_PROP:
                # Negated literal: one mask test, no operand row.
                rid = self.false_id if masked else self.true_id
            else:
                rid = self._pnot_id(self._step(sub[0], masked))
        elif kind == _K_ALWAYS:
            # G φ  ->  φ' ∧ G φ; the self-loop (φ' = true) is the
            # ubiquitous monitoring case, so it skips the ∧ fold.
            sub = self._subs[oid]
            assert sub is not None
            body = self._step(sub[0], masked)
            if body == self.true_id:
                rid = oid
            elif body == self.false_id:
                rid = self.false_id
            else:
                rid = self._pand_ids((body, oid))
        elif kind == _K_UNTIL or kind == _K_WEAK:
            # φ U ψ  ->  ψ' ∨ (φ' ∧ φ U ψ)   (W shares the unfolding)
            sub = self._subs[oid]
            assert sub is not None
            right = self._step(sub[1], masked)
            left = self._step(sub[0], masked)
            rid = self._por_ids((right, self._pand_ids((left, oid))))
        elif kind == _K_OR:
            disjuncts = self._disjuncts[oid]
            assert disjuncts is not None
            rid = self._progress_disjunction(oid, disjuncts, masked)
        elif kind == _K_PROP:
            # The letter mask has exactly one bit, so the sliced state is
            # nonzero iff the letter is true now.
            rid = self.true_id if masked else self.false_id
        elif kind == _K_IMPLIES:
            sub = self._subs[oid]
            assert sub is not None
            rid = self._pimplies_ids(
                self._step(sub[0], masked), self._step(sub[1], masked)
            )
        elif kind == _K_NEXT:
            # X φ  ->  φ: the successor is the (already interned) body id.
            sub = self._subs[oid]
            assert sub is not None
            rid = sub[0]
        elif kind == _K_RELEASE:
            # φ R ψ  ->  ψ' ∧ (φ' ∨ φ R ψ)
            sub = self._subs[oid]
            assert sub is not None
            right = self._step(sub[1], masked)
            left = self._step(sub[0], masked)
            rid = self._pand_ids((right, self._por_ids((left, oid))))
        elif kind == _K_EVENTUALLY:
            # F φ  ->  φ' ∨ F φ
            sub = self._subs[oid]
            assert sub is not None
            rid = self._por_ids((self._step(sub[0], masked), oid))
        elif kind == _K_TRUE or kind == _K_FALSE:
            rid = oid
        else:
            # Out-of-fragment node kind: the reference engine remains the
            # oracle of last resort.  Never reached by the PTL node set
            # (benchmark-asserted zero); counted so drift is visible.
            self.reference_delegations += 1
            result = progress(self.formula(oid), self._decode(masked))
            rid = self.intern(result)
        if self._transitions >= self.max_transitions:
            self._evict()
        self._trans[oid][masked] = rid
        self._transitions += 1
        return rid

    def _step(self, oid: int, masked: int) -> int:
        """One operand progression inside a rule: row probe, else miss.

        Literals and negated literals — the leaves every temporal rule
        bottoms out in — are answered by a bit test up front: as cheap as
        the row probe itself, and it keeps those operands from ever
        growing transition rows of their own.
        """
        kinds = self._kinds
        kind = kinds[oid]
        if kind == _K_PROP:
            if self._letter_masks[oid] & masked:
                return self.true_id
            return self.false_id
        if kind == _K_NOT:
            subs = self._subs[oid]
            assert subs is not None
            sub0 = subs[0]
            if kinds[sub0] == _K_PROP:
                if self._letter_masks[sub0] & masked:
                    return self.false_id
                return self.true_id
        cm = self._letter_masks[oid] & masked
        succ = self._trans[oid].get(cm)
        if succ is None:
            return self._miss(oid, cm)
        self.hits += 1
        return succ

    def _progress_conjunction(
        self, oid: int, conjuncts: tuple[int, ...], masked: int
    ) -> int:
        """The ``PAnd`` rewrite rule, run on ids: progress every conjunct
        through the same instant and conjoin.

        Mirrors :func:`repro.ptl.formulas.pand` exactly — one-level
        flattening of conjunction successors, constant folding, first-
        occurrence dedup — but on integer ids, so reassembling the (large,
        structurally repetitive) successor conjunction costs int-set
        operations plus one tuple-keyed memo probe instead of hashing
        thousands of formula nodes.
        """
        masks = self._letter_masks
        trans = self._trans
        miss = self._miss
        all_conjuncts = self._conjuncts
        true_id = self.true_id
        false_id = self.false_id
        hits = 0
        # Self-loop prefix fast path: while every conjunct progresses to
        # itself there is nothing to flatten or dedup (the conjunct tuple
        # is canonical — constant-free and already deduped), so the scan
        # defers building the result list until a conjunct first moves.
        # An all-self-loop scan is the fixed point: return oid untouched.
        moved = -1
        moved_sid = 0
        for index, cid in enumerate(conjuncts):
            cm = masks[cid] & masked
            sid = trans[cid].get(cm)
            if sid is None:
                sid = miss(cid, cm)
            else:
                hits += 1
            if sid != cid:
                moved = index
                moved_sid = sid
                break
        if moved < 0:
            self.hits += hits
            return oid
        flat = list(conjuncts[:moved])
        seen = set(flat)
        seen_add = seen.add
        flat_append = flat.append
        sid = moved_sid
        cid = conjuncts[moved]
        while True:
            if sid == cid:
                # Self-loop: a conjunct is never itself a conjunction or
                # a constant, so only dedup applies.
                if cid not in seen:
                    seen_add(cid)
                    flat_append(cid)
            else:
                parts = all_conjuncts[sid]
                if parts is None:
                    if sid == false_id:
                        self.hits += hits
                        return false_id
                    if sid != true_id and sid not in seen:
                        seen_add(sid)
                        flat_append(sid)
                else:
                    for part in parts:
                        if part == false_id:
                            self.hits += hits
                            return false_id
                        if part != true_id and part not in seen:
                            seen_add(part)
                            flat_append(part)
            moved += 1
            if moved >= len(conjuncts):
                break
            cid = conjuncts[moved]
            cm = masks[cid] & masked
            sid = trans[cid].get(cm)
            if sid is None:
                sid = miss(cid, cm)
            else:
                hits += 1
        self.hits += hits
        if not flat:
            return true_id
        if len(flat) == 1:
            return flat[0]
        key = tuple(flat)
        if key == conjuncts:
            return oid
        rid = self._pand_memo.get(key)
        if rid is None:
            rid = self._intern_conjunction(key)
            self._pand_memo[key] = rid
        return rid

    def _progress_disjunction(
        self, oid: int, disjuncts: tuple[int, ...], masked: int
    ) -> int:
        """The ``POr`` rewrite rule on ids, the ∨ dual of
        :meth:`_progress_conjunction`: progress every disjunct through the
        same instant and fold through the id-level mirror of
        :func:`repro.ptl.formulas.por` (one-level flattening, ``PTRUE``
        short-circuit, ``PFALSE`` dropping, first-occurrence dedup)."""
        masks = self._letter_masks
        trans = self._trans
        miss = self._miss
        all_disjuncts = self._disjuncts
        true_id = self.true_id
        false_id = self.false_id
        flat: list[int] = []
        seen: set[int] = set()
        seen_add = seen.add
        flat_append = flat.append
        hits = 0
        for did in disjuncts:
            dm = masks[did] & masked
            sid = trans[did].get(dm)
            if sid is None:
                sid = miss(did, dm)
            else:
                hits += 1
            if sid == did:
                # Self-loop: a canonical disjunct is never itself a
                # disjunction or a constant, so only dedup applies.
                if did not in seen:
                    seen_add(did)
                    flat_append(did)
                continue
            parts = all_disjuncts[sid]
            if parts is None:
                if sid == true_id:
                    self.hits += hits
                    return true_id
                if sid != false_id and sid not in seen:
                    seen_add(sid)
                    flat_append(sid)
            else:
                for part in parts:
                    if part == true_id:
                        self.hits += hits
                        return true_id
                    if part != false_id and part not in seen:
                        seen_add(part)
                        flat_append(part)
        self.hits += hits
        if not flat:
            return false_id
        if len(flat) == 1:
            return flat[0]
        key = tuple(flat)
        if key == disjuncts:
            # Fixed point: every disjunct progressed to itself.
            return oid
        rid = self._por_memo.get(key)
        if rid is None:
            rid = self._intern_disjunction(key)
            self._por_memo[key] = rid
        return rid

    # -- id-level smart constructors ----------------------------------------

    def _pand_ids(self, ids: Iterable[int]) -> int:
        """:func:`~repro.ptl.formulas.pand` mirrored on ids: one-level
        flattening, constant folding, first-occurrence dedup."""
        conjuncts = self._conjuncts
        true_id = self.true_id
        false_id = self.false_id
        flat: list[int] = []
        seen: set[int] = set()
        for oid in ids:
            parts = conjuncts[oid]
            if parts is None:
                parts = (oid,)
            for part in parts:
                if part == false_id:
                    return false_id
                if part == true_id or part in seen:
                    continue
                seen.add(part)
                flat.append(part)
        if not flat:
            return true_id
        if len(flat) == 1:
            return flat[0]
        key = tuple(flat)
        rid = self._pand_memo.get(key)
        if rid is None:
            rid = self._intern_conjunction(key)
            self._pand_memo[key] = rid
        return rid

    def _por_ids(self, ids: Iterable[int]) -> int:
        """:func:`~repro.ptl.formulas.por` mirrored on ids."""
        disjuncts = self._disjuncts
        true_id = self.true_id
        false_id = self.false_id
        flat: list[int] = []
        seen: set[int] = set()
        for oid in ids:
            parts = disjuncts[oid]
            if parts is None:
                parts = (oid,)
            for part in parts:
                if part == true_id:
                    return true_id
                if part == false_id or part in seen:
                    continue
                seen.add(part)
                flat.append(part)
        if not flat:
            return false_id
        if len(flat) == 1:
            return flat[0]
        key = tuple(flat)
        rid = self._por_memo.get(key)
        if rid is None:
            rid = self._intern_disjunction(key)
            self._por_memo[key] = rid
        return rid

    def _pnot_id(self, oid: int) -> int:
        """:func:`~repro.ptl.formulas.pnot` mirrored on ids: constant and
        double-negation folding, else a virtual ``PNot`` id (registered
        once per operand id, found through ``_pnot_memo`` after)."""
        if oid == self.true_id:
            return self.false_id
        if oid == self.false_id:
            return self.true_id
        if self._kinds[oid] == _K_NOT:
            sub = self._subs[oid]
            assert sub is not None
            return sub[0]
        rid = self._pnot_memo.get(oid)
        if rid is None:
            rid = self._intern_virtual_sub(_K_NOT, (oid,))
            self._pnot_memo[oid] = rid
        return rid

    def _pimplies_ids(self, antecedent: int, consequent: int) -> int:
        """:func:`~repro.ptl.formulas.pimplies` mirrored on ids."""
        if antecedent == self.false_id or consequent == self.true_id:
            return self.true_id
        if antecedent == self.true_id:
            return consequent
        if consequent == self.false_id:
            return self._pnot_id(antecedent)
        key = (antecedent, consequent)
        rid = self._pimplies_memo.get(key)
        if rid is None:
            rid = self._intern_virtual_sub(_K_IMPLIES, key)
            self._pimplies_memo[key] = rid
        return rid

    def _intern_conjunction(self, key: tuple[int, ...]) -> int:
        """Register the conjunction whose flat conjunct ids are ``key``.

        ``key`` is already in :func:`~repro.ptl.formulas.pand` canonical
        form (flattened, constant-free, deduped, ≥ 2 members), so its
        closure entries — conjunct ids, letter mask — are assembled from
        the ids at hand.  The ``PAnd`` node itself is *not* built here:
        reground replays step through long chains of intermediate
        conjunctions nothing ever observes, and constructing each one
        costs one pass of member hashing through the global intern cache.
        The id is virtual (``members[rid] is None``) until
        :meth:`formula` materializes it on first observation.  Interned
        conjunctions are found through ``_pand_memo`` (populated by
        :meth:`_register`), so a pre-existing real id is reused before
        this method is reached.
        """
        return self._intern_virtual(key, conjunction=True)

    def _intern_disjunction(self, key: tuple[int, ...]) -> int:
        """The ∨ dual of :meth:`_intern_conjunction`: a virtual id for the
        canonical disjunction with flat disjunct ids ``key``, found again
        through ``_por_memo`` and materialized by :meth:`formula`."""
        return self._intern_virtual(key, conjunction=False)

    def _intern_virtual(
        self, key: tuple[int, ...], conjunction: bool
    ) -> int:
        oblig = self._oblig
        rid = len(oblig.members)
        oblig.members.append(None)  # type: ignore[arg-type]
        masks = self._letter_masks
        mask = 0
        for mid in key:
            mask |= masks[mid]
        masks.append(mask)
        self._kinds.append(_K_AND if conjunction else _K_OR)
        self._subs.append(None)
        self._trans.append({})
        self._conjuncts.append(key if conjunction else None)
        self._disjuncts.append(None if conjunction else key)
        return rid

    def _intern_virtual_sub(self, kind: int, subs: tuple[int, ...]) -> int:
        """A virtual id for the ¬/→ node with operand ids ``subs``.

        The unary/binary sibling of :meth:`_intern_conjunction`: progression
        results like ``¬φ'`` only need a row key and their operand ids, so
        the ``PNot``/``PImplies`` node is deferred to :meth:`formula` the
        same way ∧/∨ results are.  Callers memoize (``_pnot_memo`` /
        ``_pimplies_memo``), so at most one virtual id exists per operand
        tuple and a pre-existing real id always wins the memo probe.
        """
        oblig = self._oblig
        rid = len(oblig.members)
        oblig.members.append(None)  # type: ignore[arg-type]
        masks = self._letter_masks
        mask = 0
        for sid in subs:
            mask |= masks[sid]
        masks.append(mask)
        self._kinds.append(kind)
        self._subs.append(subs)
        self._trans.append({})
        self._conjuncts.append(None)
        self._disjuncts.append(None)
        return rid

    def _decode(self, masked: int) -> frozenset[Prop]:
        """The sliced state mask back as a set of letters (delegation
        path only)."""
        members = self._letters.members
        return frozenset(members[i] for i in _iter_bits(masked))

    def _evict(self) -> None:
        """Drop every compiled row (ids, letter bits and the id-space node
        metadata survive)."""
        for row in self._trans:
            row.clear()
        self._state_masks.clear()
        self._transitions = 0
        self.evictions += 1

    # -- diagnostics --------------------------------------------------------

    def info(self) -> ProgKernelInfo:
        """Structured size and traffic counters."""
        return ProgKernelInfo(
            obligations=len(self._oblig),
            letters=len(self._letters),
            transitions=self._transitions,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            reference_delegations=self.reference_delegations,
            misses_by_rule=dict(
                zip(_RULE_NAMES, self._misses_by_rule)
            ),
        )

    def stats(self) -> dict[str, Any]:
        """:meth:`info` as a plain dict (benchmarks, JSON round-trips)."""
        return asdict(self.info())


# --------------------------------------------------------------------------
# Module-level default kernel (process-wide, like the satisfiability ones)
# --------------------------------------------------------------------------

_DEFAULT_KERNEL = ProgressionKernel()


def progress_compiled(
    formula: PTLFormula, current: AbstractSet[Prop]
) -> PTLFormula:
    """One compiled progression step via the process-wide kernel."""
    return _DEFAULT_KERNEL.progress_formula(formula, current)


def progress_sequence_compiled(
    formula: PTLFormula, states: Iterable[AbstractSet[Prop]]
) -> PTLFormula:
    """Compiled :func:`repro.ptl.progression.progress_sequence`."""
    kernel = _DEFAULT_KERNEL
    oid = kernel.intern(formula)
    constants = (kernel.true_id, kernel.false_id)
    for current in states:
        if oid in constants:
            break
        oid = kernel.progress_id(oid, kernel.encode_state(current))
    return kernel.formula(oid)


def progress_trace_compiled(
    formula: PTLFormula, states: Sequence[AbstractSet[Prop]]
) -> list[PTLFormula]:
    """Compiled :func:`repro.ptl.progression.progress_trace` (same
    constant-padding contract)."""
    kernel = _DEFAULT_KERNEL
    oid = kernel.intern(formula)
    constants = (kernel.true_id, kernel.false_id)
    trace = [formula]
    for current in states:
        if oid in constants:
            break
        oid = kernel.progress_id(oid, kernel.encode_state(current))
        trace.append(kernel.formula(oid))
    missing = len(states) + 1 - len(trace)
    if missing > 0:
        trace.extend([kernel.formula(oid)] * missing)
    return trace


def progkernel_cache_clear() -> None:
    """Reset the default kernel (benchmark harness / tests)."""
    global _DEFAULT_KERNEL
    _DEFAULT_KERNEL = ProgressionKernel()


def progkernel_cache_info() -> dict[str, Any]:
    """Counters of the default kernel."""
    return _DEFAULT_KERNEL.stats()
