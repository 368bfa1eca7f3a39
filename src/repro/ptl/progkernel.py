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
  of the four smart constructors the rules need
  (:meth:`ProgressionKernel.pand_ids` for :func:`~repro.ptl.formulas.pand`,
  and likewise ``por_ids``, ``pnot_id`` and ``pimplies_id``; a temporal
  successor is the obligation's own id or an operand's) — the table only
  ever contains rows the workload actually exercised, exactly like the
  Büchi kernel's lazily grown state space;
* the mirrors and :meth:`ProgressionKernel.rename` build *virtual* ids
  (id-space metadata, no node) that :meth:`ProgressionKernel.formula`
  materializes on first observation, and ids are canonical: one id per
  structure, whichever of a mirror or :meth:`ProgressionKernel.intern`
  saw it first, so an id-keyed memo is as exact as an identity-keyed one
  over interned nodes;
* :meth:`ProgressionKernel.progress_replay` advances a list of chain ids
  through a whole state sequence (the trigger manager's per-conjunct
  replays), :meth:`ProgressionKernel.rename` renames the letters of an id
  (the monitor's template states, renamed onto their tuples), and
  :meth:`ProgressionKernel.holds_quiescent` is the all-false model check
  of :func:`repro.ptl.sat.quick_model_check`, all on ids.

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

#: Node class per kind tag (materialization and :meth:`ProgressionKernel.node`).
_TYPE_OF_KIND: tuple[type, ...] = (
    PTLTrue,
    PTLFalse,
    Prop,
    PNot,
    PAnd,
    POr,
    PImplies,
    PNext,
    PUntil,
    PWeakUntil,
    PRelease,
    PEventually,
    PAlways,
)

_KIND_OF_TYPE: dict[type, int] = {
    cls: kind for kind, cls in enumerate(_TYPE_OF_KIND)
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
        "_pand_memo",
        "_por_memo",
        "_node_memo",
        "_quiescent",
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
        #: canonical conjunction index: flat conjunct ids -> id.  Id-space
        #: metadata like ``_conjuncts`` (grows with the closure, survives
        #: eviction): it is how reassembled successor conjunctions find
        #: existing ids without hashing their member formulas.
        self._pand_memo: dict[tuple[int, ...], int] = {}
        #: canonical disjunction index, the ∨ dual of ``_pand_memo``.
        self._por_memo: dict[tuple[int, ...], int] = {}
        #: (kind tag, *operand ids) -> id, for the unary and binary kinds
        #: (¬ → X U W R F G): their canonical index, like ``_pand_memo``.
        self._node_memo: dict[tuple[int, ...], int] = {}
        #: id -> truth on the all-false model (:meth:`holds_quiescent`).
        self._quiescent: dict[int, bool] = {}
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
        operand ids, letter mask.

        A compound node whose structure a mirror already gave a virtual id
        adopts that id instead of minting a second one: ids stay canonical
        (one per structure), which ``pand_ids``'s dedup and every id-keyed
        memo rely on.
        """
        oblig = self._oblig
        index = oblig._index
        masks = self._letter_masks
        kind = _KIND_OF_TYPE.get(type(node), _K_OTHER)
        conjuncts: tuple[int, ...] | None = None
        disjuncts: tuple[int, ...] | None = None
        subs: tuple[int, ...] | None = None
        if kind == _K_PROP:
            mask = 1 << self._letters.bit(node)
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
            operands = tuple([index[op] for op in node.children])
            if kind == _K_AND:
                conjuncts = operands
                memo, key = self._pand_memo, operands
            elif kind == _K_OR:
                disjuncts = operands
                memo, key = self._por_memo, operands
            else:
                subs = operands
                memo, key = self._node_memo, (kind, *operands)
            virtual = memo.get(key)
            if virtual is not None:
                assert oblig.members[virtual] is None
                oblig.members[virtual] = node
                index[node] = virtual
                return virtual
            mask = 0
            for sid in operands:
                mask |= masks[sid]
            memo[key] = len(oblig.members)
        oid = len(oblig.members)
        index[node] = oid
        oblig.members.append(node)
        self._kinds.append(kind)
        self._subs.append(subs)
        self._trans.append({})
        self._conjuncts.append(conjuncts)
        self._disjuncts.append(disjuncts)
        masks.append(mask)
        return oid

    def formula(self, oid: int) -> PTLFormula:
        """The obligation formula carrying id ``oid``.

        Ids built by the mirrors (:meth:`pand_ids`, :meth:`pnot_id`, ...)
        and by :meth:`rename` are *virtual* — kind tag, operand ids and
        letter mask only — and the node itself is built here, on first
        observation, through the raw constructors, which intern it.
        Operands of a virtual node may themselves be virtual (canonical
        forms nest freely), so materialization walks iteratively.
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
            key = conjuncts[vid] or disjuncts[vid] or subs[vid]
            assert key is not None
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
            kind = kinds[vid]
            ctor = _TYPE_OF_KIND[kind]
            if kind == _K_AND or kind == _K_OR:
                node: PTLFormula = ctor(tuple(vals))
            else:
                node = ctor(*vals)
            members[vid] = node
            # Bind the node into the index so a later intern() of the
            # same formula finds this id and its compiled rows.
            index.setdefault(node, vid)
            stack.pop()
        return members[oid]

    def node(self, oid: int) -> tuple[type, tuple[int, ...]]:
        """The node class of id ``oid`` and its operand ids, read from the
        id tables without building a node (letters and constants have no
        operands; :meth:`formula` gives a letter itself)."""
        kind = self._kinds[oid]
        if kind == _K_OTHER:
            return type(self._oblig.members[oid]), ()
        operands = (
            self._conjuncts[oid] or self._disjuncts[oid] or self._subs[oid]
        )
        return _TYPE_OF_KIND[kind], operands or ()

    def conjunct_ids(self, oid: int) -> tuple[int, ...]:
        """The conjunct ids of ``oid`` when it is a conjunction, else
        ``(oid,)``: the chains :meth:`progress_replay` advances."""
        return self._conjuncts[oid] or (oid,)

    def letters(self, oid: int) -> list[tuple[int, Prop]]:
        """The letters of ``oid``, each with its one-bit state mask."""
        members = self._letters.members
        out: list[tuple[int, Prop]] = []
        for bit in _iter_bits(self._letter_masks[oid]):
            letter = members[bit]
            assert isinstance(letter, Prop)
            out.append((1 << bit, letter))
        return out

    def rename(
        self, oid: int, letters: Mapping[int, int], memo: dict[int, int]
    ) -> int:
        """The id of ``formula(oid)`` with each letter id ``a`` of
        ``letters`` replaced by ``letters[a]`` (other letters stay).

        The renaming must be injective on the letters of ``oid``.  Then
        it commutes with every smart-constructor mirror: constants, node
        kinds and the identity of distinct operands are all preserved, so
        no fold or dedup fires on the image that did not fire on the
        source, and the image is the canonical id of the renamed
        structure.  ``memo`` holds the ids already renamed under the same
        ``letters``.
        """
        done = memo.get(oid)
        if done is not None:
            return done
        kind = self._kinds[oid]
        if kind == _K_PROP:
            rid = letters.get(oid, oid)
        elif kind == _K_TRUE or kind == _K_FALSE:
            rid = oid
        elif kind == _K_AND or kind == _K_OR:
            parts = self._conjuncts[oid] or self._disjuncts[oid]
            assert parts is not None
            renamed = [self.rename(part, letters, memo) for part in parts]
            rid = (
                self.pand_ids(renamed)
                if kind == _K_AND
                else self.por_ids(renamed)
            )
        elif kind == _K_OTHER:
            raise ValueError("cannot rename an out-of-fragment node")
        else:
            subs = self._subs[oid]
            assert subs is not None
            rid = self._node_id(
                kind, tuple([self.rename(s, letters, memo) for s in subs])
            )
        memo[oid] = rid
        return rid

    def encode_state(self, props: AbstractSet[Prop]) -> int:
        """One propositional state as a mask over the kernel's letter bits.

        Every letter of the state is indexed (bits are stable, so encoding
        can never go stale); letters no indexed formula mentions are
        sliced away by the per-row ``&`` anyway.  Its callers (the trigger
        manager's replays and the formula-level helpers below) encode each
        state once, so there is no memo here.
        """
        bit = self._letters.bit
        mask = 0
        for letter in props:
            mask |= 1 << bit(letter)
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

    def progress_replay(
        self, chains: list[int], state_masks: Sequence[int]
    ) -> bool:
        """Advance every chain id in ``chains``, in place, through a whole
        state sequence; False as soon as one chain reaches ``false``.

        Progression commutes with conjunction: the ``PAnd`` rewrite rule
        progresses each conjunct independently and conjoins, so after any
        number of steps a conjunction's remainder is :meth:`pand_ids` of
        its conjuncts' individually progressed chains — flattening,
        constant folding and first-occurrence dedup included, because
        duplicates progress identically and order is preserved (DESIGN.md
        §10).  Chaining one obligation at a time touches one small
        transition row at a time and never reassembles the (large)
        intermediate conjunctions; a chain that reaches a constant stops.
        When one chain is falsified the rest are left part-way: their
        conjunction is ``false`` whatever they hold.
        """
        masks = self._letter_masks
        trans = self._trans
        true_id = self.true_id
        false_id = self.false_id
        hits = 0
        # The per-chain loop re-binds the letter mask and transition row
        # only when the obligation moves: self-loops dominate monitoring
        # chains, and eviction clears rows in place (the dict object is
        # stable), so the bindings stay valid across misses.
        miss = self._miss
        for position, current in enumerate(chains):
            if current == true_id:
                continue
            if current == false_id:
                self.hits += hits
                return False
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
                    if current == false_id:
                        chains[position] = current
                        self.hits += hits
                        return False
                    if current == true_id:
                        break
                    row_get = trans[current].get
                    letters = masks[current]
            chains[position] = current
        self.hits += hits
        return True

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
                rid = self.pnot_id(self._step(sub[0], masked))
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
                rid = self.pand_ids((body, oid))
        elif kind == _K_UNTIL or kind == _K_WEAK:
            # φ U ψ  ->  ψ' ∨ (φ' ∧ φ U ψ)   (W shares the unfolding)
            sub = self._subs[oid]
            assert sub is not None
            right = self._step(sub[1], masked)
            left = self._step(sub[0], masked)
            rid = self.por_ids((right, self.pand_ids((left, oid))))
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
            rid = self.pimplies_id(
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
            rid = self.pand_ids((right, self.por_ids((left, oid))))
        elif kind == _K_EVENTUALLY:
            # F φ  ->  φ' ∨ F φ
            sub = self._subs[oid]
            assert sub is not None
            rid = self.por_ids((self._step(sub[0], masked), oid))
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
            rid = self._intern_virtual(_K_AND, key)
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
            rid = self._intern_virtual(_K_OR, key)
            self._por_memo[key] = rid
        return rid

    # -- id-level smart constructors ----------------------------------------

    def pand_ids(self, ids: Iterable[int]) -> int:
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
            rid = self._intern_virtual(_K_AND, key)
            self._pand_memo[key] = rid
        return rid

    def por_ids(self, ids: Iterable[int]) -> int:
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
            rid = self._intern_virtual(_K_OR, key)
            self._por_memo[key] = rid
        return rid

    def pnot_id(self, oid: int) -> int:
        """:func:`~repro.ptl.formulas.pnot` mirrored on ids: constant and
        double-negation folding, else the ``PNot`` id."""
        if oid == self.true_id:
            return self.false_id
        if oid == self.false_id:
            return self.true_id
        if self._kinds[oid] == _K_NOT:
            sub = self._subs[oid]
            assert sub is not None
            return sub[0]
        return self._node_id(_K_NOT, (oid,))

    def pimplies_id(self, antecedent: int, consequent: int) -> int:
        """:func:`~repro.ptl.formulas.pimplies` mirrored on ids."""
        if antecedent == self.false_id or consequent == self.true_id:
            return self.true_id
        if antecedent == self.true_id:
            return consequent
        if consequent == self.false_id:
            return self.pnot_id(antecedent)
        return self._node_id(_K_IMPLIES, (antecedent, consequent))

    def _node_id(self, kind: int, subs: tuple[int, ...]) -> int:
        """The id of the unary/binary node of ``kind`` over ``subs``: the
        existing one (real or virtual) if any, else a new virtual id."""
        key = (kind, *subs)
        rid = self._node_memo.get(key)
        if rid is None:
            rid = self._intern_virtual(kind, subs)
            self._node_memo[key] = rid
        return rid

    def _intern_virtual(self, kind: int, key: tuple[int, ...]) -> int:
        """A virtual id of ``kind`` over the operand ids ``key``.

        ``key`` is already in smart-constructor canonical form (for ∧/∨:
        flattened, constant-free, deduped, ≥ 2 members), so the closure
        entries — operand ids, letter mask — are assembled from the ids at
        hand.  The node itself is *not* built here: monitoring steps
        through long chains of remainders nothing ever observes, and
        constructing each one costs one pass of member hashing through the
        global intern cache.  The id is virtual (``members[rid] is None``)
        until :meth:`formula` materializes it on first observation.
        Callers probe the canonical indexes (``_pand_memo``, ``_por_memo``,
        ``_node_memo``) first, so at most one id exists per structure.
        """
        oblig = self._oblig
        rid = len(oblig.members)
        oblig.members.append(None)  # type: ignore[arg-type]
        masks = self._letter_masks
        mask = 0
        for mid in key:
            mask |= masks[mid]
        masks.append(mask)
        self._kinds.append(kind)
        self._subs.append(key if kind != _K_AND and kind != _K_OR else None)
        self._trans.append({})
        self._conjuncts.append(key if kind == _K_AND else None)
        self._disjuncts.append(key if kind == _K_OR else None)
        return rid

    # -- the all-false model -------------------------------------------------

    def holds_quiescent(self, oid: int) -> bool:
        """Truth of ``oid`` on the all-false constant model: the id mirror
        of :func:`repro.ptl.sat.quick_model_check`, memoized per id.

        Every position of that model is identical, which collapses the
        temporal semantics pointwise: ``X``/``G``/``F`` strip, ``a U b`` is
        ``b``, ``a W b`` is ``a or b``, ``a R b`` is ``b``.
        """
        memo = self._quiescent
        cached = memo.get(oid)
        if cached is not None:
            return cached
        holds = self.holds_quiescent
        kind = self._kinds[oid]
        if kind == _K_AND:
            conjuncts = self._conjuncts[oid]
            assert conjuncts is not None
            value = all(holds(cid) for cid in conjuncts)
        elif kind == _K_OR:
            disjuncts = self._disjuncts[oid]
            assert disjuncts is not None
            value = any(holds(did) for did in disjuncts)
        elif kind == _K_TRUE:
            value = True
        elif kind == _K_FALSE or kind == _K_PROP:
            value = False
        elif kind == _K_OTHER:
            from .sat import quick_model_check

            value = quick_model_check(self.formula(oid))
        else:
            subs = self._subs[oid]
            assert subs is not None
            if kind == _K_NOT:
                value = not holds(subs[0])
            elif kind == _K_IMPLIES:
                value = not holds(subs[0]) or holds(subs[1])
            elif kind == _K_UNTIL or kind == _K_RELEASE:
                value = holds(subs[1])
            elif kind == _K_WEAK:
                value = holds(subs[0]) or holds(subs[1])
            else:  # X, F, G
                value = holds(subs[0])
        memo[oid] = value
        return value

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
