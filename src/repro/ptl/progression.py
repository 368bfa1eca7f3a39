"""Formula progression: phase 1 of the Lemma 4.2 decision procedure.

This is the Sistla–Wolfson rewriting the paper describes: given a PTL
formula ``psi`` and a finite sequence of propositional states
``w = (w0, ..., wt)``, compute a formula ``xi_t`` such that ``w`` can be
extended to an infinite model of ``psi`` iff ``xi_t`` is satisfiable.

One step of the rewriting, :func:`progress`, satisfies the fundamental
property (tested property-style against the lasso evaluator)::

    (w0, w1, w2, ...) |= psi   iff   (w1, w2, ...) |= progress(psi, w0)

The rewrite rules mirror the paper's Section 4 description exactly
(``[a U b]_0`` becomes ``[b]_0 | [a]_0 & [a U b]_1`` and so on); atoms with
subscript 0 are replaced by their truth value in the current state and the
result is simplified on the fly by the smart constructors, which is what
keeps every intermediate formula within ``O(|psi|)`` as the lemma requires.

A propositional state is represented as the set of letters that are *true*
in it (closed-world: every other letter is false).

**Memoization.**  :func:`progress` is memoized in a bounded LRU keyed by
``(formula, state ∩ formula.propositions())``.  Slicing the state down to
the letters the formula actually mentions is sound — progression inspects
the state only through ``Prop``-leaf membership — and it is what makes the
memo effective in long monitoring runs: a ``G``-guarded prohibition over a
quiet element progresses to itself under the *same sliced state* at every
instant, regardless of what the rest of the database is doing, so repeated
obligations cost a dict hit instead of a structural rewrite.  Interned
formulas (:mod:`repro.ptl.formulas`) make the key O(1) to hash and compare.

The sliced states themselves are interned too (``_SLICE_INTERN``): equal
slices become the *same* frozenset object, so the memo-key tuple compares
by pointer on both components and the recursion passes one shared, already-
sliced frozenset down instead of re-wrapping and re-intersecting per node.
The memo is bounded (``PROGRESS_CACHE_MAXSIZE``, overridable through the
``REPRO_PROGRESS_CACHE_MAXSIZE`` environment variable or
:func:`set_progress_cache_maxsize`); :func:`progress_cache_info` exposes
hit/miss/eviction counters and the derived hit rate so long runs can detect
LRU thrash.

**Compiled engine.**  The table-driven
:class:`repro.ptl.progkernel.ProgressionKernel` is the production path:
each monitor and trigger manager owns one and progresses kernel ids
through it.  This module's recursive rewriting is its cross-validation
oracle: the kernel's tests drive
:meth:`~repro.ptl.progkernel.ProgressionKernel.progress_formula` against
:func:`progress`.
The kernel runs every rewrite rule natively on integer ids, so its
traffic never consults nor populates this module's memo — the two
engines' caches are fully isolated (regression-tested), and this LRU sees
only reference-engine traffic.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass as _dataclass
from typing import AbstractSet, Iterable, Sequence

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
    pand,
    pimplies,
    pnot,
    por,
)

PropState = frozenset[Prop]


def state(*props: Prop | str) -> PropState:
    """Build a propositional state from the letters true in it."""
    return frozenset(p if isinstance(p, Prop) else Prop(p) for p in props)


def _initial_maxsize() -> int:
    """The memo bound: the env override, or the built-in default."""
    raw = os.environ.get("REPRO_PROGRESS_CACHE_MAXSIZE")
    if raw is None:
        return 1 << 16
    try:
        size = int(raw)
    except ValueError:
        return 1 << 16
    return size if size >= 1 else 1 << 16


#: Upper bound on memoized (formula, sliced state) pairs.  Configurable via
#: the ``REPRO_PROGRESS_CACHE_MAXSIZE`` environment variable (read once at
#: import) or :func:`set_progress_cache_maxsize`.
PROGRESS_CACHE_MAXSIZE = _initial_maxsize()

_PROGRESS_CACHE: "OrderedDict[tuple[PTLFormula, frozenset[Prop]], PTLFormula]"
_PROGRESS_CACHE = OrderedDict()

#: Interned sliced states: equal slices share one frozenset object, so the
#: memo key compares by pointer and its hash is computed once per distinct
#: slice instead of once per lookup.  Bounded alongside the memo.
_SLICE_INTERN: dict[frozenset[Prop], frozenset[Prop]] = {}


@_dataclass
class ProgressCacheInfo:
    """Hit/miss/eviction counters of the progression memo."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    currsize: int = 0
    maxsize: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the memo was never probed)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


_CACHE_STATS = ProgressCacheInfo()


def progress_cache_info() -> ProgressCacheInfo:
    """A snapshot of the progression memo's counters."""
    return ProgressCacheInfo(
        hits=_CACHE_STATS.hits,
        misses=_CACHE_STATS.misses,
        evictions=_CACHE_STATS.evictions,
        currsize=len(_PROGRESS_CACHE),
        maxsize=PROGRESS_CACHE_MAXSIZE,
    )


def progress_cache_clear() -> None:
    """Empty the progression memo and reset its counters."""
    _PROGRESS_CACHE.clear()
    _SLICE_INTERN.clear()
    _CACHE_STATS.hits = 0
    _CACHE_STATS.misses = 0
    _CACHE_STATS.evictions = 0


def set_progress_cache_maxsize(size: int) -> None:
    """Rebound the progression memo to at most ``size`` entries.

    Shrinking evicts least-recently-used entries immediately (counted in
    ``evictions``); growing takes effect on the next insert.
    """
    global PROGRESS_CACHE_MAXSIZE
    if size < 1:
        raise ValueError(f"maxsize must be >= 1, got {size}")
    PROGRESS_CACHE_MAXSIZE = size
    while len(_PROGRESS_CACHE) > size:
        _PROGRESS_CACHE.popitem(last=False)
        _CACHE_STATS.evictions += 1


def _intern_slice(sliced: frozenset[Prop]) -> frozenset[Prop]:
    """The canonical object for a sliced state (bounded intern table)."""
    interned = _SLICE_INTERN.get(sliced)
    if interned is None:
        if len(_SLICE_INTERN) > 4 * PROGRESS_CACHE_MAXSIZE:
            _SLICE_INTERN.clear()
        _SLICE_INTERN[sliced] = sliced
        interned = sliced
    return interned


def progress(formula: PTLFormula, current: AbstractSet[Prop]) -> PTLFormula:
    """One step of formula progression through the state ``current``.

    Returns the obligation that the *rest* of the sequence (from the next
    instant on) must satisfy.  ``PTRUE`` means the prefix so far can be
    extended arbitrarily; ``PFALSE`` means no extension can satisfy the
    original formula.

    Memoized on ``(formula, current ∩ formula.propositions())`` — see the
    module docstring; :func:`progress_cache_clear` resets the memo.
    """
    if isinstance(formula, (PTLTrue, PTLFalse)):
        return formula
    if isinstance(formula, Prop):
        return PTRUE if formula in current else PFALSE
    if not isinstance(current, frozenset):
        current = frozenset(current)
    props = formula.propositions()
    # Recursion passes the interned slice down, so the subset test below is
    # usually an identity-fast "already sliced" hit and the intersection
    # (with its fresh-frozenset allocation) only runs when the formula
    # genuinely mentions fewer letters than its parent.
    sliced = _intern_slice(current if props >= current else props & current)
    key = (formula, sliced)
    cached = _PROGRESS_CACHE.get(key)
    if cached is not None:
        _CACHE_STATS.hits += 1
        _PROGRESS_CACHE.move_to_end(key)
        return cached
    _CACHE_STATS.misses += 1
    result = _progress_step(formula, sliced)
    _PROGRESS_CACHE[key] = result
    if len(_PROGRESS_CACHE) > PROGRESS_CACHE_MAXSIZE:
        _PROGRESS_CACHE.popitem(last=False)
        _CACHE_STATS.evictions += 1
    return result


def _progress_step(
    formula: PTLFormula, current: AbstractSet[Prop]
) -> PTLFormula:
    """The Section 4 rewrite rules (one uncached step)."""
    match formula:
        case PNot(operand=op):
            return pnot(progress(op, current))
        case PAnd(operands=ops):
            return pand(*(progress(op, current) for op in ops))
        case POr(operands=ops):
            return por(*(progress(op, current) for op in ops))
        case PImplies(antecedent=a, consequent=c):
            return pimplies(progress(a, current), progress(c, current))
        case PNext(body=body):
            return body
        case PUntil(left=left, right=right):
            return por(
                progress(right, current),
                pand(progress(left, current), formula),
            )
        case PWeakUntil(left=left, right=right):
            return por(
                progress(right, current),
                pand(progress(left, current), formula),
            )
        case PRelease(left=left, right=right):
            return pand(
                progress(right, current),
                por(progress(left, current), formula),
            )
        case PEventually(body=body):
            return por(progress(body, current), formula)
        case PAlways(body=body):
            return pand(progress(body, current), formula)
        case _:
            raise TypeError(f"cannot progress {formula!r}")


def progress_sequence(
    formula: PTLFormula,
    states: Iterable[AbstractSet[Prop]],
) -> PTLFormula:
    """Progress through a whole finite sequence of states.

    The result is the formula the paper calls ``xi_t``: the prefix can be
    extended to an infinite model of ``formula`` iff the result is
    satisfiable (checked by :mod:`repro.ptl.sat`).

    Short-circuits as soon as the obligation collapses to a constant.
    """
    remainder = formula
    for current in states:
        if isinstance(remainder, (PTLTrue, PTLFalse)):
            return remainder
        remainder = progress(remainder, current)
    return remainder


def progress_trace(
    formula: PTLFormula,
    states: Sequence[AbstractSet[Prop]],
) -> list[PTLFormula]:
    """Like :func:`progress_sequence` but return every intermediate formula.

    ``result[i]`` is the obligation after consuming ``states[:i]``; the list
    has ``len(states) + 1`` entries.  Used by the E3 experiment to measure
    how formula size evolves during the linear phase.

    Like :func:`progress_sequence`, short-circuits once the obligation
    collapses to a constant (``PTRUE``/``PFALSE`` progress to themselves
    forever): the rest of the trace is padded with the constant instead of
    paying for dead progression steps.
    """
    trace = [formula]
    remainder = formula
    for current in states:
        if isinstance(remainder, (PTLTrue, PTLFalse)):
            break
        remainder = progress(remainder, current)
        trace.append(remainder)
    missing = len(states) + 1 - len(trace)
    if missing > 0:
        trace.extend([remainder] * missing)
    return trace


def evaluate_state_formula(
    formula: PTLFormula, current: AbstractSet[Prop]
) -> bool:
    """Evaluate a temporal-free PTL formula in a single state.

    Raises
    ------
    ValueError
        If the formula contains a temporal connective.
    """
    match formula:
        case PTLTrue():
            return True
        case PTLFalse():
            return False
        case Prop():
            return formula in current
        case PNot(operand=op):
            return not evaluate_state_formula(op, current)
        case PAnd(operands=ops):
            return all(evaluate_state_formula(op, current) for op in ops)
        case POr(operands=ops):
            return any(evaluate_state_formula(op, current) for op in ops)
        case PImplies(antecedent=a, consequent=c):
            return not evaluate_state_formula(
                a, current
            ) or evaluate_state_formula(c, current)
        case _:
            raise ValueError(
                f"not a state formula: {formula} (temporal connective)"
            )
