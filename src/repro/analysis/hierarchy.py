"""Static temporal-hierarchy classification of constraints.

The paper's feasibility results are fragment-by-fragment: ``G (past)``
constraints admit history-less incremental checking (Proposition 2.1,
Section 6), and every other universal safety constraint goes through the
Theorem 4.1 reduction and the Lemma 4.2 decision.  This module places
every constraint in a Manna–Pnueli-style hierarchy by *syntax alone* —
no automata, no satisfiability calls.  One class selects an engine: the
monitor (:class:`repro.core.monitor.IntegrityMonitor`) sends
``past-closed`` constraints (:func:`is_past_closed`) to the history-less
evaluator and progresses the rest.  The other classes are reports
(``repro-tic plan``, the TIC13x lint passes):

``past-closed``
    ``forall* . G A`` with ``A`` past-only: the exact shape
    :func:`repro.pasteval.monitor.past_body` accepts, checkable at
    history-less cost with no satisfiability engine at all.
``bounded-future``
    The NNF tense skeleton uses no temporal operator beyond ``X``: every
    obligation resolves within a computed *lookahead depth* of instants.
    Both a safety and a co-safety property.
``safety``
    No strong ``until``/``eventually`` survives in the NNF skeleton —
    exactly the fragment of :func:`repro.logic.safety
    .is_syntactically_safe`.  A violation, once it happens, is witnessed
    by a finite prefix.
``co-safety``
    No ``always``/``weak-until``/``release`` survives: satisfaction is
    witnessed by a finite prefix, after which the remainder is ``true``.
``general``
    Everything else (mixed strong/weak obligations, or a matrix outside
    the analyzed skeleton, e.g. internal quantifiers).

The classifier is *sound by construction* with respect to the syntactic
safety recognizer — ``past-closed``/``bounded-future``/``safety`` hold
exactly when :func:`~repro.logic.safety.is_syntactically_safe` accepts —
and its claims are cross-validated against the automaton-based
:func:`repro.ptl.safety.is_safety`/:func:`~repro.ptl.safety.is_liveness`
oracles by the corpus tests (``tests/analysis/test_hierarchy.py``) and
the TIC131 lint pass, which treats any disagreement as an internal
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..logic.classify import (
    is_past_formula,
    is_pure_first_order,
    uses_future,
)
from ..logic.formulas import (
    Always,
    And,
    Atom,
    Eq,
    Eventually,
    FalseFormula,
    Formula,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    WeakUntil,
)
from ..logic.transform import nnf, strip_universal_prefix
from ..ptl.formulas import (
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
    Prop,
    PUntil,
)
from ..ptl.nnf import ptl_nnf


class HierarchyClass(Enum):
    """Position of a constraint in the temporal hierarchy."""

    PAST_CLOSED = "past-closed"
    BOUNDED_FUTURE = "bounded-future"
    SAFETY = "safety"
    CO_SAFETY = "co-safety"
    GENERAL = "general"


#: Classes whose membership implies the formula defines a safety
#: property (the soundness obligation TIC131 cross-checks).
SAFE_CLASSES = frozenset(
    {
        HierarchyClass.PAST_CLOSED,
        HierarchyClass.BOUNDED_FUTURE,
        HierarchyClass.SAFETY,
    }
)

#: Classes whose satisfaction is witnessed by a finite prefix, so the
#: remainder can discharge to ``true`` for good; a semantically valid
#: member discharges at construction (TIC132).
RETIRABLE_CLASSES = frozenset(
    {HierarchyClass.BOUNDED_FUTURE, HierarchyClass.CO_SAFETY}
)


@dataclass(frozen=True)
class HierarchyInfo:
    """The classification verdict for one constraint.

    Attributes
    ----------
    cls:
        The hierarchy class.
    lookahead:
        For ``bounded-future`` only: the maximal ``X``-nesting depth of
        the skeleton — every obligation resolves within that many
        instants.  ``None`` for every other class.
    reason:
        One-line human-readable justification (surfaced by TIC130 and
        the ``repro-tic plan`` report).
    """

    cls: HierarchyClass
    lookahead: int | None
    reason: str


def backend_for(cls: HierarchyClass) -> str:
    """The monitoring engine for a hierarchy class.

    This is the dispatch :class:`repro.core.plan.MonitorPlan` reports and
    :class:`repro.core.monitor.IntegrityMonitor` executes:
    ``past-closed`` → the history-less incremental past evaluator (no
    satisfiability calls at all); every other class → compiled
    progression with the Lemma 4.2 decision.
    """
    return "pasteval" if cls is HierarchyClass.PAST_CLOSED else "progression"


@dataclass(frozen=True)
class _Skeleton:
    """Aggregate facts about one NNF tense skeleton."""

    known: bool  # False: a node outside the analyzed fragment
    strong: bool  # a positive until/eventually occurs
    weak: bool  # a positive always/weak-until/release occurs
    depth: int  # max X-nesting over skeleton atoms


_ATOM = _Skeleton(known=True, strong=False, weak=False, depth=0)
_UNKNOWN = _Skeleton(known=False, strong=False, weak=False, depth=0)


def _is_skeleton_atom(node: Formula) -> bool:
    """Subformulas opaque to the hierarchy walk: temporal-free or
    past-only — prefix-determined either way, exactly the atoms of
    :func:`repro.logic.safety.is_syntactically_safe`."""
    return is_pure_first_order(node) or not uses_future(node)


def _combine(children: list[_Skeleton]) -> _Skeleton:
    return _Skeleton(
        known=all(c.known for c in children),
        strong=any(c.strong for c in children),
        weak=any(c.weak for c in children),
        depth=max((c.depth for c in children), default=0),
    )


def _walk(node: Formula) -> _Skeleton:
    if _is_skeleton_atom(node):
        return _ATOM
    match node:
        case TrueFormula() | FalseFormula() | Atom() | Eq():
            return _ATOM
        case Not(operand=operand):
            # After NNF, negation only wraps skeleton atoms.
            return _ATOM if _is_skeleton_atom(operand) else _UNKNOWN
        case And(operands=ops) | Or(operands=ops):
            return _combine([_walk(op) for op in ops])
        case Next(body=body):
            inner = _walk(body)
            return _Skeleton(
                known=inner.known,
                strong=inner.strong,
                weak=inner.weak,
                depth=inner.depth + 1,
            )
        case Always(body=body):
            inner = _walk(body)
            return _Skeleton(inner.known, inner.strong, True, inner.depth)
        case WeakUntil(left=left, right=right) | Release(
            left=left, right=right
        ):
            inner = _combine([_walk(left), _walk(right)])
            return _Skeleton(inner.known, inner.strong, True, inner.depth)
        case Until(left=left, right=right):
            inner = _combine([_walk(left), _walk(right)])
            return _Skeleton(inner.known, True, inner.weak, inner.depth)
        case Eventually(body=body):
            inner = _walk(body)
            return _Skeleton(inner.known, True, inner.weak, inner.depth)
        case _:
            # Internal quantifiers, Implies/Iff surviving NNF, past
            # operators over future bodies: outside the fragment.
            return _UNKNOWN


def _from_skeleton(skeleton: _Skeleton) -> HierarchyInfo:
    """Shared class derivation for the FOTL and PTL walks."""
    if not skeleton.known:
        return HierarchyInfo(
            HierarchyClass.GENERAL,
            None,
            "matrix outside the analyzed tense skeleton (internal "
            "quantifiers or mixed-tense operators): no fragment claim "
            "is sound",
        )
    if skeleton.strong and skeleton.weak:
        return HierarchyInfo(
            HierarchyClass.GENERAL,
            None,
            "both strong (until/eventually) and unbounded weak "
            "(always/release) obligations occur positively",
        )
    if skeleton.strong:
        return HierarchyInfo(
            HierarchyClass.CO_SAFETY,
            None,
            "only strong obligations (until/eventually) occur "
            "positively: satisfaction is witnessed by a finite prefix, "
            "after which the remainder is true",
        )
    if skeleton.weak:
        return HierarchyInfo(
            HierarchyClass.SAFETY,
            None,
            "no strong until/eventually occurs positively (the "
            "syntactic safety fragment): violations are "
            "finite-prefix-witnessed",
        )
    return HierarchyInfo(
        HierarchyClass.BOUNDED_FUTURE,
        skeleton.depth,
        f"no temporal operator beyond X: every obligation resolves "
        f"within {skeleton.depth} instant(s)",
    )


def classify_hierarchy(formula: Formula) -> HierarchyInfo:
    """Classify a FOTL constraint in the temporal hierarchy.

    Strips the external universal prefix (universal quantification
    preserves every class here: each is closed under intersection over
    instances), then walks the negation normal form of the tense
    skeleton, treating maximal temporal-free and past-only subformulas
    as opaque atoms.

    >>> from ..logic import parse
    >>> classify_hierarchy(
    ...     parse("forall x . G (Fill(x) -> Y O Sub(x))")
    ... ).cls.value
    'past-closed'
    >>> classify_hierarchy(
    ...     parse("forall x . G (Sub(x) -> X G !Sub(x))")
    ... ).cls.value
    'safety'
    >>> info = classify_hierarchy(parse("forall x . Sub(x) -> X X Fill(x)"))
    >>> (info.cls.value, info.lookahead)
    ('bounded-future', 2)
    """
    if is_past_closed(formula):
        return HierarchyInfo(
            HierarchyClass.PAST_CLOSED,
            None,
            "forall* G (past formula): Proposition 2.1 safety, "
            "checkable at history-less cost by the incremental past "
            "evaluator",
        )
    _prefix, matrix = strip_universal_prefix(formula)
    return _from_skeleton(_walk(nnf(matrix)))


def is_past_closed(formula: Formula) -> bool:
    """Is ``formula`` of the ``forall* . G A`` shape with ``A`` past-only?

    The ``past-closed`` test of :func:`classify_hierarchy` on its own,
    without the skeleton walk: the monitor routes every constraint by it
    at construction and checks a snapshot's split against it on restore.

    >>> from ..logic import parse
    >>> is_past_closed(parse("forall x . G (Fill(x) -> Y O Sub(x))"))
    True
    >>> is_past_closed(parse("forall x . G (Sub(x) -> X G !Sub(x))"))
    False
    """
    _prefix, matrix = strip_universal_prefix(formula)
    return isinstance(matrix, Always) and is_past_formula(matrix.body)


def classify_ptl_hierarchy(formula: PTLFormula) -> HierarchyInfo:
    """Classify a propositional PTL formula in the temporal hierarchy.

    Works on the NNF core of :func:`repro.ptl.nnf.ptl_nnf` — ``W`` and
    ``implies`` are rewritten away, and the smart constructors fold
    ``true U a``/``false R a`` back to ``F``/``G``, so strong means
    ``U``/``F`` and weak means ``R``/``G``.  There is no past fragment at the PTL
    level, so ``past-closed`` never arises here; this entry point exists
    to cross-validate the skeleton walk against the automaton-based
    :func:`repro.ptl.safety.is_safety` oracle on random formulas.

    >>> from ..ptl.convert import parse_ptl
    >>> classify_ptl_hierarchy(parse_ptl("G (p -> X q)")).cls.value
    'safety'
    >>> classify_ptl_hierarchy(parse_ptl("p U q")).cls.value
    'co-safety'
    >>> classify_ptl_hierarchy(parse_ptl("G F p")).cls.value
    'general'
    """
    return _from_skeleton(_walk_ptl(ptl_nnf(formula)))


def _walk_ptl(node: PTLFormula) -> _Skeleton:
    match node:
        case PTLTrue() | PTLFalse() | Prop():
            return _ATOM
        case PNot():
            # NNF core: negation only wraps propositions.
            return _ATOM
        case PAnd(operands=ops) | POr(operands=ops):
            return _combine([_walk_ptl(op) for op in ops])
        case PNext(body=body):
            inner = _walk_ptl(body)
            return _Skeleton(
                known=inner.known,
                strong=inner.strong,
                weak=inner.weak,
                depth=inner.depth + 1,
            )
        case PUntil(left=left, right=right):
            inner = _combine([_walk_ptl(left), _walk_ptl(right)])
            return _Skeleton(inner.known, True, inner.weak, inner.depth)
        case PEventually(body=body):
            inner = _walk_ptl(body)
            return _Skeleton(inner.known, True, inner.weak, inner.depth)
        case PRelease(left=left, right=right):
            inner = _combine([_walk_ptl(left), _walk_ptl(right)])
            return _Skeleton(inner.known, inner.strong, True, inner.depth)
        case PAlways(body=body):
            inner = _walk_ptl(body)
            return _Skeleton(inner.known, inner.strong, True, inner.depth)
        case _:  # pragma: no cover - ptl_nnf output is always core
            return _UNKNOWN
