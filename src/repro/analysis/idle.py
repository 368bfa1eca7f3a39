"""Idle-step classification and registration-time verdicts.

An *idle step* for a constraint is an instant whose delta touches none of
the relations the constraint mentions.  This module classifies how a
formula behaves across such steps; ``repro-tic analyze-deps`` reports the
class and lint code TIC123 uses :func:`static_verdict`.

Three static classes (coarsest first):

``STATE_INDEPENDENT``
    The formula mentions no database relation at all — its truth value is
    the same over every history, so the verdict is decidable at
    registration time (:func:`static_verdict`).
``PAST_CLOSED``
    No future connective: once evaluated at an instant, later updates can
    never retroactively change that instant's verdict.
``LIVE``
    Carries genuine future obligations across instants.
"""

from __future__ import annotations

from enum import Enum
from itertools import product as _cartesian

from ..errors import ClassificationError
from ..logic.classify import FormulaInfo, classify, uses_future, uses_past
from ..logic.formulas import Atom, Formula
from ..ptl.formulas import (
    PAlways,
    PEventually,
    PNext,
    PRelease,
    PTLFormula,
    PUntil,
    PWeakUntil,
    pand,
)
from ..ptl.sat import is_satisfiable

__all__ = [
    "IdleClass",
    "idle_class",
    "ptl_idle_class",
    "static_verdict",
]

_PTL_TEMPORAL = (PNext, PUntil, PWeakUntil, PRelease, PEventually, PAlways)


class IdleClass(Enum):
    """How a formula behaves across instants that do not touch it."""

    STATE_INDEPENDENT = "state_independent"
    PAST_CLOSED = "past_closed"
    LIVE = "live"


def idle_class(formula: Formula) -> IdleClass:
    """Classify a first-order temporal constraint.

    Equality atoms do not consult the database, so a formula built only
    from equalities and connectives is still state-independent.
    """
    if not any(isinstance(node, Atom) for node in formula.walk()):
        return IdleClass.STATE_INDEPENDENT
    if not uses_future(formula):
        return IdleClass.PAST_CLOSED
    return IdleClass.LIVE


def ptl_idle_class(formula: PTLFormula) -> IdleClass:
    """Classify a propositional remainder the same way.

    A remainder with no letters is constant; one with letters but no
    temporal connective is a pure state formula, decided by the very next
    state and never again.
    """
    if not formula.propositions():
        return IdleClass.STATE_INDEPENDENT
    if not any(isinstance(node, _PTL_TEMPORAL) for node in formula.walk()):
        return IdleClass.PAST_CLOSED
    return IdleClass.LIVE


def static_verdict(
    formula: Formula, info: FormulaInfo | None = None
) -> bool | None:
    """Decide a state-independent universal constraint once and for all.

    A constraint with no predicate atoms and no constants has the same
    truth value over every history: ground its matrix over a domain of
    anonymous representatives (one per external quantifier — by symmetry a
    larger domain adds nothing, and repeats in the assignment tuple cover
    the collision patterns) and decide satisfiability of the conjunction.

    Returns ``True``/``False`` when decidable this way, ``None`` when the
    formula falls outside the decidable shape (mentions a relation or a
    constant, is not in the universal class, or uses past connectives the
    grounder does not handle).
    """
    if formula.predicates() or formula.constants():
        return None
    if uses_past(formula):
        return None
    # Import here: grounding imports the logic layer, not vice versa.
    from ..core.grounding import Anon, GroundContext, ground

    try:
        if info is None:
            info = classify(formula)
    except ClassificationError:
        return None
    if not info.is_universal:
        return None
    variables = info.external_universals
    domain = tuple(Anon(i) for i in range(len(variables)))
    context = GroundContext(constant_bindings={})
    obligations: list[PTLFormula] = []
    try:
        if variables:
            for assignment in _cartesian(domain, repeat=len(variables)):
                binding = dict(zip(variables, assignment))
                obligations.append(ground(info.matrix, binding, context))
        else:
            obligations.append(ground(info.matrix, {}, context))
    except ClassificationError:
        return None
    return is_satisfiable(pand(*obligations))
