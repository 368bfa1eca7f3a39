"""Syntactic classification of FOTL formulas.

Section 2 of the paper classifies constraints by their quantifier pattern,
and the main results hinge on that pattern:

* **Biquantified** formulas (``forall* tense(Sigma*)``): all *external*
  quantifiers (not in the scope of any temporal operator) are universal and
  form a leading prefix; all *internal* quantifiers (no temporal operator in
  their scope) sit inside pure first-order islands of the tense matrix.
* **Universal** formulas (``forall* tense(Sigma_0)``): biquantified with no
  internal quantifiers at all.  Theorem 4.2: extension checking decidable in
  exponential time.
* Biquantified with a single internal quantifier (``forall* tense(Sigma_1)``):
  extension checking is Pi^0_2-complete (Theorem 3.2) — undecidable.

:func:`classify` computes all of this in one pass and the checker modules
use :func:`require_universal` to enforce the decidable fragment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NotUniversalError
from .formulas import (
    FUTURE_NODES,
    PAST_NODES,
    TEMPORAL_NODES,
    Atom,
    Eq,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Not,
    TrueFormula,
)
from .terms import Variable
from .transform import nnf, strip_universal_prefix


def uses_future(formula: Formula) -> bool:
    """True iff any future-tense connective occurs."""
    return any(isinstance(node, FUTURE_NODES) for node in formula.walk())


def uses_past(formula: Formula) -> bool:
    """True iff any past-tense connective occurs."""
    return any(isinstance(node, PAST_NODES) for node in formula.walk())


def is_pure_first_order(formula: Formula) -> bool:
    """True iff no temporal connective occurs (a state formula)."""
    return not any(isinstance(node, TEMPORAL_NODES) for node in formula.walk())


def is_future_formula(formula: Formula) -> bool:
    """True iff only future-tense temporal connectives occur."""
    return not uses_past(formula)


def is_past_formula(formula: Formula) -> bool:
    """True iff only past-tense temporal connectives occur."""
    return not uses_future(formula)


def is_quantifier_free(formula: Formula) -> bool:
    """True iff no quantifier occurs."""
    return not any(
        isinstance(node, (Exists, Forall)) for node in formula.walk()
    )


def quantifier_count(formula: Formula) -> int:
    """Total number of quantifier nodes."""
    return sum(
        1 for node in formula.walk() if isinstance(node, (Exists, Forall))
    )


def fo_islands(matrix: Formula) -> tuple[Formula, ...]:
    """The maximal pure first-order subformulas of a tense matrix.

    These are the "atoms" of the propositional tense skeleton: subformulas
    with no temporal connective whose parent (if any) is temporal or is a
    boolean connective containing temporal material.
    """
    islands: list[Formula] = []

    def visit(node: Formula) -> None:
        if is_pure_first_order(node):
            islands.append(node)
            return
        for child in node.children:
            visit(child)

    visit(matrix)
    return tuple(islands)


def sigma_pi_level(formula: Formula) -> tuple[int, int]:
    """Minimal (syntactic) levels (s, p) with the formula in Sigma_s and Pi_p.

    Works on pure first-order formulas; the formula is first brought to
    negation normal form, then levels are computed by the standard
    alternation count.  Quantifier-free formulas are (0, 0).
    """
    if not is_pure_first_order(formula):
        raise ValueError("sigma_pi_level expects a pure first-order formula")
    return _levels(nnf(formula))


def _levels(formula: Formula) -> tuple[int, int]:
    match formula:
        case Exists(body=body):
            sigma, pi = _levels(body)
            s = max(1, min(sigma if sigma >= 1 else pi + 1, pi + 1))
            return s, s + 1
        case Forall(body=body):
            sigma, pi = _levels(body)
            p = max(1, min(pi if pi >= 1 else sigma + 1, sigma + 1))
            return p + 1, p
        case TrueFormula() | FalseFormula() | Atom() | Eq() | Not():
            return 0, 0
        case _:
            sigma, pi = 0, 0
            for child in formula.children:
                child_sigma, child_pi = _levels(child)
                sigma = max(sigma, child_sigma)
                pi = max(pi, child_pi)
            return sigma, pi


@dataclass(frozen=True)
class FormulaInfo:
    """Everything the checkers need to know about a constraint's shape.

    Attributes
    ----------
    formula:
        The original formula.
    external_universals:
        The leading ``forall`` prefix (the external quantifiers).
    matrix:
        The formula under the prefix (the tense part).
    is_biquantified:
        True iff the formula is ``forall* tense(Sigma*)``: the matrix has no
        quantifier with a temporal connective in its scope.
    is_universal:
        True iff biquantified with a quantifier-free matrix
        (``forall* tense(Sigma_0)``) — the decidable class of Theorem 4.2.
    internal_quantifiers:
        Number of quantifier nodes inside the matrix.
    internal_sigma_level:
        Max over the first-order islands of min(sigma, pi) level; 0 for
        universal formulas, 1 for the undecidable ``tense(Sigma_1)`` class.
    has_past / has_future:
        Which tense directions occur anywhere in the formula.
    """

    formula: Formula
    external_universals: tuple[Variable, ...]
    matrix: Formula
    is_biquantified: bool
    is_universal: bool
    internal_quantifiers: int
    internal_sigma_level: int
    has_past: bool
    has_future: bool

    @property
    def is_pure_first_order(self) -> bool:
        return not (self.has_past or self.has_future)


def classify(formula: Formula) -> FormulaInfo:
    """Classify a formula against the paper's taxonomy.

    >>> from .parser import parse
    >>> info = classify(parse("forall x . G (Sub(x) -> X G !Sub(x))"))
    >>> info.is_universal
    True
    >>> info = classify(parse("forall x . G (p(x) -> F (exists y . q(x, y)))"))
    >>> (info.is_biquantified, info.is_universal, info.internal_sigma_level)
    (True, False, 1)
    """
    prefix, matrix = strip_universal_prefix(formula)
    # Biquantified formulas use only *future* tense connectives (Section 2:
    # they arise from composing propositional temporal logic — future
    # fragment — with predicate logic); past connectives fall outside.
    biquantified = not uses_past(matrix) and _matrix_is_tense_of_fo(matrix)
    islands = fo_islands(matrix) if biquantified else ()
    if biquantified:
        level = 0
        for island in islands:
            sigma, pi = sigma_pi_level(island)
            level = max(level, min(sigma, pi) if min(sigma, pi) > 0 else max(sigma, pi))
        internal = quantifier_count(matrix)
        universal = internal == 0
    else:
        level = -1
        internal = quantifier_count(matrix)
        universal = False
    return FormulaInfo(
        formula=formula,
        external_universals=prefix,
        matrix=matrix,
        is_biquantified=biquantified,
        is_universal=universal,
        internal_quantifiers=internal,
        internal_sigma_level=level,
        has_past=uses_past(formula),
        has_future=uses_future(formula),
    )


def _matrix_is_tense_of_fo(matrix: Formula) -> bool:
    """True iff every quantifier in ``matrix`` has a temporal-free scope."""
    for node in matrix.walk():
        if isinstance(node, (Exists, Forall)):
            if not is_pure_first_order(node.body):
                return False
    return True


def require_universal(formula: Formula) -> FormulaInfo:
    """Classify and insist on the decidable ``forall* tense(Sigma_0)`` class.

    Raises
    ------
    NotUniversalError
        If the formula has internal quantifiers, non-universal external
        quantifiers, or is not closed.  The error message explains which
        undecidability result applies.
    """
    if not formula.is_closed():
        raise NotUniversalError(
            "constraint must be a sentence; free variables: "
            + ", ".join(sorted(v.name for v in formula.free_variables()))
        )
    info = classify(formula)
    if not info.is_biquantified:
        if info.has_past:
            raise NotUniversalError(
                "constraint uses past-tense connectives; biquantified "
                "formulas are future-only (Section 2).  'forall* G (past)' "
                "constraints are checked by repro.core.IntegrityMonitor on "
                "the history-less IncrementalPastEvaluator instead"
            )
        raise NotUniversalError(
            "constraint is not biquantified: a quantifier occurs with a "
            "temporal operator in its scope; the extension problem for such "
            "formulas is undecidable (Section 3 of the paper)"
        )
    if not info.is_universal:
        raise NotUniversalError(
            f"constraint has {info.internal_quantifiers} internal "
            "quantifier(s); the extension problem for biquantified formulas "
            "with even one internal quantifier is Pi^0_2-complete "
            "(Theorem 3.2), so only universal formulas "
            "(forall* tense(Sigma_0)) are accepted"
        )
    return info
