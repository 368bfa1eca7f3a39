"""The paper-derived analysis passes of the constraint lint engine.

Each pass encodes one boundary from the feasibility landscape of
Chomicki & Niwinski (PODS 1993) as a static check with a stable code:

========  ========  =====================================================
code      severity  rule (paper pointer)
========  ========  =====================================================
TIC000    error     syntax error (produced by ``lint_source``, not a pass)
TIC001    error     constraint is not a sentence (Section 2)
TIC002    error     non-biquantified: quantifier scopes over a temporal
                    operator (Section 3)
TIC003    error     internal quantifier in a biquantified matrix —
                    extension checking Pi^0_2-complete (Theorem 3.2)
TIC004    error     past-tense connective in the matrix — outside the
                    Theorem 4.1 future-PTL reduction (Section 2)
TIC005    error     syntactic safety violation: ``F`` / strong ``U`` in a
                    positive position (Section 5, Lemma 4.1)
TIC006    info      ``forall* G (past)`` shape — rewritable to the
                    incremental pasteval monitor (Proposition 2.1)
TIC007    warning   equality-only quantified variable: domain-dependent,
                    grounded only through anonymous elements (Lemma 4.1)
TIC008    error     vocabulary mismatch: inconsistent arity, unknown
                    predicate/constant (Section 2)
TIC009    error     trigger condition not analyzable: its negation is not
                    a universal safety sentence (Section 2, duality)
TIC010    info/     grounding cost estimate ``|M|^k`` (Theorem 4.1,
          warning   Theorem 4.2 EXPTIME bound)
TIC011    warning   vacuously quantified variable (inflates ``|M|^k``)
========  ========  =====================================================

Every pass runs on every formula it applies to (no first-failure abort)
and pinpoints the offending node with a source span when the formula was
parsed from text.
"""

from __future__ import annotations

from typing import Iterable

from ..logic.builders import not_
from ..logic.classify import (
    is_pure_first_order,
    uses_future,
    uses_past,
)
from ..logic.formulas import (
    PAST_NODES,
    Always,
    Atom,
    Eq,
    Eventually,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Until,
)
from ..logic.printer import to_str
from ..logic.safety import is_syntactically_safe
from ..logic.terms import Constant, Variable
from ..logic.transform import nnf, strip_universal_prefix, substitute
from .diagnostics import Diagnostic, Severity
from .engine import LintContext, register

#: Ground-instance count above which the cost estimate escalates from
#: info to warning (a deploy-time heuristic, not a soundness bound).
COST_WARNING_THRESHOLD = 20_000


def _clip(formula: Formula, limit: int = 48) -> str:
    text = to_str(formula)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@register
class SentencePass:
    """TIC001: a constraint must be a closed sentence.

    Trigger conditions are exempt — their free variables are the trigger's
    parameters, instantiated before checking (Section 2).
    """

    name = "sentence"
    codes = ("TIC001",)
    description = "constraints must be sentences (no free variables)"
    paper = "Section 2"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        free = ctx.formula.free_variables()
        if not free:
            return
        names = ", ".join(sorted(v.name for v in free))
        witness = _first_atom_mentioning(ctx.formula, free)
        yield ctx.diagnostic(
            "TIC001",
            Severity.ERROR,
            f"constraint is not a sentence: free variable(s) {names}; "
            "integrity constraints quantify over all database elements, "
            "so every variable must be bound",
            paper=self.paper,
            node=witness or ctx.formula,
            pass_name=self.name,
        )


def _first_atom_mentioning(
    formula: Formula, variables: frozenset[Variable]
) -> Formula | None:
    for node in formula.walk():
        if isinstance(node, Atom) and any(
            arg in variables for arg in node.args
        ):
            return node
        if isinstance(node, Eq) and (
            node.left in variables or node.right in variables
        ):
            return node
    return None


@register
class NonBiquantifiedPass:
    """TIC002: quantifiers may not scope over temporal operators.

    Biquantified form (Section 2) demands that after the leading universal
    prefix every quantifier sits inside a pure first-order island.  A
    quantifier whose scope contains ``X``/``U``/... quantifies over a
    *trajectory*, and Section 3 places the extension problem for such
    formulas beyond the arithmetic hierarchy's decidable fringe.
    """

    name = "non-biquantified"
    codes = ("TIC002",)
    description = "quantifier scoping over temporal operators"
    paper = "Section 3"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        _prefix, matrix = strip_universal_prefix(ctx.formula)
        for node in matrix.walk():
            if not isinstance(node, (Exists, Forall)):
                continue
            if is_pure_first_order(node.body):
                continue
            kind = "exists" if isinstance(node, Exists) else "forall"
            yield ctx.diagnostic(
                "TIC002",
                Severity.ERROR,
                f"quantifier '{kind} {node.var.name}' has a temporal "
                "operator in its scope, so the constraint is not "
                "biquantified; extension checking outside the "
                "biquantified classes is undecidable",
                paper=self.paper,
                node=node,
                pass_name=self.name,
            )


@register
class InternalQuantifierPass:
    """TIC003: internal quantifiers make extension checking Π⁰₂-complete.

    Theorem 3.2: one internal quantifier — a single ``Sigma_1`` island in
    an otherwise universal matrix — already makes the extension problem
    Pi^0_2-complete.  This is the paper's sharpest cliff: the error
    pinpoints each internal quantifier individually.
    """

    name = "internal-quantifier"
    codes = ("TIC003",)
    description = "internal quantifiers (undecidable fragment)"
    paper = "Theorem 3.2"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        info = ctx.info
        if not info.is_biquantified or info.is_universal:
            # Non-biquantified structure is TIC002's finding; universal
            # formulas have nothing internal to flag.
            return
        for node in info.matrix.walk():
            if not isinstance(node, (Exists, Forall)):
                continue
            if not is_pure_first_order(node.body):
                continue
            kind = "existential" if isinstance(node, Exists) else "universal"
            yield ctx.diagnostic(
                "TIC003",
                Severity.ERROR,
                f"internal {kind} quantifier "
                f"'{_clip(node)}' puts the constraint in "
                "forall* tense(Sigma_1): extension checking for "
                "biquantified formulas with even one internal quantifier "
                "is Pi^0_2-complete — no sound and complete checker can "
                "exist; restrict to forall* tense(Sigma_0)",
                paper=self.paper,
                node=node,
                pass_name=self.name,
            )


@register
class PastInMatrixPass:
    """TIC004: the Theorem 4.1 reduction targets *future* PTL.

    Past connectives in the matrix fall outside the biquantified classes
    (Section 2 composes predicate logic with the future fragment); the
    ``G (past)`` shape is still monitorable — TIC006 points at the
    incremental pasteval pipeline.
    """

    name = "past-in-matrix"
    codes = ("TIC004",)
    description = "past-tense connectives outside the reduction"
    paper = "Section 2"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        _prefix, matrix = strip_universal_prefix(ctx.formula)
        if not uses_past(matrix):
            return
        offender = next(
            node for node in matrix.walk() if isinstance(node, PAST_NODES)
        )
        yield ctx.diagnostic(
            "TIC004",
            Severity.ERROR,
            f"past-tense connective '{_clip(offender)}' in the matrix: "
            "the Theorem 4.1 reduction composes predicate logic with "
            "*future* propositional temporal logic, so the extension "
            "checker cannot take this constraint; 'forall* G (past)' "
            "constraints are monitored by repro.pasteval instead",
            paper=self.paper,
            node=offender,
            pass_name=self.name,
        )


@register
class SafetyPass:
    """TIC005: only safety formulas are useful (and soundly checkable).

    Theorem 4.2 requires a safety sentence; Lemma 4.1 — fixing the
    relevant domain — genuinely fails for liveness obligations, making
    the decision procedure *unsound* rather than merely incomplete.  The
    offending ``F`` / strong-``U`` node is pinpointed.
    """

    name = "safety"
    codes = ("TIC005",)
    description = "syntactic safety fragment violations"
    paper = "Section 5, Lemma 4.1"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        _prefix, matrix = strip_universal_prefix(ctx.formula)
        if uses_past(matrix) and not uses_future(matrix):
            # Pure-past constraints are safety by Proposition 2.1.
            return
        if is_syntactically_safe(ctx.formula):
            return
        offender = _liveness_offender(matrix)
        if isinstance(offender, (Until, Eventually)):
            shape = (
                "'eventually'"
                if isinstance(offender, Eventually)
                else "strong 'until'"
            )
            detail = (
                f"{shape} subformula '{_clip(offender)}' introduces a "
                "liveness obligation"
            )
        else:
            detail = (
                f"subformula '{_clip(offender)}' hides a liveness "
                "obligation (a strong until / eventually appears in a "
                "positive position after negation normal form)"
            )
        yield ctx.diagnostic(
            "TIC005",
            Severity.ERROR,
            f"not a syntactic safety formula: {detail}; a violation of a "
            "non-safety constraint need not be detectable on any finite "
            "prefix, and the decision procedure is unsound for such "
            "formulas",
            paper=self.paper,
            node=offender,
            pass_name=self.name,
        )


def _liveness_offender(matrix: Formula) -> Formula:
    """The node to blame for a safety violation, searched in the original
    (pre-NNF) formula so it carries a parser span.

    Preference order: an explicit ``F``/strong-``U`` node that is itself
    in future-positive position; then the negation / implication /
    bi-implication whose NNF manufactures one; then the whole matrix.
    """
    for node in matrix.walk():
        if isinstance(node, (Until, Eventually)):
            return node
    for node in matrix.walk():
        if isinstance(node, Not) and uses_future(node.operand):
            return node
        if isinstance(node, Implies) and uses_future(node.antecedent):
            return node
        if isinstance(node, Iff) and uses_future(node):
            return node
    return matrix


@register
class PastRewritePass:
    """TIC006: ``forall* G (past)`` — use the incremental past monitor.

    Proposition 2.1: any ``G (past formula)`` defines a safety property,
    and such constraints are exactly what the pasteval pipeline monitors
    incrementally (constant work per update, no grounding, no automata).
    """

    name = "past-rewrite"
    codes = ("TIC006",)
    description = "G(past) constraints monitorable by pasteval"
    paper = "Proposition 2.1"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        _prefix, matrix = strip_universal_prefix(ctx.formula)
        if not (isinstance(matrix, Always) and not uses_future(matrix.body)):
            return
        if not uses_past(matrix.body):
            # G(state formula) is trivially safety but needs no rewrite
            # advice — the reduction handles it directly.
            return
        yield ctx.diagnostic(
            "TIC006",
            Severity.INFO,
            "constraint has the shape 'forall* G (past formula)': it is a "
            "safety property by construction, and repro.core.IntegrityMonitor "
            "checks it on the history-less IncrementalPastEvaluator with "
            "constant work per update — no grounding or automata needed",
            paper=self.paper,
            node=matrix,
            pass_name=self.name,
        )


@register
class DomainIndependencePass:
    """TIC007: equality-only variables are domain-dependent.

    A quantified variable that never occurs in a relational atom is
    *range-unrestricted*: its instances are constrained only through
    equality, so satisfaction depends on the underlying universe rather
    than the database, and the Lemma 4.1 grounding reaches such values
    only through the anonymous elements ``z_i``.
    """

    name = "domain-independence"
    codes = ("TIC007",)
    description = "range-restriction / domain-independence analysis"
    paper = "Lemma 4.1"
    modes = ("constraint", "trigger")

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for node in ctx.formula.walk():
            if not isinstance(node, (Exists, Forall)):
                continue
            var = node.var
            in_atom = False
            in_eq = False
            for sub in node.body.walk():
                if isinstance(sub, (Exists, Forall)) and sub.var == var:
                    break  # shadowed below this point on this branch
                if isinstance(sub, Atom) and var in sub.args:
                    in_atom = True
                if isinstance(sub, Eq) and var in (sub.left, sub.right):
                    in_eq = True
            if in_eq and not in_atom:
                yield ctx.diagnostic(
                    "TIC007",
                    Severity.WARNING,
                    f"variable '{var.name}' occurs only in equality "
                    "atoms: the constraint is not range-restricted in it, "
                    "satisfaction depends on the universe rather than the "
                    "database (domain-dependent), and the grounding "
                    "reaches such values only through anonymous elements",
                    paper=self.paper,
                    node=node,
                    pass_name=self.name,
                )


@register
class VocabularyPass:
    """TIC008: arity and vocabulary conformance.

    Within the formula, one predicate name must keep one arity; against a
    declared vocabulary, every predicate must be known with the declared
    arity and every constant symbol declared.  Equality is not a database
    predicate and is exempt.
    """

    name = "vocabulary"
    codes = ("TIC008",)
    description = "predicate arity / vocabulary conformance"
    paper = "Section 2"
    modes = ("constraint", "trigger")

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        seen: dict[str, int] = {}
        for node in ctx.formula.walk():
            if not isinstance(node, Atom):
                continue
            arity = len(node.args)
            if node.pred in seen and seen[node.pred] != arity:
                yield ctx.diagnostic(
                    "TIC008",
                    Severity.ERROR,
                    f"predicate '{node.pred}' used with arity {arity} "
                    f"here but arity {seen[node.pred]} elsewhere in the "
                    "constraint; a vocabulary assigns each predicate one "
                    "arity",
                    paper=self.paper,
                    node=node,
                    pass_name=self.name,
                )
            seen.setdefault(node.pred, arity)
        vocabulary = ctx.vocabulary
        if vocabulary is None:
            return
        for node in ctx.formula.walk():
            if isinstance(node, Atom):
                if not vocabulary.has_predicate(node.pred):
                    yield ctx.diagnostic(
                        "TIC008",
                        Severity.ERROR,
                        f"predicate '{node.pred}' is not declared in the "
                        "vocabulary",
                        paper=self.paper,
                        node=node,
                        pass_name=self.name,
                    )
                elif vocabulary.arity(node.pred) != len(node.args):
                    yield ctx.diagnostic(
                        "TIC008",
                        Severity.ERROR,
                        f"predicate '{node.pred}' has declared arity "
                        f"{vocabulary.arity(node.pred)} but is used with "
                        f"{len(node.args)} argument(s)",
                        paper=self.paper,
                        node=node,
                        pass_name=self.name,
                    )
        declared = vocabulary.constant_symbols
        for constant in sorted(ctx.formula.constants(), key=lambda c: c.name):
            if constant.name not in declared:
                yield ctx.diagnostic(
                    "TIC008",
                    Severity.ERROR,
                    f"constant symbol '{constant.name}' is not declared "
                    "in the vocabulary (no binding to a universe element)",
                    paper=self.paper,
                    node=_first_atom_with_constant(ctx.formula, constant)
                    or ctx.formula,
                    pass_name=self.name,
                )


def _first_atom_with_constant(
    formula: Formula, constant: Constant
) -> Formula | None:
    for node in formula.walk():
        if isinstance(node, Atom) and constant in node.args:
            return node
        if isinstance(node, Eq) and constant in (node.left, node.right):
            return node
    return None


@register
class TriggerConditionPass:
    """TIC009: trigger conditions are constrained by duality.

    A trigger ``if C then A`` fires when ``not C`` (instantiated) stops
    being potentially satisfied, so the *negation* of the condition must
    be a universal safety sentence — the supported condition class is
    ``exists* tense(Sigma_0)`` (the Sistla–Wolfson trigger language).
    """

    name = "trigger-condition"
    codes = ("TIC009",)
    description = "trigger-condition analyzability via duality"
    paper = "Section 2 (trigger duality)"
    modes = ("trigger",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        condition = ctx.formula
        closed = substitute(
            condition,
            {
                v: Constant(f"__lint_{v.name}")
                for v in condition.free_variables()
            },
        )
        negated = nnf(not_(closed))
        from ..logic.classify import classify

        info = classify(negated)
        reasons: list[str] = []
        if not info.is_biquantified:
            reasons.append("its negation is not biquantified")
        elif not info.is_universal:
            reasons.append(
                "its negation has "
                f"{info.internal_quantifiers} internal quantifier(s)"
            )
        if info.is_biquantified and not is_syntactically_safe(negated):
            reasons.append("its negation is not a safety formula")
        if not reasons:
            return
        yield ctx.diagnostic(
            "TIC009",
            Severity.ERROR,
            "trigger condition is not analyzable: "
            + " and ".join(reasons)
            + "; firing detection decides potential satisfaction of the "
            "negated condition, so the condition must lie in "
            "exists* tense(Sigma_0) with a safety negation",
            paper=self.paper,
            node=condition,
            pass_name=self.name,
        )


@register
class GroundingCostPass:
    """TIC010: the ``|M|^k`` grounding estimate of Theorem 4.1.

    The reduction conjoins one matrix instance per assignment of the
    ``k`` prefix variables into ``M = R_D ∪ {z1..zk}``, i.e.
    ``(|R_D| + k)^k`` instances, and Theorem 4.2's decision is
    exponential in the ground formula.  The estimate uses the context's
    ``domain_size`` as ``|R_D|`` and escalates to a warning beyond
    :data:`COST_WARNING_THRESHOLD` ground instances.
    """

    name = "grounding-cost"
    codes = ("TIC010",)
    description = "grounding cost estimate |M|^k"
    paper = "Theorem 4.1"
    modes = ("constraint", "trigger")

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        prefix, matrix = strip_universal_prefix(ctx.formula)
        k = len(prefix)
        if k == 0:
            return
        domain = ctx.domain_size + k
        instances = domain**k
        matrix_size = matrix.size()
        estimate = instances * matrix_size
        severity = (
            Severity.WARNING
            if instances > COST_WARNING_THRESHOLD
            else Severity.INFO
        )
        message = (
            f"grounding over |R_D| = {ctx.domain_size} relevant elements "
            f"plus {k} anonymous element(s) conjoins |M|^k = {domain}^{k} "
            f"= {instances} matrix instances (~{estimate} nodes); the "
            "decision is exponential in that size"
        )
        if severity is Severity.WARNING:
            message += (
                "; consider splitting the constraint or reducing the "
                "number of external quantifiers"
            )
        yield ctx.diagnostic(
            "TIC010",
            severity,
            message,
            paper=self.paper,
            node=ctx.formula,
            pass_name=self.name,
        )


@register
class VacuousQuantifierPass:
    """TIC011: vacuous quantifiers multiply the grounding for nothing.

    A bound variable that never occurs in its scope does not change the
    constraint's meaning but still contributes a factor ``|M|`` to the
    Theorem 4.1 grounding (and one more anonymous element to ``M``).
    """

    name = "vacuous-quantifier"
    codes = ("TIC011",)
    description = "vacuously quantified variables"
    paper = "Theorem 4.1"
    modes = ("constraint", "trigger")

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for node in ctx.formula.walk():
            if not isinstance(node, (Exists, Forall)):
                continue
            if node.var in node.body.free_variables():
                continue
            kind = "exists" if isinstance(node, Exists) else "forall"
            yield ctx.diagnostic(
                "TIC011",
                Severity.WARNING,
                f"'{kind} {node.var.name}' is vacuous: the variable does "
                "not occur in its scope; it can be dropped, and keeping "
                "it multiplies the grounding by |M| for no effect",
                paper=self.paper,
                node=node,
                pass_name=self.name,
            )

