"""The hierarchy (TIC13x) lint passes: temporal-hierarchy dispatch report.

Each pass reads the purely syntactic classification of
:mod:`repro.analysis.hierarchy` (Manna–Pnueli-style: past-closed,
bounded-future, safety, co-safety, general) and reports what it means for
monitoring cost — the static side of the dispatch the monitor executes
(:mod:`repro.core.plan` reports it):

========  ========  =====================================================
code      severity  rule
========  ========  =====================================================
TIC130    info      hierarchy class report: the class, the computed
                    lookahead depth (bounded-future), and the one-line
                    justification of the skeleton walk.
TIC131    error     safety/automaton disagreement: the classifier placed
                    the constraint in a safe class but the
                    closure-automaton analysis of some ground instance
                    says non-safety.  The classifier is designed to be
                    sound (safe class ⇒ automaton-safe, property-tested
                    over the corpus), so this firing means an internal
                    classifier bug — never a user error.
TIC132    warning   retired-at-birth vacuity: a co-safety or
                    bounded-future constraint that is semantically valid
                    discharges to true at construction and enforces
                    nothing — dead weight in the constraint set.
TIC133    warning   lookahead-depth bound: a bounded-future constraint
                    nesting ``X`` deeper than {bound} instants; each
                    level of nesting multiplies the remainder the
                    progression must carry.
TIC134    info      dispatch summary: the backend the monitor runs the
                    constraint on, ``pasteval`` or ``progression``
                    (``repro-tic plan`` aggregates these per set).
TIC140    error     zero-width staleness window: the matrix is
                    ``G (A -> false)`` / ``G !A`` over a single
                    database atom — the shape a zero staleness budget
                    compiles to (:mod:`repro.workloads.staleness`),
                    banning the relation outright.
TIC140    warning   vacuous staleness window: the antecedent atom
                    recurs un-nested in its own consequent window
                    (``A -> (A | ...)``), so the implication is a
                    tautology and the budget enforces nothing.
========  ========  =====================================================

Codes are append-only, continuing the TIC12x sequence at 130.  The
passes live in their own ``HIERARCHY_PASS_REGISTRY``, opt-in via
``lint_formula(..., hierarchy=True)``, ``lint_source(...,
hierarchy=True)``, ``repro-tic lint --hierarchy`` or ``repro-tic plan``.
DESIGN.md section 11 carries the code-to-claim table connecting each
pass to the dispatch soundness argument.
"""

from __future__ import annotations

from typing import Iterable

from ..analysis.hierarchy import (
    RETIRABLE_CLASSES,
    SAFE_CLASSES,
    HierarchyClass,
    backend_for,
)
from ..logic.formulas import (
    Always,
    Atom,
    FalseFormula,
    Formula,
    Implies,
    Not,
    Or,
)
from ..logic.transform import strip_universal_prefix
from .diagnostics import Diagnostic, Severity
from .engine import LintContext, register_hierarchy

__all__: list[str] = ["LOOKAHEAD_BOUND"]

#: TIC133 threshold: bounded-future constraints nesting ``X`` deeper
#: than this many instants get a remainder-growth warning.
LOOKAHEAD_BOUND = 8

#: What each backend does, for the TIC134 dispatch summary.
_BACKEND_NOTES = {
    "pasteval": (
        "history-less incremental past evaluation; no grounding, no "
        "progression, no satisfiability calls (Proposition 2.1)"
    ),
    "progression": (
        "compiled progression of the ground remainder and the Lemma 4.2 "
        "decision (constant and quick-model-check paths, then the Büchi "
        "kernel)"
    ),
}


@register_hierarchy
class HierarchyClassPass:
    """TIC130: report the temporal-hierarchy class of the constraint."""

    name = "hierarchy-class"
    codes = ("TIC130",)
    description = "temporal-hierarchy classification report"
    paper = "Section 6 (fragments); Manna-Pnueli hierarchy"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        info = ctx.hierarchy
        depth = (
            f" (lookahead depth {info.lookahead})"
            if info.lookahead is not None
            else ""
        )
        yield ctx.diagnostic(
            "TIC130",
            Severity.INFO,
            f"temporal-hierarchy class '{info.cls.value}'{depth}: "
            f"{info.reason}",
            paper=self.paper,
            node=ctx.formula,
            pass_name=self.name,
        )


@register_hierarchy
class HierarchySafetyCrossCheckPass:
    """TIC131: the syntactic class claims safety but the automaton
    disagrees — an internal classifier bug, mirroring TIC102."""

    name = "hierarchy-safety-crosscheck"
    codes = ("TIC131",)
    description = "hierarchy class vs closure-automaton safety"
    paper = "Section 2 (Alpern-Schneider safety); Sistla 1985"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        info = ctx.hierarchy
        if info.cls not in SAFE_CLASSES:
            return
        semantic = ctx.analyzer.instance_safety(ctx.analysis_index)
        if semantic is None or semantic:
            return
        yield ctx.diagnostic(
            "TIC131",
            Severity.ERROR,
            f"hierarchy classifier bug: class '{info.cls.value}' "
            "implies a safety property, but the closure-automaton "
            "analysis found a non-safety ground instance — the "
            "dispatch plan built from this classification would be "
            "unsound; please report this",
            paper=self.paper,
            node=ctx.formula,
            pass_name=self.name,
        )


@register_hierarchy
class RetiredAtBirthPass:
    """TIC132: a retirable (co-safety/bounded-future) constraint that is
    semantically valid — it discharges to true at construction."""

    name = "hierarchy-retired-vacuity"
    codes = ("TIC132",)
    description = "retirable constraint is semantically valid"
    paper = "Theorem 4.1"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        info = ctx.hierarchy
        if info.cls not in RETIRABLE_CLASSES:
            return
        if ctx.analyzer.is_valid(ctx.analysis_index) is not True:
            return
        yield ctx.diagnostic(
            "TIC132",
            Severity.WARNING,
            f"'{info.cls.value}' constraint is semantically valid: its "
            "remainder discharges to true at construction — it enforces "
            "nothing and can be dropped from the set",
            paper=self.paper,
            node=ctx.formula,
            pass_name=self.name,
        )


@register_hierarchy
class LookaheadDepthPass:
    """TIC133: bounded-future lookahead beyond the depth bound."""

    name = "hierarchy-lookahead-depth"
    codes = ("TIC133",)
    description = "bounded-future lookahead depth bound"
    paper = "Lemma 4.2 (remainder growth under X-nesting)"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        info = ctx.hierarchy
        if (
            info.cls is not HierarchyClass.BOUNDED_FUTURE
            or info.lookahead is None
            or info.lookahead <= LOOKAHEAD_BOUND
        ):
            return
        yield ctx.diagnostic(
            "TIC133",
            Severity.WARNING,
            f"bounded-future lookahead depth {info.lookahead} exceeds "
            f"{LOOKAHEAD_BOUND}: each level of X-nesting extends the "
            "obligation the progressed remainder must carry for that "
            "many instants — consider restating the constraint with "
            "an explicit past-form or a shorter window",
            paper=self.paper,
            node=ctx.formula,
            pass_name=self.name,
        )


@register_hierarchy
class DispatchSummaryPass:
    """TIC134: the backend the monitor runs the constraint on."""

    name = "hierarchy-dispatch"
    codes = ("TIC134",)
    description = "backend-dispatch summary"
    paper = "Section 6 (feasible checking, fragment by fragment)"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        info = ctx.hierarchy
        backend = backend_for(info.cls)
        yield ctx.diagnostic(
            "TIC134",
            Severity.INFO,
            f"dispatch: backend '{backend}' — {_BACKEND_NOTES[backend]}",
            paper=self.paper,
            node=ctx.formula,
            pass_name=self.name,
        )


def _banned_atom(matrix: Formula) -> Atom | None:
    """The atom a ``G (A -> false)`` / ``G !A`` matrix bans, if any.

    This is exactly the shape a zero staleness budget compiles to
    (:func:`repro.workloads.staleness.refresh_deadline` with ``Δ = 0``;
    the parser folds ``A -> false`` into ``!A``, so both spellings are
    recognized).
    """
    if not isinstance(matrix, Always):
        return None
    body = matrix.body
    if isinstance(body, Not) and isinstance(body.operand, Atom):
        return body.operand
    if (
        isinstance(body, Implies)
        and isinstance(body.antecedent, Atom)
        and isinstance(body.consequent, FalseFormula)
    ):
        return body.antecedent
    return None


def _vacuous_window_atom(matrix: Formula) -> Atom | None:
    """The antecedent of a ``G (A -> (A | ...))`` matrix, if any.

    A staleness window that re-admits its own trigger at depth zero is a
    tautology: the obligation is discharged at the very instant that
    raised it, so the budget enforces nothing.
    """
    if not isinstance(matrix, Always):
        return None
    body = matrix.body
    if not isinstance(body, Implies) or not isinstance(
        body.antecedent, Atom
    ):
        return None
    consequent = body.consequent
    window = (
        consequent.operands
        if isinstance(consequent, Or)
        else (consequent,)
    )
    if body.antecedent in window:
        return body.antecedent
    return None


@register_hierarchy
class StalenessBudgetPass:
    """TIC140: degenerate staleness budgets (zero-width or vacuous
    windows)."""

    name = "hierarchy-staleness-budget"
    codes = ("TIC140",)
    description = "degenerate staleness-budget window"
    paper = "Section 2 (safety constraints); Lemma 4.2"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        _prefix, matrix = strip_universal_prefix(ctx.formula)
        banned = _banned_atom(matrix)
        if banned is not None:
            yield ctx.diagnostic(
                "TIC140",
                Severity.ERROR,
                f"zero-width staleness window: the matrix reduces to "
                f"'G ({banned.pred}(...) -> false)', which bans the "
                f"relation '{banned.pred}' outright — a zero budget "
                "compiles to this shape; give the field a positive "
                "validity interval (or drop the relation from the "
                "schema if the ban is intended)",
                paper=self.paper,
                node=ctx.formula,
                pass_name=self.name,
            )
            return
        vacuous = _vacuous_window_atom(matrix)
        if vacuous is not None:
            yield ctx.diagnostic(
                "TIC140",
                Severity.WARNING,
                f"vacuous staleness window: the antecedent "
                f"'{vacuous.pred}(...)' recurs un-nested in its own "
                "consequent window, so the implication is a tautology "
                "and the budget enforces nothing — nest the window "
                "under X (future form) or Y (past form)",
                paper=self.paper,
                node=ctx.formula,
                pass_name=self.name,
            )
