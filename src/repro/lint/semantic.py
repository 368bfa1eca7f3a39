"""The semantic (TIC100+) lint passes: decision procedures, not visitors.

Where the TIC0xx passes of :mod:`repro.lint.passes` read a formula's
*syntax* against the paper's taxonomy, each pass here asks the PR 3
satisfiability kernels a *semantic* question about the constraint — via
the Theorem 4.1 test-domain grounding implemented by
:class:`repro.lint.setanalysis.SetAnalyzer`:

========  ========  =====================================================
code      severity  rule (construction)
========  ========  =====================================================
TIC100    error     semantically unsatisfiable: no temporal database
                    satisfies the constraint (grounding over the test
                    domain is PTL-unsat; exact under the instance-safety
                    gate).  Trigger mode: the condition can never hold,
                    so the trigger never fires.
TIC101    warning   semantically valid: the constraint can never be
                    violated — dead weight in the constraint set (the
                    negated grounding is PTL-unsat; exact, no gate).
                    Trigger mode: the condition always holds.
TIC102    error/    automaton-backed safety cross-check: semantic
          info      (closure-automaton) safety of every ground instance
                    vs the syntactic recognizer.  ``error`` if the
                    syntactic recognizer accepted a non-safety formula
                    (classifier unsoundness — should never fire);
                    ``info`` if it rejected a semantically-safe formula
                    (known incompleteness; ``assume_safety=True`` is
                    sound for this constraint).
TIC103    warning   implication vacuity: in ``G (A -> B)`` the antecedent
                    can never hold, or the consequent always holds.
TIC110    warning   redundant constraint: another constraint of the set
                    semantically entails this one (named in the message).
TIC111    error     inconsistent constraints: a pair (or the whole set)
                    is jointly unsatisfiable — every database violates
                    something.
TIC112    warning   trigger conflict: the condition conflicts with a
                    monitored constraint — while the constraint holds the
                    trigger can never fire, and any firing implies the
                    constraint is already violated.
========  ========  =====================================================

Codes are append-only, continuing the TIC0xx sequence at 100.  Every
verdict that needs it is gated on instance-level semantic safety (see the
:mod:`repro.lint.setanalysis` module docstring for the soundness
argument); when a gate cannot be established the pass stays silent rather
than guessing.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..database.vocabulary import Vocabulary
from ..logic.formulas import Always, Formula, Implies
from ..logic.safety import is_syntactically_safe, why_not_safe
from .diagnostics import Diagnostic, LintReport, Severity
from .engine import LintContext, lint_formula, register_semantic
from .passes import _clip
from .setanalysis import SetAnalyzer

__all__ = [
    "lint_constraint_set",
    "lint_trigger_conditions",
]


def _role(ctx: LintContext) -> str:
    return "condition" if ctx.mode == "trigger" else "constraint"


@register_semantic
class SemanticUnsatPass:
    """TIC100: the constraint admits no temporal-database model at all.

    An unsatisfiable constraint is violated by *every* history the moment
    monitoring starts (Lemma 4.2 returns "no extension" immediately); an
    unsatisfiable trigger condition can never fire.
    """

    name = "semantic-unsat"
    codes = ("TIC100",)
    description = "semantic unsatisfiability via the grounded kernel"
    paper = "Theorem 4.1 / Lemma 4.1"
    modes = ("constraint", "trigger")

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        role = _role(ctx)
        verdict = ctx.analyzer.is_unsatisfiable(ctx.analysis_index, role)
        if verdict is not True:
            return
        if role == "condition":
            message = (
                "trigger condition is semantically unsatisfiable: no "
                "database makes it hold under any parameter "
                "substitution, so the trigger can never fire"
            )
        else:
            message = (
                "constraint is semantically unsatisfiable: no temporal "
                "database satisfies it, so every history is violated at "
                "the first state (its Theorem 4.1 grounding over the "
                "test domain is propositionally unsatisfiable)"
            )
        yield ctx.diagnostic(
            "TIC100",
            Severity.ERROR,
            message,
            paper=self.paper,
            node=ctx.formula,
            pass_name=self.name,
        )


@register_semantic
class SemanticValidityPass:
    """TIC101: the constraint can never be violated (a tautology over
    temporal databases) — dead weight that costs grounding and
    progression work while enforcing nothing."""

    name = "semantic-valid"
    codes = ("TIC101",)
    description = "semantic validity (tautology) via the grounded kernel"
    paper = "Theorem 4.1"
    modes = ("constraint", "trigger")

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        role = _role(ctx)
        index = ctx.analysis_index
        if ctx.analyzer.is_unsatisfiable(index, role) is True:
            return  # TIC100 already tells the stronger story
        verdict = ctx.analyzer.is_valid(index, role)
        if verdict is not True:
            return
        if role == "condition":
            message = (
                "trigger condition is semantically valid: it holds in "
                "every database under every substitution, so the "
                "trigger fires unconditionally"
            )
        else:
            message = (
                "constraint is semantically valid: every temporal "
                "database satisfies it, so it can never be violated — "
                "dead weight that still pays grounding and progression "
                "on every update"
            )
        yield ctx.diagnostic(
            "TIC101",
            Severity.WARNING,
            message,
            paper=self.paper,
            node=ctx.formula,
            pass_name=self.name,
        )


@register_semantic
class SemanticSafetyPass:
    """TIC102: cross-check the syntactic safety recognizer against the
    closure-automaton criterion of :mod:`repro.ptl.safety`, instance by
    ground instance."""

    name = "semantic-safety"
    codes = ("TIC102",)
    description = "automaton-backed safety verification"
    paper = "Section 2 (Alpern-Schneider safety); Sistla 1985"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        semantic = ctx.analyzer.instance_safety(ctx.analysis_index)
        if semantic is None:
            return
        syntactic = is_syntactically_safe(ctx.formula)
        if syntactic and not semantic:
            # The recognizer is designed to be sound (accepted => safety);
            # this firing means a classifier bug, and the property test in
            # tests/lint cross-validates it over the safety corpus.
            yield ctx.diagnostic(
                "TIC102",
                Severity.ERROR,
                "safety classifier disagreement: the syntactic "
                "recognizer accepts this constraint but the closure "
                "automaton shows a ground instance defines a non-safety "
                "property; the syntactic verdict is unsound here",
                paper=self.paper,
                node=ctx.formula,
                pass_name=self.name,
            )
        elif not syntactic and semantic:
            reason = why_not_safe(ctx.formula)
            detail = f" (syntactic reason: {reason})" if reason else ""
            yield ctx.diagnostic(
                "TIC102",
                Severity.INFO,
                "the syntactic safety recognizer rejects this constraint"
                + detail
                + ", but the closure automaton proves every ground "
                "instance defines a safety property; assume_safety=True "
                "is semantically sound for this constraint",
                paper=self.paper,
                node=ctx.formula,
                pass_name=self.name,
            )


@register_semantic
class ImplicationVacuityPass:
    """TIC103: antecedent/consequent vacuity of ``G (A -> B)`` matrices.

    A constraint whose antecedent can never hold (or whose consequent
    always holds) is satisfied for a degenerate reason — classic
    spec-debugging vacuity, decided here on the grounded kernel.
    """

    name = "semantic-vacuity"
    codes = ("TIC103",)
    description = "antecedent/consequent vacuity for implications"
    paper = "Theorem 4.1 (grounded subformula queries)"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        index = ctx.analysis_index
        analyzer = ctx.analyzer
        if analyzer.is_unsatisfiable(index) is True:
            return  # TIC100 covers it
        implication = self._implication(ctx)
        if implication is None:
            return
        antecedent, consequent = implication
        can_hold = analyzer.somewhere_satisfiable(index, antecedent)
        if can_hold is False:
            yield ctx.diagnostic(
                "TIC103",
                Severity.WARNING,
                f"vacuous implication: the antecedent "
                f"'{_clip(antecedent)}' can never hold in any database, "
                "so the constraint is satisfied without ever checking "
                "its consequent",
                paper=self.paper,
                node=antecedent,
                pass_name=self.name,
            )
            return
        always = analyzer.always_valid(index, consequent)
        if always is True:
            yield ctx.diagnostic(
                "TIC103",
                Severity.WARNING,
                f"vacuous implication: the consequent "
                f"'{_clip(consequent)}' holds in every database at every "
                "instant, so the antecedent is never actually needed",
                paper=self.paper,
                node=consequent,
                pass_name=self.name,
            )

    @staticmethod
    def _implication(ctx: LintContext) -> tuple[Formula, Formula] | None:
        node = ctx.info.matrix
        while isinstance(node, Always):
            node = node.body
        if isinstance(node, Implies):
            return node.antecedent, node.consequent
        return None


@register_semantic
class SetRedundancyPass:
    """TIC110: pairwise implication/subsumption inside a constraint set.

    ``C_j ⊨ C_i`` makes ``C_i`` redundant: every database ``C_j`` admits
    already satisfies ``C_i``, so monitoring both buys nothing.  The
    diagnostic lands on the redundant constraint and names the subsuming
    one; equivalent pairs are reported once, on the later constraint.
    """

    name = "set-redundancy"
    codes = ("TIC110",)
    description = "pairwise semantic subsumption across the set"
    paper = "Theorem 4.1 (shared test-domain grounding)"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if not ctx.constraint_set or len(ctx.constraint_set) < 2:
            return
        analyzer = ctx.analyzer
        mine = ctx.analysis_index
        if analyzer.is_unsatisfiable(mine) is True:
            return  # TIC100 covers it; "everything entails false" is noise
        if analyzer.is_valid(mine) is True:
            return  # TIC101 covers it; everything entails a tautology
        for other in range(len(ctx.constraint_set)):
            if other == mine:
                continue
            forward = analyzer.entails(other, mine)
            if forward is not True:
                continue
            if analyzer.is_unsatisfiable(other) is True:
                continue  # an unsatisfiable subsumer proves nothing
            backward = analyzer.entails(mine, other)
            other_name = ctx.constraint_set[other][0]
            if backward is True:
                if mine < other:
                    continue  # report equivalences once, on the later one
                yield ctx.diagnostic(
                    "TIC110",
                    Severity.WARNING,
                    f"redundant constraint: semantically equivalent to "
                    f"constraint '{other_name}' — the two admit exactly "
                    "the same databases; drop one",
                    paper=self.paper,
                    node=ctx.formula,
                    pass_name=self.name,
                )
            else:
                yield ctx.diagnostic(
                    "TIC110",
                    Severity.WARNING,
                    f"redundant constraint: subsumed by constraint "
                    f"'{other_name}', which semantically entails it — "
                    "every database satisfying "
                    f"'{other_name}' satisfies this constraint too",
                    paper=self.paper,
                    node=ctx.formula,
                    pass_name=self.name,
                )


@register_semantic
class SetInconsistencyPass:
    """TIC111: joint inconsistency — individually satisfiable constraints
    whose conjunction admits no database, so every history violates
    something no matter what."""

    name = "set-inconsistency"
    codes = ("TIC111",)
    description = "joint unsatisfiability of the constraint set"
    paper = "Theorem 4.1 (conjunction of shared-domain groundings)"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if not ctx.constraint_set or len(ctx.constraint_set) < 2:
            return
        analyzer = ctx.analyzer
        mine = ctx.analysis_index
        if analyzer.is_unsatisfiable(mine) is True:
            return  # TIC100 covers it
        found_pair = False
        for other in range(len(ctx.constraint_set)):
            if other == mine:
                continue
            if analyzer.conflicts(mine, other) is not True:
                continue
            if analyzer.is_unsatisfiable(other) is True:
                continue
            found_pair = True
            yield ctx.diagnostic(
                "TIC111",
                Severity.ERROR,
                f"inconsistent constraints: jointly unsatisfiable with "
                f"constraint '{ctx.constraint_set[other][0]}' — no "
                "database satisfies both, so every history violates one "
                "of them",
                paper=self.paper,
                node=ctx.formula,
                pass_name=self.name,
            )
        # A whole-set inconsistency with no guilty pair is reported once,
        # from the first constraint of the set.
        if found_pair or mine != 0 or len(ctx.constraint_set) < 3:
            return
        if self._any_pair_conflicts(analyzer, len(ctx.constraint_set)):
            return
        if analyzer.jointly_unsatisfiable() is True:
            yield ctx.diagnostic(
                "TIC111",
                Severity.ERROR,
                f"inconsistent constraint set: the conjunction of all "
                f"{len(ctx.constraint_set)} constraints is jointly "
                "unsatisfiable even though no single pair conflicts",
                paper=self.paper,
                node=ctx.formula,
                pass_name=self.name,
            )

    @staticmethod
    def _any_pair_conflicts(analyzer: SetAnalyzer, count: int) -> bool:
        return any(
            analyzer.conflicts(left, right) is True
            for left in range(count)
            for right in range(left + 1, count)
        )


@register_semantic
class TriggerConflictPass:
    """TIC112: the trigger condition conflicts with a monitored
    constraint.  ``unsat(condition ∧ constraint)`` reads both ways: while
    the constraint is maintained the trigger can never fire, and any
    history in which the condition holds has already violated the
    constraint — either way the trigger is dead or fires only on wreckage.
    """

    name = "trigger-conflict"
    codes = ("TIC112",)
    description = "trigger condition vs monitored constraint set"
    paper = "Section 2 (trigger duality) + Theorem 4.1"
    modes = ("trigger",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if not ctx.constraint_set:
            return
        analyzer = ctx.analyzer
        if analyzer.is_unsatisfiable(0, "condition") is True:
            return  # TIC100 covers it
        found = False
        for index, (name, _formula) in enumerate(ctx.constraint_set):
            if analyzer.condition_conflicts(0, index) is not True:
                continue
            if analyzer.is_unsatisfiable(index) is True:
                continue
            found = True
            yield ctx.diagnostic(
                "TIC112",
                Severity.WARNING,
                f"trigger conflicts with monitored constraint '{name}': "
                "no database satisfies the constraint while the "
                "condition holds — the trigger can never fire while "
                f"'{name}' is maintained, and any firing implies "
                f"'{name}' is already violated",
                paper=self.paper,
                node=ctx.formula,
                pass_name=self.name,
            )
        if found or len(ctx.constraint_set) < 2:
            return
        joint = analyzer.condition_conflicts_jointly(0)
        if joint is True:
            yield ctx.diagnostic(
                "TIC112",
                Severity.WARNING,
                "trigger conflicts with the monitored constraint set: "
                "the condition is satisfiable against each constraint "
                "alone but not against their conjunction — the trigger "
                "can never fire while all constraints are maintained",
                paper=self.paper,
                node=ctx.formula,
                pass_name=self.name,
            )


# --------------------------------------------------------------------------
# Set-level entry points
# --------------------------------------------------------------------------


def _named(
    constraints: Mapping[str, Formula] | Sequence[tuple[str, Formula]],
) -> tuple[tuple[str, Formula], ...]:
    if isinstance(constraints, Mapping):
        return tuple(constraints.items())
    return tuple(constraints)


def lint_constraint_set(
    constraints: Mapping[str, Formula] | Sequence[tuple[str, Formula]],
    vocabulary: Vocabulary | None = None,
    domain_size: int = 8,
    jobs: int = 1,
    semantic: bool = True,
    sources: Sequence[str | None] | None = None,
    deps: bool = False,
    hierarchy: bool = False,
) -> list[LintReport]:
    """Lint a whole constraint set, sharing one semantic analyzer.

    Returns one :class:`LintReport` per constraint, in input order; the
    set-level diagnostics (TIC110 redundancy, TIC111 inconsistency) land
    on the constraint they concern.  The pairwise sweep fans out across
    ``jobs`` worker processes and is decided once for the whole set.

    >>> from repro.workloads.orders import standard_constraints
    >>> reports = lint_constraint_set(standard_constraints())
    >>> all(report.ok for report in reports)
    True
    """
    named = _named(constraints)
    analyzer = SetAnalyzer(constraints=named, jobs=jobs)
    reports: list[LintReport] = []
    for index, (_name, formula) in enumerate(named):
        source = sources[index] if sources is not None else None
        reports.append(
            lint_formula(
                formula,
                source=source,
                vocabulary=vocabulary,
                mode="constraint",
                domain_size=domain_size,
                semantic=semantic,
                constraint_set=named,
                set_index=index,
                analyzer=analyzer,
                deps=deps,
                hierarchy=hierarchy,
            )
        )
    return reports


def lint_trigger_conditions(
    conditions: Mapping[str, Formula] | Sequence[tuple[str, Formula]],
    constraints: (
        Mapping[str, Formula] | Sequence[tuple[str, Formula]] | None
    ) = None,
    vocabulary: Vocabulary | None = None,
    domain_size: int = 8,
    semantic: bool = True,
) -> list[LintReport]:
    """Lint trigger conditions, each against the monitored constraints.

    Each condition gets its own analyzer (conditions are independent of
    one another — only the constraint set is shared context), so TIC112
    names exactly the constraints the condition conflicts with.
    """
    named_constraints = _named(constraints) if constraints else ()
    reports: list[LintReport] = []
    for _name, condition in _named(conditions):
        reports.append(
            lint_formula(
                condition,
                mode="trigger",
                vocabulary=vocabulary,
                domain_size=domain_size,
                semantic=semantic,
                constraint_set=named_constraints or None,
            )
        )
    return reports
