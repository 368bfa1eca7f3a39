"""The dependence (TIC12x) lint passes: static update–constraint analysis.

Built on :mod:`repro.analysis`: where the TIC0xx passes read a formula's
syntax and the TIC1xx passes ask the satisfiability kernels, each pass
here reads the *polarity-aware affect set* — which relations a constraint
mentions and with what sign — against the declared vocabulary:

========  ========  =====================================================
code      severity  rule (construction)
========  ========  =====================================================
TIC120    warning   dead constraint: every relation it mentions falls
                    outside the vocabulary, so no expressible update can
                    ever affect it — its verdict is fixed by the initial
                    state and monitoring it is pure overhead.
TIC121    info      unmonitored relation: the vocabulary declares a
                    relation no constraint of the set mentions — updates
                    to it are never checked (reported once, on the first
                    constraint of the set).
TIC122    info      polarity monotonicity: a relation occurs with one
                    polarity only, so one update kind is harmless —
                    insertions cannot violate a purely positive
                    occurrence, deletions cannot violate a purely
                    negative one (Nicolas' simplification, temporal
                    form).
TIC123    warning   statically idle constraint: no relation occurs at
                    all, so the verdict is the same over every history
                    and decidable at registration time (the verdict is
                    included when the grounder can decide it).
========  ========  =====================================================

Codes are append-only, continuing the TIC11x sequence at 120.  TIC120 and
TIC121 need a vocabulary to compare against and stay silent without one;
TIC122/TIC123 are purely formula-local.  DESIGN.md §9 carries the
polarity soundness argument these passes rest on.
"""

from __future__ import annotations

from typing import Iterable

from ..analysis.affect import affect_set
from ..analysis.idle import IdleClass, idle_class, static_verdict
from .diagnostics import Diagnostic, Severity
from .engine import LintContext, register_deps

__all__: list[str] = []


@register_deps
class DeadConstraintPass:
    """TIC120: no expressible update can ever reach this constraint."""

    name = "dead-constraint"
    codes = ("TIC120",)
    description = "constraint mentions no vocabulary relation"
    paper = "Section 2 (update semantics)"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if ctx.vocabulary is None:
            return
        relations = ctx.affect.relations()
        if not relations:
            return  # no relations at all: TIC123's case
        if any(ctx.vocabulary.has_predicate(r) for r in relations):
            return
        listing = ", ".join(sorted(relations))
        yield ctx.diagnostic(
            "TIC120",
            Severity.WARNING,
            f"dead constraint: it only mentions {listing}, none of which "
            "the vocabulary declares — no expressible update can ever "
            "affect it, so its verdict is frozen at registration time",
            paper=self.paper,
            pass_name=self.name,
        )


@register_deps
class UnmonitoredRelationPass:
    """TIC121: a declared relation no constraint of the set mentions."""

    name = "unmonitored-relation"
    codes = ("TIC121",)
    description = "vocabulary relation unmentioned by every constraint"
    paper = "Section 2 (update semantics)"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if ctx.vocabulary is None or ctx.set_index != 0:
            return
        named = ctx.constraint_set or (("constraint", ctx.formula),)
        mentioned: set[str] = set()
        for _name, formula in named:
            mentioned |= affect_set(formula).relations()
        for relation in sorted(ctx.vocabulary.predicates):
            if relation in mentioned:
                continue
            yield ctx.diagnostic(
                "TIC121",
                Severity.INFO,
                f"relation '{relation}' is declared but no monitored "
                "constraint mentions it: updates to it are never checked",
                paper=self.paper,
                pass_name=self.name,
            )


@register_deps
class PolarityMonotonicityPass:
    """TIC122: one update kind is provably harmless for a relation."""

    name = "polarity-monotonicity"
    codes = ("TIC122",)
    description = "single-polarity relation occurrences"
    paper = "Nicolas 1982 (simplification), temporal form"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for profile in ctx.affect.profiles:
            if profile.pure_positive:
                yield ctx.diagnostic(
                    "TIC122",
                    Severity.INFO,
                    f"'{profile.relation}' occurs only positively "
                    f"({profile.positive} occurrence(s)): insertions into "
                    "it can never violate this constraint, only deletions "
                    "need re-checking",
                    paper=self.paper,
                    pass_name=self.name,
                )
            elif profile.pure_negative:
                yield ctx.diagnostic(
                    "TIC122",
                    Severity.INFO,
                    f"'{profile.relation}' occurs only negatively "
                    f"({profile.negative} occurrence(s)): deletions from "
                    "it can never violate this constraint, only "
                    "insertions need re-checking",
                    paper=self.paper,
                    pass_name=self.name,
                )


@register_deps
class StaticallyIdlePass:
    """TIC123: the verdict never depends on the database at all."""

    name = "statically-idle"
    codes = ("TIC123",)
    description = "state-independent constraint, decidable up front"
    paper = "Theorem 4.2 (degenerate case)"
    modes = ("constraint",)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if idle_class(ctx.formula) is not IdleClass.STATE_INDEPENDENT:
            return
        verdict = static_verdict(ctx.formula, ctx.info)
        if verdict is True:
            outcome = "it holds over every history"
        elif verdict is False:
            outcome = "it is violated by every history"
        else:
            outcome = "its fixed verdict is undetermined by this analysis"
        yield ctx.diagnostic(
            "TIC123",
            Severity.WARNING,
            "statically idle constraint: it mentions no database "
            f"relation, so its verdict never changes — {outcome}; "
            "monitoring it per instant is pure overhead",
            paper=self.paper,
            pass_name=self.name,
        )
