"""The lint engine: pass registry, analysis context, and entry points.

A *pass* is a small visitor over one FOTL formula that emits
:class:`~repro.lint.diagnostics.Diagnostic` objects.  Passes never raise
on bad constraints — turning "first failure aborts" (the historical
behaviour of :func:`repro.logic.classify.require_universal`) into "every
reason is reported" is the point of the engine.  The shared
:class:`LintContext` memoizes the classification work (prefix/matrix
split, :func:`repro.logic.classify.classify`) so that eleven passes cost
barely more than one.

Entry points:

* :func:`lint_formula` — lint an already-parsed formula;
* :func:`lint_source` — parse text and lint it, turning parse errors into
  ``TIC000`` diagnostics instead of exceptions (so a file of constraints
  can be linted past its first broken line).

Passes register themselves via :func:`register`; the default registry is
populated by importing :mod:`repro.lint.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.affect import AffectSet
    from ..analysis.hierarchy import HierarchyInfo
    from .setanalysis import SetAnalyzer

from ..database.vocabulary import Vocabulary
from ..errors import ParseError
from ..logic.classify import FormulaInfo, classify
from ..logic.formulas import Formula
from ..logic.parser import parse
from ..logic.printer import to_str
from ..logic.spans import Span, get_span
from .diagnostics import Diagnostic, LintReport, Severity, sort_diagnostics

#: Lint modes: a *constraint* must be a closed universal safety sentence;
#: a *trigger* condition may have free variables (its parameters) and is
#: judged by the duality of Section 2 (its negation must be analyzable).
MODES = ("constraint", "trigger")


@dataclass
class LintContext:
    """Everything a pass may ask about the constraint under analysis.

    Attributes
    ----------
    formula:
        The constraint (or trigger condition) being linted.
    source:
        The concrete-syntax text, when the formula came from text.
    vocabulary:
        Optional database schema; enables the vocabulary conformance pass.
    mode:
        ``"constraint"`` or ``"trigger"`` (see :data:`MODES`).
    domain_size:
        Assumed number of relevant elements ``|R_D|`` for the grounding
        cost estimate (Theorem 4.1); a deploy-time guess, not a bound.
    """

    formula: Formula
    source: str | None = None
    vocabulary: Vocabulary | None = None
    mode: str = "constraint"
    domain_size: int = 8
    constraint_set: tuple[tuple[str, "Formula"], ...] | None = None
    set_index: int = 0
    _info: FormulaInfo | None = field(default=None, repr=False)
    _analyzer: object | None = field(default=None, repr=False)
    _affect: "AffectSet | None" = field(default=None, repr=False)
    _hierarchy: "HierarchyInfo | None" = field(default=None, repr=False)

    @property
    def info(self) -> FormulaInfo:
        """The (cached) Section 2 classification of the formula."""
        if self._info is None:
            self._info = classify(self.formula)
        return self._info

    @property
    def hierarchy(self) -> "HierarchyInfo":
        """The (cached) temporal-hierarchy classification (TIC13x)."""
        from ..analysis.hierarchy import classify_hierarchy

        if self._hierarchy is None:
            self._hierarchy = classify_hierarchy(self.formula)
        return self._hierarchy

    @property
    def affect(self) -> "AffectSet":
        """The (cached) polarity-aware affect set of the formula."""
        from ..analysis.affect import affect_set

        if self._affect is None:
            self._affect = affect_set(self.formula)
        return self._affect

    @property
    def analyzer(self) -> "SetAnalyzer":
        """The (cached) semantic analyzer shared by the TIC1xx passes.

        In constraint mode the analyzer covers ``constraint_set`` (with
        this formula at ``set_index``) or, absent a set, just this
        formula.  In trigger mode the formula is a *condition* analyzed
        against ``constraint_set`` as the monitored constraints.
        """
        from .setanalysis import SetAnalyzer

        if self._analyzer is None:
            constraints = self.constraint_set or ()
            if self.mode == "trigger":
                conditions: tuple[tuple[str, Formula], ...] = (
                    ("condition", self.formula),
                )
            else:
                conditions = ()
                if not constraints:
                    constraints = (("constraint", self.formula),)
            self._analyzer = SetAnalyzer(
                constraints=constraints, conditions=conditions
            )
        assert isinstance(self._analyzer, SetAnalyzer)
        return self._analyzer

    @property
    def analysis_index(self) -> int:
        """Index of this formula inside the analyzer.

        Constraint mode: position in ``constraint_set`` (0 for a lone
        formula).  Trigger mode: always 0 — the single condition.
        """
        if self.mode == "trigger":
            return 0
        return self.set_index if self.constraint_set else 0

    def span_of(self, node: Formula) -> Span | None:
        """Best-effort span for a node of this formula.

        Exact span when the parser attached one; otherwise the span of the
        nearest enclosing ancestor that has one (identity-based search);
        otherwise the whole-formula span; otherwise ``None`` (formulas
        built programmatically carry no positions).
        """
        span = get_span(node)
        if span is not None:
            return span
        best: Span | None = None

        def visit(current: Formula, enclosing: Span | None) -> bool:
            nonlocal best
            here = get_span(current) or enclosing
            if current is node:
                best = here
                return True
            return any(visit(child, here) for child in current.children)

        visit(self.formula, None)
        if best is not None:
            return best
        return get_span(self.formula)

    def diagnostic(
        self,
        code: str,
        severity: Severity,
        message: str,
        paper: str | None = None,
        node: Formula | None = None,
        pass_name: str = "",
    ) -> Diagnostic:
        """Build a diagnostic, resolving the node to a span."""
        return Diagnostic(
            code=code,
            severity=severity,
            message=message,
            paper=paper,
            span=self.span_of(node) if node is not None else None,
            pass_name=pass_name,
        )


class LintPass(Protocol):
    """The pass interface: metadata plus a ``run`` visitor."""

    name: str
    codes: tuple[str, ...]
    description: str
    paper: str | None
    modes: tuple[str, ...]

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]: ...


#: Registry of all known passes, in registration (= execution) order.
PASS_REGISTRY: dict[str, LintPass] = {}

#: Registry of the *semantic* (TIC100+) passes: decision procedures on the
#: bitset kernels rather than syntax visitors, opt-in via ``semantic=``.
SEMANTIC_PASS_REGISTRY: dict[str, LintPass] = {}

#: Registry of the *dependence* (TIC12x) passes: polarity-aware static
#: update-dependence analysis (:mod:`repro.analysis`), opt-in via ``deps=``.
DEPS_PASS_REGISTRY: dict[str, LintPass] = {}

#: Registry of the *hierarchy* (TIC13x) passes: temporal-hierarchy
#: classification and backend-dispatch report
#: (:mod:`repro.analysis.hierarchy`), opt-in via ``hierarchy=``.
HIERARCHY_PASS_REGISTRY: dict[str, LintPass] = {}


def register(lint_pass: LintPass) -> LintPass:
    """Add a pass to the default registry (class decorator friendly)."""
    instance = lint_pass() if isinstance(lint_pass, type) else lint_pass
    if instance.name in PASS_REGISTRY:
        raise ValueError(f"duplicate lint pass name {instance.name!r}")
    PASS_REGISTRY[instance.name] = instance
    return lint_pass


def register_semantic(lint_pass: LintPass) -> LintPass:
    """Add a pass to the semantic (TIC100+) registry."""
    instance = lint_pass() if isinstance(lint_pass, type) else lint_pass
    if instance.name in SEMANTIC_PASS_REGISTRY:
        raise ValueError(
            f"duplicate semantic lint pass name {instance.name!r}"
        )
    SEMANTIC_PASS_REGISTRY[instance.name] = instance
    return lint_pass


def register_deps(lint_pass: LintPass) -> LintPass:
    """Add a pass to the dependence (TIC12x) registry."""
    instance = lint_pass() if isinstance(lint_pass, type) else lint_pass
    if instance.name in DEPS_PASS_REGISTRY:
        raise ValueError(
            f"duplicate dependence lint pass name {instance.name!r}"
        )
    DEPS_PASS_REGISTRY[instance.name] = instance
    return lint_pass


def register_hierarchy(lint_pass: LintPass) -> LintPass:
    """Add a pass to the hierarchy (TIC13x) registry."""
    instance = lint_pass() if isinstance(lint_pass, type) else lint_pass
    if instance.name in HIERARCHY_PASS_REGISTRY:
        raise ValueError(
            f"duplicate hierarchy lint pass name {instance.name!r}"
        )
    HIERARCHY_PASS_REGISTRY[instance.name] = instance
    return lint_pass


def all_passes() -> tuple[LintPass, ...]:
    """Every registered syntactic pass, in execution order."""
    _ensure_loaded()
    return tuple(PASS_REGISTRY.values())


def semantic_passes() -> tuple[LintPass, ...]:
    """Every registered semantic (TIC100+) pass, in execution order."""
    _ensure_loaded()
    return tuple(SEMANTIC_PASS_REGISTRY.values())


def deps_passes() -> tuple[LintPass, ...]:
    """Every registered dependence (TIC12x) pass, in execution order."""
    _ensure_loaded()
    return tuple(DEPS_PASS_REGISTRY.values())


def hierarchy_passes() -> tuple[LintPass, ...]:
    """Every registered hierarchy (TIC13x) pass, in execution order."""
    _ensure_loaded()
    return tuple(HIERARCHY_PASS_REGISTRY.values())


def _ensure_loaded() -> None:
    # Importing the modules populates the registries via the decorators.
    from . import deps as _deps  # noqa: F401
    from . import hierarchy as _hierarchy  # noqa: F401
    from . import passes as _passes  # noqa: F401
    from . import semantic as _semantic  # noqa: F401


def lint_formula(
    formula: Formula,
    source: str | None = None,
    vocabulary: Vocabulary | None = None,
    mode: str = "constraint",
    domain_size: int = 8,
    passes: Iterable[LintPass] | None = None,
    semantic: bool = False,
    constraint_set: tuple[tuple[str, Formula], ...] | None = None,
    set_index: int = 0,
    analyzer: "SetAnalyzer | None" = None,
    deps: bool = False,
    hierarchy: bool = False,
) -> LintReport:
    """Run every applicable pass over one formula and collect the report.

    With ``semantic=True`` the TIC100+ decision-procedure passes run as
    well; ``constraint_set`` (with this formula at ``set_index``) enables
    the set-level passes, and a pre-built ``analyzer`` lets callers share
    one grounded analysis across a whole set (see
    :func:`repro.lint.semantic.lint_constraint_set`); its ``jobs`` sets
    the worker count of the pairwise sweep.  With ``deps=True``
    the TIC12x dependence passes run as well (vocabulary-aware ones stay
    silent without a ``vocabulary``).  With ``hierarchy=True`` the TIC13x
    temporal-hierarchy / dispatch passes run as well.

    >>> from repro.logic import parse
    >>> report = lint_formula(parse("forall x . G (Sub(x) -> X G !Sub(x))"))
    >>> report.ok
    True
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    ctx = LintContext(
        formula=formula,
        source=source,
        vocabulary=vocabulary,
        mode=mode,
        domain_size=domain_size,
        constraint_set=constraint_set,
        set_index=set_index,
        _analyzer=analyzer,
    )
    if passes is not None:
        selected = tuple(passes)
    else:
        selected = all_passes()
        if semantic:
            selected += semantic_passes()
        if deps:
            selected += deps_passes()
        if hierarchy:
            selected += hierarchy_passes()
    findings: list[Diagnostic] = []
    for lint_pass in selected:
        if mode not in lint_pass.modes:
            continue
        findings.extend(lint_pass.run(ctx))
    return LintReport(
        diagnostics=sort_diagnostics(findings),
        source=source,
        formula_text=to_str(formula),
        mode=mode,
    )


def lint_source(
    text: str,
    vocabulary: Vocabulary | None = None,
    mode: str = "constraint",
    domain_size: int = 8,
    semantic: bool = False,
    deps: bool = False,
    hierarchy: bool = False,
) -> LintReport:
    """Parse a constraint from text and lint it.

    A parse failure is itself a diagnostic (``TIC000``) rather than an
    exception, so batch linting keeps going past broken inputs.

    >>> lint_source("forall x .").codes()
    ('TIC000',)
    """
    try:
        formula = parse(text)
    except ParseError as error:
        span = None
        if error.position is not None:
            from ..logic.spans import LineIndex

            lines = LineIndex(text)
            span = lines.span(
                error.position, min(error.position + 1, len(text))
            )
        diagnostic = Diagnostic(
            code="TIC000",
            severity=Severity.ERROR,
            message=f"syntax error: {error}",
            paper=None,
            span=span,
            pass_name="syntax",
        )
        return LintReport(
            diagnostics=(diagnostic,),
            source=text,
            formula_text="",
            mode=mode,
        )
    return lint_formula(
        formula,
        source=text,
        vocabulary=vocabulary,
        mode=mode,
        domain_size=domain_size,
        semantic=semantic,
        deps=deps,
        hierarchy=hierarchy,
    )
