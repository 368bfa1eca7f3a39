"""Temporal integrity constraint checking for temporal databases.

A production-quality reproduction of Chomicki & Niwinski, *On the
Feasibility of Checking Temporal Integrity Constraints* (PODS 1993):
first-order temporal logic constraints over sequences of database states,
the decidable checker for universal safety sentences (Theorem 4.1/4.2 +
Lemma 4.2), dual temporal triggers, online monitoring, and the Section 3
undecidability constructions.

Quick start::

    from repro import (
        parse, vocabulary, History, check_extension, IntegrityMonitor,
    )

    schema = vocabulary({"Sub": 1, "Fill": 1})
    once = parse("forall x . G (Sub(x) -> X G !Sub(x))")
    history = History.from_facts(schema, [[("Sub", (1,))], [("Sub", (1,))]])
    check_extension(once, history).potentially_satisfied   # False

See README.md for the architecture overview and DESIGN.md for the paper
mapping.
"""

from .analysis import (
    AffectSet,
    IdleClass,
    UpdateDependencyIndex,
    affect_set,
    idle_class,
    static_verdict,
)
from .core.checker import (
    CheckResult,
    certify,
    check_extension,
    potentially_satisfied,
    validate_constraint,
)
from .core.monitor import EntrySnapshot, IntegrityMonitor, MonitorStats, UpdateReport
from .core.reduction import Reduction, reduce_universal
from .core.triggers import Firing, Trigger, TriggerManager, fires, firings
from .database.history import History
from .database.lasso import LassoDatabase
from .database.state import DatabaseState
from .database.updates import Update
from .database.vocabulary import Vocabulary, vocabulary
from .errors import (
    ClassificationError,
    EvaluationError,
    FormulaError,
    LintError,
    MachineError,
    NotSafetyError,
    NotUniversalError,
    ParseError,
    ReproError,
    SchemaError,
    StateError,
)
from .lint import (
    Diagnostic,
    LintReport,
    LintWarning,
    lint_formula,
    lint_source,
    preflight,
)
from .eval.finite import evaluate_finite, evaluate_past
from .eval.lasso import evaluate_lasso_db
from .logic.classify import FormulaInfo, classify, require_universal
from .logic.parser import parse
from .logic.printer import to_str
from .logic.safety import is_syntactically_safe
from .pasteval.baseline import WeakTruncationChecker
from .pasteval.incremental import IncrementalPastEvaluator
from .service import MonitorService

__version__ = "1.0.0"

__all__ = [
    "AffectSet",
    "CheckResult",
    "ClassificationError",
    "DatabaseState",
    "Diagnostic",
    "EntrySnapshot",
    "EvaluationError",
    "Firing",
    "FormulaError",
    "FormulaInfo",
    "History",
    "IdleClass",
    "IncrementalPastEvaluator",
    "IntegrityMonitor",
    "LassoDatabase",
    "LintError",
    "LintReport",
    "LintWarning",
    "MachineError",
    "MonitorService",
    "MonitorStats",
    "NotSafetyError",
    "NotUniversalError",
    "ParseError",
    "Reduction",
    "ReproError",
    "SchemaError",
    "StateError",
    "Trigger",
    "TriggerManager",
    "Update",
    "UpdateDependencyIndex",
    "UpdateReport",
    "Vocabulary",
    "WeakTruncationChecker",
    "__version__",
    "affect_set",
    "certify",
    "check_extension",
    "classify",
    "evaluate_finite",
    "evaluate_lasso_db",
    "evaluate_past",
    "fires",
    "firings",
    "idle_class",
    "is_syntactically_safe",
    "lint_formula",
    "lint_source",
    "parse",
    "potentially_satisfied",
    "preflight",
    "reduce_universal",
    "require_universal",
    "static_verdict",
    "to_str",
    "validate_constraint",
    "vocabulary",
]
