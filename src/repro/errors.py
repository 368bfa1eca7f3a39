"""Exception hierarchy for the temporal integrity checking library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch a single type at API boundaries.  The sub-hierarchy mirrors the layers
of the system: the logic layer raises syntax / classification errors, the
database layer raises schema and state errors, and the checking layer raises
fragment errors when asked to decide a problem outside the decidable class
established by the paper (universal safety sentences).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class FormulaError(ReproError):
    """A formula is structurally invalid (bad arity, unbound variable, ...)."""


class ParseError(FormulaError):
    """The concrete-syntax parser rejected the input.

    Attributes
    ----------
    position:
        Offset into the source text where parsing failed, or ``None``.
    line / column:
        1-based position of the failure, when known.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        line: int | None = None,
        column: int | None = None,
    ):
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = column


class ClassificationError(ReproError):
    """A formula does not belong to the syntactic class an operation needs."""


class NotUniversalError(ClassificationError):
    """Raised when a universal (``forall* tense(Sigma_0)``) formula is
    required but the given formula has internal quantifiers or existential
    external quantifiers.

    The paper (Section 3) proves the extension problem for formulas with even
    a single internal quantifier is undecidable, so this error marks the
    boundary of what :func:`repro.core.checker.check_extension` can decide.
    """


class NotSafetyError(ClassificationError):
    """Raised when a safety formula is required but the given formula is not
    recognized as one.

    Theorem 4.2 requires the constraint to define a safety property; for
    non-safety universal sentences (e.g. ``always eventually forall x p(x)``)
    Lemma 4.1 fails and the decision procedure would be unsound.  Callers who
    have out-of-band knowledge that their constraint is safety may pass
    ``assume_safety=True`` to skip the syntactic check.
    """


class LintError(ClassificationError):
    """A constraint was rejected by the static analysis pre-flight gate.

    Raised by :func:`repro.lint.preflight` (and the constructors that call
    it in strict mode) when the lint engine reports error-severity
    diagnostics.  The structured diagnostics are available on the
    ``diagnostics`` attribute; the message lists them one per line.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


class SchemaError(ReproError):
    """A vocabulary/schema constraint was violated (unknown predicate symbol,
    arity mismatch, duplicate declaration, non-constant interpretation...)."""


class StateError(ReproError):
    """A database state or history is malformed or used inconsistently."""


class EvaluationError(ReproError):
    """A formula cannot be evaluated in the requested semantics.

    Typical causes: evaluating an unbounded future formula over a finite
    history with strict semantics, or a quantified formula whose truth is not
    determined by the active domain (domain-dependent formula).
    """


class MachineError(ReproError):
    """A Turing machine definition or run is invalid."""


