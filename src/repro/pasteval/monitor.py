"""Monitoring ``G (past)`` constraints with history-less cost.

Proposition 2.1 of the paper: any formula ``G A`` with ``A`` a past formula
defines a safety property.  For this class the natural monitoring
discipline needs no reduction and no satisfiability engine at all: evaluate
``A`` at each new instant with the incremental evaluator
(:class:`repro.pasteval.incremental.IncrementalPastEvaluator`) and flag the
first instant where it fails.  Per-update cost and memory are independent
of the history length — the *history-less* regime of Chomicki (ICDE 1992)
that the paper's Section 6 calls out as the practical goal.

Relation to potential satisfaction (documented, and tested):

* **Sound for violations**: ``A`` false at instant ``t`` refutes ``G A`` on
  every extension, so the constraint is certainly not potentially
  satisfied.
* **Complete for quiescence-closed constraints**: if the body stays true
  whenever nothing further happens (true of the audit-style constraints
  this class is used for, e.g. "every fill was preceded by a submission"),
  then body-true-so-far implies an extension exists (extend with empty
  states), and the monitor's verdicts coincide with the exact checker's.
  For bodies that *force* future failures the exact checker can be
  earlier — but such constraints have future content and belong with
  :class:`repro.core.monitor.IntegrityMonitor`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.monitor import MonitorStats
from ..database.history import History
from ..database.state import DatabaseState
from ..database.updates import Update
from ..database.vocabulary import Vocabulary
from ..errors import ClassificationError, EvaluationError, SchemaError
from ..logic.classify import is_past_formula
from ..logic.formulas import Always, Forall, Formula
from ..logic.transform import strip_universal_prefix
from .incremental import IncrementalPastEvaluator


def past_body(constraint: Formula) -> Formula:
    """Extract ``A`` from a ``forall* G A`` constraint with past-only body.

    Raises
    ------
    ClassificationError
        If the constraint is not of the ``forall* G (past)`` shape.
    """
    prefix, matrix = strip_universal_prefix(constraint)
    if not isinstance(matrix, Always):
        raise ClassificationError(
            "PastMonitor handles constraints of the form "
            "'forall* . G (past formula)' (Proposition 2.1); the matrix "
            f"is not of the form G A: {matrix}"
        )
    body = matrix.body
    if not is_past_formula(body):
        raise ClassificationError(
            "the body under G must be a past formula; "
            f"found future connectives in: {body}"
        )
    result: Formula = body
    for variable in reversed(prefix):
        result = Forall(variable, result)
    return result


@dataclass(frozen=True)
class PastReport:
    """Per-update outcome of the past monitor."""

    instant: int
    satisfied: Mapping[str, bool]
    new_violations: tuple[str, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())


class PastMonitor:
    """Monitor ``forall* G (past)`` constraints at history-less cost.

    Construction rejects a body that names an undeclared relation or
    uses one with the wrong arity (:class:`~repro.errors.SchemaError`),
    or that mentions a constant missing from ``constant_bindings``
    (:class:`~repro.errors.EvaluationError`), so no state is consumed
    by a monitor that would fail on it.

    >>> from ..logic import parse
    >>> from ..database import DatabaseState, vocabulary
    >>> v = vocabulary({"Sub": 1, "Fill": 1})
    >>> audit = parse("forall x . G (Fill(x) -> Y O Sub(x))")
    >>> monitor = PastMonitor({"audit": audit}, v)
    >>> monitor.append_state(
    ...     DatabaseState.from_facts(v, [("Fill", (7,))])
    ... ).new_violations
    ('audit',)
    """

    def __init__(
        self,
        constraints: Mapping[str, Formula] | Sequence[Formula],
        vocabulary: Vocabulary,
        constant_bindings: Mapping[str, int] | None = None,
    ) -> None:
        if not isinstance(constraints, Mapping):
            constraints = {
                f"constraint_{index}": formula
                for index, formula in enumerate(constraints)
            }
        self._vocabulary = vocabulary
        self._evaluators: dict[str, IncrementalPastEvaluator] = {}
        self._violated_at: dict[str, int] = {}
        self._stats: dict[str, MonitorStats] = {}
        self._instant = -1
        bindings = dict(constant_bindings or {})
        for name, constraint in constraints.items():
            body = past_body(constraint)
            for symbol in sorted(c.name for c in body.constants()):
                if symbol not in bindings:
                    raise EvaluationError(
                        f"constant symbol {symbol!r} of constraint "
                        f"{name!r} is not bound"
                    )
            try:
                evaluator = IncrementalPastEvaluator(body, vocabulary)
            except SchemaError as exc:
                raise SchemaError(f"constraint {name!r}: {exc}") from None
            for symbol, value in bindings.items():
                evaluator.bind_constant(symbol, value)
            self._evaluators[name] = evaluator
            self._stats[name] = MonitorStats()

    @property
    def now(self) -> int:
        """Instant of the last consumed state (-1 before the first)."""
        return self._instant

    def violations(self) -> dict[str, int]:
        """Violated constraints and the first instant the body failed."""
        return dict(self._violated_at)

    def memory_size(self) -> int:
        """Total stored table entries — independent of history length."""
        return sum(
            evaluator.memory_size
            for evaluator in self._evaluators.values()
        )

    def stats(self) -> dict[str, MonitorStats]:
        """Per-constraint work counters, in the shared
        :class:`~repro.core.monitor.MonitorStats` shape.

        Only the past-evaluator fields move: ``past_updates`` counts
        consumed states, ``past_memory`` tracks the evaluator's current
        table footprint, and ``progress_time`` carries the evaluation
        seconds.  Everything progression- or satisfiability-related stays
        zero — this backend makes no satisfiability calls at all.
        """
        return dict(self._stats)

    def reset(self) -> None:
        """Zero every per-constraint work counter (state untouched)."""
        for stats in self._stats.values():
            stats.reset()

    def append_state(self, state: DatabaseState) -> PastReport:
        """Consume the next database state; evaluate every body there."""
        self._instant += 1
        satisfied: dict[str, bool] = {}
        new_violations: list[str] = []
        for name, evaluator in self._evaluators.items():
            stats = self._stats[name]
            start = time.perf_counter()
            holds = evaluator.advance(state)
            stats.progress_time += time.perf_counter() - start
            stats.past_updates += 1
            stats.past_memory = evaluator.memory_size
            if name in self._violated_at:
                satisfied[name] = False
                continue
            satisfied[name] = holds
            if not holds:
                self._violated_at[name] = self._instant
                new_violations.append(name)
        return PastReport(
            instant=self._instant,
            satisfied=satisfied,
            new_violations=tuple(new_violations),
        )

    def replay(self, history: History) -> PastReport:
        """Consume a whole history; returns the final report."""
        report: PastReport | None = None
        for state in history.states:
            report = self.append_state(state)
        assert report is not None
        return report

    def apply_to(self, previous: DatabaseState, update: Update) -> PastReport:
        """Convenience: apply an update to a state and consume the result."""
        return self.append_state(update.apply(previous))
