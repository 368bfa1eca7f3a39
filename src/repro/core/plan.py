"""Backend-dispatch planning over the temporal hierarchy.

The paper's feasibility results are fragment-by-fragment, and the
fragment a constraint lives in is a *static, syntactic* question
(:mod:`repro.analysis.hierarchy`).  The monitor acts on one such fact:

====================  ===============  ==================================
hierarchy class       backend          what it runs
====================  ===============  ==================================
``past-closed``       ``pasteval``     the history-less incremental past
                                       evaluator: no grounding, no
                                       progression, no satisfiability
                                       calls (Proposition 2.1 /
                                       Section 6)
every other class     ``progression``  the Theorem 4.1 reduction,
                                       compiled progression and the
                                       Lemma 4.2 decision
====================  ===============  ==================================

:class:`repro.core.monitor.IntegrityMonitor` routes by the same test
(:func:`repro.analysis.hierarchy.is_past_closed`) when it is built, and
builds its :class:`MonitorPlan` only when asked.  This module is purely
static: :func:`plan_constraints` labels a set for ``repro-tic plan`` and
the monitor's ``plan``.  DESIGN.md section 11 carries the soundness
argument per backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..analysis.hierarchy import backend_for, classify_hierarchy
from ..logic.formulas import Formula

__all__ = [
    "ConstraintPlan",
    "MonitorPlan",
    "plan_constraints",
]


@dataclass(frozen=True)
class ConstraintPlan:
    """The dispatch decision for one constraint."""

    name: str
    hierarchy: str
    backend: str
    lookahead: int | None
    reason: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "hierarchy": self.hierarchy,
            "backend": self.backend,
            "lookahead": self.lookahead,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConstraintPlan":
        return cls(
            name=data["name"],
            hierarchy=data["hierarchy"],
            backend=data["backend"],
            lookahead=data["lookahead"],
            reason=data["reason"],
        )


@dataclass(frozen=True)
class MonitorPlan:
    """A full dispatch plan: one :class:`ConstraintPlan` per constraint.

    >>> from ..logic import parse
    >>> plan = plan_constraints({
    ...     "audit": parse("forall x . G (Fill(x) -> Y O Sub(x))"),
    ...     "once": parse("forall x . G (Sub(x) -> X G !Sub(x))"),
    ... })
    >>> [(p.name, p.backend) for p in plan.entries]
    [('audit', 'pasteval'), ('once', 'progression')]
    """

    entries: tuple[ConstraintPlan, ...]

    def __getitem__(self, name: str) -> ConstraintPlan:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def by_class(self) -> dict[str, int]:
        """Constraint counts per hierarchy class."""
        out: dict[str, int] = {}
        for entry in self.entries:
            out[entry.hierarchy] = out.get(entry.hierarchy, 0) + 1
        return out

    def by_backend(self) -> dict[str, int]:
        """Constraint counts per assigned backend."""
        out: dict[str, int] = {}
        for entry in self.entries:
            out[entry.backend] = out.get(entry.backend, 0) + 1
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (``repro-tic plan`` emits this)."""
        return {
            "version": 1,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MonitorPlan":
        """Inverse of :meth:`to_dict` (hypothesis-tested round trip)."""
        version = data.get("version")
        if version != 1:
            raise ValueError(
                f"unsupported MonitorPlan version: {version!r}"
            )
        return cls(
            entries=tuple(
                ConstraintPlan.from_dict(entry)
                for entry in data["entries"]
            )
        )


def plan_constraints(
    constraints: Mapping[str, Formula] | Sequence[Formula],
) -> MonitorPlan:
    """Classify every constraint and label the backend it runs on.

    Purely static — no history, no automata, no satisfiability calls —
    so planning is free relative to monitoring.  Sequences get the same
    ``constraint_{i}`` names the monitor would assign.
    """
    if not isinstance(constraints, Mapping):
        constraints = {
            f"constraint_{index}": formula
            for index, formula in enumerate(constraints)
        }
    entries = []
    for name, formula in constraints.items():
        info = classify_hierarchy(formula)
        entries.append(
            ConstraintPlan(
                name=name,
                hierarchy=info.cls.value,
                backend=backend_for(info.cls),
                lookahead=info.lookahead,
                reason=info.reason,
            )
        )
    return MonitorPlan(entries=tuple(entries))

