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
the monitor's ``plan``, and :func:`partition_constraints` splits a set
into relation-disjoint shards for :class:`repro.service.MonitorService`.
DESIGN.md section 11 carries the soundness argument per backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..analysis.hierarchy import backend_for, classify_hierarchy
from ..logic.formulas import Formula

__all__ = [
    "ConstraintPlan",
    "MonitorPlan",
    "partition_constraints",
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


def partition_constraints(
    constraints: Mapping[str, Formula] | Sequence[Formula],
    shards: int,
) -> list[dict[str, Formula]]:
    """Split a constraint set into at most ``shards`` relation-disjoint
    groups for parallel monitoring.

    Two constraints that mention a common database relation are kept in
    the same group (union-find over relation names), so an update to any
    relation touches exactly one group and per-group monitors never
    disagree about a shared domain.  Built-in arithmetic predicates
    (``leq``/``succ``/``Zero``) are rigid and history-independent, so
    they do not force a merge.  Connected components are packed
    largest-first into the emptiest bin; registration order is preserved
    inside each group and groups are ordered by their earliest
    constraint.  Purely static, like :func:`plan_constraints`.

    >>> from ..logic import parse
    >>> parts = partition_constraints({
    ...     "a": parse("forall x . G !Sub(x)"),
    ...     "b": parse("forall x . G !Fill(x)"),
    ...     "c": parse("forall x . G (Fill(x) -> X !Fill(x))"),
    ... }, 2)
    >>> [sorted(part) for part in parts]
    [['a'], ['b', 'c']]
    """
    from ..database.vocabulary import BUILTIN_PREDICATES

    if shards < 1:
        raise ValueError(f"shard count must be positive, got {shards}")
    if not isinstance(constraints, Mapping):
        constraints = {
            f"constraint_{index}": formula
            for index, formula in enumerate(constraints)
        }
    names = list(constraints)
    parent = list(range(len(names)))

    def find(index: int) -> int:
        root = index
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    owner: dict[str, int] = {}
    for index, name in enumerate(names):
        for pred, _arity in constraints[name].predicates():
            if pred in BUILTIN_PREDICATES:
                continue
            if pred in owner:
                parent[find(index)] = find(owner[pred])
            else:
                owner[pred] = index
    components: dict[int, list[int]] = {}
    for index in range(len(names)):
        components.setdefault(find(index), []).append(index)
    ordered = sorted(components.values(), key=lambda comp: (-len(comp), comp))
    bins: list[list[int]] = [[] for _ in range(min(shards, len(ordered)))]
    for component in ordered:
        target = min(range(len(bins)), key=lambda b: (len(bins[b]), b))
        bins[target].extend(component)
    bins.sort(key=min)
    return [
        {names[index]: constraints[names[index]] for index in sorted(group)}
        for group in bins
    ]
