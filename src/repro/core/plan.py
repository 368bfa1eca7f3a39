"""Backend-dispatch planning over the temporal hierarchy.

The monitor treats every constraint identically: ground, progress,
decide satisfiability after each update.  But the paper's feasibility
results are fragment-by-fragment, and the fragment a constraint lives in
is a *static, syntactic* question (:mod:`repro.analysis.hierarchy`).
This module turns the classification into an executable dispatch plan:

========================  =========================  ======================
hierarchy class           backend                    what it saves
========================  =========================  ======================
``past-closed``           ``pasteval``               everything: no
                                                     grounding, no
                                                     progression, no
                                                     satisfiability calls
                                                     (Proposition 2.1 /
                                                     Section 6)
``safety``                ``progression-safety``     nothing beyond
                                                     ``progression-full``
                                                     (a label: every
                                                     decision already
                                                     tries the constant
                                                     and quick-model-
                                                     check paths first)
``bounded-future`` /      ``progression-cosafety``   the whole per-update
``co-safety``                                        step once discharged:
                                                     a ``true`` remainder
                                                     retires the entry
``general``               ``progression-full``       nothing — the full
                                                     compiled kernel
========================  =========================  ======================

:class:`PlannedMonitor` executes a plan: past-closed constraints go to
the :class:`repro.pasteval.monitor.PastMonitor` incremental evaluator
(which accepts constraints the Theorem 4.1 pipeline *rejects* — past
connectives raise ``NotUniversalError`` there), everything else to one
:class:`repro.core.monitor.IntegrityMonitor` carrying the per-entry
backend assignments.  Verdicts and violations are identical to an
unplanned monitor on the shared fragment (hypothesis-tested over both
strategies); DESIGN.md section 11 carries the soundness argument per
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..analysis.hierarchy import backend_for, classify_hierarchy
from ..database.history import History
from ..database.state import DatabaseState
from ..database.updates import Update
from ..logic.formulas import Formula
from ..ptl.formulas import PTLFormula
from .monitor import IntegrityMonitor, MonitorStats, UpdateReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pasteval.monitor import PastMonitor

__all__ = [
    "PLANNED_SNAPSHOT_FORMAT",
    "ConstraintPlan",
    "MonitorPlan",
    "PlannedMonitor",
    "partition_constraints",
    "plan_constraints",
]

#: Format tag stamped into :meth:`PlannedMonitor.snapshot` payloads.
PLANNED_SNAPSHOT_FORMAT = "repro-planned-snapshot/v3"


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
    [('audit', 'pasteval'), ('once', 'progression-safety')]
    >>> plan.routed_off_full()
    2
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

    def routed_off_full(self) -> int:
        """How many constraints avoid the full compiled pipeline."""
        return sum(
            1
            for entry in self.entries
            if entry.backend != "progression-full"
        )

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
    """Classify every constraint and assign the cheapest sound backend.

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


class PlannedMonitor:
    """An :class:`IntegrityMonitor` drop-in that executes a dispatch plan.

    Constraints are planned at construction: past-closed ones go to the
    history-less :class:`repro.pasteval.monitor.PastMonitor` (no
    grounding, no satisfiability engine), the rest to one shared
    :class:`IntegrityMonitor` whose entries carry their planned backend
    (co-safety retirement).  Reports merge both engines in registration
    order, so callers see a single monitor.

    Because past-closed constraints bypass the Theorem 4.1 pipeline,
    a :class:`PlannedMonitor` accepts mixed sets that
    :class:`IntegrityMonitor` rejects outright:

    >>> from ..logic import parse
    >>> from ..database import History, Update, vocabulary
    >>> v = vocabulary({"Sub": 1, "Fill": 1})
    >>> monitor = PlannedMonitor(
    ...     {
    ...         "audit": parse("forall x . G (Fill(x) -> Y O Sub(x))"),
    ...         "once": parse("forall x . G (Sub(x) -> X G !Sub(x))"),
    ...     },
    ...     History.empty(v),
    ... )
    >>> monitor.plan["audit"].backend
    'pasteval'
    >>> monitor.apply(Update.insert(("Fill", (7,)))).new_violations
    ('audit',)

    The lint pre-flight gate applies to the progression-monitored
    constraints exactly as in :class:`IntegrityMonitor`; pasteval-routed
    constraints are validated by shape instead
    (:func:`repro.pasteval.monitor.past_body`) — the TIC004 reduction
    lint does not apply to an engine that never grounds.
    """

    def __init__(
        self,
        constraints: Mapping[str, Formula] | Sequence[Formula],
        initial: History,
        assume_safety: bool = False,
        strategy: str = "incremental",
        spare: int = 2,
        lint: str = "warn",
    ) -> None:
        from ..pasteval.monitor import PastMonitor

        if not isinstance(constraints, Mapping):
            constraints = {
                f"constraint_{index}": formula
                for index, formula in enumerate(constraints)
            }
        self._constraints = dict(constraints)
        self._config: dict[str, Any] = {
            "assume_safety": assume_safety,
            "strategy": strategy,
            "spare": spare,
        }
        self._plan = plan_constraints(constraints)
        self._order = tuple(constraints)
        self._history = initial
        past_names = tuple(
            entry.name
            for entry in self._plan.entries
            if entry.backend == "pasteval"
        )
        self._past: PastMonitor | None = None
        if past_names:
            self._past = PastMonitor(
                {name: constraints[name] for name in past_names},
                initial.vocabulary,
                constant_bindings=initial.constant_bindings,
            )
            # PastMonitor starts before instant 0; replay the initial
            # history so both engines agree on "now".
            for state in initial.states:
                self._past.append_state(state)
        self._full: IntegrityMonitor | None = None
        full = {
            name: formula
            for name, formula in constraints.items()
            if name not in past_names
        }
        if full:
            self._full = IntegrityMonitor(
                full,
                initial,
                assume_safety=assume_safety,
                strategy=strategy,
                spare=spare,
                lint=lint,
                backends={
                    entry.name: entry.backend
                    for entry in self._plan.entries
                    if entry.backend != "pasteval"
                },
            )

    # -- public surface ------------------------------------------------------

    @property
    def plan(self) -> MonitorPlan:
        """The static dispatch plan this monitor executes."""
        return self._plan

    @property
    def history(self) -> History:
        return self._history

    @property
    def now(self) -> int:
        return self._history.now

    def violations(self) -> dict[str, int]:
        """Violated constraints and the instant each was first violated,
        merged across backends in registration order."""
        merged: dict[str, int] = {}
        if self._full is not None:
            merged.update(self._full.violations())
        if self._past is not None:
            merged.update(self._past.violations())
        return {
            name: merged[name] for name in self._order if name in merged
        }

    def stats(self) -> dict[str, MonitorStats]:
        """Per-constraint work counters — one coherent
        :class:`MonitorStats` shape across both engines."""
        merged: dict[str, MonitorStats] = {}
        if self._full is not None:
            merged.update(self._full.stats())
        if self._past is not None:
            merged.update(self._past.stats())
        return {name: merged[name] for name in self._order}

    def remainders(self) -> dict[str, PTLFormula]:
        """Progressed remainders of the progression-monitored
        constraints.  Pasteval-routed constraints keep no remainder —
        that is the point of the history-less regime — so they do not
        appear here."""
        if self._full is None:
            return {}
        return self._full.remainders()

    def reset(self) -> None:
        """Zero every per-constraint work counter (state untouched)."""
        if self._full is not None:
            self._full.reset()
        if self._past is not None:
            self._past.reset()

    def is_satisfied(self, name: str) -> bool:
        if name not in self._order:
            raise KeyError(name)
        return name not in self.violations()

    def apply(self, update: Update) -> UpdateReport:
        """Apply an update and re-check every constraint."""
        return self.append_state(update.apply(self._history.current))

    # -- checkpoint / resume -------------------------------------------------

    def snapshot(self, with_history: bool = True) -> dict[str, Any]:
        """JSON-ready checkpoint of this planned monitor.

        The progression side delegates to
        :func:`repro.database.serialize.monitor_to_dict` (structural
        remainders and grounding bookkeeping); the pasteval
        side needs no state beyond the shared history — its evaluators
        are rebuilt by replaying it, which is history-less table updates
        with no grounding or satisfiability calls.  Restoring with
        :meth:`from_snapshot` yields a monitor whose future verdicts are
        identical to the uninterrupted run (property-tested).

        ``with_history=False`` leaves the history out at both levels:
        :class:`repro.service.MonitorService` stores one copy for all its
        shards and passes it back to :meth:`from_snapshot`.
        """
        from ..database.serialize import history_to_dict, monitor_to_dict
        from ..logic import to_str

        data: dict[str, Any] = {
            "format": PLANNED_SNAPSHOT_FORMAT,
            "config": dict(self._config),
            "order": list(self._order),
            "constraints": {
                name: to_str(self._constraints[name])
                for name in self._order
            },
            "full": (
                monitor_to_dict(self._full, with_history)
                if self._full is not None
                else None
            ),
        }
        if with_history:
            data["history"] = history_to_dict(self._history)
        return data

    @classmethod
    def from_snapshot(
        cls, data: Mapping[str, Any], history: History | None = None
    ) -> "PlannedMonitor":
        """Rebuild a :class:`PlannedMonitor` from :meth:`snapshot` output.

        A given ``history`` (for a snapshot taken ``with_history=False``)
        is handed as it is to both engines, in place of the document's
        own.

        ``order`` must list every constraint text exactly once, and the
        progression entries must be exactly the constraints the plan does
        not route to pasteval; otherwise a verdict would be lost or the
        first update would fail half-way, so this raises
        :class:`~repro.errors.StateError` naming the missing and extra
        names.
        """
        from ..database.serialize import (
            decode_list,
            decode_mapping,
            history_from_dict,
            monitor_from_dict,
        )
        from ..errors import StateError
        from ..logic import parse
        from ..pasteval.monitor import PastMonitor

        if not isinstance(data, Mapping):
            raise StateError(
                f"planned snapshot must be a mapping, got {type(data).__name__}"
            )
        tag = data.get("format")
        if tag != PLANNED_SNAPSHOT_FORMAT:
            raise StateError(
                f"unsupported planned-snapshot format {tag!r} "
                f"(expected {PLANNED_SNAPSHOT_FORMAT!r})"
            )
        try:
            config = dict(
                decode_mapping(data["config"], "planned snapshot 'config'")
            )
            order = tuple(
                decode_list(data["order"], "planned snapshot 'order'", str)
            )
            texts = decode_mapping(
                data["constraints"], "planned snapshot 'constraints'"
            )
            full_data = data["full"]
        except KeyError as exc:
            raise StateError(
                f"planned snapshot is missing the {exc.args[0]!r} key"
            ) from None
        _require_names("planned snapshot order", order, texts)
        for name in order:
            if not isinstance(texts[name], str):
                raise StateError(
                    f"planned snapshot constraint {name!r} must be a string"
                )
        constraints = {name: parse(texts[name]) for name in order}
        shared = history
        if history is None:
            if "history" not in data:
                raise StateError(
                    "planned snapshot is missing the 'history' key"
                )
            history = history_from_dict(data["history"])
        monitor = cls.__new__(cls)
        monitor._constraints = constraints
        monitor._config = config
        monitor._plan = plan_constraints(constraints)
        monitor._order = order
        monitor._history = history
        past_names = tuple(
            entry.name
            for entry in monitor._plan.entries
            if entry.backend == "pasteval"
        )
        monitor._full = (
            monitor_from_dict(full_data, shared)
            if full_data is not None
            else None
        )
        entry_names = (
            [snap.name for snap in monitor._full.snapshot_entries()]
            if monitor._full is not None
            else []
        )
        _require_names(
            "planned snapshot progression entries",
            entry_names,
            (name for name in order if name not in past_names),
        )
        monitor._past = None
        if past_names:
            monitor._past = PastMonitor(
                {name: constraints[name] for name in past_names},
                history.vocabulary,
                constant_bindings=history.constant_bindings,
            )
            for state in history.states:
                monitor._past.append_state(state)
        return monitor

    def append_state(self, state: DatabaseState) -> UpdateReport:
        """Append a full next state (alternative to delta updates)."""
        self._history = self._history.extended(state)
        satisfied: dict[str, bool] = {}
        fresh: set[str] = set()
        if self._full is not None:
            report = self._full.append_state(state)
            satisfied.update(report.satisfied)
            fresh.update(report.new_violations)
        if self._past is not None:
            past_report = self._past.append_state(state)
            satisfied.update(past_report.satisfied)
            fresh.update(past_report.new_violations)
        return UpdateReport(
            instant=self._history.now,
            satisfied={name: satisfied[name] for name in self._order},
            new_violations=tuple(
                name for name in self._order if name in fresh
            ),
        )


def _require_names(
    what: str, names: Sequence[Any], expected: Iterable[str]
) -> None:
    """Raise :class:`~repro.errors.StateError` unless ``names`` lists each
    of ``expected`` exactly once and nothing else."""
    from ..errors import StateError

    wanted = set(expected)
    missing = sorted(wanted.difference(names))
    extra = sorted({str(name) for name in names if name not in wanted})
    repeated = sorted({str(name) for name in names if names.count(name) > 1})
    if missing or extra or repeated:
        raise StateError(
            f"{what} must list every constraint exactly once: missing "
            f"{missing}, extra {extra}, repeated {repeated}"
        )
