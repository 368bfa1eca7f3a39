"""Online temporal integrity monitoring.

The paper's usage model: after every update, check whether each constraint
is still potentially satisfied.  Doing that naively re-runs the whole
Theorem 4.1 reduction and Lemma 4.2 decision on the full history after each
update — ``O(t)`` progression work per update, ``O(t^2)`` over a run.  The
:class:`IntegrityMonitor` keeps the *progressed remainder* of each
constraint as its only history-dependent state, so an update costs one
progression step plus one satisfiability check, independent of ``t``.

Constraints of the ``forall* G (past)`` shape (Proposition 2.1) need none
of this.  The monitor sends them at construction to one internal
:class:`repro.pasteval.monitor.PastMonitor`, which evaluates the past body
at each new instant at history-less cost with no satisfiability engine,
and progresses the rest.  The split is the syntactic test
:func:`repro.analysis.hierarchy.is_past_closed`, and one report per update
merges both sides in registration order.

The monitor works in the progression kernel's id space throughout
(:mod:`repro.ptl.progkernel`), and holds each progressed constraint as a
:class:`~repro.core.lifted.LiftedTable`: template-state ids of the kernel,
each with the tuples in it.  Lemma 4.1 makes every element the history has
not shown interchangeable with any other, so a fresh element takes the
states of the table's witness tuples: nothing is regrounded, replayed or
read from the history.  An update steps the tuples over the elements the
state shows, plus one step per distinct state, and a decision reads the
distinct states; a formula node is built only when something outside the
update path asks for one: a Büchi call on a shared-letter constraint,
:meth:`IntegrityMonitor.remainders` or :attr:`EntrySnapshot.remainder`
(DESIGN.md §10.1).  The remainder those build is
:func:`~repro.core.checker.check_extension`'s own interned node.

The naive baseline that rebuilds and re-progresses from the full history
on every update is a fresh monitor per prefix (ablation A1 measures it).

Violations of safety constraints are irrecoverable (once the remainder is
unsatisfiable it stays unsatisfiable), so a violated constraint is frozen
and reported, not re-checked.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..analysis.hierarchy import is_past_closed
from ..database.history import History
from ..database.state import DatabaseState
from ..database.updates import Update
from ..errors import (
    ClassificationError,
    EvaluationError,
    SchemaError,
    StateError,
)
from ..logic.classify import FormulaInfo
from ..logic.formulas import Formula
from ..ptl.bitset import BuchiKernel
from ..ptl.formulas import PTLFormula
from ..ptl.progkernel import ProgKernelInfo, ProgressionKernel
from .checker import validate_constraint
from .grounding import Anon, Placeholder
from .lifted import (
    LiftedTable,
    Tuple,
    constraint_table,
    instance_keys,
    is_canonical,
    is_witness,
    materialize,
)
from .plan import MonitorPlan, plan_constraints
from .reduction import check_vocabulary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pasteval.monitor import PastMonitor

#: Bound of the monitor-wide satisfiability memo, in remainders.
_SAT_CACHE_SIZE = 4096


@dataclass
class MonitorStats:
    """Work counters for one monitored constraint.

    ``progressions`` counts top-level progression steps; ``kernel_row_hits``
    counts the satisfied transition-row probes of the monitor's
    :class:`~repro.ptl.progkernel.ProgressionKernel` behind them;
    ``absorbed`` counts the fresh elements taken in from witness tuples.
    ``sat_time``/``progress_time`` are cumulative ``perf_counter`` seconds
    spent in the two Lemma 4.2 phases, so experiments and the benchmark
    harness can report where time goes.

    ``past_updates``/``past_memory`` are filled for past-closed
    constraints, by the monitor's
    :class:`repro.pasteval.monitor.PastMonitor` side — updates evaluated
    by the incremental past evaluator and its current table footprint
    (entries, not bytes) — so a mixed set reports one coherent stats
    object across both sides.

    ``stream_updates`` is filled by :class:`repro.service.MonitorService`:
    per-session counts of the updates this stats object's owner has
    ingested from each stream.  It is the one mapping-valued counter, and
    the reason :meth:`reset` builds a fresh instance instead of reading
    ``spec.default`` — a ``default_factory`` field has no usable
    ``spec.default`` (it is the ``MISSING`` sentinel), so the old
    per-field loop would silently corrupt the dataclass.
    """

    progressions: int = 0
    absorbed: int = 0
    sat_calls: int = 0
    sat_cache_hits: int = 0
    kernel_row_hits: int = 0
    past_updates: int = 0
    past_memory: int = 0
    sat_time: float = 0.0
    progress_time: float = 0.0
    stream_updates: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int | float | dict[str, int]]:
        """A plain-dict view (benchmark shapes, JSON round-trips)."""
        return asdict(self)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, int | float | dict[str, int]]
    ) -> "MonitorStats":
        """Inverse of :meth:`as_dict`; unknown keys (from older or newer
        cores) are ignored, missing ones default."""
        names = {spec.name for spec in fields(cls)}
        return cls(
            **{key: value for key, value in data.items() if key in names}
        )  # type: ignore[arg-type]

    def reset(self) -> None:
        """Zero every counter in place.

        Copies from a freshly constructed instance rather than from
        ``spec.default``: fields declared with ``default_factory`` (such as
        ``stream_updates``) have no ``spec.default`` — it is the dataclass
        ``MISSING`` sentinel — and the old per-field loop would assign that
        sentinel as the "zero" value.
        """
        fresh = type(self)()
        for spec in fields(self):
            setattr(self, spec.name, getattr(fresh, spec.name))


@dataclass
class _ConstraintEntry:
    name: str
    constraint: Formula
    info: FormulaInfo
    # The remainder, as template states and their tuples.
    table: LiftedTable
    # Do distinct tuples share no letter?  Then the conjunction is
    # decided one template state at a time (DESIGN.md §10.1).
    disjoint: bool
    # The relations the constraint mentions, read once: every update
    # scans the state's tuples of these alone.
    predicates: frozenset[str]
    violated_at: int | None = None
    stats: MonitorStats = field(default_factory=MonitorStats)


#: One table row: a template-state id and the tuples in that state.
TableRow = tuple[int, tuple[Tuple, ...]]


@dataclass(frozen=True)
class EntrySnapshot:
    """The complete resume state of one progressed constraint.

    The monitor holds a progressed constraint as a table of template
    states (:class:`~repro.core.lifted.LiftedTable`), so this record —
    the table's rows plus the relevant set — is a full checkpoint:
    restoring it (:meth:`IntegrityMonitor.from_snapshot`) and continuing
    produces the same verdicts and remainders as never having stopped
    (property-tested).

    ``states`` lists the real tuples by state and ``witnesses`` the
    witness tuples a restore cannot recompute, both as ids of ``kernel``:
    a live monitor's own kernel (its ids are never reassigned, so the
    rows stay valid, and a save encodes them without building nodes), or
    the one a decoded snapshot was interned into, which the restored
    monitor adopts as its own.
    Tuples in state ``true`` are left out.  ``relevant`` holds the
    elements the table has absorbed, and ``constants`` the constraint's
    constants' elements.  :attr:`remainder` builds the remainder the
    table stands for, the node
    :func:`~repro.core.checker.check_extension` builds.  JSON encoding
    lives in :mod:`repro.database.serialize` (``monitor_to_dict`` /
    ``monitor_from_dict``).

    Pure caches (the monitor-wide satisfiability memo, the kernels'
    tables, the templates) are deliberately absent — dropping them cannot
    change any verdict, only cache-hit counters.
    """

    name: str
    constraint: Formula
    relevant: frozenset[int]
    constants: frozenset[int]
    kernel: ProgressionKernel
    states: tuple[TableRow, ...]
    witnesses: tuple[TableRow, ...]
    violated_at: int | None
    stats: MonitorStats

    @property
    def remainder(self) -> PTLFormula:
        """The progressed remainder, as its interned node."""
        where = {
            values: state for state, tuples in self.states for values in tuples
        }
        keys = instance_keys(self.relevant, len(next(iter(where), ())))
        return self.kernel.formula(
            materialize(self.kernel, where, keys, self.constants)
        )


@dataclass(frozen=True)
class UpdateReport:
    """Result of applying one update.

    Attributes
    ----------
    instant:
        The time instant of the new state.
    satisfied:
        Per constraint: is it still potentially satisfied?
    new_violations:
        Constraints that became violated by this very update.
    """

    instant: int
    satisfied: Mapping[str, bool]
    new_violations: tuple[str, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())


class IntegrityMonitor:
    """Monitor a growing history against a set of universal safety
    constraints.

    Constraints are routed once, at construction, by
    :func:`repro.analysis.hierarchy.is_past_closed`.  Past-closed ones
    (``forall* G A`` with ``A`` past-only) go to one internal
    :class:`repro.pasteval.monitor.PastMonitor` and are checked at
    history-less cost with no satisfiability engine; a past body that
    names an undeclared relation or an unbound constant is refused here
    (:class:`~repro.errors.SchemaError`,
    :class:`~repro.errors.EvaluationError`).  Every other constraint is
    progressed.  :attr:`plan` labels the split for ``repro-tic plan``
    (:mod:`repro.core.plan`).

    Progressed constraints go through the :mod:`repro.lint` pre-flight
    gate at construction time: ``lint="warn"`` (default) surfaces warning
    diagnostics via :mod:`warnings`, ``lint="strict"`` refuses any
    constraint with error diagnostics (:class:`repro.errors.LintError`
    listing all of them), ``lint="off"`` skips the gate.  Past-closed
    constraints are validated by shape instead
    (:func:`repro.pasteval.monitor.past_body`): the TIC004 reduction lint
    does not apply to an engine that never grounds.

    Each update takes the Lemma 4.2 step once per live progressed
    constraint: progress its table, then decide it.  Template grounding,
    progression and the all-false model check run on the ids of one
    table-driven :class:`repro.ptl.progkernel.ProgressionKernel`, and
    Büchi decisions on one bitset :class:`repro.ptl.bitset.BuchiKernel`,
    both shared by every constraint, so templates with overlapping
    closures share compiled rows, states and verdicts across constraints
    and updates.
    The recursive reference engines (:mod:`repro.ptl.progression`,
    :mod:`repro.ptl.sat`) are the test oracles: verdicts match
    :func:`repro.core.checker.check_extension` at every instant, and the
    remainders are pointer-identical to its own (property-tested).

    >>> from ..logic import parse
    >>> from ..database import History, Update, vocabulary
    >>> v = vocabulary({"Sub": 1, "Fill": 1})
    >>> monitor = IntegrityMonitor(
    ...     {
    ...         "once": parse("forall x . G (Sub(x) -> X G !Sub(x))"),
    ...         "audit": parse("forall x . G (Fill(x) -> Y O Sub(x))"),
    ...     },
    ...     History.empty(v),
    ... )
    >>> monitor.apply(Update.insert(("Sub", (1,)))).all_satisfied
    True
    >>> report = monitor.apply(Update.insert(("Sub", (1,))))
    >>> report.new_violations
    ('once',)
    >>> monitor.apply(Update.insert(("Fill", (7,)))).new_violations
    ('audit',)
    >>> [(p.name, p.backend) for p in monitor.plan.entries]
    [('once', 'progression'), ('audit', 'pasteval')]
    """

    def __init__(
        self,
        constraints: Mapping[str, Formula] | Sequence[Formula],
        initial: History,
        assume_safety: bool = False,
        lint: str = "warn",
    ) -> None:
        if not isinstance(constraints, Mapping):
            constraints = {
                f"constraint_{index}": formula
                for index, formula in enumerate(constraints)
            }
        past = {
            name: formula
            for name, formula in constraints.items()
            if is_past_closed(formula)
        }
        self._setup(initial, constraints, past, assume_safety=assume_safety)
        for name, formula in constraints.items():
            if name in past:
                continue
            info = validate_constraint(
                formula, assume_safety=assume_safety, lint=lint
            )
            check_vocabulary(initial, info)
            entry = self._entry(name, formula, info)
            entry.table.seed()
            self._entries.append(entry)
        # The initial history goes through the update path, decided at
        # every instant, so a violation is reported at the first instant
        # whose prefix fails.
        for instant, state in enumerate(initial.states):
            for entry in self._entries:
                if entry.violated_at is None:
                    self._advance(entry, state)
                    self._decide(entry, instant)

    def _setup(
        self,
        history: History,
        constraints: Mapping[str, Formula],
        past: Mapping[str, Formula],
        *,
        assume_safety: bool,
        kernel: ProgressionKernel | None = None,
    ) -> None:
        """The settings, empty caches (or the given progression kernel)
        and past side shared by construction and restore; progressed
        entries are added by the caller."""
        self._assume_safety = assume_safety
        self._history = history
        # The instant of an update whose recheck has not returned: set
        # while the entries step, and left set if one raises.
        self._unsettled: int | None = None
        # Registration order, which every merged report follows.
        self._constraints = dict(constraints)
        self._plan: MonitorPlan | None = None
        # Monitor-wide satisfiability memo, shared across constraints and
        # keyed by kernel id: template states (and, for shared-letter
        # constraints, materialized remainders) recur under several
        # constraints and across updates, and ids are canonical, so the
        # lookup is exact and O(1).  The memo is emptied once it holds
        # _SAT_CACHE_SIZE ids.
        self._sat_cache: dict[int, bool] = {}
        self._sat_cache_resets = 0
        self._buchi = BuchiKernel()
        self._progkernel = ProgressionKernel() if kernel is None else kernel
        self._entries: list[_ConstraintEntry] = []
        self._past: PastMonitor | None = None
        if past:
            from ..pasteval.monitor import PastMonitor

            self._past = PastMonitor(
                past,
                history.vocabulary,
                constant_bindings=history.constant_bindings,
            )
            # PastMonitor starts before instant 0; replay the history so
            # both sides agree on "now".
            for state in history.states:
                self._past.append_state(state)

    def _entry(
        self, name: str, constraint: Formula, info: FormulaInfo
    ) -> _ConstraintEntry:
        """A progressed entry with its templates compiled and its table
        still empty."""
        table, predicates, disjoint = constraint_table(
            self._progkernel, info, self._history.constant_bindings
        )
        return _ConstraintEntry(
            name=name,
            constraint=constraint,
            info=info,
            table=table,
            disjoint=disjoint,
            predicates=predicates,
        )

    # -- public surface ------------------------------------------------------

    @property
    def history(self) -> History:
        """The monitored history (grows with every update)."""
        return self._history

    @property
    def now(self) -> int:
        return self._history.now

    @property
    def constraints(self) -> dict[str, Formula]:
        """Every monitored constraint, in registration order."""
        return dict(self._constraints)

    @property
    def plan(self) -> MonitorPlan:
        """The dispatch plan this monitor executes, built on first read
        (the skeleton walk of every constraint is not needed to route)."""
        if self._plan is None:
            self._plan = plan_constraints(self._constraints)
        return self._plan

    def violations(self) -> dict[str, int]:
        """Violated constraints and the instant each was first violated,
        in registration order."""
        found = {
            entry.name: entry.violated_at
            for entry in self._entries
            if entry.violated_at is not None
        }
        if self._past is not None:
            found.update(self._past.violations())
        return {
            name: found[name] for name in self._constraints if name in found
        }

    def stats(self) -> dict[str, MonitorStats]:
        """Per-constraint work counters, one :class:`MonitorStats` shape
        for both sides."""
        merged = {entry.name: entry.stats for entry in self._entries}
        if self._past is not None:
            merged.update(self._past.stats())
        return {name: merged[name] for name in self._constraints}

    def cache_info(self) -> dict[str, int]:
        """Sizes and resets of everything the monitor holds (bounds in
        DESIGN.md §10.1):

        * the satisfiability memo (emptied at ``_SAT_CACHE_SIZE``
          entries), which is also the per-template verdict memo of
          letter-disjoint constraints, and the Büchi kernel (dropped past
          its ``max_states``);
        * ``table_tuples``, the tuples the tables store: every real or
          witness tuple whose state is not ``true``;
        * ``rename_memo``, the (state, tuple) renamings the tables keep
          for their materialized remainders (each emptied once it holds
          more than four times its tuples and ``RENAMED_MIN``);
        * the progression kernel's ``kernel_obligations``,
          ``kernel_letters``, ``kernel_transitions`` and
          ``kernel_evictions`` (:meth:`progression_kernel_info`): rows are
          bounded and evicted, ids and letter bits are not.
        """
        kernel = self._progkernel.info()
        return {
            "sat_cache_entries": len(self._sat_cache),
            "sat_cache_resets": self._sat_cache_resets,
            "buchi_states": self._buchi.stats()["states"],
            "buchi_resets": self._buchi.resets,
            "table_tuples": sum(entry.table.size() for entry in self._entries),
            "rename_memo": sum(
                len(entry.table.renamed) for entry in self._entries
            ),
            "kernel_obligations": kernel.obligations,
            "kernel_letters": kernel.letters,
            "kernel_transitions": kernel.transitions,
            "kernel_evictions": kernel.evictions,
        }

    def progression_kernel_info(self) -> ProgKernelInfo:
        """Counters of this monitor's shared progression kernel: table
        sizes, row hits/misses split per rewrite rule, and the
        ``reference_delegations`` count the benchmark asserts is zero."""
        return self._progkernel.info()

    def reset(self) -> None:
        """Zero every per-constraint work counter.

        Monitoring state (history, remainders, violations) is untouched:
        this exists so benchmark shapes measuring successive phases on one
        monitor cannot leak counters across runs.
        """
        for entry in self._entries:
            entry.stats.reset()
        if self._past is not None:
            self._past.reset()

    def remainders(self) -> dict[str, PTLFormula]:
        """The current progressed remainder of each progressed constraint,
        built from its table.  Past-closed constraints keep no remainder —
        that is the point of the history-less regime — so they do not
        appear here."""
        return {
            entry.name: self._progkernel.formula(entry.table.remainder())
            for entry in self._entries
        }

    # -- snapshot / restore --------------------------------------------------

    def snapshot_config(self) -> dict[str, object]:
        """The constructor settings a restore must be performed with."""
        return {"assume_safety": self._assume_safety}

    def snapshot_entries(self) -> list[EntrySnapshot]:
        """Export every progressed constraint's resume state (see
        :class:`EntrySnapshot`).

        The monitor itself is left untouched — taking a snapshot is
        observationally free.  The rows are copied as kernel ids, and a
        node is built only when :attr:`EntrySnapshot.remainder` is read.
        A live entry leaves out each witness tuple that is its pattern's
        own and whose state a restore recomputes (:meth:`from_snapshot`);
        a violated entry, which never steps again, keeps no witnesses.
        After a half-applied update (:meth:`append_state`) this raises
        :class:`~repro.errors.StateError`.
        """
        self._require_settled()
        out: list[EntrySnapshot] = []
        for entry in self._entries:
            table = entry.table
            witnesses: tuple[TableRow, ...] = ()
            if entry.violated_at is None:
                # A pattern's own witness is recomputed at restore unless
                # letters over constants alone have steered it.
                witnesses = _rows(
                    {
                        state: [
                            t
                            for t in tuples
                            if table.const_letters or t not in table.templates
                        ]
                        for state, tuples in table.witnesses.items()
                    }
                )
            out.append(
                EntrySnapshot(
                    name=entry.name,
                    constraint=entry.constraint,
                    relevant=table.relevant,
                    constants=table.constants,
                    kernel=self._progkernel,
                    states=_rows(table.states),
                    witnesses=witnesses,
                    violated_at=entry.violated_at,
                    stats=MonitorStats.from_dict(entry.stats.as_dict()),
                )
            )
        return out

    @classmethod
    def from_snapshot(
        cls,
        history: History,
        order: Sequence[str],
        past: Mapping[str, Formula],
        entries: Sequence[EntrySnapshot],
        *,
        assume_safety: bool = False,
    ) -> "IntegrityMonitor":
        """Rebuild a monitor from snapshot state, resuming mid-history.

        The table *is* the evaluation (DESIGN.md §12), so no history
        prefix is re-progressed and no satisfiability call is made here.
        The monitor adopts the entries' kernel as its own, so their rows
        are its ids as they stand, and each entry's templates are compiled
        again into it (hash consing makes the restored states, and so the
        remainders, pointer-identical to what an uninterrupted run would
        hold, which the resume-equivalence property test asserts with
        ``is``).  Witness tuples left out of the snapshot are the
        patterns' own, recomputed from the template and ``history.now``.
        Violated entries come back frozen at their recorded instant.  The
        past-closed constraints in ``past`` are rebuilt by replaying
        ``history`` through the history-less tables: table updates only,
        no grounding and no satisfiability call.

        ``order`` must list every constraint of ``past`` and ``entries``
        exactly once, and the split must be the one
        :func:`~repro.analysis.hierarchy.is_past_closed` gives.  Every
        constraint must be one the constructor accepts over ``history``,
        relations, arities and constants included, and every row must
        hold tuples of the constraint's arity over its absorbed elements.
        If not, this raises :class:`~repro.errors.StateError` naming the
        constraint.

        Pure caches are rebuilt empty: the satisfiability memo and the
        kernels' tables refill on demand, so only cache-hit counters —
        never verdicts, violations or remainders — can differ from the
        uninterrupted run.
        """
        _require_names(
            "monitor snapshot order",
            list(order),
            [*past, *(snap.name for snap in entries)],
        )
        for name, formula in past.items():
            if not is_past_closed(formula):
                raise StateError(
                    f"monitor snapshot lists {name!r} as past-closed, but "
                    "it is not of the forall* G (past) form"
                )
        for snap in entries:
            if is_past_closed(snap.constraint):
                raise StateError(
                    f"monitor snapshot progresses {snap.name!r}, but it is "
                    "past-closed and must be listed as such"
                )
        by_name = {
            **past,
            **{snap.name: snap.constraint for snap in entries},
        }
        monitor = cls.__new__(cls)
        try:
            monitor._setup(
                history,
                {name: by_name[name] for name in order},
                past,
                assume_safety=assume_safety,
                kernel=entries[0].kernel if entries else None,
            )
        except (SchemaError, EvaluationError) as exc:
            raise StateError(
                f"monitor snapshot past constraint cannot be evaluated: {exc}"
            ) from None
        for snap in entries:
            try:
                info = validate_constraint(
                    snap.constraint, assume_safety=assume_safety, lint="off"
                )
                check_vocabulary(history, info)
            except (ClassificationError, SchemaError) as exc:
                raise StateError(
                    f"monitor snapshot constraint {snap.name!r} cannot be "
                    f"monitored: {exc}"
                ) from None
            entry = monitor._entry(snap.name, snap.constraint, info)
            entry.violated_at = snap.violated_at
            entry.stats = MonitorStats.from_dict(snap.stats.as_dict())
            monitor._load(entry, snap, history.now)
            monitor._entries.append(entry)
        return monitor

    def _load(
        self, entry: _ConstraintEntry, snap: EntrySnapshot, now: int
    ) -> None:
        """Fill a restored entry's table from its snapshot rows."""
        table = entry.table
        kernel = self._progkernel
        table.relevant = snap.relevant | table.constants
        for rows, witness in ((snap.states, False), (snap.witnesses, True)):
            for oid, tuples in rows:
                state = (
                    oid
                    if snap.kernel is kernel
                    else kernel.intern(snap.kernel.formula(oid))
                )
                for values in tuples:
                    _check_tuple(entry, values, witness)
                    table.put(values, state)
        if entry.violated_at is not None or table.const_letters:
            return
        # A pattern's own witness has seen all-false valuations at every
        # instant so far: its template stepped now + 1 times on the empty
        # mask, which runs into a cycle of states.
        for pattern, template in table.templates.items():
            if not is_witness(pattern) or pattern in table.where:
                continue
            state = template.root
            seen: dict[int, int] = {}
            steps = now + 1
            while steps:
                if state in seen:
                    steps %= len(seen) - seen[state]
                    seen.clear()
                    continue
                seen[state] = len(seen)
                state = kernel.progress_id(state, 0)
                steps -= 1
            table.put(pattern, state)

    def is_satisfied(self, name: str) -> bool:
        if name not in self._constraints:
            raise KeyError(name)
        return name not in self.violations()

    def apply(self, update: Update) -> UpdateReport:
        """Apply an update and re-check every constraint."""
        return self.append_state(update.apply(self._history.current))

    def append_state(self, state: DatabaseState) -> UpdateReport:
        """Append a full next state (alternative to delta updates).

        A state the vocabulary refuses leaves the monitor as it was.  An
        exception raised once the state has moved the history leaves the
        entries part-stepped: from then on every update and
        :meth:`snapshot_entries` raise :class:`~repro.errors.StateError`.
        """
        self._require_settled()
        self._history = self._history.extended(state)
        self._unsettled = self._history.now
        report = self._recheck()
        self._unsettled = None
        return report

    # -- internals -----------------------------------------------------------

    def _require_settled(self) -> None:
        if self._unsettled is not None:
            raise StateError(
                f"the update to instant {self._unsettled} failed after it "
                "moved the history; a half-applied monitor takes no update "
                "and no snapshot"
            )

    def _recheck(self) -> UpdateReport:
        instant = self._history.now
        state = self._history.current
        satisfied: dict[str, bool] = {}
        violated: set[str] = set()
        for entry in self._entries:
            if entry.violated_at is None:
                self._advance(entry, state)
                if not self._decide(entry, instant):
                    violated.add(entry.name)
            satisfied[entry.name] = entry.violated_at is None
        if self._past is not None:
            report = self._past.append_state(state)
            satisfied.update(report.satisfied)
            violated.update(report.new_violations)
        return UpdateReport(
            instant=instant,
            satisfied={name: satisfied[name] for name in self._constraints},
            new_violations=tuple(
                name for name in self._constraints if name in violated
            ),
        )

    def _advance(self, entry: _ConstraintEntry, state: DatabaseState) -> None:
        """Incorporate the newest state into the entry's table (absorb,
        then step: :meth:`~repro.core.lifted.LiftedTable.advance`), timed
        and hit-counted."""
        kernel = self._progkernel
        stats = entry.stats
        start = time.perf_counter()
        hits_before = kernel.hits
        stats.absorbed += entry.table.advance(state.relations, entry.predicates)
        stats.progress_time += time.perf_counter() - start
        stats.kernel_row_hits += kernel.hits - hits_before
        stats.progressions += 1

    def _decide(self, entry: _ConstraintEntry, instant: int) -> bool:
        """The Lemma 4.2 decision on the entry's distinct template states:
        a ``false`` state fails; a letter-disjoint constraint holds when
        each state is satisfiable on its own (§8's model merge); any other
        holds when every state holds on the all-false model, and else its
        materialized remainder is decided."""
        kernel = self._progkernel
        states = entry.table.states
        if kernel.false_id in states:
            ok = False
        elif entry.disjoint:
            # The memo is read inline: this runs on every update of every
            # letter-disjoint constraint.
            cache = self._sat_cache
            stats = entry.stats
            ok = True
            for state in states:
                verdict = cache.get(state)
                if verdict is None:
                    verdict = self._satisfiable(entry, state)
                else:
                    stats.sat_cache_hits += 1
                if not verdict:
                    ok = False
                    break
        elif all(kernel.holds_quiescent(state) for state in states):
            ok = True
        else:
            # Each state may be satisfiable while instances sharing a
            # letter contradict each other, so only the conjunction tells.
            ok = self._satisfiable(entry, entry.table.remainder())
        if not ok:
            entry.violated_at = instant
        return ok

    def _satisfiable(self, entry: _ConstraintEntry, oid: int) -> bool:
        """Is ``oid`` satisfiable: the memo, else the all-false model,
        else a Büchi search, counted as one call and memoized."""
        cached = self._sat_cache.get(oid)
        stats = entry.stats
        if cached is not None:
            stats.sat_cache_hits += 1
            return cached
        stats.sat_calls += 1
        start = time.perf_counter()
        kernel = self._progkernel
        verdict = kernel.holds_quiescent(oid) or self._buchi.is_satisfiable(
            kernel.formula(oid)
        )
        stats.sat_time += time.perf_counter() - start
        if len(self._sat_cache) >= _SAT_CACHE_SIZE:
            self._sat_cache.clear()
            self._sat_cache_resets += 1
        self._sat_cache[oid] = verdict
        return verdict


def _rows(table: Mapping[int, Iterable[Tuple]]) -> tuple[TableRow, ...]:
    """A frozen copy of a table's rows, empty ones left out."""
    rows = []
    for state, tuples in table.items():
        frozen = tuple(tuples)
        if frozen:
            rows.append((state, frozen))
    return tuple(rows)


def _check_tuple(entry: _ConstraintEntry, values: Tuple, witness: bool) -> None:
    """Raise :class:`~repro.errors.StateError` unless a restored tuple is
    one the entry's table could hold, and not one it holds already."""
    table = entry.table
    ok = (
        isinstance(values, tuple)
        and values not in table.where
        and len(values) == table.arity
        and all(type(value) in (int, Anon, Placeholder) for value in values)
        and is_canonical(values)
        and is_witness(values) == witness
        and table.pattern(values) in table.templates
        and all(
            type(value) is not int or value in table.relevant
            for value in values
        )
    )
    if not ok:
        raise StateError(
            f"monitor snapshot entry {entry.name!r} holds a tuple its "
            f"table cannot: {values!r:.60}"
        )


def _require_names(
    what: str, names: Sequence[str], expected: Iterable[str]
) -> None:
    """Raise :class:`~repro.errors.StateError` unless ``names`` and
    ``expected`` list the same constraints, each exactly once."""
    listed = list(expected)
    missing = sorted(set(listed).difference(names))
    extra = sorted({str(name) for name in names if name not in listed})
    repeated = sorted(
        {
            str(name)
            for sequence in (names, listed)
            for name in sequence
            if sequence.count(name) > 1
        }
    )
    if missing or extra or repeated:
        raise StateError(
            f"{what} must list every constraint exactly once: missing "
            f"{missing}, extra {extra}, repeated {repeated}"
        )
