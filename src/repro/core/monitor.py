"""Online temporal integrity monitoring.

The paper's usage model: after every update, check whether each constraint
is still potentially satisfied.  Doing that naively re-runs the whole
Theorem 4.1 reduction and Lemma 4.2 decision on the full history after each
update — ``O(t)`` progression work per update, ``O(t^2)`` over a run.  The
:class:`IntegrityMonitor` keeps the *progressed remainder* of each
constraint as its only history-dependent state, so an update costs one
progression step plus one satisfiability check, independent of ``t``.

Constraints of the ``forall* G (past)`` shape (Proposition 2.1) need none
of this.  The monitor holds each of them as an entry with its own
:class:`~repro.pasteval.incremental.IncrementalPastEvaluator`, which
evaluates the past body at each new instant at history-less cost with no
satisfiability engine, and progresses the rest.  The split is the
syntactic test :func:`repro.analysis.hierarchy.is_past_closed`; the
entries of both kinds sit in one list in registration order, and one pass
per update steps them all.

Neither kind reads the history, so the monitor keeps none: only the
vocabulary, the constant bindings, the state at :attr:`IntegrityMonitor
.now` and the entries.  Its checkpoint is the entries' tables
(:meth:`IntegrityMonitor.snapshot_entries`), and a restore decodes them
without replaying anything (Lemma 4.2; DESIGN.md §12).

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
from typing import Iterable, Mapping, Sequence

from ..analysis.hierarchy import is_past_closed, past_body
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
from ..pasteval.incremental import IncrementalPastEvaluator, Table
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
    constraints: the states the entry's incremental past evaluator has
    consumed (it stops, as a progressed entry does, at the violation) and
    its current table footprint (rows, not bytes), with ``progress_time``
    carrying the evaluation seconds; so a mixed set reports one stats
    shape for both kinds.

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


@dataclass
class _PastEntry:
    name: str
    constraint: Formula
    # The past body's evaluator, which keeps the previous instant's tables.
    evaluator: IncrementalPastEvaluator
    violated_at: int | None = None
    stats: MonitorStats = field(default_factory=MonitorStats)


#: A monitored constraint: progressed, or past-closed.
_Entry = _ConstraintEntry | _PastEntry

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
class PastSnapshot:
    """The complete resume state of one past-closed constraint: its
    evaluator's seen-set and the previous-instant tables of its memory
    slots (:meth:`~repro.pasteval.incremental.IncrementalPastEvaluator
    .resume`), by slot number.  A violated entry never steps again, so it
    keeps neither."""

    name: str
    constraint: Formula
    seen: frozenset[int]
    tables: Mapping[int, Table]
    violated_at: int | None
    stats: MonitorStats


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
    :func:`repro.analysis.hierarchy.is_past_closed`.  Each past-closed one
    (``forall* G A`` with ``A`` past-only) becomes an entry holding an
    :class:`~repro.pasteval.incremental.IncrementalPastEvaluator` for
    ``forall* A``, checked at history-less cost with no satisfiability
    engine; a past body that names an undeclared relation or an unbound
    constant is refused here (:class:`~repro.errors.SchemaError`,
    :class:`~repro.errors.EvaluationError`).  Such an entry is violated at
    the first instant where ``A`` fails.  Every other constraint is
    progressed.  :attr:`plan` labels the split for ``repro-tic plan``
    (:mod:`repro.core.plan`).

    Progressed constraints go through the :mod:`repro.lint` pre-flight
    gate at construction time: ``lint="warn"`` (default) surfaces warning
    diagnostics via :mod:`warnings`, ``lint="strict"`` refuses any
    constraint with error diagnostics (:class:`repro.errors.LintError`
    listing all of them), ``lint="off"`` skips the gate.  Past-closed
    constraints are validated by shape instead
    (:func:`repro.analysis.hierarchy.past_body`): the TIC004 reduction lint
    does not apply to an engine that never grounds.

    The monitor keeps no history: the initial one goes through the update
    path at construction, and then only the state at :attr:`now`
    (:attr:`current`) is kept.  Each update steps every live entry once,
    in registration order: a past-closed entry evaluates its body, and a
    progressed entry takes the Lemma 4.2 step (progress its table, then
    decide it).  A violated entry of either kind is frozen.  Template grounding,
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
        self._setup(initial, -1, assume_safety=assume_safety)
        for name, formula in constraints.items():
            if is_past_closed(formula):
                self._entries.append(self._past_entry(name, formula))
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
        for state in initial.states:
            self._recheck(state)

    def _setup(
        self,
        current: History,
        now: int,
        *,
        assume_safety: bool,
        kernel: ProgressionKernel | None = None,
    ) -> None:
        """The settings and empty caches (or the given progression
        kernel) shared by construction and restore, over ``current``'s
        vocabulary, constant bindings and last state; the entries are
        added by the caller."""
        self._assume_safety = assume_safety
        self._vocabulary = current.vocabulary
        self._bindings = dict(current.constant_bindings)
        self._current = current.current
        self._now = now
        # The instant of an update whose recheck has not returned: set
        # while the entries step, and left set if one raises.
        self._unsettled: int | None = None
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
        # Every constraint, in registration order.
        self._entries: list[_Entry] = []

    def _entry(
        self, name: str, constraint: Formula, info: FormulaInfo
    ) -> _ConstraintEntry:
        """A progressed entry with its templates compiled and its table
        still empty."""
        table, predicates, disjoint = constraint_table(
            self._progkernel, info, self._bindings
        )
        return _ConstraintEntry(
            name=name,
            constraint=constraint,
            info=info,
            table=table,
            disjoint=disjoint,
            predicates=predicates,
        )

    def _past_entry(self, name: str, constraint: Formula) -> _PastEntry:
        """A past-closed entry whose evaluator has consumed no state."""
        body = past_body(constraint)
        for symbol in sorted(c.name for c in body.constants()):
            if symbol not in self._bindings:
                raise EvaluationError(
                    f"constant symbol {symbol!r} of constraint {name!r} "
                    "is not bound"
                )
        try:
            evaluator = IncrementalPastEvaluator(body, self._vocabulary)
        except SchemaError as exc:
            raise SchemaError(f"constraint {name!r}: {exc}") from None
        for symbol, value in self._bindings.items():
            evaluator.bind_constant(symbol, value)
        return _PastEntry(name=name, constraint=constraint, evaluator=evaluator)

    # -- public surface ------------------------------------------------------

    @property
    def current(self) -> DatabaseState:
        """The state at :attr:`now`, which :meth:`apply` applies its
        update to."""
        return self._current

    @property
    def now(self) -> int:
        return self._now

    @property
    def constraints(self) -> dict[str, Formula]:
        """Every monitored constraint, in registration order."""
        return {entry.name: entry.constraint for entry in self._entries}

    @property
    def plan(self) -> MonitorPlan:
        """The dispatch plan this monitor executes, built on first read
        (the skeleton walk of every constraint is not needed to route)."""
        if self._plan is None:
            self._plan = plan_constraints(self.constraints)
        return self._plan

    def violations(self) -> dict[str, int]:
        """Violated constraints and the instant each was first violated,
        in registration order."""
        return {
            entry.name: entry.violated_at
            for entry in self._entries
            if entry.violated_at is not None
        }

    def stats(self) -> dict[str, MonitorStats]:
        """Per-constraint work counters, one :class:`MonitorStats` shape
        for both kinds."""
        return {entry.name: entry.stats for entry in self._entries}

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
        tables = [entry.table for entry in self._progressed()]
        return {
            "sat_cache_entries": len(self._sat_cache),
            "sat_cache_resets": self._sat_cache_resets,
            "buchi_states": self._buchi.stats()["states"],
            "buchi_resets": self._buchi.resets,
            "table_tuples": sum(table.size() for table in tables),
            "rename_memo": sum(len(table.renamed) for table in tables),
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

        Monitoring state (tables, remainders, violations) is untouched:
        this exists so benchmark shapes measuring successive phases on one
        monitor cannot leak counters across runs.
        """
        for entry in self._entries:
            entry.stats.reset()

    def remainders(self) -> dict[str, PTLFormula]:
        """The current progressed remainder of each progressed constraint,
        built from its table.  Past-closed constraints keep no remainder —
        that is the point of the history-less regime — so they do not
        appear here."""
        return {
            entry.name: self._progkernel.formula(entry.table.remainder())
            for entry in self._progressed()
        }

    # -- snapshot / restore --------------------------------------------------

    def snapshot_config(self) -> dict[str, object]:
        """The constructor settings a restore must be performed with."""
        return {"assume_safety": self._assume_safety}

    def snapshot_current(self) -> History:
        """The state at :attr:`now` as a one-state history, with the
        vocabulary and constant bindings a restore is performed over."""
        return History(
            vocabulary=self._vocabulary,
            states=(self._current,),
            constant_bindings=self._bindings,
        )

    def snapshot_entries(self) -> list[EntrySnapshot | PastSnapshot]:
        """Export every constraint's resume state, in registration order
        (see :class:`EntrySnapshot` and :class:`PastSnapshot`).

        The monitor itself is left untouched — taking a snapshot is
        observationally free.  The rows are copied as kernel ids, and a
        node is built only when :attr:`EntrySnapshot.remainder` is read.
        A live entry leaves out each witness tuple that is its pattern's
        own and whose state a restore recomputes (:meth:`from_snapshot`);
        a violated entry, which never steps again, keeps no witnesses and,
        if past-closed, no tables.
        After a half-applied update (:meth:`append_state`) this raises
        :class:`~repro.errors.StateError`.
        """
        self._require_settled()
        out: list[EntrySnapshot | PastSnapshot] = []
        for entry in self._entries:
            if isinstance(entry, _PastEntry):
                live = entry.violated_at is None
                out.append(
                    PastSnapshot(
                        name=entry.name,
                        constraint=entry.constraint,
                        seen=entry.evaluator.seen if live else frozenset(),
                        tables=entry.evaluator.memory() if live else {},
                        violated_at=entry.violated_at,
                        stats=MonitorStats.from_dict(entry.stats.as_dict()),
                    )
                )
                continue
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
        current: History,
        now: int,
        entries: Sequence[EntrySnapshot | PastSnapshot],
        *,
        assume_safety: bool = False,
    ) -> "IntegrityMonitor":
        """Rebuild a monitor from snapshot state, resuming at instant
        ``now``, whose state is ``current``'s one state; ``entries`` lists
        every constraint once, in registration order.

        The tables *are* the evaluation (DESIGN.md §12), so nothing is
        replayed and no satisfiability call is made here.  The monitor
        adopts the progressed entries' kernel as its own, so their rows
        are its ids as they stand, and each entry's templates are compiled
        again into it (hash consing makes the restored states, and so the
        remainders, pointer-identical to what an uninterrupted run would
        hold, which the resume-equivalence property test asserts with
        ``is``).  Witness tuples left out of the snapshot are the
        patterns' own, recomputed from the template and ``now``.  A
        past-closed entry's evaluator resumes from its seen-set and memory
        tables.  Violated entries come back frozen at their recorded
        instant.

        Every constraint must be one the constructor accepts over
        ``current``, every progressed row must hold tuples of the
        constraint's arity over its absorbed elements, and every past
        table must be one its evaluator could hold
        (:meth:`~repro.pasteval.incremental.IncrementalPastEvaluator.resume`).
        If not, or if a name is listed twice, this raises
        :class:`~repro.errors.StateError` naming the constraint.

        Pure caches are rebuilt empty: the satisfiability memo and the
        kernels' tables refill on demand, so only cache-hit counters —
        never verdicts, violations or remainders — can differ from the
        uninterrupted run.
        """
        names = [snap.name for snap in entries]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise StateError(
                f"monitor snapshot lists the constraints {repeated} twice"
            )
        kernels = [s.kernel for s in entries if isinstance(s, EntrySnapshot)]
        monitor = cls.__new__(cls)
        monitor._setup(
            current,
            now,
            assume_safety=assume_safety,
            kernel=next(iter(kernels), None),
        )
        for snap in entries:
            try:
                entry = monitor._restored(snap, current)
            except (ClassificationError, EvaluationError, SchemaError) as exc:
                raise StateError(
                    f"monitor snapshot constraint {snap.name!r} cannot be "
                    f"monitored: {exc}"
                ) from None
            entry.violated_at = snap.violated_at
            entry.stats = MonitorStats.from_dict(snap.stats.as_dict())
            monitor._entries.append(entry)
        return monitor

    def _restored(
        self, snap: EntrySnapshot | PastSnapshot, current: History
    ) -> _Entry:
        """The entry ``snap`` describes, its table or evaluator filled."""
        if isinstance(snap, PastSnapshot):
            past = self._past_entry(snap.name, snap.constraint)
            if snap.violated_at is None:
                try:
                    past.evaluator.resume(snap.seen, snap.tables)
                except StateError as exc:
                    raise StateError(
                        f"monitor snapshot entry {snap.name!r}: {exc}"
                    ) from None
            return past
        info = validate_constraint(
            snap.constraint, assume_safety=self._assume_safety, lint="off"
        )
        check_vocabulary(current, info)
        entry = self._entry(snap.name, snap.constraint, info)
        self._load(entry, snap)
        return entry

    def _load(self, entry: _ConstraintEntry, snap: EntrySnapshot) -> None:
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
        if snap.violated_at is not None or table.const_letters:
            return
        # A pattern's own witness has seen all-false valuations at every
        # instant so far: its template stepped now + 1 times on the empty
        # mask, which runs into a cycle of states.
        for pattern, template in table.templates.items():
            if not is_witness(pattern) or pattern in table.where:
                continue
            state = template.root
            seen: dict[int, int] = {}
            steps = self._now + 1
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
        for entry in self._entries:
            if entry.name == name:
                return entry.violated_at is None
        raise KeyError(name)

    def apply(self, update: Update) -> UpdateReport:
        """Apply an update to :attr:`current` and re-check every
        constraint."""
        return self.append_state(update.apply(self._current))

    def append_state(self, state: DatabaseState) -> UpdateReport:
        """Append a full next state (alternative to delta updates).

        A state over another vocabulary is refused with
        :class:`~repro.errors.SchemaError` and leaves the monitor as it
        was.  An exception raised once the state has moved :attr:`now`
        leaves the entries part-stepped: from then on every update and
        :meth:`snapshot_entries` raise :class:`~repro.errors.StateError`.
        """
        self._require_settled()
        if state.vocabulary is not self._vocabulary and (
            state.vocabulary != self._vocabulary
        ):
            raise SchemaError(
                "every state must be over the monitor's vocabulary"
            )
        self._unsettled = self._now + 1
        report = self._recheck(state)
        self._unsettled = None
        return report

    # -- internals -----------------------------------------------------------

    def _require_settled(self) -> None:
        if self._unsettled is not None:
            raise StateError(
                f"the update to instant {self._unsettled} failed after it "
                "moved the monitor; a half-applied monitor takes no update "
                "and no snapshot"
            )

    def _progressed(self) -> list[_ConstraintEntry]:
        return [e for e in self._entries if isinstance(e, _ConstraintEntry)]

    def _recheck(self, state: DatabaseState) -> UpdateReport:
        """Make ``state`` the next instant's and step every live entry
        there, in registration order."""
        self._current = state
        self._now += 1
        instant = self._now
        satisfied: dict[str, bool] = {}
        violated: list[str] = []
        for entry in self._entries:
            if entry.violated_at is None:
                if isinstance(entry, _PastEntry):
                    ok = self._evaluate(entry, state)
                else:
                    self._advance(entry, state)
                    ok = self._decide(entry)
                if not ok:
                    entry.violated_at = instant
                    violated.append(entry.name)
            satisfied[entry.name] = entry.violated_at is None
        return UpdateReport(
            instant=instant,
            satisfied=satisfied,
            new_violations=tuple(violated),
        )

    def _evaluate(self, entry: _PastEntry, state: DatabaseState) -> bool:
        """Does the entry's past body hold at the newest state?  Timed
        and counted."""
        stats = entry.stats
        start = time.perf_counter()
        holds = entry.evaluator.advance(state)
        stats.progress_time += time.perf_counter() - start
        stats.past_updates += 1
        stats.past_memory = entry.evaluator.memory_size
        return holds

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

    def _decide(self, entry: _ConstraintEntry) -> bool:
        """The Lemma 4.2 decision on the entry's distinct template states:
        a ``false`` state fails; a letter-disjoint constraint holds when
        each state is satisfiable on its own (§8's model merge); any other
        holds when every state holds on the all-false model, and else its
        materialized remainder is decided."""
        kernel = self._progkernel
        states = entry.table.states
        if kernel.false_id in states:
            return False
        if entry.disjoint:
            # The memo is read inline: this runs on every update of every
            # letter-disjoint constraint.
            cache = self._sat_cache
            stats = entry.stats
            for state in states:
                verdict = cache.get(state)
                if verdict is None:
                    verdict = self._satisfiable(entry, state)
                else:
                    stats.sat_cache_hits += 1
                if not verdict:
                    return False
            return True
        if all(kernel.holds_quiescent(state) for state in states):
            return True
        # Each state may be satisfiable while instances sharing a letter
        # contradict each other, so only the conjunction tells.
        return self._satisfiable(entry, entry.table.remainder())

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
