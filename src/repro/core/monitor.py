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

Under the folded grounding the letters of a state are just its facts, the
same for every constraint, so each update builds them, and their mask over
the progression kernel's letter bits, once; every constraint progresses
through the same mask.

The monitor works in the kernel's id space throughout
(:mod:`repro.ptl.progkernel`): each remainder is an integer id, ground
instances are built as ids by a per-constraint
:class:`~repro.core.grounding.IdGrounder`, progression and the all-false
model check run on ids, and the satisfiability memo is keyed by id.  A
formula node is built only when something outside the update path asks for
one: a Büchi call, :meth:`IntegrityMonitor.remainders` or
:meth:`IntegrityMonitor.snapshot_entries` (DESIGN.md §10.1).

The catch is the relevant domain: the reduction is grounded over
``R_D ∪ {z1..zk}``, so when an update touches an element the grounding has
never seen, the ground formula is missing instances and must be rebuilt.
A rebuild (*reground*) reads no history: it keeps every ground instance as
a chain id progressed to the last reground's instant, advances those
chains over a per-monitor log of state masks, and grounds and chains from
instant 0 only the instances the new element adds.  It is the one way a
fresh element is absorbed, so a grounding's concrete elements are always
the constraint's relevant set over the history, the domain
:func:`~repro.core.checker.check_extension` grounds, and every remainder
is the oracle's own interned node.

The naive baseline that rebuilds and re-progresses from the full history
on every update is a fresh monitor per prefix (ablation A1 measures it).

Violations of safety constraints are irrecoverable (once the remainder is
unsatisfiable it stays unsatisfiable), so a violated constraint is frozen
and reported, not re-checked.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from itertools import product as cartesian
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
from .grounding import GroundContext, GroundElement, IdGrounder
from .plan import MonitorPlan, plan_constraints
from .reduction import (
    check_vocabulary,
    constraint_relevant_elements,
    ground_domain,
    state_to_props,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pasteval.monitor import PastMonitor

#: Bound of the monitor-wide satisfiability memo, in remainders.
_SAT_CACHE_SIZE = 4096


@dataclass
class MonitorStats:
    """Work counters for one monitored constraint.

    ``progressions`` counts top-level progression steps; ``kernel_row_hits``
    counts the satisfied transition-row probes of the monitor's
    :class:`~repro.ptl.progkernel.ProgressionKernel` behind them.
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
    regrounds: int = 0
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
    # The constraint's elements the history has shown, its constants
    # included: the concrete part of the current grounding's domain.
    relevant: frozenset[int] = frozenset()
    # The progressed remainder, an id of the monitor's kernel; None while
    # a restored entry still holds its decoded formula in ``restored``,
    # which is interned at first use.
    remainder: int | None = None
    restored: PTLFormula | None = None
    violated_at: int | None = None
    stats: MonitorStats = field(default_factory=MonitorStats)
    # The chain table: each of the current grounding's ``|M|^k`` ground
    # instances, by assignment in ``cartesian(domain)`` order, as its id
    # progressed through the first ``chained`` states.  A pure cache,
    # never snapshotted.
    chains: dict[tuple[GroundElement, ...], int] = field(default_factory=dict)
    chained: int = 0
    # Compiled at the entry's first reground.
    grounder: IdGrounder | None = None
    # The relations the constraint mentions, read once: every update
    # scans the state's tuples of these alone.
    predicates: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        self.predicates = frozenset(
            pred for pred, _arity in self.constraint.predicates()
        )


@dataclass(frozen=True)
class EntrySnapshot:
    """The complete resume state of one progressed constraint.

    The paper's Lemma 4.2 monitoring loop keeps the progressed remainder
    as the *only* history-dependent state, so this record — remainder plus
    the grounding's relevant set — is a full checkpoint: restoring
    it (:meth:`IntegrityMonitor.from_snapshot`) and continuing produces
    the same verdicts as never having stopped (property-tested).

    :attr:`remainder` is always an actual (interned) node, so a snapshot
    can be restored in a process whose kernel assigns different ids.
    ``source`` holds either that node or, in a live monitor's snapshot,
    the remainder's id in the monitor's kernel: kernel ids are never
    reassigned, so :attr:`remainder` materializes the same node whenever
    it is read, and a save encodes the id without building the node.
    JSON encoding lives in :mod:`repro.database.serialize`
    (``monitor_to_dict`` / ``monitor_from_dict``).

    The grounding's ``relevant`` set is carried verbatim rather than
    recomputed, so a restore reads no history for it.  Pure caches (the
    monitor-wide satisfiability memo, the kernels' tables, the mask log
    and the chain table a reground resumes) are deliberately absent —
    dropping them cannot change any verdict, only cache-hit counters and
    the first reground's cost.
    """

    name: str
    constraint: Formula
    source: PTLFormula | tuple[ProgressionKernel, int]
    relevant: frozenset[int]
    violated_at: int | None
    stats: MonitorStats

    @property
    def remainder(self) -> PTLFormula:
        """The progressed remainder, as its interned node."""
        source = self.source
        if isinstance(source, PTLFormula):
            return source
        kernel, oid = source
        return kernel.formula(oid)


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
    constraint: progress the remainder, then decide it.  Grounding,
    progression and the all-false model check run on the ids of one
    table-driven :class:`repro.ptl.progkernel.ProgressionKernel`, and
    Büchi decisions on one bitset :class:`repro.ptl.bitset.BuchiKernel`,
    both shared by every constraint, so ground instances with overlapping
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
            self._entries.append(
                _ConstraintEntry(
                    name=name,
                    constraint=formula,
                    info=info,
                )
            )
        for entry in self._entries:
            self._reground(
                entry, constraint_relevant_elements(initial, entry.info)
            )
            self._decide(entry, instant=self._history.now)

    def _setup(
        self,
        history: History,
        constraints: Mapping[str, Formula],
        past: Mapping[str, Formula],
        *,
        assume_safety: bool,
    ) -> None:
        """The settings, empty caches and past side shared by construction
        and restore; progressed entries are added by the caller."""
        self._assume_safety = assume_safety
        self._history = history
        # Registration order, which every merged report follows.
        self._constraints = dict(constraints)
        self._plan: MonitorPlan | None = None
        # Monitor-wide satisfiability memo, shared across constraints and
        # keyed by the remainder's kernel id: the same ground obligation
        # shows up under several constraints (and across regrounds), and
        # ids are canonical, so the lookup is exact and O(1).  The memo is
        # emptied once it holds _SAT_CACHE_SIZE remainders.
        self._sat_cache: dict[int, bool] = {}
        self._sat_cache_resets = 0
        self._buchi = BuchiKernel()
        self._progkernel = ProgressionKernel()
        # One kernel state mask per instant, what regrounds replay: None
        # until the first reground needs it (built from the history then),
        # appended at every update after.
        self._masks: list[int] | None = None
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
        """Sizes and resets of everything the monitor holds besides its
        remainders (bounds in DESIGN.md §10.1):

        * the satisfiability memo (emptied at ``_SAT_CACHE_SIZE``
          entries) and the Büchi kernel (dropped past its ``max_states``);
        * ``ground_instances``, the chain tables: each progressed entry
          holds exactly its current grounding's ``|M|^k`` ids;
        * the progression kernel's ``kernel_obligations``,
          ``kernel_letters``, ``kernel_transitions`` and
          ``kernel_evictions`` (:meth:`progression_kernel_info`): rows are
          bounded and evicted, ids and letter bits are not;
        * ``mask_log``, one state mask per instant since the first
          reground (or restore), and ``grounder_memo``, the ids the
          per-constraint grounders keep for subformulas over fewer
          variables than their parent's.
        """
        kernel = self._progkernel.info()
        return {
            "sat_cache_entries": len(self._sat_cache),
            "sat_cache_resets": self._sat_cache_resets,
            "buchi_states": self._buchi.stats()["states"],
            "buchi_resets": self._buchi.resets,
            "ground_instances": sum(
                len(entry.chains) for entry in self._entries
            ),
            "kernel_obligations": kernel.obligations,
            "kernel_letters": kernel.letters,
            "kernel_transitions": kernel.transitions,
            "kernel_evictions": kernel.evictions,
            "mask_log": len(self._masks or ()),
            "grounder_memo": sum(
                entry.grounder.memo_size()
                for entry in self._entries
                if entry.grounder is not None
            ),
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
        """The current progressed remainder of each progressed constraint.
        Past-closed constraints keep no remainder — that is the point of
        the history-less regime — so they do not appear here."""
        return {
            entry.name: self._remainder_formula(entry)
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
        observationally free.  A live remainder is handed out as its
        kernel id and built as a node only when
        :attr:`EntrySnapshot.remainder` is read.
        """
        out: list[EntrySnapshot] = []
        for entry in self._entries:
            source: PTLFormula | tuple[ProgressionKernel, int]
            if entry.remainder is None:
                assert entry.restored is not None
                source = entry.restored
            else:
                source = (self._progkernel, entry.remainder)
            out.append(
                EntrySnapshot(
                    name=entry.name,
                    constraint=entry.constraint,
                    source=source,
                    relevant=entry.relevant,
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

        This is the restart path the paper's incremental evaluation makes
        O(1): the remainder set *is* the evaluation (DESIGN.md §12), so
        no constraint is regrounded, no history prefix is re-progressed
        and no satisfiability call is made here — unlike ``__init__``,
        which ends with a reground-and-decide sweep.  Violated entries
        come back frozen at their recorded instant; live entries carry
        exactly the remainder the interrupted run held, re-interned (hash
        consing makes the restored nodes pointer-identical to what an
        uninterrupted run would hold, which the resume-equivalence
        property test asserts with ``is``).  The past-closed constraints
        in ``past`` are rebuilt by replaying ``history`` through the
        history-less tables: table updates only, no grounding and no
        satisfiability call.

        ``order`` must list every constraint of ``past`` and ``entries``
        exactly once, and the split must be the one
        :func:`~repro.analysis.hierarchy.is_past_closed` gives.  Every
        constraint must be one the constructor accepts over ``history``,
        relations, arities and constants included, which a later reground
        would otherwise find half-way through an update.  If not, this
        raises :class:`~repro.errors.StateError` naming the constraint.

        Pure caches are rebuilt empty: the satisfiability memo and the
        kernels' tables refill on demand, so only cache-hit counters —
        never verdicts, violations or remainders — can differ from the
        uninterrupted run.  Each remainder is kept as the decoded node and
        interned into the new kernel at its entry's first update; the
        first reground grounds every instance anew.
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
            monitor._entries.append(
                _ConstraintEntry(
                    name=snap.name,
                    constraint=snap.constraint,
                    info=info,
                    relevant=snap.relevant,
                    restored=snap.remainder,
                    violated_at=snap.violated_at,
                    stats=MonitorStats.from_dict(snap.stats.as_dict()),
                )
            )
        return monitor

    def is_satisfied(self, name: str) -> bool:
        if name not in self._constraints:
            raise KeyError(name)
        return name not in self.violations()

    def apply(self, update: Update) -> UpdateReport:
        """Apply an update and re-check every constraint."""
        self._history = self._history.updated(update)
        return self._recheck()

    def append_state(self, state: DatabaseState) -> UpdateReport:
        """Append a full next state (alternative to delta updates)."""
        self._history = self._history.extended(state)
        return self._recheck()

    # -- internals -----------------------------------------------------------

    def _recheck(self) -> UpdateReport:
        instant = self._history.now
        state = self._history.current
        satisfied: dict[str, bool] = {}
        violated: set[str] = set()
        if self._entries:
            # Folded letters are the state's facts, the same for every
            # entry: built and encoded once.
            mask = self._progkernel.encode_state(state_to_props(state))
            if self._masks is not None:
                self._masks.append(mask)
            for entry in self._entries:
                if entry.violated_at is None:
                    self._advance(entry, state, mask)
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

    def _advance(
        self, entry: _ConstraintEntry, state: DatabaseState, mask: int
    ) -> None:
        """Incorporate the newest state, given with its mask, into the
        entry's remainder: a reground if the state shows an element outside
        the grounding's relevant set (its rebuilt remainder already
        includes the new instant), otherwise one timed, hit-counted
        progression step."""
        visible = self._entry_domain(entry, state)
        if not visible <= entry.relevant:
            self._reground(entry, visible)
            return
        kernel = self._progkernel
        stats = entry.stats
        start = time.perf_counter()
        hits_before = kernel.hits
        entry.remainder = kernel.progress_id(self._remainder_id(entry), mask)
        stats.progress_time += time.perf_counter() - start
        stats.kernel_row_hits += kernel.hits - hits_before
        stats.progressions += 1

    def _entry_domain(
        self, entry: _ConstraintEntry, state: DatabaseState
    ) -> frozenset[int]:
        """Elements of one state visible to this entry's constraint."""
        predicates = entry.predicates
        elements: set[int] = set()
        for pred, tuples in state.relations.items():
            if pred in predicates:
                for args in tuples:
                    elements.update(args)
        return frozenset(elements)

    def _reground(
        self, entry: _ConstraintEntry, visible: frozenset[int]
    ) -> None:
        """Rebuild the entry's grounding over its relevant set (the
        elements it had plus ``visible``, the current state's) and its
        remainder up to the current instant, without reading the history.

        Every instance the last grounding had keeps its chain and is
        advanced from the last reground's instant over the mask log; only
        the instances with a new element are grounded, and chained from
        instant 0.  Progression distributes over ∧, so folding the chains
        with ``pand_ids`` in ``cartesian(domain)`` order gives the
        remainder a from-scratch reduction and replay would (DESIGN.md
        §10.1).  Counts one progression per state, like the step-by-step
        path.
        """
        stats = entry.stats
        stats.regrounds += 1
        entry.relevant |= visible
        kernel = self._progkernel
        grounder = entry.grounder
        if grounder is None:
            info = entry.info
            grounder = entry.grounder = IdGrounder(
                info.matrix,
                info.external_universals,
                GroundContext(self._history.constant_bindings),
                kernel,
            )
        k = len(entry.info.external_universals)
        keys = list(cartesian(ground_domain(entry.relevant, k), repeat=k))
        masks = self._mask_log()
        table = entry.chains
        chains = [table.get(values, -1) for values in keys]
        kept = [i for i, cid in enumerate(chains) if cid >= 0]
        added = [i for i, cid in enumerate(chains) if cid < 0]
        resumed = [chains[i] for i in kept]
        grounded = [grounder.ground(keys[i]) for i in added]
        start = time.perf_counter()
        hits_before = kernel.hits
        live = kernel.progress_replay(
            resumed, masks[entry.chained :]
        ) and kernel.progress_replay(grounded, masks)
        for i, cid in zip(kept, resumed):
            chains[i] = cid
        for i, cid in zip(added, grounded):
            chains[i] = cid
        entry.chains = dict(zip(keys, chains))
        entry.chained = len(masks)
        entry.remainder = kernel.pand_ids(chains) if live else kernel.false_id
        entry.restored = None
        stats.progress_time += time.perf_counter() - start
        stats.kernel_row_hits += kernel.hits - hits_before
        stats.progressions += len(masks)

    def _mask_log(self) -> list[int]:
        """The mask log, built from the history on first use."""
        if self._masks is None:
            encode = self._progkernel.encode_state
            self._masks = [
                encode(state_to_props(state)) for state in self._history.states
            ]
        return self._masks

    def _remainder_id(self, entry: _ConstraintEntry) -> int:
        """The entry's remainder id, interning a restored remainder at its
        first use."""
        if entry.remainder is None:
            assert entry.restored is not None
            entry.remainder = self._progkernel.intern(entry.restored)
            entry.restored = None
        return entry.remainder

    def _remainder_formula(self, entry: _ConstraintEntry) -> PTLFormula:
        """The entry's remainder as its interned node."""
        if entry.remainder is None:
            assert entry.restored is not None
            return entry.restored
        return self._progkernel.formula(entry.remainder)

    def _decide(self, entry: _ConstraintEntry, instant: int) -> bool:
        """The Lemma 4.2 decision on the entry's remainder id: constants by
        id, then the memo, the all-false model and, last, a Büchi search
        on the materialized remainder."""
        kernel = self._progkernel
        remainder = self._remainder_id(entry)
        if remainder == kernel.true_id:
            return True
        if remainder == kernel.false_id:
            entry.violated_at = instant
            return False
        cached = self._sat_cache.get(remainder)
        if cached is not None:
            entry.stats.sat_cache_hits += 1
            ok = cached
        else:
            entry.stats.sat_calls += 1
            start = time.perf_counter()
            ok = kernel.holds_quiescent(remainder) or (
                self._buchi.is_satisfiable(kernel.formula(remainder))
            )
            entry.stats.sat_time += time.perf_counter() - start
            if len(self._sat_cache) >= _SAT_CACHE_SIZE:
                self._sat_cache.clear()
                self._sat_cache_resets += 1
            self._sat_cache[remainder] = ok
        if not ok:
            entry.violated_at = instant
        return ok


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
