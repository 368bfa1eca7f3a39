"""Online temporal integrity monitoring.

The paper's usage model: after every update, check whether each constraint
is still potentially satisfied.  Doing that naively re-runs the whole
Theorem 4.1 reduction and Lemma 4.2 decision on the full history after each
update — ``O(t)`` progression work per update, ``O(t^2)`` over a run.  The
:class:`IntegrityMonitor` keeps the *progressed remainder* of each
constraint as its only history-dependent state, so an update costs one
progression step plus one satisfiability check, independent of ``t``.

Under the folded grounding the letters of a state are just its facts, the
same for every constraint, so each update builds them once and every
constraint progresses through the same set.

The catch is the relevant domain: the reduction is grounded over
``R_D ∪ {z1..zk}``, so when an update touches an element the grounding has
never seen, the ground formula is missing instances and must be rebuilt.
Two strategies (``strategy=`` argument) handle this:

* ``"incremental"`` — keep the remainder; rebuild only when a genuinely new
  element appears.
* ``"spare"`` — like incremental, but ground with ``spare`` extra concrete
  elements in reserve; a new element is *renamed* onto an unused spare
  (sound: before its first appearance every fresh element is
  interchangeable with a spare, whose fact letters were false throughout),
  so rebuilds only happen when the reserve runs dry.  The reserve enlarges
  the ground domain, hence the per-check satisfiability cost — keep it
  small for constraints with several external quantifiers (the default 2 is
  safe; ablation A1 quantifies the trade-off).

The naive baseline that rebuilds and re-progresses from the full history
on every update is a fresh monitor per prefix (ablation A1 measures it).

Violations of safety constraints are irrecoverable (once the remainder is
unsatisfiable it stays unsatisfiable), so a violated constraint is frozen
and reported, not re-checked.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from typing import AbstractSet, Mapping, Sequence

from ..database.history import History
from ..database.state import DatabaseState
from ..database.updates import Update
from ..logic.classify import FormulaInfo
from ..logic.formulas import Formula
from ..ptl.bitset import BuchiKernel
from ..ptl.formulas import PTLFalse, PTLFormula, PTLTrue, Prop
from ..ptl.progkernel import ProgKernelInfo, ProgressionKernel
from ..ptl.sat import quick_model_check
from .checker import validate_constraint
from .grounding import GroundElement, RelAtom
from .reduction import (
    constraint_relevant_elements,
    reduce_universal,
    state_to_props,
)

_STRATEGIES = ("incremental", "spare")
#: Bound of the monitor-wide satisfiability memo, in remainders.
_SAT_CACHE_SIZE = 4096
# Progression-side backends a dispatch plan may assign to an entry of
# this monitor ("pasteval" never reaches IntegrityMonitor — the planner
# routes past-closed constraints to repro.pasteval before construction).
_BACKENDS = (
    "progression-full",
    "progression-safety",
    "progression-cosafety",
)


@dataclass
class MonitorStats:
    """Work counters for one monitored constraint.

    ``progressions`` counts top-level progression steps; ``kernel_row_hits``
    counts the satisfied transition-row probes of the monitor's
    :class:`~repro.ptl.progkernel.ProgressionKernel` behind them.
    ``sat_time``/``progress_time`` are cumulative ``perf_counter`` seconds
    spent in the two Lemma 4.2 phases, so experiments and the benchmark
    harness can report where time goes.

    ``retired_steps`` (dispatch planner, see :mod:`repro.core.plan`; zero
    on unplanned monitors) counts instants a discharged co-safety
    constraint skipped entirely.
    ``past_updates``/``past_memory`` are filled by the
    :class:`repro.pasteval.monitor.PastMonitor` backend — updates
    evaluated by the incremental past evaluator and its current table
    footprint (entries, not bytes) — so planned runs report one coherent
    stats object across engines.

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
    renames: int = 0
    sat_calls: int = 0
    sat_cache_hits: int = 0
    kernel_row_hits: int = 0
    retired_steps: int = 0
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
    backend: str = "progression-full"
    # The concrete elements of the last reground's ground domain (the
    # relevant set plus, under the spare strategy, the spare pool).
    relevant: frozenset[int] = frozenset()
    remainder: PTLFormula | None = None
    known_elements: frozenset[int] = frozenset()
    spare_pool: tuple[int, ...] = ()
    spare_map: dict[int, int] = field(default_factory=dict)
    violated_at: int | None = None
    stats: MonitorStats = field(default_factory=MonitorStats)


@dataclass(frozen=True)
class EntrySnapshot:
    """The complete resume state of one monitored constraint.

    The paper's Lemma 4.2 monitoring loop keeps the progressed remainder
    as the *only* history-dependent state, so this record — remainder plus
    the strategy bookkeeping around it — is a full checkpoint: restoring
    it (:meth:`IntegrityMonitor.from_snapshot`) and continuing produces
    the same verdicts as never having stopped (property-tested).

    Everything here is kernel-independent: formulas are actual (interned)
    nodes, never monitor-local kernel ids, so a snapshot can be restored
    in a process whose kernel assigns different ids.  JSON encoding lives
    in :mod:`repro.database.serialize` (``monitor_to_dict`` /
    ``monitor_from_dict``).

    The grounding's ``relevant`` set is carried verbatim rather than
    recomputed: under the spare strategy it reflects the *last reground's*
    history, not the current one, so rebuilding it at restore time would
    change which elements count as fresh and diverge from the
    uninterrupted run.  Pure caches (the monitor-wide satisfiability memo
    and the kernels' tables) are deliberately absent — dropping them
    cannot change any verdict, only cache-hit counters.
    """

    name: str
    constraint: Formula
    backend: str
    remainder: PTLFormula
    relevant: frozenset[int]
    known_elements: frozenset[int]
    spare_pool: tuple[int, ...]
    spare_map: dict[int, int]
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

    Constraints go through the :mod:`repro.lint` pre-flight gate at
    construction time: ``lint="warn"`` (default) surfaces warning
    diagnostics via :mod:`warnings`, ``lint="strict"`` refuses any
    constraint with error diagnostics (:class:`repro.errors.LintError`
    listing all of them), ``lint="off"`` skips the gate.

    Each update takes the Lemma 4.2 step once per live constraint:
    progress the remainder, then decide it.  Progression runs through one
    table-driven :class:`repro.ptl.progkernel.ProgressionKernel` and
    decisions through one bitset :class:`repro.ptl.bitset.BuchiKernel`,
    both shared by every constraint, so ground instances with overlapping
    closures share compiled rows, states and verdicts across constraints
    and updates.  The recursive reference engines
    (:mod:`repro.ptl.progression`, :mod:`repro.ptl.sat`) are the test
    oracles: verdicts match :func:`repro.core.checker.check_extension` at
    every instant, and under the incremental strategy the remainders are
    pointer-identical to its own (property-tested).

    ``backends`` (optional) carries per-constraint assignments from a
    dispatch plan (:func:`repro.core.plan.plan_constraints`):
    ``"progression-cosafety"`` *retires* the constraint once its
    remainder is discharged to ``true`` — quiet bookkeeping only, no
    progression or decision — un-retiring (by reground) when a fresh
    element introduces a new obligation.  ``"progression-safety"`` and
    ``"progression-full"`` take the ordinary step.  Verdicts, violations
    and remainders are identical with and without a plan
    (property-tested): progression of ``true`` is ``true``, so the
    retired fast path only skips provably idempotent work.

    >>> from ..logic import parse
    >>> from ..database import History, Update, vocabulary
    >>> v = vocabulary({"Sub": 1})
    >>> monitor = IntegrityMonitor(
    ...     {"once": parse("forall x . G (Sub(x) -> X G !Sub(x))")},
    ...     History.empty(v),
    ... )
    >>> monitor.apply(Update.insert(("Sub", (1,)))).all_satisfied
    True
    >>> report = monitor.apply(Update.insert(("Sub", (1,))))
    >>> report.new_violations
    ('once',)
    """

    def __init__(
        self,
        constraints: Mapping[str, Formula] | Sequence[Formula],
        initial: History,
        assume_safety: bool = False,
        strategy: str = "incremental",
        spare: int = 2,
        lint: str = "warn",
        backends: Mapping[str, str] | None = None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        for backend in (backends or {}).values():
            if backend not in _BACKENDS:
                raise ValueError(
                    f"backend must be one of {_BACKENDS}, got {backend!r}"
                )
        if not isinstance(constraints, Mapping):
            constraints = {
                f"constraint_{index}": formula
                for index, formula in enumerate(constraints)
            }
        self._setup(
            initial, assume_safety=assume_safety, strategy=strategy, spare=spare
        )
        for name, formula in constraints.items():
            info = validate_constraint(
                formula, assume_safety=assume_safety, lint=lint
            )
            self._entries.append(
                _ConstraintEntry(
                    name=name,
                    constraint=formula,
                    info=info,
                    backend=(backends or {}).get(name, "progression-full"),
                )
            )
        for entry in self._entries:
            self._reground(entry)
            self._decide(entry, instant=self._history.now)

    def _setup(
        self,
        history: History,
        *,
        assume_safety: bool,
        strategy: str,
        spare: int,
    ) -> None:
        """The settings and empty caches shared by construction and
        restore; entries are added by the caller."""
        self._strategy = strategy
        self._spare = spare
        self._assume_safety = assume_safety
        self._history = history
        # Monitor-wide satisfiability memo, shared across constraints and
        # keyed by the interned remainder: the same ground obligation shows
        # up under several constraints (and across regrounds), and interned
        # identity makes the lookup O(1) instead of a structural re-hash.
        # Each entry pins its remainder, so the memo is emptied once it
        # holds _SAT_CACHE_SIZE of them.
        self._sat_cache: dict[PTLFormula, bool] = {}
        self._sat_cache_resets = 0
        self._buchi = BuchiKernel()
        self._progkernel = ProgressionKernel()
        self._entries: list[_ConstraintEntry] = []

    # -- public surface ------------------------------------------------------

    @property
    def history(self) -> History:
        """The monitored history (grows with every update)."""
        return self._history

    @property
    def now(self) -> int:
        return self._history.now

    def violations(self) -> dict[str, int]:
        """Violated constraints and the instant each was first violated."""
        return {
            entry.name: entry.violated_at
            for entry in self._entries
            if entry.violated_at is not None
        }

    def stats(self) -> dict[str, MonitorStats]:
        """Per-constraint work counters."""
        return {entry.name: entry.stats for entry in self._entries}

    def cache_info(self) -> dict[str, int]:
        """Sizes and resets of the monitor-wide decision caches: the
        satisfiability memo (emptied at ``_SAT_CACHE_SIZE`` entries) and
        the Büchi kernel (dropped past its ``max_states``)."""
        return {
            "sat_cache_entries": len(self._sat_cache),
            "sat_cache_resets": self._sat_cache_resets,
            "buchi_states": self._buchi.stats()["states"],
            "buchi_resets": self._buchi.resets,
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

    def remainders(self) -> dict[str, PTLFormula]:
        """The current progressed remainder of each constraint."""
        out: dict[str, PTLFormula] = {}
        for entry in self._entries:
            assert entry.remainder is not None
            out[entry.name] = entry.remainder
        return out

    # -- snapshot / restore --------------------------------------------------

    def snapshot_config(self) -> dict[str, object]:
        """The constructor settings a restore must be performed with."""
        return {
            "assume_safety": self._assume_safety,
            "strategy": self._strategy,
            "spare": self._spare,
        }

    def snapshot_entries(self) -> list[EntrySnapshot]:
        """Export every constraint's resume state (see
        :class:`EntrySnapshot`).

        The monitor itself is left untouched — taking a snapshot is
        observationally free.
        """
        out: list[EntrySnapshot] = []
        for entry in self._entries:
            assert entry.remainder is not None
            out.append(
                EntrySnapshot(
                    name=entry.name,
                    constraint=entry.constraint,
                    backend=entry.backend,
                    remainder=entry.remainder,
                    relevant=entry.relevant,
                    known_elements=entry.known_elements,
                    spare_pool=entry.spare_pool,
                    spare_map=dict(entry.spare_map),
                    violated_at=entry.violated_at,
                    stats=MonitorStats.from_dict(entry.stats.as_dict()),
                )
            )
        return out

    @classmethod
    def from_snapshot(
        cls,
        history: History,
        entries: Sequence[EntrySnapshot],
        *,
        assume_safety: bool = False,
        strategy: str = "incremental",
        spare: int = 2,
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
        property test asserts with ``is``).

        Pure caches are rebuilt empty: the satisfiability memo and the
        kernels' tables refill on demand, so only cache-hit counters —
        never verdicts, violations or remainders — can differ from the
        uninterrupted run.
        """
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        monitor = cls.__new__(cls)
        monitor._setup(
            history, assume_safety=assume_safety, strategy=strategy, spare=spare
        )
        for snap in entries:
            if snap.backend not in _BACKENDS:
                raise ValueError(
                    f"backend must be one of {_BACKENDS}, "
                    f"got {snap.backend!r}"
                )
            info = validate_constraint(
                snap.constraint, assume_safety=assume_safety, lint="off"
            )
            monitor._entries.append(
                _ConstraintEntry(
                    name=snap.name,
                    constraint=snap.constraint,
                    info=info,
                    backend=snap.backend,
                    relevant=snap.relevant,
                    remainder=snap.remainder,
                    known_elements=snap.known_elements,
                    spare_pool=snap.spare_pool,
                    spare_map=dict(snap.spare_map),
                    violated_at=snap.violated_at,
                    stats=MonitorStats.from_dict(snap.stats.as_dict()),
                )
            )
        return monitor

    def is_satisfied(self, name: str) -> bool:
        for entry in self._entries:
            if entry.name == name:
                return entry.violated_at is None
        raise KeyError(name)

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
        # Folded letters are the state's facts, the same for every entry.
        letters = state_to_props(self._history.current)
        new_violations: list[str] = []
        satisfied: dict[str, bool] = {}
        for entry in self._entries:
            if entry.violated_at is not None:
                satisfied[entry.name] = False
                continue
            if entry.backend == "progression-cosafety" and isinstance(
                entry.remainder, PTLTrue
            ):
                # Discharged co-safety constraint: the remainder is the
                # absorbing true, so progression could not move it.  Only
                # the strategy bookkeeping (spare claims, fresh-element
                # detection) still runs; a fresh element regrounds and
                # thereby un-retires the entry.
                self._advance_retired(entry)
            else:
                self._advance(entry, letters)
            ok = self._decide(entry, instant)
            satisfied[entry.name] = ok
            if not ok:
                new_violations.append(entry.name)
        return UpdateReport(
            instant=instant,
            satisfied=satisfied,
            new_violations=tuple(new_violations),
        )

    def _advance_retired(self, entry: _ConstraintEntry) -> None:
        """Pass an instant through a discharged co-safety entry.

        ``progress(true, s) = true`` for every state ``s``, so the
        remainder provably cannot move; what must still run is the
        strategy bookkeeping of :meth:`_advance` — spare-slot claiming and
        fresh-element detection — because a fresh element introduces a
        brand-new ground obligation that the collapsed remainder no longer
        represents.  A fresh element is renamed onto an unused spare when
        possible (sound for the same reason as the live path: before its
        first appearance the fresh element is interchangeable with a spare
        whose fact letters were false throughout, so its instance
        progressed to the same discharged ``true``), and regrounds
        otherwise, which un-retires the entry.
        """
        if self._track_elements(entry):
            entry.stats.retired_steps += 1

    def _track_elements(self, entry: _ConstraintEntry) -> bool:
        """Strategy bookkeeping for the newest state: spare claiming and
        renaming, and fresh-element detection.

        Returns ``False`` when the entry had to reground — its remainder
        then already includes the new instant — and ``True`` when the
        current grounding still covers every visible element.
        """
        visible = self._entry_domain(entry, self._history.current)
        if self._strategy == "spare":
            # A real element whose id coincides with a spare id claims that
            # spare (identity mapping) so no fresh element is renamed onto
            # an occupied slot.  If the slot is already consumed by a
            # renamed element, the grounding would conflate the two:
            # rebuild instead.
            taken = set(entry.spare_map.values())
            for element in visible:
                if element in entry.spare_pool and (
                    element not in entry.spare_map
                ):
                    if element in taken:
                        self._reground(entry)
                        return False
                    entry.spare_map[element] = element
        fresh = visible - entry.known_elements
        # Elements already in the grounding's relevant set (e.g. spares of
        # this entry) are not fresh.
        fresh -= entry.relevant
        if fresh and not (
            self._strategy == "spare" and self._try_rename(entry, fresh)
        ):
            self._reground(entry)
            return False
        entry.known_elements |= visible
        return True

    def _entry_domain(
        self, entry: _ConstraintEntry, state: DatabaseState
    ) -> frozenset[int]:
        """Elements of one state visible to this entry's constraint."""
        predicates = {
            pred for pred, _arity in entry.constraint.predicates()
        }
        elements: set[int] = set()
        for pred, tuples in state.relations.items():
            if pred in predicates:
                for args in tuples:
                    elements.update(args)
        return frozenset(elements)

    def _reground(self, entry: _ConstraintEntry) -> None:
        """Rebuild the reduction from the full history and re-progress."""
        entry.stats.regrounds += 1
        pool: frozenset[int] = frozenset()
        if self._strategy == "spare":
            pool = self._spare_pool(entry)
        reduction = reduce_universal(
            self._history, entry.info, extra_elements=pool
        )
        entry.relevant = reduction.relevant
        # The pool was drawn from outside the relevant set, so removing it
        # leaves exactly the elements the history has shown this entry.
        entry.known_elements = reduction.relevant - pool
        remainder = reduction.formula
        if reduction.prefix:
            remainder = self._replay_compiled(
                entry, remainder, reduction.prefix
            )
        entry.remainder = remainder

    def _replay_compiled(
        self,
        entry: _ConstraintEntry,
        formula: PTLFormula,
        prefix: Sequence[AbstractSet[Prop]],
    ) -> PTLFormula:
        """Replay a reground prefix entirely in kernel id-space.

        Intermediate remainders stay unmaterialized ids — nothing observes
        them — and only the final remainder is built as a formula.  The
        kernel chains each top-level conjunct through the prefix on its
        own (:meth:`~repro.ptl.progkernel.ProgressionKernel.progress_replay`).
        Counts one progression per prefix state, like the step-by-step
        path.
        """
        kernel = self._progkernel
        stats = entry.stats
        start = time.perf_counter()
        hits_before = kernel.hits
        encode = kernel.encode_state
        result = kernel.formula(
            kernel.progress_replay(
                kernel.intern(formula), [encode(props) for props in prefix]
            )
        )
        stats.progress_time += time.perf_counter() - start
        stats.kernel_row_hits += kernel.hits - hits_before
        stats.progressions += len(prefix)
        return result

    def _progress(
        self,
        entry: _ConstraintEntry,
        formula: PTLFormula,
        props: AbstractSet[Prop],
    ) -> PTLFormula:
        """One timed, hit-counted progression step for this entry."""
        stats = entry.stats
        kernel = self._progkernel
        start = time.perf_counter()
        hits_before = kernel.hits
        result = kernel.progress_formula(formula, props)
        stats.progress_time += time.perf_counter() - start
        stats.kernel_row_hits += kernel.hits - hits_before
        stats.progressions += 1
        return result

    def _spare_pool(self, entry: _ConstraintEntry) -> frozenset[int]:
        """Reserve ``spare`` fresh concrete element slots in the grounding."""
        relevant = constraint_relevant_elements(self._history, entry.info)
        pool: list[int] = []
        candidate = 0
        while len(pool) < self._spare:
            if candidate not in relevant:
                pool.append(candidate)
            candidate += 1
        entry.spare_pool = tuple(pool)
        entry.spare_map = {}
        return frozenset(pool)

    def _advance(
        self, entry: _ConstraintEntry, letters: frozenset[Prop]
    ) -> None:
        """Incorporate the newest state, given as its letters, into the
        entry's remainder."""
        if not self._track_elements(entry):
            return
        assert entry.remainder is not None
        if self._strategy == "spare":
            letters = _rename_props(letters, entry.spare_map)
        entry.remainder = self._progress(entry, entry.remainder, letters)

    def _try_rename(
        self, entry: _ConstraintEntry, fresh: frozenset[int]
    ) -> bool:
        """Map fresh elements onto unused spares; False if the pool is dry."""
        used = set(entry.spare_map.values())
        available = [s for s in entry.spare_pool if s not in used]
        if len(available) < len(fresh):
            return False
        for element, spare_id in zip(sorted(fresh), available):
            entry.spare_map[element] = spare_id
            entry.stats.renames += 1
        return True

    def _decide(self, entry: _ConstraintEntry, instant: int) -> bool:
        remainder = entry.remainder
        assert remainder is not None
        if isinstance(remainder, PTLTrue):
            return True
        if isinstance(remainder, PTLFalse):
            entry.violated_at = instant
            return False
        cached = self._sat_cache.get(remainder)
        if cached is not None:
            entry.stats.sat_cache_hits += 1
            ok = cached
        else:
            entry.stats.sat_calls += 1
            start = time.perf_counter()
            ok = quick_model_check(remainder) or self._buchi.is_satisfiable(
                remainder
            )
            entry.stats.sat_time += time.perf_counter() - start
            if len(self._sat_cache) >= _SAT_CACHE_SIZE:
                self._sat_cache.clear()
                self._sat_cache_resets += 1
            self._sat_cache[remainder] = ok
        if not ok:
            entry.violated_at = instant
        return ok


def _rename_props(
    props: frozenset[Prop], mapping: Mapping[int, int]
) -> frozenset[Prop]:
    """Rename concrete elements inside fact letters (spare strategy)."""
    if not mapping:
        return props
    renamed: set[Prop] = set()
    for p in props:
        name = p.name
        if isinstance(name, RelAtom):
            new_args: tuple[GroundElement, ...] = tuple(
                mapping.get(a, a) if isinstance(a, int) else a
                for a in name.args
            )
            renamed.add(Prop(RelAtom(name.pred, new_args)))
        else:
            renamed.add(p)
    return frozenset(renamed)
