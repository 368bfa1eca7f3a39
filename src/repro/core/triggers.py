"""Temporal Condition–Action triggers.

Section 2 of the paper defines trigger semantics by *duality* with
constraint satisfaction: a trigger ``if C then A`` fires at instant ``t``
for a ground substitution θ iff ``¬Cθ`` is **not** potentially satisfied at
``t`` — i.e. no possible future can make the (instantiated) condition
false; firing is unavoidable, so fire now, at the earliest possible moment.

Decidability therefore mirrors the constraint side: the *negation* of the
instantiated condition must be a universal safety sentence, which makes the
supported condition class ``exists* tense(Sigma_0)`` — negations of
biquantified formulas, exactly the expressive power the paper attributes to
the Sistla–Wolfson trigger language (Section 5).

Ground substitutions range over the relevant elements of the history plus
one fresh element as the representative of all untouched elements (they
are interchangeable, so one representative decides them all).  Substituted
elements are injected through reserved constant symbols, since formulas
cannot mention raw universe elements.

:func:`fires` and :func:`firings` decide the definition from scratch with
the reference engines; :class:`TriggerManager` runs the same decision
incrementally on the compiled kernels the monitor uses, and is tested
against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from typing import Callable, Iterator, Mapping, Sequence

from ..analysis.affect import affect_set
from ..database.history import History
from ..database.vocabulary import Vocabulary
from ..errors import ClassificationError
from ..logic.builders import not_
from ..logic.formulas import Formula
from ..logic.terms import Constant, Variable
from ..logic.transform import nnf, substitute
from ..ptl.bitset import BuchiKernel
from ..ptl.formulas import PFALSE, PTLFalse, PTLFormula, PTLTrue
from ..ptl.progkernel import ProgressionKernel
from ..ptl.sat import quick_model_check
from .checker import potentially_satisfied, validate_constraint
from .reduction import reduce_universal

#: A ground substitution: values for the condition's free variables.
Substitution = Mapping[Variable, int]

_PARAM_PREFIX = "__trig_"

#: Bound of :class:`TriggerManager`'s remainder memo, in remainders.
_REMAINDER_MEMO_SIZE = 4096


@dataclass(frozen=True)
class Trigger:
    """A Condition–Action trigger ``if condition then action``.

    Attributes
    ----------
    name:
        Identifier used in reports.
    condition:
        An FOTL formula, possibly with free variables; its negation (after
        instantiation) must be a universal safety sentence.
    action:
        Callback invoked as ``action(history, values)`` when the trigger
        fires, where ``values`` maps variable names to elements.  Optional —
        firing detection works without it.
    """

    name: str
    condition: Formula
    action: Callable[[History, Mapping[str, int]], None] | None = None

    def parameters(self) -> tuple[Variable, ...]:
        """The condition's free variables, sorted by name."""
        return tuple(
            sorted(self.condition.free_variables(), key=lambda v: v.name)
        )


@dataclass(frozen=True)
class Firing:
    """One trigger firing: which trigger, when, for which substitution."""

    trigger: str
    instant: int
    substitution: tuple[tuple[str, int], ...]

    def values(self) -> dict[str, int]:
        return dict(self.substitution)


def _instantiate(
    condition: Formula, substitution: Substitution
) -> tuple[Formula, dict[str, int]]:
    """Replace free variables by reserved constants bound to the values."""
    mapping = {}
    bindings: dict[str, int] = {}
    for variable, value in substitution.items():
        symbol = f"{_PARAM_PREFIX}{variable.name}"
        mapping[variable] = Constant(symbol)
        bindings[symbol] = value
    return substitute(condition, mapping), bindings


def _augment_history(history: History, bindings: dict[str, int]) -> History:
    vocabulary = Vocabulary(
        predicates=history.vocabulary.predicates,
        constant_symbols=history.vocabulary.constant_symbols
        | frozenset(bindings),
    )
    return History(
        vocabulary=vocabulary,
        states=tuple(
            type(state)(vocabulary=vocabulary, relations=state.relations)
            for state in history.states
        ),
        constant_bindings={**history.constant_bindings, **bindings},
    )


def _substitution_key(
    substitution: Substitution,
) -> tuple[tuple[str, int], ...]:
    """The canonical (sorted, hashable) form of a ground substitution."""
    return tuple(
        sorted(
            (variable.name, value)
            for variable, value in substitution.items()
        )
    )


def _negated_instance(
    condition: Formula, history: History, substitution: Substitution
) -> tuple[Formula, History]:
    """``¬Cθ`` in NNF, with the history its reserved constants are bound in."""
    instantiated, bindings = _instantiate(condition, substitution)
    return nnf(not_(instantiated)), _augment_history(history, bindings)


def fires(
    trigger: Trigger,
    history: History,
    substitution: Substitution,
    assume_safety: bool = False,
) -> bool:
    """Does the trigger fire at the current instant for this substitution?

    The paper's definition, decided from scratch on the whole history:
    the trigger fires iff ``¬Cθ`` is not potentially satisfied
    (:func:`repro.core.checker.potentially_satisfied`).  This is the
    oracle :class:`TriggerManager` is tested against.
    """
    missing = trigger.condition.free_variables() - set(substitution)
    if missing:
        raise ClassificationError(
            "substitution must cover all free variables; missing "
            + ", ".join(sorted(v.name for v in missing))
        )
    negated, augmented = _negated_instance(
        trigger.condition, history, substitution
    )
    return not potentially_satisfied(
        negated, augmented, assume_safety=assume_safety
    )


def candidate_substitutions(
    trigger: Trigger,
    history: History,
    include_fresh: bool = True,
) -> Iterator[Substitution]:
    """All ground substitutions over the relevant elements.

    With ``include_fresh`` one untouched element is added as the
    representative of the (infinitely many) irrelevant elements.
    """
    parameters = trigger.parameters()
    domain = sorted(history.relevant_elements())
    if include_fresh:
        fresh = 0
        taken = set(domain)
        while fresh in taken:
            fresh += 1
        domain.append(fresh)
    for values in cartesian(domain, repeat=len(parameters)):
        yield dict(zip(parameters, values))


def firings(
    trigger: Trigger,
    history: History,
    assume_safety: bool = False,
) -> list[Firing]:
    """All firings of a trigger at the history's current instant, by
    :func:`fires` over every candidate substitution (fresh representative
    included)."""
    return [
        Firing(
            trigger=trigger.name,
            instant=history.now,
            substitution=_substitution_key(substitution),
        )
        for substitution in candidate_substitutions(trigger, history)
        if fires(trigger, history, substitution, assume_safety=assume_safety)
    ]


class TriggerManager:
    """Run a set of triggers over a growing history.

    The manager deduplicates firings: a (trigger, substitution) pair that
    has already fired is not reported again at later instants (a safety
    violation persists forever, so without deduplication every firing would
    repeat at every subsequent instant).  Pairs are keyed by trigger name,
    so names must be unique (``ValueError`` otherwise).

    Trigger conditions go through the :mod:`repro.lint` pre-flight gate in
    trigger mode at construction time: the duality analysis (``TIC009``)
    verifies that each condition's negation is a universal safety
    sentence — the supported ``exists* tense(Sigma_0)`` class.
    ``lint="strict"`` refuses unanalyzable conditions up front with
    :class:`repro.errors.LintError`; ``lint="warn"`` (default) surfaces
    warning-severity diagnostics; ``lint="off"`` skips the gate (errors
    then surface per-firing from the extension checker, as before).

    Each pending substitution takes the monitor's Lemma 4.2 step: the
    reduction of ``¬Cθ`` is progressed through one table-driven
    :class:`repro.ptl.progkernel.ProgressionKernel` and the remainder is
    decided on one bitset :class:`repro.ptl.bitset.BuchiKernel`, both
    owned by the manager and shared by every trigger and substitution.
    Firings equal :func:`firings`, the from-scratch definition
    (property-tested).  Two more savings make the ``R_D^k`` sweep cheap:

    * the verdict is memoized per *interned remainder* (identity-keyed
      dict): substitutions whose ``¬Cθ`` progress to the same remainder —
      common once a trigger's obligation reaches a fixpoint across quiet
      instants — decide once and hit the memo ever after (``memo_hits``
      counts them).  The memo holds at most ``_REMAINDER_MEMO_SIZE``
      remainders and is emptied when full (``memo_resets`` counts it);
    * a static sweep skip: when a trigger's negated condition has only
      negative relation occurrences, an instant whose state is empty on
      the condition's relations cannot create a *new* firing
      (satisfiability of every pending remainder is preserved — DESIGN.md
      §9.3), so the whole sweep is skipped (``skipped_sweeps`` counts
      them).  Guarded by a consecutive-check and a
      relevant-elements-unchanged test so the skipped verdicts are exactly
      the ones the full sweep would produce.

    :meth:`stats` reports these counters with the memo's size and the
    Büchi kernel's resets.
    """

    def __init__(
        self,
        triggers: Sequence[Trigger],
        assume_safety: bool = False,
        lint: str = "warn",
    ) -> None:
        names = [trigger.name for trigger in triggers]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(
                f"trigger names must be unique; repeated: {repeated}"
            )
        if lint != "off":
            from ..lint import preflight

            for trigger in triggers:
                preflight(
                    trigger.condition,
                    mode="trigger",
                    gate=lint,
                    assume_safety=assume_safety,
                )
        self._triggers = list(triggers)
        self._assume_safety = assume_safety
        self._fired: set[tuple[str, tuple[tuple[str, int], ...]]] = set()
        self._log: list[Firing] = []
        self._progkernel = ProgressionKernel()
        self._buchi = BuchiKernel()
        #: Lemma 4.2 verdict per interned remainder (identity-keyed).
        self._remainder_memo: dict[PTLFormula, bool] = {}
        self.memo_hits = 0
        self.memo_resets = 0
        self.decisions = 0
        # Static per-trigger analysis: a sweep may be skipped only when the
        # negated condition is purely negative in its relation occurrences
        # (or mentions no relation at all) — the polarity half of the
        # skip lemma.  Keyed by position, like the two maps below.
        self._prunable: list[bool] = []
        for trigger in triggers:
            aff = affect_set(not_(trigger.condition))
            self._prunable.append(aff.pure_negative or aff.state_independent)
        # History length at the last sweep of each trigger (consecutive
        # check) and the relevant-element set it ranged over.
        self._last_checked: dict[int, int] = {}
        self._last_relevant: dict[int, frozenset[int]] = {}
        self.skipped_sweeps = 0

    @property
    def log(self) -> list[Firing]:
        """All firings so far, in order of detection."""
        return list(self._log)

    def stats(self) -> dict[str, int]:
        """Work and cache counters: decisions, remainder-memo hits, size
        and resets, skipped sweeps, and the Büchi kernel's resets."""
        return {
            "decisions": self.decisions,
            "memo_hits": self.memo_hits,
            "memo_entries": len(self._remainder_memo),
            "memo_resets": self.memo_resets,
            "skipped_sweeps": self.skipped_sweeps,
            "buchi_resets": self._buchi.resets,
        }

    def _remainder(
        self, trigger: Trigger, history: History, substitution: Substitution
    ) -> PTLFormula:
        """The Lemma 4.2 remainder of ``¬Cθ`` over the history, progressed
        in the manager's kernel."""
        negated, augmented = _negated_instance(
            trigger.condition, history, substitution
        )
        info = validate_constraint(negated, assume_safety=self._assume_safety)
        reduction = reduce_universal(augmented, info)
        kernel = self._progkernel
        encode = kernel.encode_state
        chains = list(kernel.conjunct_ids(kernel.intern(reduction.formula)))
        if not kernel.progress_replay(
            chains, [encode(props) for props in reduction.prefix]
        ):
            return PFALSE
        return kernel.formula(kernel.pand_ids(chains))

    def _fires(self, remainder: PTLFormula) -> bool:
        """Duality verdict from a remainder: fire iff it is unsatisfiable."""
        if isinstance(remainder, PTLFalse):
            return True
        if isinstance(remainder, PTLTrue):
            return False
        memo = self._remainder_memo
        known = memo.get(remainder)
        if known is not None:
            self.memo_hits += 1
            return known
        if len(memo) >= _REMAINDER_MEMO_SIZE:
            memo.clear()
            self.memo_resets += 1
        self.decisions += 1
        fired = not (
            quick_model_check(remainder)
            or self._buchi.is_satisfiable(remainder)
        )
        memo[remainder] = fired
        return fired

    def _can_skip_sweep(
        self, index: int, trigger: Trigger, history: History
    ) -> bool:
        """Is the whole sweep of ``trigger`` provably firing-free here?

        All four guards are required: (1) the static polarity condition,
        (2) this instant's state is empty on the condition's relations,
        (3) the previous instant was actually swept (so the preserved
        verdicts exist), (4) no new relevant element appeared (so the
        candidate substitution set is the one those verdicts cover).
        """
        if not self._prunable[index]:
            return False
        if self._last_checked.get(index) != len(history.states) - 1:
            return False
        relevant = frozenset(history.relevant_elements())
        if self._last_relevant.get(index) != relevant:
            return False
        predicates = {
            pred for pred, _arity in trigger.condition.predicates()
        }
        current = history.current.relations
        return all(not current.get(pred) for pred in predicates)

    def check(self, history: History) -> list[Firing]:
        """Detect new firings at the history's current instant and run their
        actions."""
        new: list[Firing] = []
        for index, trigger in enumerate(self._triggers):
            if self._can_skip_sweep(index, trigger, history):
                self.skipped_sweeps += 1
                self._last_checked[index] = len(history.states)
                continue
            for substitution in candidate_substitutions(trigger, history):
                key = (trigger.name, _substitution_key(substitution))
                # Already-fired pairs stay fired (safety violations are
                # irrecoverable) — skip the re-decision entirely.
                if key in self._fired or not self._fires(
                    self._remainder(trigger, history, substitution)
                ):
                    continue
                firing = Firing(
                    trigger=trigger.name,
                    instant=history.now,
                    substitution=key[1],
                )
                self._fired.add(key)
                new.append(firing)
                self._log.append(firing)
                if trigger.action is not None:
                    trigger.action(history, dict(firing.values()))
            self._last_checked[index] = len(history.states)
            self._last_relevant[index] = frozenset(
                history.relevant_elements()
            )
        return new
