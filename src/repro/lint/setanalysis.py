"""Semantic constraint-set analysis: grounded decision procedures.

The Theorem 4.1 grounding is usually applied to a *history* to decide
potential satisfaction (Lemma 4.2).  Applied to a *test domain* of fresh
elements instead, the very same construction answers questions about the
constraints themselves:

* **Satisfiability.**  A universal safety constraint ``C`` admits a
  temporal-database model iff its grounding over ``T ∪ CL ∪ {z1..zk}`` is
  PTL-satisfiable, where ``T`` holds fresh concrete elements, ``CL`` the
  interpretations of ``C``'s constants, and the ``z``'s are the Lemma 4.1
  anonymous elements.  The decode direction (a propositional model *is* a
  lasso database, Theorem 4.1) needs nothing; the encode direction
  restricts a model to its constant-relevant facts and uses the
  Alpern–Schneider safety of the ground instances: a violated
  factless-pattern instance would be violated on a finite prefix, where
  fresh concrete elements with the same (empty) facts exist — so the
  restriction still satisfies ``C``.  This is why the unsatisfiability /
  entailment verdicts are **gated on instance-level semantic safety**
  (:meth:`SetAnalyzer.instance_safety`): for a liveness-flavoured formula
  like ``forall x . F Sub(x)`` the grounding is propositionally
  unsatisfiable (the anonymous instance folds to ``F false``) even though
  the diagonal database ``D_t = {Sub(t)}`` is a perfectly good model.

* **Validity and entailment.**  ``C1 ⊨ C2`` iff ``phi1_T ∧ ¬phi2_T`` is
  PTL-unsatisfiable over a shared test domain with at least ``k2`` fresh
  elements: a violating database renames (by a universe permutation,
  which preserves satisfaction) into the test domain, and a violating
  letter sequence decodes into a database in which every element outside
  the domain is factless forever — exactly what the folded anonymous
  instances describe.  Only the *left-hand* side of an entailment needs
  the safety gate; validity (``TRUE ⊨ C``) needs no gate at all.

Constant symbols are bound to pairwise-distinct fresh elements (the
unique-name assumption standard in database theory); verdicts are exact
under that assumption and documented as such.

Everything is decided on the bitset kernel the monitor uses: the
analyzer owns a long-lived :class:`repro.ptl.bitset.BuchiKernel` shared
across all of its queries (the tests check its verdicts against the
reference engine of :func:`repro.ptl.sat.is_satisfiable`).  The pairwise
sweep fans out across :func:`repro.core.parallel.parallel_map` workers,
each deciding on a kernel of its own, and every verdict is memoized per
interned PTL formula, so re-asking any verdict — including from another
pass — is one dict probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from typing import Mapping, Sequence

from ..core.grounding import Anon, GroundContext, GroundElement, ground
from ..core.parallel import parallel_map, resolve_jobs, split_chunks
from ..errors import ReproError
from ..logic.classify import FormulaInfo, classify
from ..logic.formulas import Formula
from ..logic.terms import Variable
from ..ptl.bitset import BuchiKernel
from ..ptl.formulas import PTLFormula, palways, pand, peventually, pnot, por
from ..ptl.safety import is_safety

__all__ = [
    "SemanticProfile",
    "SetAnalyzer",
    "analysis_cache_clear",
]

#: Profiles whose grounding would exceed these bounds are marked
#: ineligible instead of being analyzed (the lint passes then stay
#: silent on them — a guard, not a verdict).
MAX_INSTANCES = 4096
MAX_GROUNDING_SIZE = 20_000
#: Per-instance size bound for the (automaton-based) safety gate.
MAX_SAFETY_INSTANCE_SIZE = 2_000

#: Module-wide instance-safety memo.  Safety of a ground instance is
#: engine-independent (decided by the reference closure automaton), so
#: every analyzer shares one table.
_SAFETY_MEMO: dict[PTLFormula, bool] = {}


def analysis_cache_clear() -> None:
    """Drop the module-wide instance-safety memo (benchmark hygiene)."""
    _SAFETY_MEMO.clear()


@dataclass(frozen=True)
class SemanticProfile:
    """The grounded, analyzable form of one constraint or condition.

    Attributes
    ----------
    name:
        Display name used in diagnostics that mention this formula.
    formula:
        The FOTL original.
    role:
        ``"constraint"`` (closed universal sentence, all variables
        conjunctive) or ``"condition"`` (trigger condition: free variables
        are parameters, swept disjunctively over the concrete domain).
    eligible:
        Whether the formula is in the analyzable fragment and within the
        size guards; when False every semantic verdict about it is ``None``.
    reason:
        Why it is ineligible (``None`` when eligible).
    grounding:
        ``phi_T`` — for constraints, the conjunction of all ground
        instances; for conditions, the disjunction over parameter
        assignments (each conjoined over its own universal prefix).
        ``None`` when ineligible.
    instances:
        The distinct ground instances (the units the safety gate checks).
    quantifiers:
        Number of conjunctive (externally universal) variables.
    parameters:
        Number of free variables (conditions only; 0 for constraints).
    """

    name: str
    formula: Formula
    role: str
    eligible: bool
    reason: str | None
    grounding: PTLFormula | None
    instances: tuple[PTLFormula, ...]
    quantifiers: int
    parameters: int


def _decide_chunk(formulas: tuple[PTLFormula, ...]) -> tuple[bool, ...]:
    """Worker: decide satisfiability of a chunk of PTL formulas on one
    worker-local kernel.

    Top-level so it pickles; interned formulas re-intern on load, so a
    forked worker's verdicts key correctly back in the parent.
    """
    kernel = BuchiKernel()
    return tuple(kernel.is_satisfiable(formula) for formula in formulas)


class SetAnalyzer:
    """Grounded semantic analysis of a constraint set (plus conditions).

    Parameters
    ----------
    constraints:
        ``(name, formula)`` pairs — the monitored constraint set.
    conditions:
        ``(name, formula)`` pairs of trigger conditions analyzed *against*
        the constraints (free variables are trigger parameters).
    jobs:
        Worker processes for :meth:`sweep` (1 = serial, 0 = one per CPU).
    """

    def __init__(
        self,
        constraints: Sequence[tuple[str, Formula]] = (),
        conditions: Sequence[tuple[str, Formula]] = (),
        jobs: int = 1,
    ) -> None:
        self.jobs = jobs
        self._kernel = BuchiKernel()
        self._sat_memo: dict[PTLFormula, bool] = {}
        self._memo_hits = 0
        self._sweep: dict[tuple[str, int, int], bool | None] | None = None
        named_constraints = list(constraints)
        named_conditions = list(conditions)
        infos: list[FormulaInfo | None] = []
        for _name, formula in named_constraints + named_conditions:
            try:
                infos.append(classify(formula))
            except ReproError:
                infos.append(None)
        # The shared test domain: constants bound to distinct fresh
        # naturals (unique-name assumption), then enough fresh test
        # elements for the largest variable count in the set — renaming
        # arguments need |T| >= k of the formula on the *right* of any
        # entailment, and a shared domain keeps every pair's ground
        # letters aligned.
        constant_names = sorted(
            {
                constant.name
                for info in infos
                if info is not None
                for constant in info.formula.constants()
            }
        )
        self._bindings: dict[str, int] = {
            name: index + 1 for index, name in enumerate(constant_names)
        }
        width = 1
        for info in infos:
            if info is None:
                continue
            free = len(info.formula.free_variables())
            width = max(width, len(info.external_universals) + free)
        base = len(constant_names)
        self.test_elements: tuple[int, ...] = tuple(
            range(base + 1, base + 1 + width)
        )
        self._context = GroundContext(
            constant_bindings=self._bindings, fold=True
        )
        count = len(named_constraints)
        self.constraints: tuple[SemanticProfile, ...] = tuple(
            self._build_profile(name, formula, info, "constraint")
            for (name, formula), info in zip(
                named_constraints, infos[:count]
            )
        )
        self.conditions: tuple[SemanticProfile, ...] = tuple(
            self._build_profile(name, formula, info, "condition")
            for (name, formula), info in zip(
                named_conditions, infos[count:]
            )
        )

    # -- grounding ---------------------------------------------------------

    def _concrete(self) -> tuple[int, ...]:
        return tuple(sorted(self._bindings.values())) + self.test_elements

    def _build_profile(
        self,
        name: str,
        formula: Formula,
        info: FormulaInfo | None,
        role: str,
    ) -> SemanticProfile:
        def reject(reason: str) -> SemanticProfile:
            return SemanticProfile(
                name=name,
                formula=formula,
                role=role,
                eligible=False,
                reason=reason,
                grounding=None,
                instances=(),
                quantifiers=0,
                parameters=0,
            )

        if info is None:
            return reject("formula could not be classified")
        if info.has_past:
            return reject(
                "past-tense constraint (outside the Theorem 4.1 grounding)"
            )
        if not info.is_universal:
            return reject(
                "not in the universal class forall* tense(Sigma_0) "
                "(Theorem 4.2); semantic analysis is skipped"
            )
        if any(
            pred in ("leq", "succ", "Zero")
            for pred, _arity in info.formula.predicates()
        ):
            return reject(
                "extended-vocabulary predicates are interpreted rigidly "
                "(Section 3) and cannot be grounded as database letters"
            )
        free = tuple(
            sorted(info.formula.free_variables(), key=lambda v: v.name)
        )
        if role == "constraint" and free:
            return reject(
                "constraint is not a sentence (free variables: "
                + ", ".join(v.name for v in free)
                + ")"
            )
        prefix = tuple(info.external_universals)
        concrete = self._concrete()
        domain: tuple[GroundElement, ...] = concrete + tuple(
            Anon(index + 1) for index in range(len(prefix))
        )
        instance_total = (len(domain) ** len(prefix)) * (
            max(1, len(concrete)) ** len(free)
        )
        if instance_total > MAX_INSTANCES:
            return reject(
                f"grounding needs {instance_total} instances "
                f"(> {MAX_INSTANCES}); semantic analysis is skipped"
            )
        try:
            disjuncts: list[PTLFormula] = []
            instances: dict[PTLFormula, None] = {}
            for free_values in cartesian(concrete, repeat=len(free)):
                bound: dict[Variable, GroundElement] = dict(
                    zip(free, free_values)
                )
                conjuncts: list[PTLFormula] = []
                for values in cartesian(domain, repeat=len(prefix)):
                    assignment = dict(zip(prefix, values))
                    assignment.update(bound)
                    instance = ground(info.matrix, assignment, self._context)
                    conjuncts.append(instance)
                    instances[instance] = None
                disjuncts.append(pand(*conjuncts))
            grounding = (
                por(*disjuncts) if role == "condition" else disjuncts[0]
            )
        except ReproError as error:
            return reject(f"grounding failed: {error}")
        if grounding.size() > MAX_GROUNDING_SIZE:
            return reject(
                f"grounding has size {grounding.size()} "
                f"(> {MAX_GROUNDING_SIZE}); semantic analysis is skipped"
            )
        return SemanticProfile(
            name=name,
            formula=formula,
            role=role,
            eligible=True,
            reason=None,
            grounding=grounding,
            instances=tuple(instances),
            quantifiers=len(prefix),
            parameters=len(free),
        )

    # -- satisfiability backend -------------------------------------------

    def _decide(self, formula: PTLFormula) -> bool:
        """Memoized satisfiability on the analyzer's kernel."""
        cached = self._sat_memo.get(formula)
        if cached is not None:
            self._memo_hits += 1
            return cached
        verdict = self._kernel.is_satisfiable(formula)
        self._sat_memo[formula] = verdict
        return verdict

    # -- per-formula verdicts ---------------------------------------------

    def _profile(self, index: int, role: str) -> SemanticProfile:
        table = self.constraints if role == "constraint" else self.conditions
        return table[index]

    def instance_safety(
        self, index: int, role: str = "constraint"
    ) -> bool | None:
        """Are *all* ground instances Alpern–Schneider safety properties?

        This is the semantic analogue of the syntactic recognizer in
        :mod:`repro.logic.safety` — and the soundness gate for every
        verdict that puts this formula on the left of an entailment.
        ``None`` when the formula is ineligible or an instance exceeds
        the automaton size guard.
        """
        profile = self._profile(index, role)
        if not profile.eligible:
            return None
        for instance in profile.instances:
            verdict = _SAFETY_MEMO.get(instance)
            if verdict is None:
                if instance.size() > MAX_SAFETY_INSTANCE_SIZE:
                    return None
                verdict = is_safety(instance)
                _SAFETY_MEMO[instance] = verdict
            if not verdict:
                return False
        return True

    def is_unsatisfiable(
        self, index: int, role: str = "constraint"
    ) -> bool | None:
        """No temporal database satisfies the formula (for conditions: no
        database makes the condition hold under any parameter
        substitution).  Exact under the instance-safety gate; ``None``
        when the gate cannot be established."""
        profile = self._profile(index, role)
        if not profile.eligible:
            return None
        # Conditions bind their parameters to concrete elements only, so
        # the safety gate is only needed for a universal prefix (whose
        # anonymous instances the encode direction relies on).
        needs_gate = profile.quantifiers > 0
        if needs_gate and self.instance_safety(index, role) is not True:
            return None
        assert profile.grounding is not None
        return not self._decide(profile.grounding)

    def is_valid(self, index: int, role: str = "constraint") -> bool | None:
        """Every temporal database satisfies the formula — it can never be
        violated (dead weight as a constraint).  Needs no safety gate."""
        profile = self._profile(index, role)
        if not profile.eligible:
            return None
        assert profile.grounding is not None
        return not self._decide(pnot(profile.grounding))

    def entails(self, left: int, right: int) -> bool | None:
        """``C_left ⊨ C_right`` over temporal databases (constraints)."""
        return self._lookup_sweep("entails", left, right)

    def conflicts(self, left: int, right: int) -> bool | None:
        """``C_left ∧ C_right`` jointly unsatisfiable (constraints)."""
        if left > right:
            left, right = right, left
        return self._lookup_sweep("conflicts", left, right)

    def condition_conflicts(
        self, condition: int, constraint: int
    ) -> bool | None:
        """No database satisfies the constraint while the condition holds.

        Read from the trigger side: while the constraint is maintained the
        trigger can never fire, and any firing implies the constraint is
        already violated.
        """
        cond = self._profile(condition, "condition")
        cons = self._profile(constraint, "constraint")
        if not (cond.eligible and cons.eligible):
            return None
        if cond.quantifiers > 0:
            if self.instance_safety(condition, "condition") is not True:
                return None
        if self.instance_safety(constraint) is not True:
            return None
        assert cond.grounding is not None and cons.grounding is not None
        return not self._decide(pand(cond.grounding, cons.grounding))

    def condition_conflicts_jointly(
        self, condition: int, indices: Sequence[int] | None = None
    ) -> bool | None:
        """No database satisfies *all* the constraints while the condition
        holds — the whole-set analogue of :meth:`condition_conflicts`."""
        cond = self._profile(condition, "condition")
        if not cond.eligible:
            return None
        if cond.quantifiers > 0:
            if self.instance_safety(condition, "condition") is not True:
                return None
        chosen = (
            list(indices)
            if indices is not None
            else list(range(len(self.constraints)))
        )
        assert cond.grounding is not None
        groundings: list[PTLFormula] = [cond.grounding]
        for index in chosen:
            profile = self.constraints[index]
            if not profile.eligible:
                return None
            if self.instance_safety(index) is not True:
                return None
            assert profile.grounding is not None
            groundings.append(profile.grounding)
        if len(groundings) == 1:
            return False
        return not self._decide(pand(*groundings))

    def jointly_unsatisfiable(
        self, indices: Sequence[int] | None = None
    ) -> bool | None:
        """The conjunction of the (given) constraints admits no model."""
        chosen = (
            list(indices)
            if indices is not None
            else list(range(len(self.constraints)))
        )
        groundings: list[PTLFormula] = []
        for index in chosen:
            profile = self.constraints[index]
            if not profile.eligible:
                return None
            if self.instance_safety(index) is not True:
                return None
            assert profile.grounding is not None
            groundings.append(profile.grounding)
        if not groundings:
            return False
        return not self._decide(pand(*groundings))

    # -- subformula queries (vacuity) -------------------------------------

    def _subformula_instances(
        self, index: int, subformula: Formula, role: str
    ) -> list[PTLFormula] | None:
        profile = self._profile(index, role)
        if not profile.eligible:
            return None
        info = classify(profile.formula)
        variables = tuple(info.external_universals) + tuple(
            sorted(profile.formula.free_variables(), key=lambda v: v.name)
        )
        concrete = self._concrete()
        if len(concrete) ** len(variables) > MAX_INSTANCES:
            return None
        out: list[PTLFormula] = []
        try:
            for values in cartesian(concrete, repeat=len(variables)):
                out.append(
                    ground(
                        subformula, dict(zip(variables, values)), self._context
                    )
                )
            return out
        except ReproError:
            return None

    def somewhere_satisfiable(
        self, index: int, subformula: Formula, role: str = "constraint"
    ) -> bool | None:
        """Can the subformula hold at *some* instant of *some* database
        under *some* assignment?  Concrete instances only (the renaming
        argument needs no anonymous elements), so the verdict is exact
        with no safety gate — ``False`` means semantically impossible."""
        instances = self._subformula_instances(index, subformula, role)
        if instances is None:
            return None
        return self._decide(peventually(por(*instances)))

    def always_valid(
        self, index: int, subformula: Formula, role: str = "constraint"
    ) -> bool | None:
        """Does the subformula hold at *every* instant of *every* database
        under *every* assignment?  Exact, no safety gate."""
        instances = self._subformula_instances(index, subformula, role)
        if instances is None:
            return None
        return not self._decide(pnot(palways(pand(*instances))))

    # -- the pairwise sweep ------------------------------------------------

    def sweep(self) -> Mapping[tuple[str, int, int], bool | None]:
        """Decide every pairwise entailment and conflict, fanning the
        undecided PTL queries across ``jobs`` worker processes.

        Returns (and caches) a mapping with keys ``("entails", i, j)``
        (``C_i ⊨ C_j``) and ``("conflicts", i, j)`` with ``i < j``;
        values are ``None`` where a soundness gate fails.  The result is
        independent of ``jobs`` (asserted in the tests): verdicts are
        pure and :func:`parallel_map` is order-preserving.
        """
        if self._sweep is not None:
            return self._sweep
        count = len(self.constraints)
        verdicts: dict[tuple[str, int, int], bool | None] = {}
        tasks: dict[tuple[str, int, int], PTLFormula] = {}
        for left in range(count):
            for right in range(count):
                if left == right:
                    continue
                key = ("entails", left, right)
                formula = self._entailment_formula(left, right)
                if formula is None:
                    verdicts[key] = None
                else:
                    tasks[key] = formula
        for left in range(count):
            for right in range(left + 1, count):
                key = ("conflicts", left, right)
                formula = self._conflict_formula(left, right)
                if formula is None:
                    verdicts[key] = None
                else:
                    tasks[key] = formula
        pending: list[PTLFormula] = []
        for key, formula in tasks.items():
            cached = self._sat_memo.get(formula)
            if cached is not None:
                self._memo_hits += 1
            elif formula not in pending:
                pending.append(formula)
        workers = resolve_jobs(self.jobs)
        if pending:
            if workers > 1 and len(pending) > 1:
                chunks = split_chunks(pending, workers)
                results = parallel_map(
                    _decide_chunk,
                    [tuple(chunk) for chunk in chunks],
                    jobs=workers,
                )
                for chunk, chunk_verdicts in zip(chunks, results):
                    for formula, verdict in zip(chunk, chunk_verdicts):
                        self._sat_memo[formula] = verdict
            else:
                for formula in pending:
                    self._decide(formula)
        for key, formula in tasks.items():
            verdicts[key] = not self._sat_memo[formula]
        self._sweep = verdicts
        return verdicts

    def _entailment_formula(
        self, left: int, right: int
    ) -> PTLFormula | None:
        lp = self.constraints[left]
        rp = self.constraints[right]
        if not (lp.eligible and rp.eligible):
            return None
        if self.instance_safety(left) is not True:
            return None
        assert lp.grounding is not None and rp.grounding is not None
        return pand(lp.grounding, pnot(rp.grounding))

    def _conflict_formula(self, left: int, right: int) -> PTLFormula | None:
        lp = self.constraints[left]
        rp = self.constraints[right]
        if not (lp.eligible and rp.eligible):
            return None
        if self.instance_safety(left) is not True:
            return None
        if self.instance_safety(right) is not True:
            return None
        assert lp.grounding is not None and rp.grounding is not None
        return pand(lp.grounding, rp.grounding)

    def _lookup_sweep(
        self, kind: str, left: int, right: int
    ) -> bool | None:
        return self.sweep().get((kind, left, right))

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Work counters: decisions, memo hits, and kernel internals."""
        out = {
            "decisions": len(self._sat_memo),
            "memo_hits": self._memo_hits,
            "safety_checks": len(_SAFETY_MEMO),
        }
        out.update(
            {
                f"kernel_{key}": value
                for key, value in self._kernel.stats().items()
            }
        )
        return out
