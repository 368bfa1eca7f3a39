"""The Theorem 4.1 reduction: database extension problem → PTL extension
problem.

Given a finite history ``D = (D0, ..., Dt)`` and a universal safety sentence
``phi = forall x1..xk psi``, build:

* the ground domain ``M = R_D ∪ {z1, ..., zk}`` (relevant elements plus one
  anonymous element per external quantifier, per Lemma 4.1);
* the propositional formula ``phi_D = Psi_D [∧ Axiom_D]`` where ``Psi_D``
  is the conjunction of ``psi[f]`` over all assignments
  ``f : {x1..xk} -> M`` (``Axiom_D`` is explicit only in literal mode, see
  :mod:`repro.core.grounding`);
* the propositional prefix ``w_D = (w0, ..., wt)`` describing the history's
  states as truth assignments to the ground letters.

Theorem 4.1: ``D`` extends to an infinite model of ``phi`` iff ``w_D``
extends to an infinite model of ``phi_D`` — which Lemma 4.2 then decides
(:mod:`repro.ptl.extension`).

The module also implements the decoding direction: a propositional state
over concrete fact letters *is* a database state, so a lasso model of
``phi_D`` decodes to a lasso database extending ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from typing import Iterable, Mapping, Sequence

from ..database.history import History
from ..database.lasso import LassoDatabase
from ..database.state import DatabaseState
from ..database.vocabulary import Vocabulary
from ..errors import SchemaError
from ..logic.classify import FormulaInfo
from ..logic.terms import Variable
from ..ptl.buchi import LassoModel
from ..ptl.formulas import PTLFormula, Prop, pand
from ..ptl.progression import PropState
from .grounding import (
    Anon,
    EqAtom,
    GroundContext,
    GroundElement,
    RelAtom,
    build_axioms,
    decide_equality,
    ground,
)


@dataclass(frozen=True)
class Reduction:
    """The result of reducing (history, constraint) to a PTL instance.

    Attributes
    ----------
    formula:
        ``phi_D``: the propositional constraint.
    prefix:
        ``w_D``: one propositional state per history state.
    domain:
        The ground domain ``M`` (concrete relevant elements first, then the
        anonymous elements).
    relevant:
        The concrete part of ``M`` — ``R_D`` of the history at reduction
        time under the chosen scope.
    assignment_count:
        ``|M|^k``: how many ground instances ``psi[f]`` were conjoined.
    fold:
        Whether the folded construction was used.
    scope:
        ``"constraint"``: ``R_D`` counts only elements visible to the
        constraint (its predicates and constants) — sound by the Lemma 4.1
        restriction argument, since satisfaction of the constraint is
        invariant under changes to relations it does not mention.
        ``"full"``: the paper's literal ``R_D`` (every relation).
    """

    formula: PTLFormula
    prefix: tuple[PropState, ...]
    domain: tuple[GroundElement, ...]
    relevant: frozenset[int]
    assignment_count: int
    fold: bool
    history: History
    scope: str = "constraint"

    def formula_size(self) -> int:
        return self.formula.size()


def constraint_relevant_elements(
    history: History, info: FormulaInfo
) -> frozenset[int]:
    """``R_D`` restricted to what the constraint can observe.

    Elements occurring only in relations the constraint never mentions are
    indistinguishable (for this constraint) from anonymous elements, so
    the Lemma 4.1 restriction argument lets the grounding skip them; the
    interpretations of the constraint's own constant symbols always stay.
    """
    predicates = {pred for pred, _arity in info.formula.predicates()}
    elements: set[int] = set()
    for state in history.states:
        for pred, tuples in state.relations.items():
            if pred not in predicates:
                continue
            for args in tuples:
                elements.update(args)
    for constant in info.formula.constants():
        elements.add(history.constant(constant.name))
    return frozenset(elements)


def ground_domain(
    relevant: frozenset[int], quantifiers: int
) -> tuple[GroundElement, ...]:
    """``M = R_D ∪ {z1..zk}``, concrete elements sorted first."""
    concrete: Iterable[int] = sorted(relevant)
    anonymous = tuple(Anon(i + 1) for i in range(quantifiers))
    return tuple(concrete) + anonymous


def state_to_props(
    state: DatabaseState,
    domain: Sequence[GroundElement] = (),
    fold: bool = True,
) -> PropState:
    """The propositional description ``w_l`` of one database state.

    In folded mode the true letters are exactly the state's facts, so they
    do not depend on the domain.  In literal mode the identity equalities
    over the domain are true as well (``Axiom_D``'s positive facts must
    actually hold in the described states for progression to work).
    """
    letters: set[Prop] = set()
    for pred, args in state.facts():
        letters.add(Prop(RelAtom(pred, args)))
    if not fold:
        for a in domain:
            for b in domain:
                if decide_equality(a, b):
                    letters.add(Prop(EqAtom(a, b)))
    return frozenset(letters)


def reduce_universal(
    history: History,
    info: FormulaInfo,
    fold: bool = True,
    scope: str = "constraint",
) -> Reduction:
    """Theorem 4.1: build ``phi_D`` and ``w_D`` for a universal constraint.

    ``info`` must come from :func:`repro.logic.classify.require_universal`.
    The constraint's vocabulary must be covered by the history's vocabulary
    and all its constants must be bound.  ``scope`` selects the relevant
    set (see :class:`Reduction`); ``"constraint"`` is the default and is
    never slower.

    This is the from-scratch construction (the checker, triggers and
    lint).  The online monitor builds the same conjunction incrementally,
    in its progression kernel's id space
    (:class:`~repro.core.grounding.IdGrounder`).
    """
    if scope not in ("constraint", "full"):
        raise ValueError(f"scope must be 'constraint' or 'full', got {scope!r}")
    check_vocabulary(history, info)
    quantifiers = tuple(info.external_universals)
    if scope == "constraint":
        relevant = constraint_relevant_elements(history, info)
    else:
        relevant = history.relevant_elements()
    domain = ground_domain(relevant, len(quantifiers))
    context = GroundContext(
        constant_bindings=history.constant_bindings, fold=fold
    )
    instances: list[PTLFormula] = []
    for values in cartesian(domain, repeat=len(quantifiers)):
        assignment: Mapping[Variable, GroundElement] = dict(
            zip(quantifiers, values)
        )
        instances.append(ground(info.matrix, assignment, context))
    formula = pand(*instances)
    if not fold:
        axioms = build_axioms(
            domain, history.vocabulary.predicates, history.constant_bindings
        )
        formula = pand(formula, axioms)
    prefix = tuple(
        state_to_props(state, domain, fold) for state in history.states
    )
    return Reduction(
        formula=formula,
        prefix=prefix,
        domain=domain,
        relevant=relevant,
        assignment_count=len(instances),
        fold=fold,
        history=history,
        scope=scope,
    )


def check_vocabulary(history: History, info: FormulaInfo) -> None:
    """Raise :class:`~repro.errors.SchemaError` unless the history
    declares every relation of the constraint at its arity and binds
    every constant the constraint names."""
    vocabulary = history.vocabulary
    for pred, arity in info.formula.predicates():
        if pred in ("leq", "succ", "Zero"):
            raise SchemaError(
                "the extension checker operates over the base vocabulary; "
                f"extended-vocabulary predicate {pred!r} is not allowed "
                "(Section 3 formulas are handled by repro.turing)"
            )
        if not vocabulary.has_predicate(pred):
            raise SchemaError(
                f"constraint uses undeclared predicate {pred!r}"
            )
        if vocabulary.arity(pred) != arity:
            raise SchemaError(
                f"constraint uses {pred!r} with arity {arity}, "
                f"declared {vocabulary.arity(pred)}"
            )
    for constant in info.formula.constants():
        history.constant(constant.name)  # raises if unbound


def decode_state(
    props: PropState, vocabulary: Vocabulary, reduction: Reduction
) -> DatabaseState:
    """Decode one propositional state into a database state.

    Letters that are concrete fact atoms become facts; everything else
    (equality letters, anonymous-argument letters) carries no database
    content.  This is the paper's decoding in the second half of the
    Theorem 4.1 proof.
    """
    facts = []
    for prop in props:
        name = prop.name
        if isinstance(name, RelAtom) and name.is_concrete():
            facts.append((name.pred, name.args))
    return DatabaseState.from_facts(vocabulary, facts)


def decode_lasso(
    model: LassoModel, reduction: Reduction
) -> LassoDatabase:
    """Decode a propositional lasso model into a lasso database.

    Used on models of the *progressed remainder* prepended with the original
    history: the result is an infinite-time temporal database extending the
    history and (by Theorem 4.1) satisfying the original constraint.
    """
    vocabulary = reduction.history.vocabulary
    stem = tuple(
        decode_state(props, vocabulary, reduction) for props in model.stem
    )
    loop = tuple(
        decode_state(props, vocabulary, reduction) for props in model.loop
    )
    return LassoDatabase(
        vocabulary=vocabulary,
        stem=stem,
        loop=loop,
        constant_bindings=reduction.history.constant_bindings,
    )
