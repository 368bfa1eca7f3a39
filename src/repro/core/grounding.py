"""Grounding: from quantifier-free FOTL to PTL (the heart of Theorem 4.1).

Theorem 4.1 grounds a universal constraint ``forall x1..xk psi`` over the
set ``M = R_D ∪ {z1, ..., zk}`` — the relevant elements of the history plus
``k`` anonymous symbols standing for "any element the database never
touches" (justified by Lemma 4.1) — and takes as propositional letters the
ground equalities and ground predicate atoms over ``M`` and the constant
symbols.

This module implements that translation in two modes:

* **Folded** (the default used by the checker).  Because the history fixes
  the interpretation of every constant symbol, all equality letters are
  decided at grounding time (two concrete naturals are equal iff they are
  the same number; an anonymous ``z_i`` differs from every concrete element
  and from every other ``z_j``), and every predicate letter with an
  anonymous argument is false (that is exactly what ``Axiom_D`` forces).
  Constant-folding these letters discharges ``Axiom_D`` entirely: the
  resulting formula is ``Psi_D`` over concrete fact letters only, which is
  both faithful to the theorem and far smaller.

* **Literal** (``fold=False``).  The construction exactly as printed in the
  paper: equality letters, predicate letters over ``M ∪ CL`` including
  anonymous arguments, and the explicit ``Axiom_D`` conjunction
  (reflexivity, symmetry, transitivity, congruence, constant bindings,
  distinctness, all under ``G``).  Kept for fidelity and measured against
  the folded mode in ablation A4.

Propositional letters are :class:`repro.ptl.formulas.Prop` objects whose
names are the structured :class:`GroundAtom` values below, so decoding a
propositional model back into database states (the witness direction) is a
lookup, not a parse.

:func:`ground` builds ``psi[f]`` as a formula.  It is the one grounder:
the from-scratch checker, triggers and lint call it per assignment, and
the online monitor calls it once per equality pattern to build its
templates (:mod:`repro.core.lifted`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ClassificationError, SchemaError
from ..logic.formulas import (
    Always,
    And,
    Atom,
    Eq,
    Eventually,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    WeakUntil,
)
from ..logic.terms import Constant, Term, Variable
from ..ptl.formulas import (
    PFALSE,
    PTRUE,
    PTLFormula,
    Prop,
    palways,
    pand,
    peventually,
    pimplies,
    pnext,
    pnot,
    por,
    prelease,
    puntil,
    pweak_until,
)


@dataclass(frozen=True, order=True)
class Anon:
    """An anonymous element ``z_i``: some element outside ``R_D``.

    Anonymous elements are pairwise distinct and distinct from every
    concrete element; no database predicate is ever true of them
    (Lemma 4.1 / ``Axiom_D``).
    """

    index: int

    def __str__(self) -> str:
        return f"z{self.index}"


@dataclass(frozen=True, order=True)
class Placeholder:
    """A template position ``p_i``: one element of a tuple, left open.

    The online monitor grounds a constraint once per equality pattern
    over placeholders and renames the result onto each tuple of that
    pattern (DESIGN.md §10.1).  Unlike :class:`Anon`, a predicate over a
    placeholder is a letter, not ``false``; placeholders are pairwise
    distinct and distinct from every concrete element.  In a witness
    tuple a placeholder stands for an element the history has not shown
    yet, so its letters have been false at every instant.
    """

    index: int

    def __str__(self) -> str:
        return f"p{self.index}"


#: A member of the ground domain ``M`` (a concrete natural or an anonymous
#: element), or a template's placeholder.
GroundElement = int | Anon | Placeholder


@dataclass(frozen=True)
class GroundAtom:
    """Base class of structured propositional letter names."""


@dataclass(frozen=True)
class RelAtom(GroundAtom):
    """The letter ``p(a1, ..., ar)`` for concrete/anonymous arguments."""

    pred: str
    args: tuple[GroundElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        rendered = ",".join(str(a) for a in self.args)
        return f"{self.pred}({rendered})"

    def is_concrete(self) -> bool:
        """True iff no argument is anonymous."""
        return all(isinstance(a, int) for a in self.args)


@dataclass(frozen=True)
class EqAtom(GroundAtom):
    """The letter ``(a = b)`` (only used in literal mode)."""

    left: GroundElement
    right: GroundElement

    def __str__(self) -> str:
        return f"({self.left}={self.right})"


def rel_prop(pred: str, args: tuple[GroundElement, ...]) -> Prop:
    """The propositional letter for a ground predicate atom."""
    return Prop(RelAtom(pred, args))


def eq_prop(left: GroundElement, right: GroundElement) -> Prop:
    """The propositional letter for a ground equality (literal mode)."""
    return Prop(EqAtom(left, right))


def decide_equality(left: GroundElement, right: GroundElement) -> bool:
    """Ground truth of ``left = right`` under the Lemma 4.1 conventions.

    Anonymous elements and placeholders are each distinct from every
    other element, so this is element equality.
    """
    return left == right


@dataclass(frozen=True)
class GroundContext:
    """Everything needed to resolve terms during grounding.

    Attributes
    ----------
    constant_bindings:
        Interpretation of constant symbols (from the history).
    fold:
        Whether equality and anonymous-argument letters are constant-folded
        (see module docstring).
    """

    constant_bindings: Mapping[str, int]
    fold: bool = True

    def resolve(
        self, term: Term, assignment: Mapping[Variable, GroundElement]
    ) -> GroundElement:
        if isinstance(term, Variable):
            try:
                return assignment[term]
            except KeyError:
                raise ClassificationError(
                    f"variable {term.name!r} is not externally quantified"
                ) from None
        assert isinstance(term, Constant)
        try:
            return self.constant_bindings[term.name]
        except KeyError:
            raise SchemaError(
                f"constant symbol {term.name!r} has no interpretation in "
                "the history"
            ) from None


def ground(
    matrix: Formula,
    assignment: Mapping[Variable, GroundElement],
    context: GroundContext,
) -> PTLFormula:
    """Translate a quantifier-free FOTL matrix to PTL under an assignment.

    This is the paper's ``psi[f]`` operation: substitute the assignment into
    every atom and read the result as a propositional letter.  In folded
    mode, equalities and anonymous-argument atoms become constants.

    A conjunction stops at its first ``false`` operand, a disjunction at
    its first ``true`` one and an implication at a ``false`` antecedent:
    the smart constructors fold such an operand to the same constant
    whatever the other operands are, so the node is the one grounding
    every operand would give, and the letters of the skipped operands
    are never built.
    """
    match matrix:
        case TrueFormula():
            return PTRUE
        case FalseFormula():
            return PFALSE
        case Atom(pred=pred, args=args):
            resolved = tuple(context.resolve(a, assignment) for a in args)
            if context.fold and any(isinstance(r, Anon) for r in resolved):
                return PFALSE  # Axiom_D: predicates are false on anon elements
            return rel_prop(pred, resolved)
        case Eq(left=left, right=right):
            lv = context.resolve(left, assignment)
            rv = context.resolve(right, assignment)
            if context.fold:
                return PTRUE if decide_equality(lv, rv) else PFALSE
            return eq_prop(lv, rv)
        case Not(operand=op):
            return pnot(ground(op, assignment, context))
        case And(operands=ops):
            conjuncts: list[PTLFormula] = []
            for op in ops:
                part = ground(op, assignment, context)
                if part is PFALSE:
                    return PFALSE
                conjuncts.append(part)
            return pand(*conjuncts)
        case Or(operands=ops):
            disjuncts: list[PTLFormula] = []
            for op in ops:
                part = ground(op, assignment, context)
                if part is PTRUE:
                    return PTRUE
                disjuncts.append(part)
            return por(*disjuncts)
        case Implies(antecedent=a, consequent=c):
            antecedent = ground(a, assignment, context)
            if antecedent is PFALSE:
                return PTRUE
            return pimplies(antecedent, ground(c, assignment, context))
        case Iff(left=left, right=right):
            gl = ground(left, assignment, context)
            gr = ground(right, assignment, context)
            return por(pand(gl, gr), pand(pnot(gl), pnot(gr)))
        case Next(body=body):
            return pnext(ground(body, assignment, context))
        case Until(left=left, right=right):
            return puntil(
                ground(left, assignment, context),
                ground(right, assignment, context),
            )
        case WeakUntil(left=left, right=right):
            return pweak_until(
                ground(left, assignment, context),
                ground(right, assignment, context),
            )
        case Release(left=left, right=right):
            return prelease(
                ground(left, assignment, context),
                ground(right, assignment, context),
            )
        case Eventually(body=body):
            return peventually(ground(body, assignment, context))
        case Always(body=body):
            return palways(ground(body, assignment, context))
        case _:
            raise ClassificationError(
                f"matrix of a universal constraint cannot contain "
                f"{type(matrix).__name__} (quantifier or past connective)"
            )


def build_axioms(
    domain: tuple[GroundElement, ...],
    predicates: Mapping[str, int],
    constant_bindings: Mapping[str, int],
) -> PTLFormula:
    """The paper's ``Axiom_D`` (literal mode only).

    Equality is reflexive, symmetric, transitive, and a congruence for every
    predicate letter; concrete elements are pairwise distinct; anonymous
    elements are distinct from everything else; predicates are false on
    anonymous arguments.  Everything is wrapped in ``G`` because the axioms
    constrain every state.  (Constant symbols are resolved to their concrete
    interpretations before this point, which discharges the paper's
    constant-binding axioms.)
    """
    conjuncts: list[PTLFormula] = []
    # Identity facts.
    for a in domain:
        conjuncts.append(eq_prop(a, a))
    for a in domain:
        for b in domain:
            if a == b:
                continue
            truth = decide_equality(a, b)
            letter = eq_prop(a, b)
            conjuncts.append(letter if truth else pnot(letter))
            # Symmetry.
            conjuncts.append(
                pimplies(eq_prop(a, b), eq_prop(b, a))
            )
    # Transitivity.
    for a in domain:
        for b in domain:
            for c in domain:
                conjuncts.append(
                    pimplies(
                        pand(eq_prop(a, b), eq_prop(b, c)), eq_prop(a, c)
                    )
                )
    # Congruence and anon falsity, per predicate.
    from itertools import product as cartesian

    for pred, arity in predicates.items():
        for args in cartesian(domain, repeat=arity):
            atom = rel_prop(pred, tuple(args))
            if not all(isinstance(a, int) for a in args):
                conjuncts.append(pnot(atom))
            for position in range(arity):
                for other in domain:
                    if other == args[position]:
                        continue
                    swapped = (
                        args[:position] + (other,) + args[position + 1 :]
                    )
                    conjuncts.append(
                        pimplies(
                            pand(
                                eq_prop(args[position], other), atom
                            ),
                            rel_prop(pred, swapped),
                        )
                    )
    body = pand(*conjuncts)
    return palways(body)
