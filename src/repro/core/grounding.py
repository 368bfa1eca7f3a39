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

:func:`ground` builds ``psi[f]`` as a formula; it serves the from-scratch
checker, triggers and lint, and is the oracle of :class:`IdGrounder`, which
builds the same ``psi[f]`` directly as an id of a
:class:`~repro.ptl.progkernel.ProgressionKernel` for the online monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping, Sequence

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
from ..ptl.progkernel import ProgressionKernel
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


#: A member of the ground domain ``M``: a concrete natural or an anonymous
#: element.
GroundElement = int | Anon


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
    """Ground truth of ``left = right`` under the Lemma 4.1 conventions."""
    if isinstance(left, Anon) or isinstance(right, Anon):
        return left == right
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
    """
    match matrix:
        case TrueFormula():
            return PTRUE
        case FalseFormula():
            return PFALSE
        case Atom(pred=pred, args=args):
            resolved = tuple(context.resolve(a, assignment) for a in args)
            if context.fold and not all(
                isinstance(r, int) for r in resolved
            ):
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
            return pand(*(ground(op, assignment, context) for op in ops))
        case Or(operands=ops):
            return por(*(ground(op, assignment, context) for op in ops))
        case Implies(antecedent=a, consequent=c):
            return pimplies(
                ground(a, assignment, context), ground(c, assignment, context)
            )
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


#: A compiled subformula: assignment values (in quantifier order) -> id.
_Compiled = Callable[[tuple[GroundElement, ...]], int]

#: The kernel mirror of each unary and binary smart constructor.
_MIRRORS: dict[type, str] = {
    Not: "pnot_id",
    Next: "pnext_id",
    Eventually: "peventually_id",
    Always: "palways_id",
    Until: "puntil_id",
    WeakUntil: "pweak_until_id",
    Release: "prelease_id",
}

#: The compound matrix nodes :class:`IdGrounder` translates, as
#: :func:`ground` does.
_COMPOUND = frozenset({And, Or, Implies, Iff, *_MIRRORS})


class IdGrounder:
    """``psi[f]`` built directly in a kernel's id space, compiled once per
    constraint.

    :meth:`ground` returns the :class:`~repro.ptl.progkernel.ProgressionKernel`
    id of :func:`ground`'s formula for the same assignment and context,
    through the kernel's id-level smart constructors, so
    ``kernel.formula(grounder.ground(values))`` is the very node
    :func:`ground` builds.  No formula node is built on the way, apart
    from the letters: their bits are keyed by :class:`Prop`.

    * Constants short-circuit: an operand that grounds to ``false`` ends a
      conjunction (``true`` a disjunction, a ``false`` antecedent an
      implication) before the other operands are grounded.
    * A subformula whose free variables are fewer than its parent's (for
      the matrix: than the quantified ones) keeps a memo keyed by their
      values, so a subformula over elements already grounded is never
      rebuilt; closed subformulas are grounded once, at compile time.

    Variables and constants are resolved at compile time, so an unbound
    constant or a free variable raises here, as :func:`ground` would on
    any assignment.
    """

    def __init__(
        self,
        matrix: Formula,
        quantifiers: Sequence[Variable],
        context: GroundContext,
        kernel: ProgressionKernel,
    ) -> None:
        self._kernel = kernel
        self._context = context
        self._slots = {var: slot for slot, var in enumerate(quantifiers)}
        self._memos: list[dict[object, int]] = []
        root, free = self._compile(matrix)
        self._root = self._memoized(
            root, free, frozenset(range(len(quantifiers)))
        )

    def ground(self, values: tuple[GroundElement, ...]) -> int:
        """The id of ``psi[f]`` for the assignment mapping the ``i``-th
        quantified variable to ``values[i]``."""
        return self._root(values)

    def memo_size(self) -> int:
        """Ids held by the subformula memos."""
        return sum(len(memo) for memo in self._memos)

    def _compile(self, node: Formula) -> tuple[_Compiled, frozenset[int]]:
        """The compiled form of ``node`` and the slots of its free
        variables, each operand memoized as the class docstring says."""
        if isinstance(node, (Atom, Eq)):
            return self._compile_atom(node)
        cls = type(node)
        kernel = self._kernel
        true_id = kernel.true_id
        false_id = kernel.false_id
        if cls is TrueFormula or cls is FalseFormula:
            constant = true_id if cls is TrueFormula else false_id
            return (lambda values: constant), frozenset()
        if cls not in _COMPOUND:
            raise ClassificationError(
                f"matrix of a universal constraint cannot contain "
                f"{cls.__name__} (quantifier or past connective)"
            )
        parts = [self._compile(child) for child in node.children]
        slots = frozenset(slot for _fn, free in parts for slot in free)
        ops = [self._memoized(op, free, slots) for op, free in parts]
        if cls is And:
            pand_ids = kernel.pand_ids

            def conjunction(values: tuple[GroundElement, ...]) -> int:
                ids = []
                for op in ops:
                    rid = op(values)
                    if rid == false_id:
                        return false_id
                    ids.append(rid)
                return pand_ids(ids)

            return conjunction, slots
        if cls is Or:
            por_ids = kernel.por_ids

            def disjunction(values: tuple[GroundElement, ...]) -> int:
                ids = []
                for op in ops:
                    rid = op(values)
                    if rid == true_id:
                        return true_id
                    ids.append(rid)
                return por_ids(ids)

            return disjunction, slots
        if cls is Implies:
            antecedent, consequent = ops
            pimplies_id = kernel.pimplies_id

            def implication(values: tuple[GroundElement, ...]) -> int:
                left = antecedent(values)
                if left == false_id:
                    return true_id
                return pimplies_id(left, consequent(values))

            return implication, slots
        if cls is Iff:
            left_op, right_op = ops

            def equivalence(values: tuple[GroundElement, ...]) -> int:
                left = left_op(values)
                right = right_op(values)
                both = kernel.pand_ids((left, right))
                neither = kernel.pand_ids(
                    (kernel.pnot_id(left), kernel.pnot_id(right))
                )
                return kernel.por_ids((both, neither))

            return equivalence, slots
        mirror = getattr(kernel, _MIRRORS[cls])
        if len(ops) == 1:
            (sub,) = ops

            def apply_unary(values: tuple[GroundElement, ...]) -> int:
                return mirror(sub(values))

            return apply_unary, slots
        left_op, right_op = ops

        def apply_binary(values: tuple[GroundElement, ...]) -> int:
            return mirror(left_op(values), right_op(values))

        return apply_binary, slots

    def _compile_atom(
        self, node: Atom | Eq
    ) -> tuple[_Compiled, frozenset[int]]:
        """A ground letter, or its folded constant."""
        kernel = self._kernel
        context = self._context
        terms = node.args if isinstance(node, Atom) else (node.left, node.right)
        picks: list[tuple[int, GroundElement]] = []
        for term in terms:
            if isinstance(term, Variable):
                if term not in self._slots:
                    raise ClassificationError(
                        f"variable {term.name!r} is not externally quantified"
                    )
                picks.append((self._slots[term], 0))
            else:
                picks.append((-1, context.resolve(term, {})))

        def resolve(
            values: tuple[GroundElement, ...]
        ) -> tuple[GroundElement, ...]:
            return tuple(
                [values[slot] if slot >= 0 else fixed for slot, fixed in picks]
            )

        fold = context.fold
        free = frozenset(slot for slot, _ in picks if slot >= 0)
        if isinstance(node, Eq):

            def equality(values: tuple[GroundElement, ...]) -> int:
                left, right = resolve(values)
                if fold:
                    if decide_equality(left, right):
                        return kernel.true_id
                    return kernel.false_id
                return kernel.intern(eq_prop(left, right))

            return equality, free
        pred = node.pred

        def letter(values: tuple[GroundElement, ...]) -> int:
            args = resolve(values)
            if fold and not all(isinstance(a, int) for a in args):
                return kernel.false_id
            return kernel.intern(rel_prop(pred, args))

        return letter, free

    def _memoized(
        self, fn: _Compiled, free: frozenset[int], outer: frozenset[int]
    ) -> _Compiled:
        """``fn`` behind a memo keyed by its free variables' values, when
        those are fewer than its parent's (a parent reached once per key
        gains nothing from it); closed operands are grounded now."""
        if not free:
            rid = fn(())
            return lambda values: rid
        if free == outer:
            return fn
        memo: dict[object, int] = {}
        self._memos.append(memo)
        key = itemgetter(*sorted(free))

        def memoized(values: tuple[GroundElement, ...]) -> int:
            k = key(values)
            rid = memo.get(k)
            if rid is None:
                rid = memo[k] = fn(values)
            return rid

        return memoized


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
