"""Tests for the grounding machinery (Theorem 4.1's letters and folding)."""

from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.grounding as grounding_module
import repro.core.lifted as lifted_module
from repro.core.grounding import (
    Anon,
    EqAtom,
    GroundContext,
    Placeholder,
    RelAtom,
    build_axioms,
    decide_equality,
    eq_prop,
    ground,
    rel_prop,
)
from repro.core.lifted import LiftedTable, canonical_tuple
from repro.database import vocabulary
from repro.errors import ClassificationError, SchemaError
from repro.logic import builders as b
from repro.logic import parse, var
from repro.logic.classify import require_universal
from repro.logic.formulas import (
    Always,
    And,
    Eventually,
    FalseFormula,
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
from repro.logic.transform import strip_universal_prefix
from repro.ptl import PFALSE, PTRUE, PAlways, Prop, evaluate_lasso, LassoModel
from repro.ptl.formulas import (
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
from repro.ptl.progkernel import ProgressionKernel
from repro.workloads import ConstraintConfig, random_universal_constraint

x, y = var("x"), var("y")


def matrix_of(text):
    _prefix, matrix = strip_universal_prefix(parse(text))
    return matrix


class TestElements:
    def test_anon_ordering_and_str(self):
        assert Anon(1) != Anon(2)
        assert str(Anon(2)) == "z2"

    def test_decide_equality(self):
        assert decide_equality(3, 3)
        assert not decide_equality(3, 4)
        assert not decide_equality(3, Anon(1))
        assert decide_equality(Anon(1), Anon(1))
        assert not decide_equality(Anon(1), Anon(2))

    def test_rel_atom_concrete(self):
        assert RelAtom("p", (1, 2)).is_concrete()
        assert not RelAtom("p", (1, Anon(1))).is_concrete()

    def test_atom_strings(self):
        assert str(RelAtom("p", (1, Anon(2)))) == "p(1,z2)"
        assert str(EqAtom(1, Anon(1))) == "(1=z1)"


class TestFoldedGrounding:
    CONTEXT = GroundContext(constant_bindings={}, fold=True)

    def test_atom_over_concrete_elements(self):
        m = matrix_of("forall x . G Sub(x)")
        g = ground(m, {x: 1}, self.CONTEXT)
        assert isinstance(g, PAlways)
        assert g.body == Prop(RelAtom("Sub", (1,)))

    def test_atom_with_anonymous_folds_false(self):
        m = matrix_of("forall x . Sub(x)")
        assert ground(m, {x: Anon(1)}, self.CONTEXT) == PFALSE

    def test_equality_folds(self):
        m = matrix_of("forall x y . x = y")
        assert ground(m, {x: 1, y: 1}, self.CONTEXT) == PTRUE
        assert ground(m, {x: 1, y: 2}, self.CONTEXT) == PFALSE
        assert ground(m, {x: Anon(1), y: 1}, self.CONTEXT) == PFALSE
        assert ground(m, {x: Anon(1), y: Anon(1)}, self.CONTEXT) == PTRUE

    def test_whole_instance_can_fold_to_true(self):
        # G !(Sub(z1) & ...) folds to true: Sub(z1) is false.
        m = matrix_of("forall x . G !(Sub(x))")
        assert ground(m, {x: Anon(1)}, self.CONTEXT) == PTRUE

    def test_constant_resolution(self):
        context = GroundContext(constant_bindings={"Vip": 7}, fold=True)
        m = matrix_of("forall x . Sub(Vip)")
        g = ground(m, {x: 1}, context)
        assert g == Prop(RelAtom("Sub", (7,)))

    def test_unbound_constant_raises(self):
        m = matrix_of("forall x . Sub(Vip)")
        with pytest.raises(SchemaError):
            ground(m, {x: 1}, self.CONTEXT)

    def test_unassigned_variable_raises(self):
        m = matrix_of("forall x y . Sub(x) & Sub(y)")
        with pytest.raises(ClassificationError):
            ground(m, {x: 1}, self.CONTEXT)

    def test_internal_quantifier_raises(self):
        m = matrix_of("forall x . G (exists y . q(x, y))")
        with pytest.raises(ClassificationError):
            ground(m, {x: 1}, self.CONTEXT)


class TestLiteralGrounding:
    CONTEXT = GroundContext(constant_bindings={}, fold=False)

    def test_equality_stays_symbolic(self):
        m = matrix_of("forall x y . x = y")
        g = ground(m, {x: 1, y: 2}, self.CONTEXT)
        assert g == Prop(EqAtom(1, 2))

    def test_anonymous_atom_stays(self):
        m = matrix_of("forall x . Sub(x)")
        g = ground(m, {x: Anon(1)}, self.CONTEXT)
        assert g == Prop(RelAtom("Sub", (Anon(1),)))

    def test_axioms_fix_equality_letters(self):
        axioms = build_axioms((1, 2, Anon(1)), {"Sub": 1}, {})
        # In any model of the axioms, (1=1) holds and (1=2) fails; check on
        # the intended model directly.
        intended = frozenset(
            {eq_prop(1, 1), eq_prop(2, 2), eq_prop(Anon(1), Anon(1))}
        )
        model = LassoModel(stem=(), loop=(intended,))
        assert evaluate_lasso(axioms, model, 0)
        # A model claiming 1=2 violates the axioms.
        wrong = LassoModel(
            stem=(), loop=(intended | {eq_prop(1, 2), eq_prop(2, 1)},)
        )
        assert not evaluate_lasso(axioms, wrong, 0)

    def test_axioms_forbid_facts_on_anonymous(self):
        axioms = build_axioms((1, Anon(1)), {"Sub": 1}, {})
        identity = frozenset(
            {eq_prop(1, 1), eq_prop(Anon(1), Anon(1))}
        )
        bad = LassoModel(
            stem=(),
            loop=(identity | {rel_prop("Sub", (Anon(1),))},),
        )
        assert not evaluate_lasso(axioms, bad, 0)

    def test_axioms_fix_every_equality_letter(self):
        # Like the paper's Axiom_D, the axioms pin the full equality
        # structure: no model can merge two concrete elements, whatever
        # facts it adds (congruence never fires because distinctness
        # already excludes the merge).
        axioms = build_axioms((1, 2), {"Sub": 1}, {})
        merged = frozenset(
            {
                eq_prop(1, 1),
                eq_prop(2, 2),
                eq_prop(1, 2),
                eq_prop(2, 1),
                rel_prop("Sub", (1,)),
                rel_prop("Sub", (2,)),
            }
        )
        assert not evaluate_lasso(
            axioms, LassoModel(stem=(), loop=(merged,)), 0
        )

    def test_axioms_tolerate_arbitrary_concrete_facts(self):
        axioms = build_axioms((1, 2), {"Sub": 1}, {})
        intended = frozenset(
            {
                eq_prop(1, 1),
                eq_prop(2, 2),
                rel_prop("Sub", (1,)),
                rel_prop("Sub", (2,)),
            }
        )
        assert evaluate_lasso(
            axioms, LassoModel(stem=(), loop=(intended,)), 0
        )


# -- templates and the short-circuit ---------------------------------------

ID_V = vocabulary({"Sub": 1, "Fill": 1, "Link": 2})
X0, X1 = var("x0"), var("x1")
VIP = b.const("vip")
#: ``vip`` is bound to 2, a concrete element of every domain below, so
#: the domains hold anonymous, diagonal and constant-valued assignments.
ID_CONTEXT = GroundContext(constant_bindings={"vip": 2})
ID_DOMAINS = [
    (1, 2, Anon(1), Anon(2)),
    (1, 2, 3, 4, Anon(1), Anon(2)),
    # Template patterns: placeholders next to constants' elements.
    (2, Placeholder(1), Placeholder(2), Anon(1)),
]

_terms = st.sampled_from([X0, X1, VIP])
_leaves = st.one_of(
    st.builds(lambda t: b.atom("Sub", t), _terms),
    st.builds(lambda t: b.atom("Fill", t), _terms),
    st.builds(lambda s, t: b.atom("Link", s, t), _terms, _terms),
    st.builds(b.eq, _terms, _terms),
    st.just(TrueFormula()),
    st.just(FalseFormula()),
)


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(b.not_),
        children.map(b.next_),
        children.map(b.eventually),
        children.map(b.always),
        pairs.map(lambda p: b.and_(*p)),
        pairs.map(lambda p: b.or_(*p)),
        pairs.map(lambda p: b.implies(*p)),
        pairs.map(lambda p: b.iff(*p)),
        pairs.map(lambda p: b.until(*p)),
        pairs.map(lambda p: b.weak_until(*p)),
        pairs.map(lambda p: b.release(*p)),
    )


#: Quantifier-free future matrices over x0, x1 and the constant vip, with
#: every connective ``ground`` translates.
matrices = st.recursive(_leaves, _extend, max_leaves=8)

#: The smart constructor of each compound matrix node.
_CONSTRUCTORS = {
    And: pand,
    Or: por,
    Implies: pimplies,
    Iff: lambda gl, gr: por(pand(gl, gr), pand(pnot(gl), pnot(gr))),
    Not: pnot,
    Next: pnext,
    Eventually: peventually,
    Always: palways,
    Until: puntil,
    WeakUntil: pweak_until,
    Release: prelease,
}


def eager_ground(matrix, assignment, context):
    """ground() without the short-circuit: every operand is grounded
    before its smart constructor folds them."""
    build = _CONSTRUCTORS.get(type(matrix))
    if build is None:
        return ground(matrix, assignment, context)
    return build(
        *(eager_ground(child, assignment, context) for child in matrix.children)
    )


class TestTemplateGrounding:
    """ground() builds the monitor's templates (DESIGN.md §10.1); its
    short-circuit changes no node."""

    @given(matrix=matrices, which=st.integers(0, len(ID_DOMAINS) - 1))
    @settings(max_examples=150, deadline=None)
    def test_short_circuit_changes_no_node(self, matrix, which):
        # Folded over every domain, and literal (equality and anonymous
        # letters kept) over the first one.
        literal = GroundContext(constant_bindings={"vip": 2}, fold=False)
        for domain, context in (
            (ID_DOMAINS[which], ID_CONTEXT),
            (ID_DOMAINS[0], literal),
        ):
            for values in cartesian(domain, repeat=2):
                assignment = {X0: values[0], X1: values[1]}
                assert ground(matrix, assignment, context) is eager_ground(
                    matrix, assignment, context
                ), values

    @given(seed=st.integers(0, 500), quantifiers=st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_a_template_renamed_is_the_instance(self, seed, quantifiers):
        # Grounding a tuple's pattern over placeholders and renaming the
        # placeholders onto the tuple's elements gives the tuple's own
        # instance id (DESIGN.md §10.1); the table holds that template.
        constraint = random_universal_constraint(
            ID_V, ConstraintConfig(quantifiers=quantifiers, size=6, seed=seed)
        )
        info = require_universal(constraint)
        matrix = b.or_(info.matrix, b.atom("Link", VIP, X0))
        variables = tuple(info.external_universals)
        kernel = ProgressionKernel()
        table = LiftedTable(
            kernel, matrix, variables, ID_CONTEXT, frozenset({2})
        )

        def instance(values):
            return kernel.intern(
                ground(matrix, dict(zip(variables, values)), ID_CONTEXT)
            )

        domain = (1, 2, 3, Anon(1), Anon(2))
        for values in cartesian(domain, repeat=len(variables)):
            values = canonical_tuple(values)
            pattern = table.pattern(values)
            template = instance(pattern)
            assert table.templates[pattern].root == template
            assert lifted_module._renamed(
                kernel, template, values, table.constants
            ) == instance(values)

    def test_constants_short_circuit(self, monkeypatch):
        # A false conjunct ends the conjunction before the letters of the
        # others are built: the diagonal and anonymous fifo instances
        # build no letter at all.
        matrix = matrix_of(
            "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
            "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))"
        )
        letters = []
        real_rel_prop = grounding_module.rel_prop

        def counting_rel_prop(pred, args):
            letters.append((pred, args))
            return real_rel_prop(pred, args)

        monkeypatch.setattr(grounding_module, "rel_prop", counting_rel_prop)
        assert ground(matrix, {x: 1, y: 1}, ID_CONTEXT) is PTRUE
        assert ground(matrix, {x: Anon(1), y: 1}, ID_CONTEXT) is PTRUE
        assert letters == []
        off_diagonal = {x: 1, y: 2}
        assert ground(matrix, off_diagonal, ID_CONTEXT) is eager_ground(
            matrix, off_diagonal, ID_CONTEXT
        )
        assert ("Sub", (1,)) in letters

    def test_refuses_what_no_template_can_hold(self):
        # A free variable, an unbound constant, a past connective and an
        # internal quantifier, on an instance's and a template's element.
        for element in (1, Placeholder(1)):
            assignment = {x: element}
            with pytest.raises(ClassificationError):
                ground(matrix_of("forall x . Sub(y)"), assignment, ID_CONTEXT)
            with pytest.raises(SchemaError):
                ground(
                    matrix_of("forall x . Sub(Nope)"), assignment, ID_CONTEXT
                )
            for text in (
                "forall x . G (Sub(x) -> Y Sub(x))",
                "forall x . G (exists y . q(x, y))",
            ):
                with pytest.raises(ClassificationError):
                    ground(matrix_of(text), assignment, ID_CONTEXT)
