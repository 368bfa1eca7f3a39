"""Tests for the grounding machinery (Theorem 4.1's letters and folding)."""

from itertools import product as cartesian

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.grounding as grounding_module
import repro.core.lifted as lifted_module
from repro.core.grounding import (
    Anon,
    EqAtom,
    GroundContext,
    IdGrounder,
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
from repro.logic.formulas import FalseFormula, TrueFormula
from repro.logic.transform import strip_universal_prefix
from repro.ptl import PFALSE, PTRUE, PAlways, Prop, evaluate_lasso, LassoModel
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


# -- the id grounder -------------------------------------------------------

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


def _virtual_ids(kernel):
    return [
        oid
        for oid, member in enumerate(kernel._oblig.members)
        if member is None
    ]


def _check_against_ground(matrix, quantifiers, domain, context=ID_CONTEXT):
    """Every assignment over ``domain``: the id grounder's materialized
    instance is ground()'s node, and every id it created is canonical."""
    kernel = ProgressionKernel()
    grounder = IdGrounder(matrix, quantifiers, context, kernel)
    pairs = []
    for values in cartesian(domain, repeat=len(quantifiers)):
        pairs.append((values, grounder.ground(values)))
    virtual = _virtual_ids(kernel)
    for values, rid in pairs:
        expected = ground(matrix, dict(zip(quantifiers, values)), context)
        assert kernel.formula(rid) is expected, values
    for oid in virtual:
        assert kernel.intern(kernel.formula(oid)) == oid
    # Materializing created no second id for any structure.
    assert _virtual_ids(kernel) == []
    assert len(set(kernel._oblig.members)) == len(kernel._oblig.members)


class TestIdGrounder:
    """The id grounder builds ground()'s instance, in the kernel's id
    space, with canonical ids (DESIGN.md §10)."""

    @given(matrix=matrices, which=st.integers(0, len(ID_DOMAINS) - 1))
    @settings(max_examples=150, deadline=None)
    def test_every_connective_materializes_to_the_ground_node(
        self, matrix, which
    ):
        _check_against_ground(matrix, (X0, X1), ID_DOMAINS[which])
        # The literal construction keeps equality and anonymous letters.
        literal = GroundContext(constant_bindings={"vip": 2}, fold=False)
        _check_against_ground(matrix, (X0, X1), ID_DOMAINS[0], literal)

    @given(seed=st.integers(0, 500), quantifiers=st.integers(1, 2))
    @settings(max_examples=80, deadline=None)
    def test_random_universal_constraints(self, seed, quantifiers):
        constraint = random_universal_constraint(
            ID_V, ConstraintConfig(quantifiers=quantifiers, size=6, seed=seed)
        )
        info = require_universal(constraint)
        # Conjoin a constant atom so constant-valued assignments matter.
        matrix = b.or_(info.matrix, b.atom("Link", VIP, X0))
        for domain in ID_DOMAINS:
            _check_against_ground(
                matrix, tuple(info.external_universals), domain
            )

    @given(seed=st.integers(0, 500), quantifiers=st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_a_template_renamed_is_the_instance(self, seed, quantifiers):
        # Grounding a tuple's pattern over placeholders and renaming the
        # placeholders onto the tuple's elements gives the tuple's own
        # instance id (DESIGN.md §10.1).
        constraint = random_universal_constraint(
            ID_V, ConstraintConfig(quantifiers=quantifiers, size=6, seed=seed)
        )
        info = require_universal(constraint)
        matrix = b.or_(info.matrix, b.atom("Link", VIP, X0))
        variables = tuple(info.external_universals)
        kernel = ProgressionKernel()
        grounder = IdGrounder(matrix, variables, ID_CONTEXT, kernel)
        table = LiftedTable(kernel, grounder, len(variables), frozenset({2}))
        domain = (1, 2, 3, Anon(1), Anon(2))
        for values in cartesian(domain, repeat=len(variables)):
            values = canonical_tuple(values)
            template = grounder.ground(table.pattern(values))
            assert lifted_module._renamed(
                kernel, template, values, table.constants
            ) == grounder.ground(values)

    @given(
        seed=st.integers(0, 500),
        quantifiers=st.integers(1, 2),
        old=st.integers(0, 3),
        new=st.integers(1, 3),
    )
    # A false conjunct short-circuits Sub(x1) away for every old assignment,
    # so the letter Sub(0) is first built for a new one.
    @example(seed=174, quantifiers=2, old=1, new=1)
    @settings(max_examples=60, deadline=None)
    def test_subformulas_over_old_elements_are_never_rebuilt(
        self, seed, quantifiers, old, new
    ):
        # The grounder's memo: growing the domain after every assignment
        # over the old one is grounded builds no letter a one-pass
        # grounding of the grown domain would not build (nothing is built
        # twice), and every new instance is still ground()'s node.
        constraint = random_universal_constraint(
            ID_V, ConstraintConfig(quantifiers=quantifiers, size=5, seed=seed)
        )
        info = require_universal(constraint)
        variables = tuple(info.external_universals)
        anonymous = tuple(Anon(i + 1) for i in range(quantifiers))
        before = list(cartesian(tuple(range(old)) + anonymous, repeat=quantifiers))
        after = list(
            cartesian(tuple(range(old + new)) + anonymous, repeat=quantifiers)
        )
        added = [values for values in after if values not in before]
        assert len(added) == len(after) - len(before)
        letters = []
        real_rel_prop = grounding_module.rel_prop

        def counting_rel_prop(pred, args):
            letters.append((pred, args))
            return real_rel_prop(pred, args)

        def letters_built(grounder, assignments):
            letters.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(grounding_module, "rel_prop", counting_rel_prop)
                ids = [grounder.ground(values) for values in assignments]
            return len(letters), ids

        kernel = ProgressionKernel()
        grounder = IdGrounder(info.matrix, variables, ID_CONTEXT, kernel)
        first, _ids = letters_built(grounder, before)
        then, ids = letters_built(grounder, added)
        scratch = IdGrounder(
            info.matrix, variables, ID_CONTEXT, ProgressionKernel()
        )
        once, _ids = letters_built(scratch, after)
        assert first + then == once
        for values, rid in zip(added, ids):
            expected = ground(
                info.matrix, dict(zip(variables, values)), ID_CONTEXT
            )
            assert kernel.formula(rid) is expected

    def test_constants_short_circuit(self):
        # A false conjunct ends the conjunction before the letters of the
        # others are built: the diagonal and anonymous fifo instances
        # cost no letter at all.
        matrix = matrix_of(
            "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
            "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))"
        )
        kernel = ProgressionKernel()
        grounder = IdGrounder(matrix, (x, y), ID_CONTEXT, kernel)
        letters_before = kernel.info().letters
        assert grounder.ground((1, 1)) == kernel.true_id
        assert grounder.ground((Anon(1), 1)) == kernel.true_id
        assert kernel.info().letters == letters_before
        assert kernel.formula(grounder.ground((1, 2))) is ground(
            matrix, {x: 1, y: 2}, ID_CONTEXT
        )

    def test_refuses_what_ground_refuses(self):
        kernel = ProgressionKernel()
        with pytest.raises(ClassificationError):
            IdGrounder(matrix_of("forall x . Sub(y)"), (x,), ID_CONTEXT, kernel)
        with pytest.raises(SchemaError):
            IdGrounder(
                matrix_of("forall x . Sub(Nope)"), (x,), ID_CONTEXT, kernel
            )
        for text in (
            "forall x . G (Sub(x) -> Y Sub(x))",
            "forall x . G (exists y . q(x, y))",
        ):
            with pytest.raises(ClassificationError):
                IdGrounder(matrix_of(text), (x,), ID_CONTEXT, kernel)
