"""Tests for the FOTL parser and printer (round-trip included)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.logic import (
    Always,
    Eventually,
    Exists,
    Forall,
    Iff,
    Implies,
    Next,
    Once,
    Prev,
    Release,
    Since,
    Until,
    WeakUntil,
    and_,
    atom,
    eq,
    forall,
    next_,
    not_,
    or_,
    parse,
    to_str,
    until,
    var,
    weak_until,
)


class TestAtoms:
    def test_nullary_atom(self):
        assert parse("p") == atom("p")

    def test_unary_atom_variable(self):
        assert parse("Sub(x)") == atom("Sub", var("x"))

    def test_binary_atom(self):
        assert parse("edge(x, y)") == atom("edge", "x", "y")

    def test_constant_argument(self):
        f = parse("owner(x, Alice)")
        assert {c.name for c in f.constants()} == {"Alice"}

    def test_equality(self):
        assert parse("x = y") == eq("x", "y")

    def test_disequality(self):
        assert parse("x != y") == not_(eq("x", "y"))

    def test_true_false(self):
        assert str(parse("true")) == "true"
        assert str(parse("false")) == "false"


class TestConnectives:
    def test_negation(self):
        assert parse("!p") == not_(atom("p"))

    def test_and_n_ary(self):
        f = parse("p & q & r")
        assert f == and_(atom("p"), atom("q"), atom("r"))

    def test_or_precedence_below_and(self):
        f = parse("p | q & r")
        assert f == or_(atom("p"), and_(atom("q"), atom("r")))

    def test_implies_right_associative(self):
        f = parse("p -> q -> r")
        assert isinstance(f, Implies)
        assert isinstance(f.consequent, Implies)

    def test_iff(self):
        assert isinstance(parse("p <-> q"), Iff)

    def test_parentheses(self):
        f = parse("(p | q) & r")
        assert f == and_(or_(atom("p"), atom("q")), atom("r"))


class TestTemporal:
    @pytest.mark.parametrize(
        "text,node",
        [
            ("X p", Next),
            ("F p", Eventually),
            ("G p", Always),
            ("Y p", Prev),
            ("O p", Once),
        ],
    )
    def test_unary_temporal(self, text, node):
        assert isinstance(parse(text), node)

    @pytest.mark.parametrize(
        "text,node",
        [
            ("p U q", Until),
            ("p W q", WeakUntil),
            ("p R q", Release),
            ("p S q", Since),
        ],
    )
    def test_binary_temporal(self, text, node):
        assert isinstance(parse(text), node)

    def test_unary_binds_tighter_than_binary(self):
        f = parse("X p U G q")
        assert isinstance(f, Until)
        assert isinstance(f.left, Next)
        assert isinstance(f.right, Always)

    def test_nested_binary_needs_parens(self):
        f = parse("(p U q) U r")
        assert isinstance(f, Until)
        assert isinstance(f.left, Until)


class TestQuantifiers:
    def test_forall_multi_variable(self):
        f = parse("forall x y . p(x, y)")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Forall)

    def test_exists(self):
        assert isinstance(parse("exists x . p(x)"), Exists)

    def test_quantifier_scope_extends_right(self):
        f = parse("forall x . p(x) -> q(x)")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Implies)

    def test_paper_example_one(self):
        f = parse("forall x . G (Sub(x) -> X G !Sub(x))")
        assert f.is_closed()


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "p &",
            "forall . p",
            "forall x p",
            "p(",
            "p(x",
            "(p",
            "p q",
            "x =",
            "@",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("p & @")
        assert info.value.position == 4

    def test_reserved_letter_not_an_atom(self):
        # X is the next operator; 'X p' parses, bare 'X' does not.
        with pytest.raises(ParseError):
            parse("X")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "forall x . G (Sub(x) -> X G !Sub(x))",
            "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
            "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))",
            "p U (q R r)",
            "exists x . p(x) S q(x)",
            "G (p -> Y O q)",
            "forall x . Fill(x) -> Y O Sub(x)",
        ],
    )
    def test_specific_roundtrips(self, text):
        f = parse(text)
        assert parse(to_str(f)) == f

    # Deferred so the recursive strategy is built once, not per example.
    @given(formula=st.deferred(lambda: _fotl_formulas()))
    @settings(max_examples=150, deadline=None)
    def test_random_roundtrip(self, formula):
        assert parse(to_str(formula)) == formula


def _fotl_formulas():
    """Random FOTL formulas built through the smart constructors."""
    from repro.logic import (
        always,
        eventually,
        exists,
        historically,
        implies,
        once,
        prev,
        release,
        since,
    )

    terms = st.sampled_from([var("x"), var("y"), var("z")])
    atoms = st.one_of(
        st.tuples(st.sampled_from(["p", "q"]), terms).map(
            lambda t: atom(t[0], t[1])
        ),
        st.tuples(terms, terms).map(lambda t: eq(t[0], t[1])),
    )

    def extend(children):
        unary = st.one_of(
            children.map(not_),
            children.map(next_),
            children.map(always),
            children.map(eventually),
            children.map(prev),
            children.map(once),
            children.map(historically),
            children.map(lambda f: forall(var("x"), f)),
            children.map(lambda f: exists(var("y"), f)),
        )
        binary = st.one_of(
            st.tuples(children, children).map(lambda p: and_(*p)),
            st.tuples(children, children).map(lambda p: or_(*p)),
            st.tuples(children, children).map(lambda p: implies(*p)),
            st.tuples(children, children).map(lambda p: until(*p)),
            st.tuples(children, children).map(lambda p: weak_until(*p)),
            st.tuples(children, children).map(lambda p: release(*p)),
            st.tuples(children, children).map(lambda p: since(*p)),
        )
        return st.one_of(unary, binary)

    return st.recursive(atoms, extend, max_leaves=8)
