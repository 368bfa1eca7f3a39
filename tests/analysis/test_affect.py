"""Tests for polarity-aware affect sets and the dependence index."""

import pytest

from repro import parse
from repro.analysis import AffectSet, UpdateDependencyIndex, affect_set
from repro.analysis.affect import Polarity, RelationProfile
from repro.database import vocabulary

SUBMIT_ONCE = parse("forall x . G (Sub(x) -> X G !Sub(x))")
FIFO_FILL = parse(
    "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
    "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))"
)


class TestAffectSet:
    def test_submit_once_is_pure_negative(self):
        aff = affect_set(SUBMIT_ONCE)
        assert aff.relations() == {"Sub"}
        profile = aff.profile("Sub")
        # Sub appears in an antecedent and under a negation: both negative.
        assert (profile.positive, profile.negative) == (0, 2)
        assert profile.pure_negative and not profile.mixed
        assert aff.pure_negative

    def test_fifo_fill_polarities(self):
        aff = affect_set(FIFO_FILL)
        fill = aff.profile("Fill")
        sub = aff.profile("Sub")
        assert (fill.positive, fill.negative) == (3, 1)
        assert fill.mixed
        assert (sub.positive, sub.negative) == (0, 2)
        assert not aff.pure_negative

    def test_implies_flips_antecedent_only(self):
        aff = affect_set(parse("forall x . (p(x) -> q(x))"))
        assert aff.profile("p").pure_negative
        assert aff.profile("q").pure_positive

    def test_double_negation_restores_polarity(self):
        aff = affect_set(parse("forall x . !!p(x)"))
        assert aff.profile("p").pure_positive

    def test_iff_counts_both_polarities(self):
        aff = affect_set(parse("forall x . (p(x) <-> q(x))"))
        for name in ("p", "q"):
            profile = aff.profile(name)
            assert profile.positive == 1 and profile.negative == 1
            assert profile.mixed

    def test_equality_atoms_are_ignored(self):
        aff = affect_set(parse("forall x . G (x = x)"))
        assert aff.state_independent
        assert aff.relations() == frozenset()
        assert not aff.pure_negative  # vacuous sets are not pure-negative

    def test_can_violate(self):
        aff = affect_set(SUBMIT_ONCE)
        assert aff.can_violate("Sub", "insert")
        assert not aff.can_violate("Sub", "delete")
        assert not aff.can_violate("Fill", "insert")
        with pytest.raises(ValueError, match="unknown update kind"):
            aff.can_violate("Sub", "upsert")

    def test_pairs_view(self):
        aff = affect_set(FIFO_FILL)
        assert set(aff.pairs()) == {
            ("Fill", Polarity.POSITIVE),
            ("Fill", Polarity.NEGATIVE),
            ("Sub", Polarity.NEGATIVE),
        }

    def test_equal_regardless_of_order(self):
        a = affect_set(parse("forall x . (p(x) & q(x))"))
        b = affect_set(parse("forall x . (q(x) & p(x))"))
        assert a == b and hash(a) == hash(b)

    def test_profile_of_unmentioned_relation(self):
        assert affect_set(SUBMIT_ONCE).profile("Fill") is None

    def test_empty_affect_set(self):
        empty = AffectSet()
        assert empty.state_independent
        assert empty.pairs() == ()
        assert not empty.can_violate("Sub", "insert")


class TestUpdateDependencyIndex:
    def make_index(self):
        return UpdateDependencyIndex(
            {"once": SUBMIT_ONCE, "fifo": FIFO_FILL}
        )

    def test_inverted_maps(self):
        index = self.make_index()
        assert index.monitored_by == {
            "Sub": ("once", "fifo"),
            "Fill": ("fifo",),
        }
        assert index.insert_violates == {
            "Sub": ("once", "fifo"),
            "Fill": ("fifo",),
        }
        assert index.delete_violates == {"Fill": ("fifo",)}

    def test_constraints_and_relations(self):
        index = self.make_index()
        assert index.constraints() == ("once", "fifo")
        assert index.relations() == {"Sub", "Fill"}
        assert index.affect("once").pure_negative

    def test_unmonitored_and_dead(self):
        index = self.make_index()
        vocab = vocabulary({"Sub": 1, "Fill": 1, "Audit": 2})
        assert index.unmonitored(vocab) == ("Audit",)
        assert index.dead(vocab) == ()
        narrow = vocabulary({"Audit": 2})
        assert index.dead(narrow) == ("once", "fifo")

    def test_state_independent_constraint_is_never_dead(self):
        index = UpdateDependencyIndex({"triv": parse("forall x . G (x = x)")})
        assert index.dead(vocabulary({"Sub": 1})) == ()

    def test_to_dict_shape(self):
        doc = self.make_index().to_dict()
        assert set(doc) == {"constraints", "relations"}
        once = doc["constraints"]["once"]
        assert once["relations"]["Sub"] == {"positive": 0, "negative": 2}
        assert once["pure_negative"] is True
        assert once["state_independent"] is False
        assert doc["relations"]["Fill"]["monitored_by"] == ["fifo"]


class TestRelationProfile:
    def test_flags(self):
        assert RelationProfile("r", positive=1).pure_positive
        assert RelationProfile("r", negative=1).pure_negative
        assert RelationProfile("r", positive=1, negative=1).mixed
        zero = RelationProfile("r")
        assert not (zero.pure_positive or zero.pure_negative or zero.mixed)
