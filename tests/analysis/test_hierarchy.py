"""Temporal-hierarchy classifier: unit behavior and corpus soundness.

The classifier's one hard obligation is soundness with respect to the
automaton-based safety analysis: a formula placed in a safe class
(past-closed / bounded-future / safety) must be accepted by
:func:`repro.ptl.safety.is_safety`, and a co-safety verdict means the
*negation* is automaton-safe.  The corpus tests below run that
obligation over every formula the workload generators and the safety
test corpus produce — the executable form of the TIC131 cross-check.
"""

import pytest
from hypothesis import given, settings

from repro.analysis.hierarchy import (
    RETIRABLE_CLASSES,
    SAFE_CLASSES,
    HierarchyClass,
    backend_for,
    classify_hierarchy,
    classify_ptl_hierarchy,
)
from repro.logic import parse
from repro.logic.safety import is_syntactically_safe
from repro.ptl import is_liveness, is_safety, parse_ptl, pnot
from repro.workloads.formulas import (
    ConstraintConfig,
    PTLConfig,
    random_ptl,
    random_ptl_safety,
    random_universal_constraint,
)
from repro.database import vocabulary

from ..conftest import ptl_formulas

V = vocabulary({"Sub": 1, "Fill": 1})

#: The safety / non-safety / liveness corpus of tests/ptl/test_safety.py.
SAFE_PTL = [
    "G p", "G (p -> X q)", "p W q", "!p", "p", "G !p", "p R q",
    "X X p", "G (p -> X (q | X q))",
]
NON_SAFE_PTL = ["F p", "p U q", "G F p", "F G p", "p | F q"]
LIVENESS_PTL = ["F p", "G F p", "p | F q", "F !p"]


class TestPTLClassification:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("G (p -> X q)", HierarchyClass.SAFETY),
            ("p W q", HierarchyClass.SAFETY),
            ("p R q", HierarchyClass.SAFETY),
            ("G !p", HierarchyClass.SAFETY),
            ("p U q", HierarchyClass.CO_SAFETY),
            ("F p", HierarchyClass.CO_SAFETY),
            ("G F p", HierarchyClass.GENERAL),
            ("F G p", HierarchyClass.GENERAL),
            ("!p", HierarchyClass.BOUNDED_FUTURE),
            ("p", HierarchyClass.BOUNDED_FUTURE),
            ("X X p", HierarchyClass.BOUNDED_FUTURE),
        ],
    )
    def test_classes(self, text, expected):
        assert classify_ptl_hierarchy(parse_ptl(text)).cls is expected

    def test_lookahead_depth(self):
        info = classify_ptl_hierarchy(parse_ptl("X X p | X q"))
        assert info.cls is HierarchyClass.BOUNDED_FUTURE
        assert info.lookahead == 2

    def test_non_bounded_classes_have_no_lookahead(self):
        for text in ["G p", "F p", "G F p"]:
            assert classify_ptl_hierarchy(parse_ptl(text)).lookahead is None

    @pytest.mark.parametrize("text", SAFE_PTL)
    def test_safe_corpus_lands_in_safe_classes(self, text):
        assert classify_ptl_hierarchy(parse_ptl(text)).cls in SAFE_CLASSES

    @pytest.mark.parametrize("text", NON_SAFE_PTL + LIVENESS_PTL)
    def test_non_safety_corpus_never_claims_safety(self, text):
        assert classify_ptl_hierarchy(parse_ptl(text)).cls not in SAFE_CLASSES


class TestFOTLClassification:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("forall x . G (Fill(x) -> Y O Sub(x))",
             HierarchyClass.PAST_CLOSED),
            ("forall x . G (Sub(x) -> X G !Sub(x))", HierarchyClass.SAFETY),
            ("forall x . Sub(x) -> X X Fill(x)",
             HierarchyClass.BOUNDED_FUTURE),
            ("forall x . F Sub(x)", HierarchyClass.CO_SAFETY),
            ("forall x . G F Sub(x)", HierarchyClass.GENERAL),
            # A temporal-free internal quantifier under G is a state
            # condition: past-closed, history-lessly checkable ...
            ("forall x . G (Sub(x) -> (exists y . Fill(y)))",
             HierarchyClass.PAST_CLOSED),
            # ... but a quantifier over a future body leaves the
            # analyzed skeleton.
            ("forall x . G (Sub(x) -> (exists y . F Fill(y)))",
             HierarchyClass.GENERAL),
        ],
    )
    def test_classes(self, text, expected):
        assert classify_hierarchy(parse(text)).cls is expected

    def test_bounded_future_lookahead(self):
        info = classify_hierarchy(parse("forall x . Sub(x) -> X X Fill(x)"))
        assert info.lookahead == 2

    def test_every_info_has_a_reason(self):
        for text in ["forall x . G Sub(x)", "forall x . G F Sub(x)"]:
            assert classify_hierarchy(parse(text)).reason

    def test_backend_policy(self):
        assert backend_for(HierarchyClass.PAST_CLOSED) == "pasteval"
        for cls in HierarchyClass:
            if cls is not HierarchyClass.PAST_CLOSED:
                assert backend_for(cls) == "progression"

    def test_retirable_classes(self):
        assert HierarchyClass.CO_SAFETY in RETIRABLE_CLASSES
        assert HierarchyClass.BOUNDED_FUTURE in RETIRABLE_CLASSES
        assert HierarchyClass.SAFETY not in RETIRABLE_CLASSES
        assert HierarchyClass.GENERAL not in RETIRABLE_CLASSES


def _assert_sound(formula):
    """The corpus soundness obligation for one PTL formula."""
    cls = classify_ptl_hierarchy(formula).cls
    if cls in SAFE_CLASSES:
        assert is_safety(formula), formula
    if cls is HierarchyClass.CO_SAFETY:
        assert is_safety(pnot(formula)), formula
    if cls is HierarchyClass.BOUNDED_FUTURE:
        # Bounded-future formulas are prefix-determined both ways.
        assert is_safety(formula) and is_safety(pnot(formula)), formula
    if cls is HierarchyClass.SAFETY and is_liveness(formula):
        # The only property that is both safety and liveness is the
        # trivial one; a safety verdict on a liveness formula is only
        # sound when the formula is valid.
        assert is_safety(formula), formula


class TestCorpusSoundness:
    """Classifier vs the automaton oracle over generated corpora."""

    @pytest.mark.parametrize("seed", range(120))
    def test_random_ptl(self, seed):
        _assert_sound(random_ptl(PTLConfig(size=5, propositions=2, seed=seed)))

    @pytest.mark.parametrize("seed", range(60))
    def test_random_ptl_safety(self, seed):
        formula = random_ptl_safety(
            PTLConfig(size=5, propositions=2, seed=seed)
        )
        assert classify_ptl_hierarchy(formula).cls in SAFE_CLASSES
        assert is_safety(formula)

    @given(formula=ptl_formulas(max_props=2, max_depth=3))
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_formulas(self, formula):
        _assert_sound(formula)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_universal_constraints(self, seed):
        constraint = random_universal_constraint(
            V, ConstraintConfig(seed=seed)
        )
        # The generator stays inside the syntactic safety fragment by
        # construction; the classifier must agree.
        assert classify_hierarchy(constraint).cls in SAFE_CLASSES

    @pytest.mark.parametrize(
        "text",
        [
            "forall x . G (Sub(x) -> X G !Sub(x))",
            "forall x . G (Fill(x) -> Y O Sub(x))",
            "forall x . F Sub(x)",
            "forall x . G F Sub(x)",
            "forall x . Sub(x) -> X X Fill(x)",
            "forall x . Sub(x) U Fill(x)",
            "forall x . G (Sub(x) -> (exists y . Fill(y)))",
            "forall x . G (Sub(x) -> (exists y . F Fill(y)))",
        ],
    )
    def test_safe_classes_match_syntactic_safety(self, text):
        formula = parse(text)
        assert (classify_hierarchy(formula).cls in SAFE_CLASSES) == (
            is_syntactically_safe(formula)
        )
