"""Per-pass unit tests: one positive and one negative case per pass."""

import pytest

from repro.database import vocabulary
from repro.lint import Severity, lint_formula, lint_source


def codes(text, **kwargs):
    return lint_source(text, **kwargs).codes()


class TestSentencePass:
    def test_open_formula_flagged(self):
        report = lint_source("G p(x)")
        (diag,) = report.by_code("TIC001")
        assert diag.severity is Severity.ERROR
        assert "x" in diag.message
        assert diag.span is not None

    def test_sentence_clean(self):
        assert "TIC001" not in codes("forall x . G p(x)")

    def test_trigger_mode_allows_free_variables(self):
        assert "TIC001" not in codes("F Sub(x)", mode="trigger")


class TestNonBiquantifiedPass:
    def test_quantifier_over_temporal_flagged(self):
        report = lint_source("forall x . exists y . G q(x, y)")
        (diag,) = report.by_code("TIC002")
        assert diag.severity is Severity.ERROR
        assert diag.paper == "Section 3"
        # The span pinpoints the offending existential, not the prefix.
        assert diag.span.column == 12

    def test_biquantified_clean(self):
        assert "TIC002" not in codes(
            "forall x . G (p(x) -> F (exists y . q(x, y)))"
        )


class TestInternalQuantifierPass:
    def test_sigma1_formula_cites_theorem_3_2(self):
        # The undecidable Sigma_1 shape from Section 3.
        report = lint_source("forall x . G (p(x) -> F (exists y . q(x, y)))")
        (diag,) = report.by_code("TIC003")
        assert diag.severity is Severity.ERROR
        assert diag.paper == "Theorem 3.2"
        assert "Pi^0_2" in diag.message
        assert diag.span is not None
        assert diag.span.column == 26

    def test_internal_universal_also_flagged(self):
        report = lint_source("forall x . G (forall y . q(x, y))")
        (diag,) = report.by_code("TIC003")
        assert "universal" in diag.message

    def test_universal_formula_clean(self, submit_once):
        report = lint_formula(submit_once)
        assert not report.by_code("TIC003")
        assert report.ok


class TestPastInMatrixPass:
    def test_past_matrix_flagged(self):
        report = lint_source("forall x . G (Fill(x) -> Y O Sub(x))")
        (diag,) = report.by_code("TIC004")
        assert diag.severity is Severity.ERROR
        assert "pasteval" in diag.message

    def test_future_only_clean(self):
        assert "TIC004" not in codes("forall x . G (Sub(x) -> X G !Sub(x))")


class TestSafetyPass:
    def test_eventually_pinpointed(self):
        report = lint_source("forall x . G (Sub(x) -> F Fill(x))")
        (diag,) = report.by_code("TIC005")
        assert diag.severity is Severity.ERROR
        assert "'eventually'" in diag.message
        # Span of the 'F Fill(x)' subformula.
        assert diag.span.column == 25

    def test_strong_until_pinpointed(self):
        report = lint_source("forall x . p(x) U q(x)")
        (diag,) = report.by_code("TIC005")
        assert "until" in diag.message

    def test_negated_weak_until_blamed_on_negation(self):
        # No F/U node in the source; NNF manufactures the strong until.
        report = lint_source("!(p W q)")
        (diag,) = report.by_code("TIC005")
        assert "negation normal form" in diag.message

    def test_safety_formula_clean(self, fifo_fill):
        assert lint_formula(fifo_fill).ok

    def test_pure_past_constraint_not_flagged(self):
        # Safety by Proposition 2.1 even though the recognizer is
        # conservative about mixed nodes.
        assert "TIC005" not in codes("forall x . G (Fill(x) -> O Sub(x))")


class TestPastRewritePass:
    def test_g_past_suggests_pasteval(self):
        report = lint_source("forall x . G (Fill(x) -> O Sub(x))")
        (diag,) = report.by_code("TIC006")
        assert diag.severity is Severity.INFO
        assert diag.paper == "Proposition 2.1"
        assert "IncrementalPastEvaluator" in diag.message

    def test_future_constraint_no_suggestion(self, submit_once):
        assert not lint_formula(submit_once).by_code("TIC006")

    def test_g_state_formula_no_suggestion(self):
        # G over a temporal-free body needs no rewrite advice.
        assert "TIC006" not in codes("forall x . G !p(x)")


class TestDomainIndependencePass:
    def test_equality_only_variable_flagged(self):
        report = lint_source("forall x y . G (p(x) | x = y)")
        (diag,) = report.by_code("TIC007")
        assert diag.severity is Severity.WARNING
        assert "'y'" in diag.message

    def test_range_restricted_clean(self, fifo_fill):
        # Both variables occur in relational atoms despite the x != y.
        assert not lint_formula(fifo_fill).by_code("TIC007")


class TestVocabularyPass:
    def test_conflicting_arity_flagged(self):
        report = lint_source("forall x y . G (p(x) -> X p(x, y))")
        (diag,) = report.by_code("TIC008")
        assert diag.severity is Severity.ERROR
        assert "arity" in diag.message

    def test_unknown_predicate_against_vocabulary(self):
        schema = vocabulary({"Sub": 1})
        report = lint_source(
            "forall x . G (Sub(x) -> X Fill(x))", vocabulary=schema
        )
        (diag,) = report.by_code("TIC008")
        assert "'Fill'" in diag.message

    def test_arity_mismatch_against_vocabulary(self):
        schema = vocabulary({"Sub": 2})
        report = lint_source("forall x . G Sub(x)", vocabulary=schema)
        (diag,) = report.by_code("TIC008")
        assert "declared arity 2" in diag.message

    def test_undeclared_constant_against_vocabulary(self):
        schema = vocabulary({"owner": 2})
        report = lint_source(
            "forall x . G owner(x, Alice)", vocabulary=schema
        )
        (diag,) = report.by_code("TIC008")
        assert "'Alice'" in diag.message

    def test_conforming_formula_clean(self):
        schema = vocabulary({"Sub": 1}, constants=("Alice",))
        report = lint_source("forall x . G !Sub(x)", vocabulary=schema)
        assert not report.by_code("TIC008")


class TestTriggerConditionPass:
    def test_analyzable_condition_clean(self):
        # 'F Sub(x)': negation is G !Sub(x), a universal safety sentence
        # after closing the parameter.
        report = lint_source("F Sub(x)", mode="trigger")
        assert not report.by_code("TIC009")

    def test_unanalyzable_condition_flagged(self):
        # Negation of 'G p(x)' is 'F !p(x)' — a liveness obligation.
        report = lint_source("G Sub(x)", mode="trigger")
        (diag,) = report.by_code("TIC009")
        assert diag.severity is Severity.ERROR
        assert "duality" in (diag.paper or "")

    def test_not_run_in_constraint_mode(self):
        assert "TIC009" not in codes("G Sub(x)")


class TestGroundingCostPass:
    def test_small_prefix_is_info(self, submit_once):
        (diag,) = lint_formula(submit_once).by_code("TIC010")
        assert diag.severity is Severity.INFO
        assert "9^1" in diag.message

    def test_large_prefix_escalates_to_warning(self):
        report = lint_source(
            "forall x y z w . G (p(x, y) -> X !p(z, w))", domain_size=12
        )
        (diag,) = report.by_code("TIC010")
        assert diag.severity is Severity.WARNING
        assert "16^4" in diag.message

    def test_quantifier_free_constraint_silent(self):
        assert "TIC010" not in codes("G (p -> X q)")


class TestVacuousQuantifierPass:
    def test_unused_variable_flagged(self):
        report = lint_source("forall x y . G !Sub(x)")
        (diag,) = report.by_code("TIC011")
        assert diag.severity is Severity.WARNING
        assert "'forall y'" in diag.message

    def test_used_variables_clean(self, fifo_fill):
        assert not lint_formula(fifo_fill).by_code("TIC011")


class TestAcceptance:
    """The ISSUE acceptance scenario in one place."""

    def test_sigma1_formula_full_report(self):
        report = lint_source(
            "forall x . G (p(x) -> F (exists y . q(x, y)))"
        )
        assert not report.ok
        tic003 = report.by_code("TIC003")
        assert tic003 and tic003[0].span is not None
        assert tic003[0].paper == "Theorem 3.2"

    @pytest.mark.parametrize(
        "text",
        [
            "forall x . G (Sub(x) -> X G !Sub(x))",
            "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
            "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))",
        ],
    )
    def test_paper_examples_have_no_errors(self, text):
        assert lint_source(text).ok
