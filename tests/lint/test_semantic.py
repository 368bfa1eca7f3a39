"""Tests for the TIC100+ semantic lint passes (repro.lint.semantic)."""

import pytest

from repro.lint import (
    SEMANTIC_PASS_REGISTRY,
    lint_constraint_set,
    lint_formula,
    lint_trigger_conditions,
    semantic_passes,
)
from repro.lint.setanalysis import SetAnalyzer
from repro.logic import is_syntactically_safe, parse
from repro.workloads import (
    ORDER_VOCABULARY,
    ConstraintConfig,
    no_fill_before_submit,
    random_universal_constraint,
    standard_constraints,
)


def codes(report):
    return [d.code for d in report.diagnostics]


def semantic_codes(report):
    return [c for c in codes(report) if c.startswith("TIC1")]


def lint_semantic(text, **kwargs):
    return lint_formula(parse(text), semantic=True, **kwargs)


class TestRegistry:
    def test_semantic_passes_registered(self):
        passes = semantic_passes()
        declared = {code for p in passes for code in p.codes}
        assert {
            "TIC100",
            "TIC101",
            "TIC102",
            "TIC103",
            "TIC110",
            "TIC111",
            "TIC112",
        } <= declared

    def test_disjoint_from_syntactic_registry(self):
        from repro.lint import PASS_REGISTRY

        assert not set(PASS_REGISTRY) & set(SEMANTIC_PASS_REGISTRY)

    def test_semantic_off_by_default(self):
        report = lint_formula(parse("forall x . G Sub(x)"))
        assert not semantic_codes(report)


class TestPerFormulaPasses:
    def test_tic100_unsatisfiable(self):
        report = lint_semantic("forall x . G Sub(x)")
        assert "TIC100" in codes(report)
        assert not report.ok

    def test_tic100_suppresses_tic101_and_tic110(self):
        report = lint_semantic("forall x . G (Sub(x) & !Sub(x))")
        assert "TIC100" in codes(report)
        assert "TIC101" not in codes(report)

    def test_tic101_valid(self):
        report = lint_semantic("forall x . G (Sub(x) | !Sub(x))")
        assert "TIC101" in codes(report)

    def test_tic102_semantically_safe_info(self):
        # F under G, but semantically equivalent to the safety G Sub(x).
        report = lint_semantic("forall x . G (Sub(x) & F Sub(x))")
        info = [d for d in report.diagnostics if d.code == "TIC102"]
        assert len(info) == 1
        assert info[0].severity.name == "INFO"
        assert "assume_safety" in info[0].message

    def test_tic102_silent_on_agreement(self):
        for text in (
            "forall x . G (Sub(x) -> X G !Sub(x))",  # safe both ways
            "forall x . G (Sub(x) -> F Fill(x))",  # unsafe both ways
        ):
            assert "TIC102" not in codes(lint_semantic(text))

    def test_tic103_antecedent_vacuity(self):
        report = lint_semantic(
            "forall x . G ((Sub(x) & !Sub(x)) -> Fill(x))"
        )
        found = [d for d in report.diagnostics if d.code == "TIC103"]
        assert len(found) == 1
        assert "antecedent" in found[0].message

    def test_tic103_consequent_vacuity(self):
        report = lint_semantic(
            "forall x . G (Fill(x) -> (Sub(x) | !Sub(x)))"
        )
        found = [d for d in report.diagnostics if d.code == "TIC103"]
        assert len(found) == 1
        assert "consequent" in found[0].message

    def test_tic103_silent_on_contentful_implication(self):
        report = lint_semantic("forall x . G (Fill(x) -> Sub(x))")
        assert "TIC103" not in codes(report)

    def test_shipped_constraints_clean(self):
        constraints = dict(standard_constraints())
        constraints["no_fill_before_submit"] = no_fill_before_submit()
        for name, formula in constraints.items():
            report = lint_formula(formula, semantic=True)
            assert not semantic_codes(report), name


class TestSetPasses:
    def seeded(self):
        base = list(standard_constraints().items())
        return base + [
            ("fill_once_weak", parse("forall x . G (Fill(x) -> X !Fill(x))")),
            ("always_submitted", parse("forall x . G Sub(x)")),
        ]

    def test_clean_set_silent(self):
        reports = lint_constraint_set(standard_constraints())
        assert all(report.ok for report in reports)
        assert not any(semantic_codes(r) for r in reports)

    def test_seeded_set_fires_tic110_and_tic100(self):
        named = self.seeded()
        reports = lint_constraint_set(named)
        by_name = {name: rep for (name, _f), rep in zip(named, reports)}
        weak = by_name["fill_once_weak"]
        assert "TIC110" in codes(weak)
        (redundancy,) = [
            d for d in weak.diagnostics if d.code == "TIC110"
        ]
        assert "fill_once" in redundancy.message
        assert "TIC100" in codes(by_name["always_submitted"])
        # The healthy constraints stay silent.
        for name in standard_constraints():
            assert not semantic_codes(by_name[name]), name

    def test_redundancy_not_reported_for_unsat_subsumer(self):
        # An unsatisfiable constraint entails everything; that must not
        # flood the set with TIC110.
        reports = lint_constraint_set(
            [
                ("broken", parse("forall x . G (Sub(x) & !Sub(x))")),
                ("fine", parse("forall x . G (Fill(x) -> X !Fill(x))")),
            ]
        )
        assert "TIC110" not in codes(reports[1])

    def test_equivalence_reported_once_on_later(self):
        reports = lint_constraint_set(
            [
                ("first", parse("forall x . G !Sub(x)")),
                ("second", parse("forall x . G (!Sub(x) & !Sub(x))")),
            ]
        )
        assert "TIC110" not in codes(reports[0])
        (equivalence,) = [
            d for d in reports[1].diagnostics if d.code == "TIC110"
        ]
        assert "equivalent" in equivalence.message
        assert "first" in equivalence.message

    def test_tic111_pairwise(self):
        reports = lint_constraint_set(
            [("yes", parse("G Sub(Ann)")), ("no", parse("G !Sub(Ann)"))]
        )
        for report, other in zip(reports, ("no", "yes")):
            (conflict,) = [
                d for d in report.diagnostics if d.code == "TIC111"
            ]
            assert other in conflict.message

    def test_tic111_whole_set_without_guilty_pair(self):
        reports = lint_constraint_set(
            [
                ("a_or_b", parse("G (Sub(Ann) | Sub(Bob))")),
                ("not_a", parse("G !Sub(Ann)")),
                ("not_b", parse("G !Sub(Bob)")),
            ]
        )
        whole_set = [
            d for d in reports[0].diagnostics if d.code == "TIC111"
        ]
        assert len(whole_set) == 1
        assert "no single pair" in whole_set[0].message
        assert "TIC111" not in codes(reports[1])
        assert "TIC111" not in codes(reports[2])

    def test_serial_matches_parallel(self):
        named = self.seeded()
        serial = lint_constraint_set(named, jobs=1)
        parallel = lint_constraint_set(named, jobs=4)
        assert [r.to_dict() for r in serial] == [
            r.to_dict() for r in parallel
        ]


class TestTriggerPasses:
    def test_tic100_never_firing_condition(self):
        (report,) = lint_trigger_conditions(
            [("never", parse("Sub(x) & !Sub(x)"))]
        )
        (diag,) = [d for d in report.diagnostics if d.code == "TIC100"]
        assert "never fire" in diag.message

    def test_tic112_condition_vs_constraint(self):
        (report,) = lint_trigger_conditions(
            [("fill_seen", parse("Fill(x)"))],
            [("never_fill", parse("forall x . G !Fill(x)"))],
        )
        (diag,) = [d for d in report.diagnostics if d.code == "TIC112"]
        assert "never_fill" in diag.message

    def test_tic112_silent_on_compatible_condition(self):
        (report,) = lint_trigger_conditions(
            [("fill_seen", parse("Fill(x)"))],
            list(standard_constraints().items()),
        )
        assert "TIC112" not in codes(report)

    def test_equality_condition_not_flagged(self):
        (report,) = lint_trigger_conditions(
            [("same", parse("Sub(x) & x = y"))],
            list(standard_constraints().items()),
        )
        assert not semantic_codes(report)


class TestSafetyCorpusCrossValidation:
    """Acceptance criterion: the semantic safety verdict agrees with the
    syntactic classifier on the safety corpus — syntactically-safe
    constraints must be semantically instance-safe (the recognizer is
    sound), and TIC102 never fires at ERROR severity on them."""

    SEEDS = range(40)

    def corpus(self):
        for seed in self.SEEDS:
            yield random_universal_constraint(
                ORDER_VOCABULARY,
                ConstraintConfig(quantifiers=1, size=5, seed=seed),
            )

    def test_syntactic_safe_implies_semantic_safe(self):
        checked = 0
        for formula in self.corpus():
            assert is_syntactically_safe(formula)
            analyzer = SetAnalyzer(constraints=[("c", formula)])
            verdict = analyzer.instance_safety(0)
            if verdict is None:
                continue  # size guard; not a disagreement
            checked += 1
            assert verdict is True, formula
        assert checked >= 20

    def test_no_tic102_error_on_corpus(self):
        for formula in self.corpus():
            report = lint_formula(formula, semantic=True)
            errors = [
                d
                for d in report.diagnostics
                if d.code == "TIC102" and d.severity.name == "ERROR"
            ]
            assert not errors, formula

    @pytest.mark.parametrize(
        "text",
        [
            "forall x . G (Sub(x) -> X G !Sub(x))",
            "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
            "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))",
            "forall x . G !Sub(x)",
            "forall x . G (Sub(x) -> (Fill(x) W Sub(x)))",
        ],
    )
    def test_deterministic_corpus_agreement(self, text):
        formula = parse(text)
        assert is_syntactically_safe(formula)
        analyzer = SetAnalyzer(constraints=[("c", formula)])
        assert analyzer.instance_safety(0) is True
