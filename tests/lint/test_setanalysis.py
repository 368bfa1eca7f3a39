"""Tests for the grounded semantic decision layer (repro.lint.setanalysis)."""

from repro.lint.setanalysis import SetAnalyzer, analysis_cache_clear
from repro.logic import parse
from repro.ptl.formulas import pand, pnot
from repro.ptl.sat import is_satisfiable
from repro.workloads import (
    ORDER_VOCABULARY,
    ConstraintConfig,
    random_universal_constraint,
    standard_constraints,
)


def analyzer_for(*texts, **kwargs):
    return SetAnalyzer(
        constraints=[(f"c{i}", parse(t)) for i, t in enumerate(texts)],
        **kwargs,
    )


class TestEligibility:
    def test_standard_constraints_eligible(self):
        analyzer = SetAnalyzer(
            constraints=list(standard_constraints().items())
        )
        assert all(p.eligible for p in analyzer.constraints)

    def test_past_rejected(self):
        analyzer = analyzer_for("forall x . G (Fill(x) -> Y O Sub(x))")
        profile = analyzer.constraints[0]
        assert not profile.eligible
        assert "past" in profile.reason

    def test_internal_quantifier_rejected(self):
        analyzer = analyzer_for("forall x . G (exists y . Fill(y))")
        assert not analyzer.constraints[0].eligible

    def test_free_variable_constraint_rejected(self):
        analyzer = analyzer_for("G Sub(x)")
        profile = analyzer.constraints[0]
        assert not profile.eligible
        assert "sentence" in profile.reason

    def test_extended_vocabulary_rejected(self):
        analyzer = analyzer_for("forall x y . G !(leq(x, y) & Sub(x))")
        assert not analyzer.constraints[0].eligible

    def test_ineligible_verdicts_are_none(self):
        analyzer = analyzer_for("forall x . G (Fill(x) -> Y O Sub(x))")
        assert analyzer.is_unsatisfiable(0) is None
        assert analyzer.is_valid(0) is None
        assert analyzer.instance_safety(0) is None


class TestPerFormulaVerdicts:
    def test_unsatisfiable_universal(self):
        # G Sub(x) for *all* x: states are finite, the universe is not.
        analyzer = analyzer_for("forall x . G Sub(x)")
        assert analyzer.is_unsatisfiable(0) is True

    def test_satisfiable_constraint(self):
        analyzer = analyzer_for("forall x . G (Sub(x) -> X G !Sub(x))")
        assert analyzer.is_unsatisfiable(0) is False
        assert analyzer.is_valid(0) is False

    def test_valid_constraint(self):
        analyzer = analyzer_for("forall x . G (Sub(x) | !Sub(x))")
        assert analyzer.is_valid(0) is True
        assert analyzer.is_unsatisfiable(0) is False

    def test_liveness_gate_blocks_unsat_verdict(self):
        # The grounding of 'forall x . F Sub(x)' is propositionally unsat
        # (the anonymous instance folds to F false) but the diagonal
        # database satisfies the formula — the safety gate must refuse.
        analyzer = analyzer_for("forall x . F Sub(x)")
        assert analyzer.instance_safety(0) is False
        assert analyzer.is_unsatisfiable(0) is None

    def test_validity_needs_no_gate(self):
        # Valid despite the liveness shape: F(p | !p) via G-dual... use a
        # propositionally valid matrix under F.
        analyzer = analyzer_for("forall x . F (Sub(x) | !Sub(x))")
        assert analyzer.is_valid(0) is True

    def test_instance_safety_of_standard_set(self):
        analyzer = SetAnalyzer(
            constraints=list(standard_constraints().items())
        )
        for index in range(len(analyzer.constraints)):
            assert analyzer.instance_safety(index) is True


class TestSetVerdicts:
    def test_known_entailment(self):
        analyzer = analyzer_for(
            "forall x . G (Fill(x) -> X G !Fill(x))",
            "forall x . G (Fill(x) -> X !Fill(x))",
        )
        assert analyzer.entails(0, 1) is True
        assert analyzer.entails(1, 0) is False

    def test_no_spurious_entailments_in_standard_set(self):
        analyzer = SetAnalyzer(
            constraints=list(standard_constraints().items())
        )
        verdicts = analyzer.sweep()
        assert all(value is False for value in verdicts.values())

    def test_constant_conflict(self):
        analyzer = analyzer_for("G Sub(Ann)", "G !Sub(Ann)")
        assert analyzer.conflicts(0, 1) is True
        assert analyzer.is_unsatisfiable(0) is False
        assert analyzer.is_unsatisfiable(1) is False

    def test_conflicts_symmetric_lookup(self):
        analyzer = analyzer_for("G Sub(Ann)", "G !Sub(Ann)")
        assert analyzer.conflicts(1, 0) is True

    def test_joint_unsat_without_pair_conflict(self):
        analyzer = analyzer_for(
            "G (Sub(Ann) | Sub(Bob))",
            "G !Sub(Ann)",
            "G !Sub(Bob)",
        )
        for left in range(3):
            for right in range(left + 1, 3):
                assert analyzer.conflicts(left, right) is False
        assert analyzer.jointly_unsatisfiable() is True
        assert analyzer.jointly_unsatisfiable([1, 2]) is False

    def test_empty_set_jointly_satisfiable(self):
        analyzer = SetAnalyzer()
        assert analyzer.jointly_unsatisfiable() is False


class TestConditions:
    def constraints(self):
        return [("never_fill", parse("forall x . G !Fill(x)"))]

    def test_condition_conflict(self):
        analyzer = SetAnalyzer(
            constraints=self.constraints(),
            conditions=[("fill_seen", parse("Fill(x)"))],
        )
        assert analyzer.condition_conflicts(0, 0) is True

    def test_equality_condition_not_false_positive(self):
        # x = y is satisfiable by *repeating* an element; a naive
        # distinct-elements instantiation would call it never-firing.
        analyzer = SetAnalyzer(
            constraints=self.constraints(),
            conditions=[("same", parse("Sub(x) & x = y"))],
        )
        assert analyzer.is_unsatisfiable(0, "condition") is False

    def test_unsatisfiable_condition(self):
        analyzer = SetAnalyzer(
            conditions=[("never", parse("Sub(x) & !Sub(x)"))]
        )
        assert analyzer.is_unsatisfiable(0, "condition") is True

    def test_joint_condition_conflict(self):
        analyzer = SetAnalyzer(
            constraints=[
                ("a_or_b", parse("G (Sub(Ann) | Sub(Bob))")),
                ("not_a", parse("G !Sub(Ann)")),
            ],
            conditions=[("no_b", parse("G !Sub(Bob)"))],
        )
        assert analyzer.condition_conflicts(0, 0) is False
        assert analyzer.condition_conflicts(0, 1) is False
        assert analyzer.condition_conflicts_jointly(0) is True


class TestSubformulaQueries:
    def test_somewhere_satisfiable(self):
        analyzer = analyzer_for("forall x . G (Sub(x) -> Fill(x))")
        antecedent = parse("Sub(x)")
        assert analyzer.somewhere_satisfiable(0, antecedent) is True
        impossible = parse("Sub(x) & !Sub(x)")
        assert analyzer.somewhere_satisfiable(0, impossible) is False

    def test_always_valid(self):
        analyzer = analyzer_for("forall x . G (Fill(x) -> Fill(x))")
        tautology = parse("Fill(x) | !Fill(x)")
        assert analyzer.always_valid(0, tautology) is True
        assert analyzer.always_valid(0, parse("Fill(x)")) is False


class TestEnginesAndJobs:
    CORPUS_SEEDS = range(12)

    def corpus(self):
        return [
            (
                f"r{seed}",
                random_universal_constraint(
                    ORDER_VOCABULARY,
                    ConstraintConfig(quantifiers=1, size=4, seed=seed),
                ),
            )
            for seed in self.CORPUS_SEEDS
        ]

    def test_bitset_matches_reference(self):
        """Every verdict of the analyzer's kernel equals the reference
        engine's on the analyzer's own formulas."""

        def reference_unsat(formula):
            return not is_satisfiable(formula, engine="reference")

        analyzer = SetAnalyzer(constraints=self.corpus()[:4])
        groundings = [profile.grounding for profile in analyzer.constraints]
        decided = 0
        for (kind, left, right), verdict in analyzer.sweep().items():
            if verdict is None:
                continue
            other = groundings[right]
            if kind == "entails":
                other = pnot(other)
            assert verdict == reference_unsat(pand(groundings[left], other))
            decided += 1
        for index, grounding in enumerate(groundings):
            unsatisfiable = analyzer.is_unsatisfiable(index)
            if unsatisfiable is not None:
                assert unsatisfiable == reference_unsat(grounding)
                decided += 1
            assert analyzer.is_valid(index) == reference_unsat(
                pnot(grounding)
            )
        assert decided > len(groundings)

    def test_sweep_serial_matches_parallel(self):
        corpus = self.corpus()
        serial = SetAnalyzer(constraints=corpus, jobs=1)
        parallel = SetAnalyzer(constraints=corpus, jobs=4)
        assert dict(serial.sweep()) == dict(parallel.sweep())



class TestMemoAndStats:
    def test_sweep_cached(self):
        analyzer = SetAnalyzer(
            constraints=list(standard_constraints().items())
        )
        first = analyzer.sweep()
        assert analyzer.sweep() is first

    def test_repeated_verdict_hits_memo(self):
        analyzer = analyzer_for("forall x . G Sub(x)")
        analyzer.is_unsatisfiable(0)
        before = analyzer.stats()["memo_hits"]
        analyzer.is_unsatisfiable(0)
        assert analyzer.stats()["memo_hits"] == before + 1

    def test_stats_keys(self):
        analyzer = analyzer_for("forall x . G Sub(x)")
        analyzer.is_unsatisfiable(0)
        stats = analyzer.stats()
        assert stats["decisions"] >= 1
        assert "kernel_states" in stats

    def test_analysis_cache_clear(self):
        analyzer = analyzer_for("forall x . G Sub(x)")
        analyzer.instance_safety(0)
        assert analyzer.stats()["safety_checks"] > 0
        analysis_cache_clear()
        assert analyzer.stats()["safety_checks"] == 0
