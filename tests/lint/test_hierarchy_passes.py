"""The TIC13x temporal-hierarchy lint passes and the ``plan`` subcommand."""

import json

import pytest

from repro.cli import PLAN_JSON_VERSION, main
from repro.lint import (
    HIERARCHY_PASS_REGISTRY,
    hierarchy_passes,
    lint_formula,
    register_hierarchy,
)
from repro.logic import parse

SAFE = "forall x . G (Sub(x) -> X G !Sub(x))"
PAST = "forall x . G (Fill(x) -> Y O Sub(x))"
VALID_COSAFETY = "forall x . F (Sub(x) | !Sub(x))"
GENERAL = "forall x . G F Sub(x)"
DEEP = "forall x . Sub(x) -> " + "X " * 9 + "Fill(x)"


def codes(report):
    return [d.code for d in report.diagnostics]


class TestHierarchyPasses:
    def test_registry_covers_tic130_to_134(self):
        registered = {
            code for pass_ in hierarchy_passes() for code in pass_.codes
        }
        assert len(hierarchy_passes()) == len(HIERARCHY_PASS_REGISTRY)
        assert registered == {
            "TIC130", "TIC131", "TIC132", "TIC133", "TIC134", "TIC140",
        }

    def test_off_by_default(self):
        report = lint_formula(parse(SAFE))
        assert not any(c.startswith("TIC13") for c in codes(report))

    def test_class_and_dispatch_reported(self):
        report = lint_formula(parse(SAFE), hierarchy=True)
        assert "TIC130" in codes(report)
        assert "TIC134" in codes(report)
        summary = report.by_code("TIC134")[0]
        assert "backend 'progression'" in summary.message

    def test_past_closed_dispatches_to_pasteval(self):
        report = lint_formula(parse(PAST), hierarchy=True)
        assert "pasteval" in report.by_code("TIC134")[0].message

    def test_retired_at_birth_warns(self):
        report = lint_formula(parse(VALID_COSAFETY), hierarchy=True)
        assert "TIC132" in codes(report)

    def test_general_class_no_retired_warning(self):
        report = lint_formula(parse(GENERAL), hierarchy=True)
        assert "TIC132" not in codes(report)
        assert "TIC133" not in codes(report)
        assert "'progression'" in report.by_code("TIC134")[0].message

    def test_lookahead_depth_warns(self):
        report = lint_formula(parse(DEEP), hierarchy=True)
        assert "TIC133" in codes(report)

    def test_shallow_lookahead_silent(self):
        report = lint_formula(
            parse("forall x . Sub(x) -> X X Fill(x)"), hierarchy=True
        )
        assert "TIC133" not in codes(report)

    def test_crosscheck_silent_on_sound_classifier(self):
        # TIC131 firing would mean a classifier bug; the whole corpus
        # (tests/analysis/test_hierarchy.py) backs this zero.
        for text in [SAFE, PAST, VALID_COSAFETY, GENERAL]:
            report = lint_formula(parse(text), hierarchy=True)
            assert "TIC131" not in codes(report)

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ValueError):
            @register_hierarchy
            class Duplicate:
                name = "hierarchy-class"
                codes = ("TIC999",)
                description = "dup"
                paper = ""
                modes = ("constraint",)

                def run(self, ctx):  # pragma: no cover - never runs
                    return ()

    def test_hierarchy_passes_are_constraint_mode_only(self):
        for pass_ in hierarchy_passes():
            assert pass_.modes == ("constraint",)


class TestStalenessBudgetPass:
    def severities(self, text):
        report = lint_formula(parse(text), hierarchy=True)
        return [
            (d.code, d.severity.value)
            for d in report.by_code("TIC140")
        ]

    def test_zero_budget_ban_is_error(self):
        from repro.workloads import refresh_deadline

        from repro.logic import to_str

        zero = to_str(refresh_deadline("price", 0))
        assert self.severities(zero) == [("TIC140", "error")]

    def test_explicit_negation_spelling_is_error(self):
        # The parser folds `A -> false` into `!A`; both spellings of the
        # ban trip the pass.
        assert self.severities("forall x . G !Sub(x)") == [
            ("TIC140", "error")
        ]

    def test_vacuous_window_is_warning(self):
        vacuous = "forall x . G (Sub(x) -> (Sub(x) | X Fill(x)))"
        assert self.severities(vacuous) == [("TIC140", "warning")]

    def test_healthy_budget_is_silent(self):
        from repro.workloads import fresh_use, refresh_deadline

        from repro.logic import to_str

        for formula in (fresh_use("price", 2), refresh_deadline("price", 2)):
            assert self.severities(to_str(formula)) == []

    def test_shipped_order_constraints_silent(self):
        from repro.workloads import standard_constraints

        from repro.logic import to_str

        for formula in standard_constraints().values():
            assert self.severities(to_str(formula)) == []

    def test_non_atom_negation_silent(self):
        # G !(compound) is not a staleness ban shape.
        assert self.severities(
            "forall x . G !(Sub(x) & Fill(x))"
        ) == []


class TestLintHierarchyFlag:
    def test_flag_enables_passes(self, capsys):
        assert main(["lint", "--hierarchy", SAFE]) == 0
        out = capsys.readouterr().out
        assert "TIC130" in out and "TIC134" in out

    def test_strict_fails_on_retired_vacuity(self, capsys):
        # A *valid bounded-future* constraint: retirable (TIC132 warns)
        # but still inside the safety fragment, so the default passes
        # raise no error and only --strict fails.
        vacuous = "forall x . Sub(x) | !Sub(x)"
        assert main(["lint", "--hierarchy", vacuous]) == 0
        capsys.readouterr()
        assert main(["lint", "--hierarchy", "--strict", vacuous]) == 1
        assert "TIC132" in capsys.readouterr().out


class TestPlanCommand:
    def write_constraints(self, tmp_path):
        path = tmp_path / "constraints.tic"
        path.write_text(
            "# once: no resubmission\n"
            f"{SAFE}\n"
            "\n"
            "# audit: past audit rule\n"
            f"{PAST}\n"
            "\n"
            "# live: a liveness obligation\n"
            f"{GENERAL}\n"
        )
        return path

    def test_json_document_shape(self, tmp_path, capsys):
        path = self.write_constraints(tmp_path)
        assert main(["plan", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == PLAN_JSON_VERSION
        assert set(doc) == {"version", "constraints", "plan", "summary"}
        assert list(doc["constraints"]) == ["once", "audit", "live"]
        assert PLAN_JSON_VERSION == 2
        assert doc["constraints"]["once"]["backend"] == "progression"
        assert doc["constraints"]["audit"]["backend"] == "pasteval"
        assert doc["constraints"]["live"]["backend"] == "progression"
        assert "routed_off_full" not in doc["summary"]
        assert doc["summary"]["by_backend"] == {
            "pasteval": 1, "progression": 2,
        }
        assert doc["summary"]["by_class"] == {
            "general": 1, "past-closed": 1, "safety": 1,
        }
        assert doc["summary"]["error"] == 0
        entries = {e["name"]: e for e in doc["plan"]["entries"]}
        assert entries["audit"]["hierarchy"] == "past-closed"

    def test_single_expression_target(self, capsys):
        assert main(["plan", SAFE]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["constraints"] == 1
        assert list(doc["constraints"]) == ["c0"]

    def test_strict_fails_on_warning(self, tmp_path, capsys):
        path = tmp_path / "vacuous.tic"
        path.write_text(f"{VALID_COSAFETY}\n")
        assert main(["plan", str(path)]) == 0
        capsys.readouterr()
        assert main(["plan", "--strict", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["warning"] >= 1

    def test_syntax_error_is_usage_error(self, capsys):
        assert main(["plan", "forall x . G ("]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["plan", "nope/missing.tic"]) == 2
        assert "not found" in capsys.readouterr().err


class TestClassifyJson:
    def test_hierarchy_block(self, capsys):
        assert main(["classify", "--json", SAFE]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hierarchy"]["class"] == "safety"
        assert doc["hierarchy"]["backend"] == "progression"
        assert doc["hierarchy"]["lookahead"] is None
        assert doc["hierarchy"]["reason"]
        assert doc["decidable"] is True

    def test_bounded_future_lookahead(self, capsys):
        assert main(
            ["classify", "--json", "forall x . Sub(x) -> X X Fill(x)"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hierarchy"]["class"] == "bounded-future"
        assert doc["hierarchy"]["lookahead"] == 2

    def test_strict_exit_contract_unchanged(self, capsys):
        assert main(["classify", "--json", "--strict", GENERAL]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["hierarchy"]["class"] == "general"

    def test_text_mode_shows_hierarchy_line(self, capsys):
        assert main(["classify", SAFE]) == 0
        out = capsys.readouterr().out
        assert "temporal hierarchy:" in out
        assert "(backend: progression)" in out
