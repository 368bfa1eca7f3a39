"""The ``repro-tic lint`` subcommand and the CLI exit-code contract."""

import json

from repro.cli import LINT_JSON_VERSION, main

SIGMA1 = "forall x . G (p(x) -> F (exists y . q(x, y)))"
CLEAN = "forall x . G (Sub(x) -> X G !Sub(x))"
VACUOUS = "forall x y . G !Sub(x)"


class TestLintExpression:
    def test_clean_constraint_exits_zero(self, capsys):
        assert main(["lint", CLEAN]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_sigma1_emits_tic_coded_error(self, capsys):
        assert main(["lint", SIGMA1]) == 1
        out = capsys.readouterr().out
        assert "TIC003" in out
        assert "Theorem 3.2" in out
        # Source span rendered as a caret underline.
        assert "^" in out

    def test_strict_fails_on_warnings(self, capsys):
        assert main(["lint", VACUOUS]) == 0
        capsys.readouterr()
        assert main(["lint", VACUOUS, "--strict"]) == 1
        assert "TIC011" in capsys.readouterr().out

    def test_trigger_mode(self, capsys):
        assert main(["lint", "--trigger", "F (Sub(x) & X F Sub(x))"]) == 0
        capsys.readouterr()
        assert main(["lint", "--trigger", "G Sub(x)"]) == 1
        assert "TIC009" in capsys.readouterr().out

    def test_domain_size_feeds_cost_estimate(self, capsys):
        assert main(["lint", CLEAN, "--domain-size", "100"]) == 0
        assert "101^1" in capsys.readouterr().out

    def test_unparsable_expression_is_a_finding(self, capsys):
        # Inside lint, a bad constraint is a TIC000 diagnostic (exit 1),
        # not a usage error (exit 2) — batch linting must keep going.
        assert main(["lint", "forall x ."]) == 1
        assert "TIC000" in capsys.readouterr().out


class TestLintFile:
    def test_file_target_lints_every_line(self, tmp_path, capsys):
        path = tmp_path / "constraints.tic"
        path.write_text(
            "# order workload\n"
            f"{CLEAN}\n"
            "\n"
            f"{SIGMA1}\n"
        )
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "2 constraint(s)" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "constraints.tic"
        path.write_text(f"{CLEAN}\n")
        assert main(["lint", str(path)]) == 0
        capsys.readouterr()


class TestLintJson:
    def payload(self, capsys, *argv):
        code = main(["lint", "--json", *argv])
        return code, json.loads(capsys.readouterr().out)

    def test_schema_top_level(self, capsys):
        code, payload = self.payload(capsys, SIGMA1)
        assert code == 1
        assert set(payload) == {
            "version",
            "mode",
            "semantic",
            "results",
            "summary",
        }
        assert payload["version"] == LINT_JSON_VERSION
        assert payload["mode"] == "constraint"
        assert payload["semantic"] is False
        assert set(payload["summary"]) == {
            "constraints",
            "error",
            "warning",
            "info",
        }

    def test_results_carry_report_schema(self, capsys):
        _code, payload = self.payload(capsys, SIGMA1)
        (result,) = payload["results"]
        assert set(result) == {
            "source",
            "formula",
            "mode",
            "ok",
            "counts",
            "diagnostics",
        }
        assert result["ok"] is False
        codes = [d["code"] for d in result["diagnostics"]]
        assert "TIC003" in codes
        tic003 = next(
            d for d in result["diagnostics"] if d["code"] == "TIC003"
        )
        assert tic003["paper"] == "Theorem 3.2"
        assert tic003["span"]["column"] == 26

    def test_summary_counts_aggregate_files(self, tmp_path, capsys):
        path = tmp_path / "constraints.tic"
        path.write_text(f"{CLEAN}\n{SIGMA1}\n")
        _code, payload = self.payload(capsys, str(path))
        assert payload["summary"]["constraints"] == 2
        assert payload["summary"]["error"] >= 2  # TIC003 + TIC005

    def test_trigger_mode_recorded(self, capsys):
        code, payload = self.payload(capsys, "--trigger", "G Sub(x)")
        assert code == 1
        assert payload["mode"] == "trigger"


SEEDED = (
    "# fill_once\n"
    "forall x . G (Fill(x) -> X G !Fill(x))\n"
    "# fill_once_weak\n"
    "forall x . G (Fill(x) -> X !Fill(x))\n"
    "# always_submitted\n"
    "forall x . G Sub(x)\n"
)


class TestLintSemantic:
    def seeded_path(self, tmp_path):
        path = tmp_path / "seeded.tic"
        path.write_text(SEEDED)
        return str(path)

    def test_semantic_reports_redundancy_and_unsat(
        self, tmp_path, capsys
    ):
        assert main(["lint", "--semantic", self.seeded_path(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "TIC110" in out
        assert "fill_once" in out
        assert "TIC100" in out

    def test_comment_names_used_in_diagnostics(self, tmp_path, capsys):
        main(["lint", "--semantic", self.seeded_path(tmp_path)])
        out = capsys.readouterr().out
        assert "subsumed by constraint 'fill_once'" in out

    def test_without_semantic_no_tic1xx(self, tmp_path, capsys):
        assert main(["lint", self.seeded_path(tmp_path)]) == 0
        assert "TIC1" not in capsys.readouterr().out

    def test_json_marker_and_version(self, tmp_path, capsys):
        main(["lint", "--semantic", "--json", self.seeded_path(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == LINT_JSON_VERSION == 2
        assert payload["semantic"] is True
        assert payload["summary"]["error"] >= 1
        assert payload["summary"]["warning"] >= 1

    def test_serial_matches_jobs(self, tmp_path, capsys):
        path = self.seeded_path(tmp_path)
        main(["lint", "--semantic", "--json", path])
        serial = json.loads(capsys.readouterr().out)
        main(["lint", "--semantic", "--json", "--jobs", "4", path])
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel

    def test_parse_failure_excluded_from_set(self, tmp_path, capsys):
        path = tmp_path / "mixed.tic"
        path.write_text(f"forall x .\n{SEEDED}")
        assert main(["lint", "--semantic", str(path)]) == 1
        out = capsys.readouterr().out
        assert "TIC000" in out
        assert "TIC110" in out
        assert "4 constraint(s)" in out

    def test_trigger_constraint_set(self, tmp_path, capsys):
        constraints = tmp_path / "cons.tic"
        constraints.write_text("# never_fill\nforall x . G !Fill(x)\n")
        assert (
            main(
                [
                    "lint",
                    "--trigger",
                    "--semantic",
                    "--constraint-set",
                    str(constraints),
                    "Fill(x)",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "TIC112" in out
        assert "never_fill" in out

    def test_constraint_set_requires_trigger(self, tmp_path, capsys):
        constraints = tmp_path / "cons.tic"
        constraints.write_text("forall x . G !Fill(x)\n")
        code = main(
            ["lint", "--semantic", "--constraint-set", str(constraints), "G p"]
        )
        assert code == 2
        assert "--trigger" in capsys.readouterr().err


class TestExitCodeContract:
    """0 = success, 1 = analysis failure, 2 = usage/input error."""

    def test_classify_strict_undecidable_exits_one(self, capsys):
        formula = "forall x . G (exists y . q(x, y))"
        assert main(["classify", formula]) == 0
        capsys.readouterr()
        assert main(["classify", formula, "--strict"]) == 1

    def test_classify_strict_decidable_exits_zero(self, capsys):
        assert main(["classify", CLEAN, "--strict"]) == 0
        capsys.readouterr()

    def test_classify_syntax_error_exits_two(self, capsys):
        assert main(["classify", "forall x ."]) == 2
        err = capsys.readouterr().err
        assert "syntax error" in err
        assert "line 1" in err

    def test_lint_missing_file_exits_two(self, tmp_path, capsys):
        # A target that looks like a path but does not exist is a usage
        # error, not a TIC000 finding on the path text itself.
        missing = tmp_path / "nope.tic"
        assert main(["lint", str(missing)]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_lint_negative_domain_size_exits_two(self, capsys):
        assert main(["lint", CLEAN, "--domain-size", "-5"]) == 2
        assert "non-negative" in capsys.readouterr().err
