"""Smoke tests for the public API surface and the CLI."""

import json

import pytest

import repro
from repro.cli import main


class TestPublicAPI:
    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_one_line_workflow(self):
        schema = repro.vocabulary({"Sub": 1})
        once = repro.parse("forall x . G (Sub(x) -> X G !Sub(x))")
        history = repro.History.from_facts(
            schema, [[("Sub", (1,))], [("Sub", (1,))]]
        )
        assert not repro.check_extension(once, history).potentially_satisfied

    def test_subpackage_exports(self):
        from repro import database, eval, logic, pasteval, ptl, turing

        assert logic.parse and ptl.is_satisfiable and database.History
        assert eval.evaluate_finite and pasteval.IncrementalPastEvaluator
        assert turing.build_phi


@pytest.fixture
def history_file(tmp_path):
    payload = {
        "vocabulary": {"predicates": {"Sub": 1}, "constants": []},
        "constant_bindings": {},
        "states": [{"Sub": [[1]]}, {}, {"Sub": [[1]]}],
    }
    path = tmp_path / "history.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestCLI:
    def test_check_violated_exit_code(self, history_file, capsys):
        code = main(
            ["check", "forall x . G (Sub(x) -> X G !Sub(x))", history_file]
        )
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_check_satisfied(self, history_file, tmp_path, capsys):
        clean = tmp_path / "clean.json"
        clean.write_text(
            json.dumps(
                {
                    "vocabulary": {"predicates": {"Sub": 1}, "constants": []},
                    "states": [{"Sub": [[1]]}],
                }
            )
        )
        code = main(
            ["check", "forall x . G (Sub(x) -> X G !Sub(x))", str(clean)]
        )
        assert code == 0
        assert "POTENTIALLY SATISFIED" in capsys.readouterr().out

    def test_classify_output(self, capsys):
        code = main(["classify", "forall x . G (Sub(x) -> X G !Sub(x))"])
        assert code == 0
        out = capsys.readouterr().out
        assert "universal:            True" in out
        assert "decidable" in out

    def test_classify_undecidable_fragment(self, capsys):
        code = main(["classify", "forall x . G (exists y . q(x, y))"])
        assert code == 0
        assert "undecidable" in capsys.readouterr().out

    def test_monitor(self, history_file, capsys):
        code = main(
            [
                "monitor",
                history_file,
                "--constraint",
                "forall x . G (Sub(x) -> X G !Sub(x))",
            ]
        )
        assert code == 1
        assert "violated" in capsys.readouterr().out

    def test_parse_error_reported(self, history_file, capsys):
        code = main(["check", "forall x .", history_file])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "e99"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--shards", "2"], ["--stop-at", "soon"], ["--stop-at", "-3"]],
    )
    def test_serve_refuses_out_of_range_flags(self, history_file, flags):
        # A usage error, not exit 1, which would read as a violation; the
        # service has one monitor, so --shards is an unknown flag.
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "serve",
                    history_file,
                    "--constraint",
                    "forall x . G (Sub(x) -> X G !Sub(x))",
                    *flags,
                ]
            )
        assert exit_info.value.code == 2

    def test_serve_stop_at_is_tested_before_each_state(
        self, history_file, tmp_path, capsys
    ):
        once = "forall x . G (Sub(x) -> X G !Sub(x))"
        snapshot = tmp_path / "snapshot.json"
        code = main(
            [
                "serve",
                history_file,
                "--constraint",
                once,
                "--stop-at",
                "0",
                "--snapshot-out",
                str(snapshot),
            ]
        )
        assert code == 0
        assert "(instant 0)" in capsys.readouterr().out
        data = json.loads(snapshot.read_text())
        assert data["shards"][0]["now"] == 0
        # A snapshot already past the bound replays nothing more.
        resumed = tmp_path / "resumed.json"
        code = main(
            [
                "serve",
                history_file,
                "--resume-from",
                str(snapshot),
                "--stop-at",
                "0",
                "--snapshot-out",
                str(resumed),
            ]
        )
        assert code == 0
        assert resumed.read_text() == snapshot.read_text()
        # Without a bound the run goes on to the duplicate at t=2.
        assert main(["serve", history_file, "--resume-from", str(snapshot)]) == 1

    def test_serve_refuses_a_spliced_history(self, tmp_path, capsys):
        # A snapshot taken at instant 2 of one history, resumed on another
        # whose state at instant 2 differs, would check a run that never
        # happened.
        once = "forall x . G (Sub(x) -> X G !Sub(x))"
        paths = {}
        for name, third in (("a", [[2]]), ("b", [[3]])):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(
                json.dumps(
                    {
                        "vocabulary": {"predicates": {"Sub": 1}},
                        "states": [{"Sub": [[1]]}, {}, {"Sub": third}, {}],
                    }
                )
            )
        snapshot = tmp_path / "snapshot.json"
        argv = ["serve", str(paths["a"]), "--constraint", once]
        assert main([*argv, "--stop-at", "2", "--snapshot-out", str(snapshot)]) == 0
        capsys.readouterr()
        resume = ["--resume-from", str(snapshot)]
        assert main(["serve", str(paths["b"]), *resume]) == 2
        assert "instant 2" in capsys.readouterr().err
        assert main(["serve", str(paths["a"]), *resume]) == 0

    @pytest.mark.parametrize("command", ["check", "monitor", "serve"])
    def test_missing_history_is_an_input_error(self, tmp_path, command, capsys):
        once = "forall x . G (Sub(x) -> X G !Sub(x))"
        missing = str(tmp_path / "missing.json")
        argv = (
            [command, once, missing]
            if command == "check"
            else [command, missing, "--constraint", once]
        )
        assert main(argv) == 2
        assert "missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "monitor", "serve"])
    def test_truncated_history_is_an_input_error(
        self, history_file, tmp_path, command, capsys
    ):
        once = "forall x . G (Sub(x) -> X G !Sub(x))"
        truncated = tmp_path / "truncated.json"
        text = open(history_file, encoding="utf-8").read()
        truncated.write_text(text[: len(text) // 2])
        argv = (
            [command, once, str(truncated)]
            if command == "check"
            else [command, str(truncated), "--constraint", once]
        )
        assert main(argv) == 2
        assert "truncated.json" in capsys.readouterr().err

    def test_truncated_snapshot_is_an_input_error(
        self, history_file, tmp_path, capsys
    ):
        once = "forall x . G (Sub(x) -> X G !Sub(x))"
        snapshot = tmp_path / "snapshot.json"
        argv = ["serve", history_file, "--constraint", once, "--stop-at", "1"]
        assert main([*argv, "--snapshot-out", str(snapshot)]) == 0
        text = snapshot.read_text()
        snapshot.write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert main(["serve", history_file, "--resume-from", str(snapshot)]) == 2
        assert "snapshot.json" in capsys.readouterr().err
        missing = str(tmp_path / "gone.json")
        assert main(["serve", history_file, "--resume-from", missing]) == 2
        assert "gone.json" in capsys.readouterr().err
