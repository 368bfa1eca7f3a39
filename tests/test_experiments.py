"""Integration tests: the experiment runners reproduce the paper's shapes.

Each test runs a (further reduced) version of an experiment and asserts
the qualitative claim — linearity, exponential growth, who-wins — rather
than absolute numbers.  These are the checks EXPERIMENTS.md is built on.
"""

from repro.experiments import (
    RUNNERS,
    a1_incremental,
    a3_domain_restriction,
    e1_history_length,
    e3_ptl_phases,
    e4_turing,
    e5_sat_reduction,
    e7_detection_latency,
    e9_w_ordering,
)


class TestRunnerRegistry:
    def test_all_experiments_registered(self):
        assert set(RUNNERS) == {
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
            "a1", "a2", "a3",
        }


class TestE1Linear:
    def test_growth_is_at_most_linear(self, capsys):
        rows = e1_history_length.run(fast=True)
        capsys.readouterr()
        first, last = rows[0], rows[-1]
        length_ratio = last["t"] / first["t"]
        time_ratio = last["seconds"] / first["seconds"]
        # Linear in t (with generous headroom for timing noise at the
        # small end): total time must not grow super-linearly.
        assert time_ratio <= 3 * length_ratio


class TestE3Phases:
    def test_progression_linear_sat_flat(self, capsys):
        rows = e3_ptl_phases.run(fast=True)
        capsys.readouterr()
        prefix_rows = [r for r in rows if r["sweep"] == "prefix"]
        # 16x more prefix => at least 4x more progression time.
        assert prefix_rows[-1]["progress_s"] > 4 * prefix_rows[0][
            "progress_s"
        ]
        # ... while satisfiability stays within noise (same remainder).
        sats = [r["sat_s"] for r in prefix_rows]
        assert max(sats) <= 20 * min(s for s in sats if s > 0)

    def test_sat_grows_with_formula(self, capsys):
        rows = e3_ptl_phases.run(fast=True)
        capsys.readouterr()
        formula_rows = [r for r in rows if r["sweep"] == "formula"]
        assert formula_rows[-1]["sat_s"] > 5 * formula_rows[0]["sat_s"]


class TestE4Footprint:
    def test_ground_truth_patterns(self, capsys):
        rows = e4_turing.run(fast=True)
        capsys.readouterr()
        by_machine = {
            (row["machine"], row["word"]): row
            for row in rows
            if "machine" in row
        }
        # Repeating input: visits grow across budgets.
        repeating = by_machine[("parity", "1001")]
        budgets = sorted(
            int(key.split("@")[1])
            for key in repeating
            if key.startswith("visits@")
        )
        visits = [repeating[f"visits@{b}"] for b in budgets]
        assert visits == sorted(visits) and visits[-1] > visits[0]
        # Halting input: definitive.
        assert by_machine[("parity", "100")][f"visits@{budgets[0]}"] == "HALT"
        # Runaway: frozen at 1, never halting.
        runaway = by_machine[("runaway", "01")]
        assert all(runaway[f"visits@{b}"] == 1 for b in budgets)


class TestE5Exponential:
    def test_doubling_per_variable(self, capsys):
        rows = e5_sat_reduction.run(fast=True)
        capsys.readouterr()
        unsat = {row["n"]: row for row in rows if row["instance"] == "unsat"}
        ns = sorted(unsat)
        for smaller, larger in zip(ns, ns[1:]):
            assert (
                unsat[larger]["assignments"]
                == unsat[smaller]["assignments"] * 4  # n steps by 2
            )
        # |D0| stays linear.
        assert unsat[ns[-1]]["|D0| facts"] < 10 * ns[-1]


class TestE7Latency:
    def test_exact_never_later_and_gaps_grow(self, capsys):
        rows = e7_detection_latency.run(fast=True)
        capsys.readouterr()
        gaps = []
        for row in rows:
            if isinstance(row["latency gap"], int):
                assert row["latency gap"] >= 0
                if row["scenario"].startswith("forced"):
                    gaps.append(row["latency gap"])
        assert gaps == sorted(gaps) and gaps[-1] > gaps[0]


class TestE9Checks:
    def test_all_checks_pass(self, capsys):
        rows = e9_w_ordering.run(fast=True)
        capsys.readouterr()
        by_check = {row["check"]: row["result"] for row in rows}
        assert by_check[
            "finite-universe formula (W4 + Q chain) is universal"
        ] is True
        assert by_check["... but fails the safety recognizer"] is True


class TestA1Strategies:
    def test_incremental_beats_scratch_on_growing_domains(self, capsys):
        rows = a1_incremental.run(fast=True)
        capsys.readouterr()
        growing = {
            row["strategy"]: row for row in rows if row["regime"] == "growing"
        }
        incremental, scratch = growing["incremental"], growing["scratch"]
        assert incremental["regrounds"] < scratch["regrounds"]
        assert incremental["progressions"] < scratch["progressions"]


class TestA3Scopes:
    def test_constraint_scope_flat_full_scope_grows(self, capsys):
        rows = a3_domain_restriction.run(fast=True)
        capsys.readouterr()
        assert rows[-1]["full s"] > 5 * rows[0]["full s"]
        assert rows[-1]["constraint |M|"] == rows[0]["constraint |M|"]
