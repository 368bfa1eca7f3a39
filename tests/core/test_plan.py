"""Dispatch planning: plan labels, plan serialization, and the monitor
executing the plan on a mixed past/future set.

The monitor's verdicts on every front end are checked against the
from-scratch oracles by the differential harness
(``tests/core/test_monitor.py::TestAgainstChecker``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntegrityMonitor, plan_constraints
from repro.core.plan import ConstraintPlan, MonitorPlan
from repro.database import History, Update, vocabulary
from repro.logic import parse

V = vocabulary({"Sub": 1, "Fill": 1})
SUBMIT_ONCE = parse("forall x . G (Sub(x) -> X G !Sub(x))")
EVENTUAL = parse("forall x . F Sub(x)")
RESPONSE = parse("forall x . G F Sub(x)")
AUDIT = parse("forall x . G (Fill(x) -> Y O Sub(x))")

plans = st.builds(
    MonitorPlan,
    entries=st.tuples(
        *[
            st.builds(
                ConstraintPlan,
                name=st.just(f"c{i}"),
                hierarchy=st.sampled_from(
                    ["past-closed", "bounded-future", "safety",
                     "co-safety", "general"]
                ),
                backend=st.sampled_from(["pasteval", "progression"]),
                lookahead=st.none() | st.integers(0, 9),
                reason=st.text(max_size=40),
            )
            for i in range(3)
        ]
    ),
)


class TestMonitorPlan:
    def test_plan_constraints(self):
        plan = plan_constraints(
            {"once": SUBMIT_ONCE, "audit": AUDIT, "live": RESPONSE}
        )
        assert plan["once"].backend == "progression"
        assert plan["audit"].backend == "pasteval"
        assert plan["live"].backend == "progression"
        assert plan.by_class() == {
            "safety": 1, "past-closed": 1, "general": 1,
        }
        assert plan.by_backend() == {"progression": 2, "pasteval": 1}

    def test_sequence_names_match_monitor(self):
        plan = plan_constraints([SUBMIT_ONCE, EVENTUAL])
        assert [entry.name for entry in plan.entries] == [
            "constraint_0", "constraint_1",
        ]

    def test_getitem_unknown_raises(self):
        plan = plan_constraints({"once": SUBMIT_ONCE})
        try:
            plan["nope"]
        except KeyError:
            pass
        else:  # pragma: no cover - defensive
            raise AssertionError("expected KeyError")

    @given(plan=plans)
    @settings(max_examples=100, deadline=None)
    def test_to_dict_round_trip(self, plan):
        assert MonitorPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_version(self):
        try:
            MonitorPlan.from_dict({"version": 99, "entries": []})
        except ValueError:
            pass
        else:  # pragma: no cover - defensive
            raise AssertionError("expected ValueError")


class TestPlannedMonitorSurface:
    """:class:`IntegrityMonitor` executing its dispatch plan on a mixed
    past/future set."""

    def test_mixed_set_routes_past_to_pasteval(self):
        monitor = IntegrityMonitor(
            {"audit": AUDIT, "once": SUBMIT_ONCE}, History.empty(V)
        )
        assert monitor.plan["audit"].backend == "pasteval"
        assert monitor.plan["once"].backend == "progression"
        report = monitor.apply(Update.insert(("Fill", (7,))))
        assert report.new_violations == ("audit",)
        assert monitor.violations() == {"audit": 1}
        assert not monitor.is_satisfied("audit")
        assert monitor.is_satisfied("once")
        # Pasteval keeps no remainder; the progression entry does.
        assert set(monitor.remainders()) == {"once"}
        # One coherent stats shape across both engines.
        stats = monitor.stats()
        assert set(stats) == {"audit", "once"}
        # 2: the initial-state replay at construction plus the update.
        assert stats["audit"].past_updates == 2
        assert stats["audit"].past_memory >= 1
        assert stats["once"].past_updates == 0
        monitor.reset()
        assert monitor.stats()["audit"].past_updates == 0

    def test_violations_keep_registration_order(self):
        monitor = IntegrityMonitor(
            {"once": SUBMIT_ONCE, "audit": AUDIT}, History.empty(V)
        )
        monitor.apply(Update.insert(("Fill", (1,))))
        monitor.apply(Update.insert(("Sub", (1,))))
        monitor.apply(Update.insert(("Sub", (1,))))
        assert list(monitor.violations()) == ["once", "audit"]

    def test_history_tracks_both_engines(self):
        monitor = IntegrityMonitor({"audit": AUDIT}, History.empty(V))
        assert monitor.now == 0
        monitor.apply(Update.insert(("Sub", (1,))))
        assert monitor.now == 1
        assert monitor.current.relations == {"Sub": frozenset({(1,)})}
