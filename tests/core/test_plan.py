"""Dispatch planning: plan serialization and planned-monitor equivalence.

The planner may only change *how much work* each verdict costs, never the
verdict: a :class:`PlannedMonitor` must report exactly the satisfied
flags, violation instants, and remainders of an unplanned
:class:`IntegrityMonitor` on the shared (future-only) fragment.  The
hypothesis sweep below pins that over both strategies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntegrityMonitor, PlannedMonitor, plan_constraints
from repro.core.plan import ConstraintPlan, MonitorPlan
from repro.database import DatabaseState, History, Update, vocabulary
from repro.logic import parse

V = vocabulary({"Sub": 1, "Fill": 1})
SUBMIT_ONCE = parse("forall x . G (Sub(x) -> X G !Sub(x))")
FIFO_FILL = parse(
    "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
    "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))"
)
EVENTUAL = parse("forall x . F Sub(x)")
RESPONSE = parse("forall x . G F Sub(x)")
AUDIT = parse("forall x . G (Fill(x) -> Y O Sub(x))")
CONSTRAINTS = {"once": SUBMIT_ONCE, "fifo": FIFO_FILL}

traces = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["Sub", "Fill"]),
            st.tuples(st.integers(0, 2)),
        ),
        max_size=2,
    ),
    min_size=1,
    max_size=4,
)

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
                backend=st.sampled_from(
                    ["pasteval", "progression-safety",
                     "progression-cosafety", "progression-full"]
                ),
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
        assert plan["once"].backend == "progression-safety"
        assert plan["audit"].backend == "pasteval"
        assert plan["live"].backend == "progression-full"
        assert plan.routed_off_full() == 2
        assert plan.by_class() == {
            "safety": 1, "past-closed": 1, "general": 1,
        }
        assert plan.by_backend() == {
            "progression-safety": 1, "pasteval": 1, "progression-full": 1,
        }

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


class TestPlannedEquivalence:
    """Planned vs unplanned verdicts on the future-only fragment."""

    @given(
        trace=traces,
        strategy=st.sampled_from(["incremental", "spare"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_planned_matches_unplanned(self, trace, strategy):
        constraints = {
            "once": SUBMIT_ONCE,
            "fifo": FIFO_FILL,
            "live": RESPONSE,
        }
        planned = PlannedMonitor(
            constraints,
            History.empty(V),
            assume_safety=True,
            strategy=strategy,
        )
        plain = IntegrityMonitor(
            constraints,
            History.empty(V),
            assume_safety=True,
            strategy=strategy,
        )
        for facts in trace:
            state = DatabaseState.from_facts(V, facts)
            rp = planned.append_state(state)
            rn = plain.append_state(state)
            assert dict(rp.satisfied) == dict(rn.satisfied)
            assert rp.new_violations == rn.new_violations
            assert planned.remainders() == plain.remainders()
        assert planned.violations() == plain.violations()

    @given(trace=traces, strategy=st.sampled_from(["incremental", "spare"]))
    @settings(max_examples=100, deadline=None)
    def test_cosafety_retirement_preserves_verdicts(self, trace, strategy):
        # forall x . F (Sub(x) | !Sub(x)) is valid: the remainder
        # discharges at construction and the co-safety backend retires
        # the entry — verdicts must stay identical to the full backend.
        valid = parse("forall x . F (Sub(x) | !Sub(x))")
        planned = PlannedMonitor(
            {"vac": valid}, History.empty(V),
            assume_safety=True, strategy=strategy,
        )
        assert planned.plan["vac"].backend == "progression-cosafety"
        plain = IntegrityMonitor(
            {"vac": valid}, History.empty(V), assume_safety=True,
            strategy=strategy,
        )
        for facts in trace:
            state = DatabaseState.from_facts(V, facts)
            rp = planned.append_state(state)
            rn = plain.append_state(state)
            assert dict(rp.satisfied) == dict(rn.satisfied)
            assert rp.new_violations == rn.new_violations
        assert planned.violations() == plain.violations() == {}


class TestPlannedMonitorSurface:
    def test_mixed_set_routes_past_to_pasteval(self):
        monitor = PlannedMonitor(
            {"audit": AUDIT, "once": SUBMIT_ONCE}, History.empty(V)
        )
        assert monitor.plan["audit"].backend == "pasteval"
        assert monitor.plan["once"].backend == "progression-safety"
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

    def test_retired_entry_unretires_on_fresh_element(self):
        valid = parse("forall x . F (Sub(x) | !Sub(x))")
        monitor = PlannedMonitor(
            {"vac": valid}, History.empty(V),
            assume_safety=True, strategy="spare",
        )
        for element in range(5):
            report = monitor.apply(Update.insert(("Sub", (element,))))
            assert dict(report.satisfied) == {"vac": True}
        stats = monitor.stats()["vac"]
        assert stats.retired_steps > 0

    def test_violations_keep_registration_order(self):
        monitor = PlannedMonitor(
            {"once": SUBMIT_ONCE, "audit": AUDIT}, History.empty(V)
        )
        monitor.apply(Update.insert(("Fill", (1,))))
        monitor.apply(Update.insert(("Sub", (1,))))
        monitor.apply(Update.insert(("Sub", (1,))))
        assert list(monitor.violations()) == ["once", "audit"]

    def test_history_tracks_both_engines(self):
        monitor = PlannedMonitor({"audit": AUDIT}, History.empty(V))
        assert monitor.now == 0
        monitor.apply(Update.insert(("Sub", (1,))))
        assert monitor.now == 1
        assert len(monitor.history) == 2
