"""Checkpoint/resume: kill-and-restore must not change any verdict.

Lemma 4.2's whole point is that the progressed remainder is a sufficient
statistic for the history prefix, so a monitor serialized mid-stream and
restored (even in a fresh process) must produce the exact verdict stream
of the uninterrupted run.  The hypothesis sweep below pins that at a
random cut point, with every derived
cache cleared and a forced GC between snapshot and restore; a subprocess
test covers the genuinely-fresh-interpreter case.
"""

import gc
import json
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntegrityMonitor, MonitorStats
from repro.database import (
    DatabaseState,
    History,
    monitor_from_dict,
    monitor_to_dict,
    vocabulary,
)
from repro.errors import StateError
from repro.logic import parse
from repro.ptl.caches import clear_all_caches

V = vocabulary({"Sub": 1, "Fill": 1})
SUBMIT_ONCE = parse("forall x . G (Sub(x) -> X G !Sub(x))")
NO_FILL_FIRST = parse("forall x . G !(Fill(x) & (!Sub(x) U Sub(x)))")
AUDIT = parse("forall x . G (Fill(x) -> Y O Sub(x))")
CONSTRAINTS = {
    "once": SUBMIT_ONCE,
    "order": NO_FILL_FIRST,
}

traces = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["Sub", "Fill"]),
            st.tuples(st.integers(0, 2)),
        ),
        max_size=2,
    ),
    min_size=2,
    max_size=5,
)


def _states(trace):
    return [DatabaseState.from_facts(V, facts) for facts in trace]


def _run(monitor, states):
    return [
        (r.instant, r.satisfied, r.new_violations)
        for r in map(monitor.append_state, states)
    ]


class TestResumeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(trace=traces, cut=st.integers(0, 5))
    def test_kill_and_restore_matches_uninterrupted(self, trace, cut):
        cut = min(cut, len(trace))
        states = _states(trace)
        ref = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        live = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        for state in states[:cut]:
            ref.append_state(state)
            live.append_state(state)
        blob = json.dumps(monitor_to_dict(live))
        del live
        clear_all_caches()
        gc.collect()
        resumed = monitor_from_dict(json.loads(blob))
        assert _run(resumed, states[cut:]) == _run(ref, states[cut:])
        assert resumed.violations() == ref.violations()
        # The remainder IS the resumed state: hash-consing makes the
        # equality an identity.
        for name, remainder in resumed.remainders().items():
            assert remainder is ref.remainders()[name]

    @settings(max_examples=15, deadline=None)
    @given(trace=traces, cut=st.integers(0, 5))
    def test_monitor_resume_covers_pasteval(self, trace, cut):
        constraints = {"once": SUBMIT_ONCE, "audit": AUDIT}
        cut = min(cut, len(trace))
        states = _states(trace)
        ref = IntegrityMonitor(constraints, History.empty(V))
        live = IntegrityMonitor(constraints, History.empty(V))
        for state in states[:cut]:
            ref.append_state(state)
            live.append_state(state)
        blob = json.dumps(monitor_to_dict(live))
        del live
        clear_all_caches()
        gc.collect()
        resumed = monitor_from_dict(json.loads(blob))
        assert _run(resumed, states[cut:]) == _run(ref, states[cut:])
        assert resumed.violations() == ref.violations()

    def test_fresh_interpreter_round_trip(self, tmp_path):
        monitor = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(monitor_to_dict(monitor)))
        expected = monitor.append_state(DatabaseState.empty(V))
        script = (
            "import json, sys\n"
            "from repro.database import monitor_from_dict, DatabaseState\n"
            "m = monitor_from_dict(json.load(open(sys.argv[1])))\n"
            "r = m.append_state(DatabaseState.empty(m.current.vocabulary))\n"
            "print(json.dumps([r.instant, r.satisfied, "
            "list(r.new_violations), m.violations()]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, check=True,
        )
        instant, satisfied, fresh, violations = json.loads(out.stdout)
        assert instant == expected.instant
        assert satisfied == expected.satisfied
        assert tuple(fresh) == expected.new_violations
        assert violations == monitor.violations()

    def test_restored_stats_round_trip(self):
        monitor = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        before = {
            name: stats.as_dict() for name, stats in monitor.stats().items()
        }
        resumed = monitor_from_dict(monitor_to_dict(monitor))
        after = {
            name: stats.as_dict() for name, stats in resumed.stats().items()
        }
        assert after == before


class TestSnapshotValidation:
    def test_rejects_wrong_format_tag(self):
        monitor = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        data = monitor_to_dict(monitor)
        data["format"] = "repro-monitor-snapshot/v0"
        with pytest.raises(StateError, match="format"):
            monitor_from_dict(data)

    def test_v7_documents_carry_only_the_live_settings(self):
        monitor = IntegrityMonitor(
            {**CONSTRAINTS, "audit": AUDIT}, History.empty(V)
        )
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        data = json.loads(json.dumps(monitor_to_dict(monitor)))
        assert data["format"] == "repro-monitor-snapshot/v7"
        assert set(data) == {"format", "config", "now", "current", "entries"}
        assert set(data["config"]) == {"assume_safety"}
        assert data["now"] == 1
        # The state at `now` as a one-state history document, not the
        # history.
        assert data["current"]["states"] == [{"Sub": [[1]]}]
        # Every constraint once, in registration order, each with its
        # text; a progressed entry holds its table, not a ground
        # remainder: the states once each as a node list, and the tuples
        # in each.
        assert [entry["name"] for entry in data["entries"]] == [
            "once", "order", "audit",
        ]
        common = {"name", "constraint", "violated_at", "stats"}
        for entry in data["entries"][:2]:
            assert set(entry) == common | {
                "relevant", "nodes", "states", "witnesses",
            }
            assert "renames" not in entry["stats"]
            assert "regrounds" not in entry["stats"]
        # A past-closed entry holds its evaluator's seen-set and the
        # tables of its memory slots: here the one of `O Sub(x)`.
        audit = data["entries"][2]
        assert set(audit) == common | {"seen", "tables"}
        assert audit["seen"] == [1]
        assert audit["tables"] == [[2, [[1]]]]

    def test_a_violated_past_entry_keeps_no_tables(self):
        monitor = IntegrityMonitor({"audit": AUDIT}, History.empty(V))
        monitor.append_state(DatabaseState.from_facts(V, [("Fill", (1,))]))
        data = json.loads(json.dumps(monitor_to_dict(monitor)))
        (audit,) = data["entries"]
        assert audit["violated_at"] == 1
        assert audit["seen"] == [] and audit["tables"] == []
        resaved = monitor_to_dict(monitor_from_dict(data))
        assert json.dumps(resaved, sort_keys=True) == json.dumps(
            data, sort_keys=True
        )

    def test_rejects_v2_documents(self):
        data = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        data["format"] = "repro-monitor-snapshot/v2"
        with pytest.raises(StateError, match="format"):
            monitor_from_dict(data)

    def test_rejects_v3_documents(self):
        data = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        data["format"] = "repro-monitor-snapshot/v3"
        with pytest.raises(StateError, match="format"):
            monitor_from_dict(data)

    def test_rejects_v4_documents(self):
        # The spare strategy's layout: its settings in the config, and
        # each entry with its known elements and spare reserve.
        data = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        data["format"] = "repro-monitor-snapshot/v4"
        data["config"].update(strategy="incremental", spare=2)
        for entry in data["entries"]:
            entry.update(
                known_elements=entry["relevant"], spare_pool=[], spare_map=[]
            )
        with pytest.raises(
            StateError, match="expected 'repro-monitor-snapshot/v7'"
        ):
            monitor_from_dict(data)

    def test_rejects_v5_documents(self):
        # The ground layout: each entry with its remainder, no table.
        data = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        data["format"] = "repro-monitor-snapshot/v5"
        for entry in data["entries"]:
            for key in ("nodes", "states", "witnesses"):
                del entry[key]
            entry["remainder"] = ["true"]
        with pytest.raises(
            StateError, match="expected 'repro-monitor-snapshot/v7'"
        ):
            monitor_from_dict(data)

    def test_rejects_v6_documents(self):
        # The history-replay layout: the registration order, the past
        # constraints' texts and the whole history beside the entries.
        monitor = IntegrityMonitor(
            {**CONSTRAINTS, "audit": AUDIT}, History.empty(V)
        )
        data = monitor_to_dict(monitor)
        data["format"] = "repro-monitor-snapshot/v6"
        data["order"] = list(monitor.constraints)
        data["past"] = {"audit": data["entries"].pop()["constraint"]}
        data["history"] = data.pop("current")
        del data["now"]
        with pytest.raises(
            StateError, match="expected 'repro-monitor-snapshot/v7'"
        ):
            monitor_from_dict(data)

    @pytest.mark.parametrize(
        "tuple_, rows",
        [
            ([1, 2], "states"),  # wrong arity
            ([["z", 2]], "states"),  # anonymous elements numbered from z1
            ([7], "states"),  # an element the table never absorbed
            ([1], "witnesses"),  # a witness holds a placeholder
            ([["p", 1]], "states"),  # ... and a real tuple none
            ([1], "both"),  # a tuple in two states
        ],
    )
    def test_rejects_a_tuple_the_table_cannot_hold(self, tuple_, rows):
        monitor = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        data = json.loads(json.dumps(monitor_to_dict(monitor)))
        entry = data["entries"][0]
        if rows == "both":
            entry["states"].append([0, [tuple_]])
        else:
            entry[rows] = [[len(entry["nodes"]) - 1, [tuple_]]]
        with pytest.raises(StateError, match="tuple its table cannot"):
            monitor_from_dict(data)

    def test_rejects_v1_documents(self):
        data = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        data["format"] = "repro-monitor-snapshot/v1"
        with pytest.raises(StateError, match="format"):
            monitor_from_dict(data)

    @pytest.mark.parametrize("key", ["now", "current", "entries"])
    def test_rejects_missing_key(self, key):
        data = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        del data[key]
        with pytest.raises(StateError, match=key):
            monitor_from_dict(data)

    def test_rejects_planned_documents(self):
        # The layout of the removed planned-monitor snapshot.
        full = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        data = {
            "format": "repro-planned-snapshot/v3",
            "config": full["config"],
            "order": list(CONSTRAINTS),
            "constraints": {},
            "history": full.pop("current"),
            "full": full,
        }
        with pytest.raises(StateError, match="format"):
            monitor_from_dict(data)


    @pytest.mark.parametrize(
        "now, states",
        [(-1, 1), ("1", 1), (True, 1), (1, 2)],
        ids=["negative", "text", "bool", "two-states"],
    )
    def test_rejects_a_bad_now_or_current(self, now, states):
        monitor = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        monitor.append_state(DatabaseState.empty(V))
        data = json.loads(json.dumps(monitor_to_dict(monitor)))
        data["now"] = now
        data["current"]["states"] *= states
        with pytest.raises(StateError, match="'now'|'current'"):
            monitor_from_dict(data)


    def test_rejects_current_binding_an_undeclared_constant(self):
        # Decoded as a history file is, so a binding the vocabulary does
        # not declare is refused, and named as the snapshot's.
        monitor = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        data = json.loads(json.dumps(monitor_to_dict(monitor)))
        data["current"]["constant_bindings"] = {"ghost": 1}
        with pytest.raises(StateError, match="'current'.*ghost"):
            monitor_from_dict(data)


class TestPastTables:
    """A past-closed entry's tables are validated on restore: a table
    its evaluator could not hold would give wrong verdicts or fail
    half-way through a later update."""

    BOUND = vocabulary({"Sub": 1, "Fill": 1}, constants=["Vip"])

    def snapshot(self):
        # The audit body's one memory slot is 2, `O Sub(x)`, over one
        # variable, so its evaluator has one generic, z1.
        monitor = IntegrityMonitor(
            {"once": SUBMIT_ONCE, "audit": AUDIT}, History.empty(V)
        )
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        data = json.loads(json.dumps(monitor_to_dict(monitor)))
        return data, data["entries"][1]

    def test_round_trip_resumes_the_tables(self):
        data, audit = self.snapshot()
        assert audit["tables"] == [[2, [[1]]]]
        restored = monitor_from_dict(data)
        report = restored.append_state(
            DatabaseState.from_facts(V, [("Fill", (1,))])
        )
        assert report.satisfied["audit"]

    @pytest.mark.parametrize(
        "tables",
        [
            [[2, [[1, 1]]]],  # a row of the wrong arity
            [[2, [[]]]],  # ... and an empty one
            [[2, [[7]]]],  # an element outside seen
            [[2, [[["z", 2]]]]],  # a generic the evaluator does not have
            [[2, [[["p", 1]]]]],  # a placeholder, which only tables hold
            [[0, [[1]]]],  # slot 0, Fill(x), which no step reads
            [[9, []]],  # a slot the body does not have
            [[2, [[1]]], [2, []]],  # a slot listed twice
            [[2, 5]],  # rows that are no list
            [["2", []]],  # a slot that is no number
        ],
    )
    def test_rejects_a_table_the_evaluator_cannot_hold(self, tables):
        data, audit = self.snapshot()
        audit["tables"] = tables
        with pytest.raises(StateError, match="'audit'"):
            monitor_from_dict(data)

    def test_rejects_seen_without_a_bound_constant(self):
        monitor = IntegrityMonitor(
            {"vip": parse("G (Fill(Vip) -> Y O Sub(Vip))")},
            History.empty(self.BOUND, {"Vip": 5}),
        )
        data = json.loads(json.dumps(monitor_to_dict(monitor)))
        (vip,) = data["entries"]
        assert vip["seen"] == [5]
        vip["seen"] = []
        with pytest.raises(StateError, match="'vip'.*bound constants"):
            monitor_from_dict(data)

    def test_rejects_seen_that_is_not_a_list_of_elements(self):
        data, audit = self.snapshot()
        audit["seen"] = ["1"]
        with pytest.raises(StateError, match="'audit'.*'seen'"):
            monitor_from_dict(data)


class TestPlannedRestoreNames:
    """Every constraint is one entry, in registration order, and the
    entry's kind is the constructor's routing test; a document that
    lists a name twice, or files a constraint as the other kind, is
    refused: restored, it would drop a verdict or fail half-way through
    its first update."""

    FILL_ONCE = parse("forall x . G (Fill(x) -> X G !Fill(x))")

    def snapshot(self):
        monitor = IntegrityMonitor(
            {"once": SUBMIT_ONCE, "fill": self.FILL_ONCE, "audit": AUDIT},
            History.empty(V),
        )
        return json.loads(json.dumps(monitor_to_dict(monitor)))

    def test_rejects_order_repeating_a_constraint(self):
        # The same entry twice.
        data = self.snapshot()
        data["entries"].append(data["entries"][0])
        with pytest.raises(StateError, match=r"\['once'\] twice"):
            monitor_from_dict(data)

    def test_rejects_constraint_without_progression_entry(self):
        # A progressed constraint's text filed as a past-closed entry.
        data = self.snapshot()
        audit = data["entries"][2]
        audit.update(name="ghost", constraint=data["entries"][0]["constraint"])
        with pytest.raises(StateError, match="missing the 'nodes' key"):
            monitor_from_dict(data)

    def test_rejects_past_constraint_stored_as_an_entry(self):
        # A past-closed constraint's text filed as a progressed entry.
        data = self.snapshot()
        entry = dict(data["entries"][0])
        entry.update(name="ghost", constraint=data["entries"][2]["constraint"])
        data["entries"].append(entry)
        with pytest.raises(StateError, match="missing the 'seen' key"):
            monitor_from_dict(data)

    def test_rejects_a_constraint_listed_twice(self):
        # Two different constraints under one name.
        data = self.snapshot()
        data["entries"][2]["name"] = "once"
        with pytest.raises(StateError, match=r"\['once'\] twice"):
            monitor_from_dict(data)

    def test_rejects_order_naming_no_constraint_text(self):
        data = self.snapshot()
        del data["entries"][1]["constraint"]
        with pytest.raises(StateError, match="missing the 'constraint' key"):
            monitor_from_dict(data)


class TestMonitorStatsReset:
    def test_reset_zeroes_every_field(self):
        stats = MonitorStats()
        # Poison every field, including the dict-valued session counters.
        for spec in fields(stats):
            current = getattr(stats, spec.name)
            if isinstance(current, dict):
                setattr(stats, spec.name, {"session": 7})
            elif isinstance(current, float):
                setattr(stats, spec.name, 1.5)
            else:
                setattr(stats, spec.name, 3)
        stats.reset()
        assert all(not value for value in stats.as_dict().values())

    def test_reset_restores_default_factory_fields(self):
        stats = MonitorStats()
        stats.stream_updates["alpha"] = 4
        stats.reset()
        assert stats.stream_updates == {}
        # The reset dict must be a fresh instance, not a shared default.
        other = MonitorStats()
        stats.stream_updates["beta"] = 1
        assert other.stream_updates == {}
