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
            "r = m.append_state(DatabaseState.empty(m.history.vocabulary))\n"
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

    def test_v5_documents_carry_only_the_live_settings(self):
        monitor = IntegrityMonitor(
            {**CONSTRAINTS, "audit": AUDIT}, History.empty(V)
        )
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        data = json.loads(json.dumps(monitor_to_dict(monitor)))
        assert data["format"] == "repro-monitor-snapshot/v5"
        assert set(data) == {
            "format", "config", "order", "past", "entries", "history",
        }
        assert set(data["config"]) == {"assume_safety"}
        assert data["order"] == ["once", "order", "audit"]
        # Each constraint text is written once: past-closed ones in
        # `past`, progressed ones in their entry.
        assert set(data["past"]) == {"audit"}
        assert [entry["name"] for entry in data["entries"]] == [
            "once", "order",
        ]
        for entry in data["entries"]:
            assert set(entry) == {
                "name", "constraint", "remainder", "relevant",
                "violated_at", "stats",
            }
            assert "renames" not in entry["stats"]

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
            StateError, match="expected 'repro-monitor-snapshot/v5'"
        ):
            monitor_from_dict(data)

    def test_rejects_v1_documents(self):
        data = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        data["format"] = "repro-monitor-snapshot/v1"
        with pytest.raises(StateError, match="format"):
            monitor_from_dict(data)

    @pytest.mark.parametrize("key", ["history", "order", "past", "entries"])
    def test_rejects_missing_key(self, key):
        data = monitor_to_dict(IntegrityMonitor(CONSTRAINTS, History.empty(V)))
        del data[key]
        with pytest.raises(StateError, match=key):
            monitor_from_dict(data)

    def test_rejects_planned_documents(self):
        # The layout of the removed planned-monitor snapshot.
        monitor = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        full = monitor_to_dict(monitor, with_history=False)
        data = {
            "format": "repro-planned-snapshot/v3",
            "config": full["config"],
            "order": full["order"],
            "constraints": {},
            "full": full,
            "history": monitor_to_dict(monitor)["history"],
        }
        with pytest.raises(StateError, match="format"):
            monitor_from_dict(data)


class TestPlannedRestoreNames:
    """A snapshot whose ``order`` or past/progression split disagrees
    with its constraints is refused: restored, it would drop a verdict
    or fail half-way through its first update."""

    FILL_ONCE = parse("forall x . G (Fill(x) -> X G !Fill(x))")

    def snapshot(self):
        monitor = IntegrityMonitor(
            {"once": SUBMIT_ONCE, "fill": self.FILL_ONCE, "audit": AUDIT},
            History.empty(V),
        )
        return json.loads(json.dumps(monitor_to_dict(monitor)))

    def test_rejects_order_missing_a_constraint(self):
        data = self.snapshot()
        data["order"] = ["once", "audit"]
        with pytest.raises(StateError, match=r"missing \['fill'\]"):
            monitor_from_dict(data)

    def test_rejects_order_repeating_a_constraint(self):
        data = self.snapshot()
        data["order"] = ["once", "fill", "audit", "once"]
        with pytest.raises(StateError, match=r"repeated \['once'\]"):
            monitor_from_dict(data)

    def test_rejects_constraint_without_progression_entry(self):
        # A progressed constraint's text filed with the past-closed ones.
        data = self.snapshot()
        data["order"].append("ghost")
        data["past"]["ghost"] = data["entries"][0]["constraint"]
        with pytest.raises(StateError, match="'ghost'.*past-closed"):
            monitor_from_dict(data)

    def test_rejects_past_constraint_stored_as_an_entry(self):
        data = self.snapshot()
        entry = dict(data["entries"][0])
        entry.update(name="ghost", constraint=data["past"]["audit"])
        data["entries"].append(entry)
        data["order"].append("ghost")
        with pytest.raises(StateError, match="'ghost'.*past-closed"):
            monitor_from_dict(data)

    def test_rejects_a_constraint_listed_twice(self):
        data = self.snapshot()
        data["past"]["once"] = data["past"]["audit"]
        with pytest.raises(StateError, match=r"repeated \['once'\]"):
            monitor_from_dict(data)

    def test_rejects_order_naming_no_constraint_text(self):
        data = self.snapshot()
        data["order"].append("ghost")
        with pytest.raises(StateError, match=r"extra \['ghost'\]"):
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
