"""Tests for the online integrity monitor (strategies, stats, violations)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.monitor as monitor_module
from repro.core import IntegrityMonitor, PlannedMonitor, check_extension
from repro.core.monitor import MonitorStats
from repro.database import (
    DatabaseState,
    History,
    Update,
    monitor_from_dict,
    monitor_to_dict,
    vocabulary,
)
from repro.errors import NotSafetyError, NotUniversalError
from repro.logic import parse
from repro.ptl.progression import progress_cache_clear, progress_cache_info
from repro.service import MonitorService

V = vocabulary({"Sub": 1, "Fill": 1, "Ping": 1})
SUBMIT_ONCE = parse("forall x . G (Sub(x) -> X G !Sub(x))")
FIFO_FILL = parse(
    "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) U "
    "(Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))"
)
# A submission is filled within two instants: after Sub the quiescent
# future fails, so live remainders need the Büchi search.
FILL_SOON = parse("forall x . G (Sub(x) -> X (Fill(x) | X Fill(x)))")
CONSTRAINTS = {"once": SUBMIT_ONCE, "fifo": FIFO_FILL, "soon": FILL_SOON}

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


def monitor_with(constraints, strategy="incremental", **kwargs):
    return IntegrityMonitor(
        constraints, History.empty(V), strategy=strategy, **kwargs
    )


# Ping shares no relation with the other constraints, so a two-shard
# service really splits the set.
HARNESS = {
    **CONSTRAINTS,
    "ping": parse("forall x . G (Ping(x) -> X G !Ping(x))"),
}

harness_traces = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["Sub", "Fill", "Ping"]),
            st.tuples(st.integers(0, 2)),
        ),
        max_size=2,
    ),
    min_size=1,
    max_size=4,
)


def _front(front, strategy):
    history = History.empty(V)
    if front == "planned":
        return PlannedMonitor(HARNESS, history, strategy=strategy)
    if front == "service":
        service = MonitorService(HARNESS, history, shards=2, strategy=strategy)
        assert service.shard_count == 2
        return service
    return IntegrityMonitor(HARNESS, history, strategy=strategy)


def _remainders(front):
    shards = front._shards if isinstance(front, MonitorService) else [front]
    return {
        name: remainder
        for shard in shards
        for name, remainder in shard.remainders().items()
    }


class TestBasics:
    def test_detects_duplicate(self, submit_once):
        m = monitor_with({"once": submit_once})
        m.apply(Update.insert(("Sub", (1,))))
        report = m.apply(Update.insert(("Sub", (1,))))
        # Update semantics: facts persist, so the duplicate appears at the
        # second instant already (Sub(1) holds at t=1 and t=2).
        assert not report.all_satisfied

    def test_event_style_duplicate(self, submit_once):
        m = monitor_with({"once": submit_once})
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        m.append_state(DatabaseState.empty(V))
        report = m.append_state(
            DatabaseState.from_facts(V, [("Sub", (1,))])
        )
        assert report.new_violations == ("once",)
        assert m.violations() == {"once": 3}

    def test_clean_run(self, submit_once, fifo_fill):
        m = monitor_with({"once": submit_once, "fifo": fifo_fill})
        for facts in ([("Sub", (1,))], [("Sub", (2,))], [("Fill", (1,))],
                      [("Fill", (2,))]):
            report = m.append_state(DatabaseState.from_facts(V, facts))
            assert report.all_satisfied
        assert m.violations() == {}

    def test_violation_is_sticky(self, submit_once):
        m = monitor_with({"once": submit_once})
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        report = m.append_state(DatabaseState.empty(V))
        assert not report.satisfied["once"]
        assert report.new_violations == ()

    def test_unnamed_constraints_get_names(self, submit_once):
        m = monitor_with([submit_once])
        assert m.is_satisfied("constraint_0")

    def test_unknown_name(self, submit_once):
        m = monitor_with({"once": submit_once})
        with pytest.raises(KeyError):
            m.is_satisfied("nope")

    def test_fragment_enforced_at_construction(self):
        with pytest.raises(NotUniversalError):
            monitor_with({"bad": parse("forall x . G (exists y . Sub(y))")})

    def test_invalid_strategy(self, submit_once):
        with pytest.raises(ValueError):
            monitor_with({"once": submit_once}, strategy="telepathy")

    def test_assume_safety_admits_a_non_safety_constraint(self):
        # Not syntactically safety: refused unless told to assume safety.
        filled = parse("forall x . G (Sub(x) -> F Fill(x))")
        with pytest.raises(NotSafetyError):
            monitor_with({"filled": filled}, lint="off")
        m = monitor_with({"filled": filled}, assume_safety=True, lint="off")
        history = History.empty(V)
        for facts in ([("Sub", (1,))], [], [("Fill", (1,))]):
            state = DatabaseState.from_facts(V, facts)
            history = history.extended(state)
            expected = check_extension(filled, history, assume_safety=True)
            assert m.append_state(state).satisfied["filled"] == (
                expected.potentially_satisfied
            )

    def test_violation_still_detected_after_idle_stretch(self):
        m = monitor_with({"once": SUBMIT_ONCE})
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        for _ in range(3):
            m.append_state(DatabaseState.from_facts(V, [("Fill", (2,))]))
        report = m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        assert report.new_violations == ("once",)

    def test_history_property_grows(self, submit_once):
        m = monitor_with({"once": submit_once})
        assert m.now == 0
        m.apply(Update.insert(("Sub", (1,))))
        assert m.now == 1
        assert len(m.history) == 2


class TestStrategies:
    TRACES = [
        # (name, list of per-instant fact lists)
        ("clean", [[("Sub", (1,))], [("Sub", (2,))], [("Fill", (1,))]]),
        ("dup", [[("Sub", (1,))], [], [("Sub", (1,))]]),
        ("fifo_break", [[("Sub", (1,))], [("Sub", (2,))], [("Fill", (2,))]]),
        ("quiet", [[], [], []]),
    ]

    @pytest.mark.parametrize("trace_name,trace", TRACES)
    def test_all_strategies_agree(
        self, submit_once, fifo_fill, trace_name, trace
    ):
        outcomes = {}
        for strategy in ("incremental", "spare"):
            m = monitor_with(
                {"once": submit_once, "fifo": fifo_fill},
                strategy=strategy,
            )
            for facts in trace:
                m.append_state(DatabaseState.from_facts(V, facts))
            outcomes[strategy] = m.violations()
        assert outcomes["incremental"] == outcomes["spare"]

    def test_incremental_regrounds_only_on_new_elements(self, submit_once):
        m = monitor_with({"once": submit_once}, strategy="incremental")
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        after_first = m.stats()["once"].regrounds
        # Same element again: no reground needed.
        m.append_state(DatabaseState.from_facts(V, [("Fill", (1,))]))
        assert m.stats()["once"].regrounds == after_first
        # Fresh element: reground.
        m.append_state(DatabaseState.from_facts(V, [("Sub", (9,))]))
        assert m.stats()["once"].regrounds == after_first + 1

    def test_spare_avoids_regrounds(self, submit_once):
        m = monitor_with({"once": submit_once}, strategy="spare", spare=8)
        base = m.stats()["once"].regrounds
        for element in range(5):
            m.append_state(
                DatabaseState.from_facts(V, [("Sub", (element,))])
            )
        assert m.stats()["once"].regrounds == base
        assert m.violations() == {}

    def test_spare_pool_exhaustion_falls_back(self, submit_once):
        m = monitor_with({"once": submit_once}, strategy="spare", spare=1)
        base = m.stats()["once"].regrounds
        for element in range(60, 64):
            m.append_state(
                DatabaseState.from_facts(V, [("Sub", (element,))])
            )
        # Pool of 1 cannot absorb 4 fresh elements: must have reground.
        assert m.stats()["once"].regrounds > base
        assert m.violations() == {}

    def test_stats_track_time_and_cache_hits(self, submit_once):
        m = monitor_with({"once": submit_once}, strategy="incremental")
        # Sub(1) creates a live obligation (G !Sub(1) from then on); the
        # quiet states leave the remainder fixed.
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        for _ in range(4):
            m.append_state(DatabaseState.empty(V))
        stats = m.stats()["once"]
        assert stats.progressions >= 5
        assert stats.progress_time > 0.0
        assert stats.sat_time > 0.0
        # The remainder stabilizes on the quiet states, so the
        # monitor-wide satisfiability memo absorbs the later decisions...
        assert stats.sat_calls >= 1
        assert stats.sat_cache_hits >= 3
        # ...and the progression kernel sees the identical
        # (obligation, sliced state) row again and again.
        assert stats.kernel_row_hits >= 3

    def test_sat_memo_shared_across_constraints(self, submit_once):
        # Two entries with the same constraint produce identical (interned)
        # remainders; the second must hit the monitor-wide memo.
        m = monitor_with(
            {"a": submit_once, "b": submit_once}, strategy="incremental"
        )
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        m.append_state(DatabaseState.empty(V))
        stats = m.stats()
        combined_hits = stats["a"].sat_cache_hits + stats["b"].sat_cache_hits
        assert combined_hits >= 1
        # Identical constraints yield identical interned remainders, so
        # only one entry ever pays for a satisfiability call.
        assert stats["b"].sat_calls == 0

    @given(
        trace=st.lists(
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
    )
    @settings(max_examples=25, deadline=None)
    def test_strategies_agree_on_random_traces(self, trace):
        outcomes = []
        for strategy in ("incremental", "spare"):
            m = monitor_with({"once": SUBMIT_ONCE}, strategy=strategy)
            for facts in trace:
                m.append_state(DatabaseState.from_facts(V, facts))
            outcomes.append(m.violations())
        assert outcomes[0] == outcomes[1]


class TestAgainstChecker:
    """The monitor's verdicts coincide with from-scratch extension checks
    at every instant."""

    @given(
        trace=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["Sub"]),
                    st.tuples(st.integers(0, 2)),
                ),
                max_size=2,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_monitor_matches_checker(self, trace):
        from repro.core import potentially_satisfied

        m = monitor_with({"once": SUBMIT_ONCE})
        states = [DatabaseState.empty(V)]
        for facts in trace:
            state = DatabaseState.from_facts(V, facts)
            states.append(state)
            report = m.append_state(state)
            history = History(vocabulary=V, states=tuple(states))
            assert report.satisfied["once"] == potentially_satisfied(
                SUBMIT_ONCE, history
            )

    @given(
        trace=harness_traces,
        front=st.sampled_from(["monitor", "planned", "service", "restored"]),
        strategy=st.sampled_from(["incremental", "spare"]),
        cut=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_paper_decision_at_every_instant(
        self, trace, front, strategy, cut
    ):
        # One differential harness for every monitor front end.  The
        # ground truth is the Theorem 4.1 reduction plus the Lemma 4.2
        # decision, run from scratch on the whole prefix.  The incremental
        # strategy grounds over the same relevant set as the oracle, so
        # its live remainders are the oracle's own interned node; the
        # spare strategy grounds over extra elements and is compared on
        # verdicts only.  "restored" is a monitor sent through its JSON
        # snapshot at instant `cut`.
        m = _front(front, strategy)
        for instant, facts in enumerate(trace):
            if front == "restored" and instant == min(cut, len(trace) - 1):
                m = monitor_from_dict(json.loads(json.dumps(monitor_to_dict(m))))
            state = DatabaseState.from_facts(V, facts)
            if isinstance(m, MonitorService):
                report = m.apply_state(state)
            else:
                report = m.append_state(state)
            violations = m.violations()
            remainders = _remainders(m)
            for name, constraint in HARNESS.items():
                oracle = check_extension(constraint, m.history)
                if name in violations:
                    # Frozen: a safety violation is irrecoverable, so the
                    # oracle must stay unsatisfiable from then on.
                    assert not report.satisfied[name]
                    assert not oracle.potentially_satisfied
                    continue
                assert report.satisfied[name] == (
                    oracle.potentially_satisfied
                )
                if strategy == "incremental":
                    assert remainders[name] is oracle.remainder


class TestKernelCounters:
    """The monitor counts kernel row hits and exposes its progression
    kernel's per-rule split; the reference progression memo stays cold."""

    @given(trace=traces)
    @settings(max_examples=50, deadline=None)
    def test_compiled_run_leaves_reference_lru_cold(self, trace):
        # Regression (cache isolation): an early kernel delegated
        # non-conjunction misses to the reference `progress`, polluting
        # — and evicting from — its LRU.  Native rules must leave it
        # untouched.
        progress_cache_clear()
        m = monitor_with(CONSTRAINTS, lint="off")
        for facts in trace:
            m.append_state(DatabaseState.from_facts(V, facts))
        info = progress_cache_info()
        assert info.hits == 0
        assert info.misses == 0
        assert info.currsize == 0

    def test_counts_row_hits(self):
        m = monitor_with(CONSTRAINTS)
        for facts in ([("Sub", (1,))], [("Fill", (1,))], [], []):
            m.append_state(DatabaseState.from_facts(V, facts))
        stats = m.stats()
        assert sum(s.kernel_row_hits for s in stats.values()) > 0
        assert "kernel_row_hits" in next(iter(stats.values())).as_dict()

    def test_progression_kernel_info_exposure(self):
        m = monitor_with(CONSTRAINTS)
        for facts in ([("Sub", (1,))], [("Fill", (1,))]):
            m.append_state(DatabaseState.from_facts(V, facts))
        info = m.progression_kernel_info()
        assert info.reference_delegations == 0
        assert info.hits + info.misses > 0
        assert sum(info.misses_by_rule.values()) == info.misses

    def test_counters_survive_the_dict_round_trip(self):
        m = monitor_with(CONSTRAINTS)
        for facts in ([("Sub", (1,))], [("Sub", (1,)), ("Fill", (1,))]):
            m.append_state(DatabaseState.from_facts(V, facts))
        for stats in m.stats().values():
            assert MonitorStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_tolerates_unknown_keys(self):
        data = MonitorStats(progressions=3).as_dict()
        data["future_counter"] = 7
        restored = MonitorStats.from_dict(data)
        assert restored.progressions == 3
        assert not hasattr(restored, "future_counter")


class TestBoundedSatCache:
    TRACE = [
        [("Sub", (element,)), ("Fill", ((element + 1) % 4,))]
        for element in range(4)
    ] * 3

    def run(self):
        m = monitor_with(CONSTRAINTS)
        reports = [
            m.append_state(DatabaseState.from_facts(V, facts))
            for facts in self.TRACE
        ]
        return m, reports

    def test_resets_without_changing_verdicts(self, monkeypatch):
        unbounded, expected = self.run()
        assert unbounded.cache_info()["sat_cache_resets"] == 0
        monkeypatch.setattr(monitor_module, "_SAT_CACHE_SIZE", 2)
        bounded, reports = self.run()
        info = bounded.cache_info()
        assert info["sat_cache_resets"] > 0
        assert info["sat_cache_entries"] <= 2
        assert reports == expected
        assert bounded.remainders() == unbounded.remainders()


class TestMonitorStatsRoundTrip:
    def test_as_dict_from_dict(self):
        m = monitor_with({"once": SUBMIT_ONCE})
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        stats = m.stats()["once"]
        data = stats.as_dict()
        assert data["progressions"] == stats.progressions
        assert type(stats).from_dict(data) == stats

    def test_reset_zeroes_every_counter(self):
        m = monitor_with({"once": SUBMIT_ONCE})
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        m.append_state(DatabaseState.from_facts(V, [("Fill", (1,))]))
        assert any(v for v in m.stats()["once"].as_dict().values())
        m.reset()
        assert all(not v for v in m.stats()["once"].as_dict().values())
        # Monitoring state survives the counter reset.
        assert m.now == 2
        assert m.violations() == {}
