"""Tests for the online integrity monitor (regrounds, stats, violations)."""

import json
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.monitor as monitor_module
import repro.core.reduction as reduction_module
from repro.core import IntegrityMonitor, check_extension
from repro.core.grounding import IdGrounder, rel_prop
from repro.core.reduction import ground_domain
from repro.core.monitor import MonitorStats
from repro.database import (
    DatabaseState,
    History,
    Update,
    monitor_from_dict,
    monitor_to_dict,
    vocabulary,
)
from repro.database.serialize import kernel_ptl_to_jsonable, ptl_to_jsonable
from repro.errors import NotSafetyError, NotUniversalError
from repro.eval import evaluate_finite
from repro.logic import parse
from repro.logic.classify import require_universal
from repro.ptl.bitset import BuchiKernel
from repro.ptl.formulas import intern_cache_info
from repro.ptl.progression import progress_cache_clear, progress_cache_info
from repro.service import MonitorService
from repro.workloads.orders import (
    ORDER_VOCABULARY,
    clean_trace,
    standard_constraints,
)

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


def monitor_with(constraints, **kwargs):
    return IntegrityMonitor(constraints, History.empty(V), **kwargs)


# The audit rule is past-closed: every front runs it on the history-less
# evaluator.
AUDIT = parse("forall x . G (Fill(x) -> Y O Sub(x))")
# Ping shares no relation with the other constraints, so a two-shard
# service really splits the set.
HARNESS = {
    **CONSTRAINTS,
    "audit": AUDIT,
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


def _front(front):
    history = History.empty(V)
    if front in ("service", "restored-service"):
        service = MonitorService(HARNESS, history, shards=2)
        assert service.shard_count == 2
        return service
    return IntegrityMonitor(HARNESS, history)


def _restored(front):
    """``front`` sent through its JSON snapshot."""
    if isinstance(front, MonitorService):
        return MonitorService.restore(json.loads(json.dumps(front.snapshot())))
    return monitor_from_dict(json.loads(json.dumps(monitor_to_dict(front))))


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
        # Neither universal nor past-closed: an internal quantifier under
        # a future operator.
        bad = parse("forall x . G (Sub(x) -> X (exists y . Fill(y)))")
        with pytest.raises(NotUniversalError):
            monitor_with({"bad": bad})

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


def assert_strategies_agree(constraints, trace):
    """A1's two strategies, one monitor fed every update and a fresh
    monitor built on every prefix, find the same violations and hold the
    same live remainders at every instant."""
    m = monitor_with(constraints)
    history = History.empty(V)
    for facts in trace:
        state = DatabaseState.from_facts(V, facts)
        m.append_state(state)
        history = history.extended(state)
        scratch = IntegrityMonitor(constraints, history)
        violated = m.violations()
        assert set(scratch.violations()) == set(violated)
        live = m.remainders()
        for name, remainder in scratch.remainders().items():
            if name not in violated:
                assert remainder is live[name]


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
        assert_strategies_agree(
            {"once": submit_once, "fifo": fifo_fill}, trace
        )

    def test_incremental_regrounds_only_on_new_elements(self, submit_once):
        m = monitor_with({"once": submit_once})
        m.append_state(DatabaseState.from_facts(V, [("Sub", (1,))]))
        after_first = m.stats()["once"].regrounds
        # Same element again: no reground needed.
        m.append_state(DatabaseState.from_facts(V, [("Fill", (1,))]))
        assert m.stats()["once"].regrounds == after_first
        # Fresh element: reground.
        m.append_state(DatabaseState.from_facts(V, [("Sub", (9,))]))
        assert m.stats()["once"].regrounds == after_first + 1

    def test_stats_track_time_and_cache_hits(self, submit_once):
        m = monitor_with({"once": submit_once})
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
        m = monitor_with({"a": submit_once, "b": submit_once})
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
        assert_strategies_agree({"once": SUBMIT_ONCE, "fifo": FIFO_FILL}, trace)


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
        front=st.sampled_from(
            ["monitor", "service", "restored", "restored-service"]
        ),
        cut=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_paper_decision_at_every_instant(self, trace, front, cut):
        # One differential harness for every monitor front end.  The
        # ground truth is the Theorem 4.1 reduction plus the Lemma 4.2
        # decision, run from scratch on the whole prefix.  The monitor
        # grounds over the same relevant set as the oracle, so its live
        # remainders are the oracle's own interned node.  The past-closed
        # audit rule is checked against its finite-prefix meaning: the
        # body held at every instant so far.  "restored" and
        # "restored-service" are sent through their JSON snapshot at
        # instant `cut`.  Every front reports each violation once, at the
        # instant it happens, in registration order.
        m = _front(front)
        first_violation: dict[str, int] = {}
        for instant, facts in enumerate(trace):
            if front.startswith("restored") and instant == min(
                cut, len(trace) - 1
            ):
                m = _restored(m)
            state = DatabaseState.from_facts(V, facts)
            if isinstance(m, MonitorService):
                report = m.apply_state(state)
            else:
                report = m.append_state(state)
            violations = m.violations()
            fresh = tuple(
                name
                for name in HARNESS
                if name in violations and name not in first_violation
            )
            assert report.new_violations == fresh
            first_violation.update((name, report.instant) for name in fresh)
            assert list(violations.items()) == [
                (name, first_violation[name])
                for name in HARNESS
                if name in first_violation
            ]
            remainders = _remainders(m)
            assert "audit" not in remainders
            assert report.satisfied["audit"] == evaluate_finite(
                AUDIT, m.history, future="weak"
            )
            assert ("audit" in violations) != report.satisfied["audit"]
            for name, constraint in HARNESS.items():
                if name == "audit":
                    continue
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
                assert remainders[name] is oracle.remainder


class TestRegroundReuse:
    """A reground grounds only the assignments its entry's last grounding
    lacks; a restored monitor keeps no chain table, so its first reground
    grounds everything."""

    @staticmethod
    def count_groundings(monkeypatch):
        calls = []
        real_ground = IdGrounder.ground

        def counting_ground(self, values):
            calls.append(values)
            return real_ground(self, values)

        monkeypatch.setattr(IdGrounder, "ground", counting_ground)
        return calls

    @staticmethod
    def known(m):
        # FIFO_FILL has k = 2; with no fill it stays satisfied.
        monitor = monitor_with({"fifo": FIFO_FILL})
        monitor.append_state(
            DatabaseState.from_facts(V, [("Sub", (e,)) for e in range(m)])
        )
        assert monitor.snapshot_entries()[0].relevant == set(range(m))
        return monitor

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_new_element_grounds_only_its_assignments(self, monkeypatch, m):
        monitor = self.known(m)
        regrounds = monitor.stats()["fifo"].regrounds
        calls = self.count_groundings(monkeypatch)
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (m,))]))
        assert monitor.stats()["fifo"].regrounds == regrounds + 1
        assert len(calls) == (m + 3) ** 2 - (m + 2) ** 2
        assert all(m in values for values in calls)
        assert monitor.cache_info()["ground_instances"] == (m + 3) ** 2

    @pytest.mark.parametrize("m", [1, 3])
    def test_restored_monitor_grounds_everything_once(self, monkeypatch, m):
        restored = _restored(self.known(m))
        assert restored.cache_info()["ground_instances"] == 0
        calls = self.count_groundings(monkeypatch)
        restored.append_state(DatabaseState.from_facts(V, [("Sub", (m,))]))
        assert len(calls) == (m + 3) ** 2
        # The restored monitor reuses from its second reground on.
        calls.clear()
        restored.append_state(
            DatabaseState.from_facts(V, [("Sub", (m + 1,))])
        )
        assert len(calls) == (m + 4) ** 2 - (m + 3) ** 2

    @pytest.mark.parametrize("front", ["monitor", "service"])
    def test_ground_instances_is_the_last_grounding_per_entry(self, front):
        m = _front(front)
        append = m.apply_state if front == "service" else m.append_state
        for element in range(4):
            append(
                DatabaseState.from_facts(
                    V,
                    [
                        ("Sub", (element,)),
                        ("Fill", ((element + 1) % 4,)),
                        ("Ping", (element % 3,)),
                    ],
                )
            )
        shards = m._shards if isinstance(m, MonitorService) else [m]
        entries = [
            snap for shard in shards for snap in shard.snapshot_entries()
        ]
        assert len(entries) == len(HARNESS) - 1
        expected = 0
        for snap in entries:
            k = len(require_universal(snap.constraint).external_universals)
            expected += (len(snap.relevant) + k) ** k
        assert m.cache_info()["ground_instances"] == expected

    def test_chains_follow_the_cartesian_order(self):
        # The fold order that keeps the materialized remainder the node
        # check_extension builds from pand over cartesian(domain).
        monitor = monitor_with({"fifo": FIFO_FILL})
        for element in (2, 1):
            monitor.append_state(
                DatabaseState.from_facts(V, [("Sub", (element,))])
            )
        (entry,) = monitor._entries
        domain = ground_domain(entry.relevant, 2)
        assert list(entry.chains) == list(cartesian(domain, repeat=2))
        assert len(entry.chains) == 16
        assert entry.chained == len(monitor.history)

    def test_no_reground_reads_the_history(self, monkeypatch):
        calls = []
        real = reduction_module.constraint_relevant_elements

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(
            monitor_module, "constraint_relevant_elements", counting
        )
        monkeypatch.setattr(
            reduction_module, "constraint_relevant_elements", counting
        )
        trace = clean_trace(60, seed=3)
        monitor = IntegrityMonitor(
            standard_constraints(), History.empty(ORDER_VOCABULARY)
        )
        assert len(calls) == len(standard_constraints())
        calls.clear()
        for state in trace.states():
            monitor.append_state(state)
        assert sum(s.regrounds for s in monitor.stats().values()) > 10
        assert calls == []
        for name, constraint in standard_constraints().items():
            info = require_universal(constraint)
            (entry,) = [e for e in monitor._entries if e.name == name]
            assert entry.relevant == real(monitor.history, info)


class TestIdSpace:
    """The monitor holds remainders as kernel ids: saves encode them
    without building nodes, updates build none, and cache_info reports
    the kernel and the reground caches."""

    @given(trace=harness_traces)
    @settings(max_examples=40, deadline=None)
    def test_id_encoding_is_the_formula_encoding(self, trace):
        m = _front("monitor")
        for facts in trace:
            m.append_state(DatabaseState.from_facts(V, facts))
            for snap in m.snapshot_entries():
                kernel, oid = snap.source
                encoded = kernel_ptl_to_jsonable(kernel, oid, {})
                assert encoded == ptl_to_jsonable(snap.remainder)
            saved = monitor_to_dict(m)
            assert [entry["remainder"] for entry in saved["entries"]] == [
                ptl_to_jsonable(remainder)
                for remainder in m.remainders().values()
            ]

    def test_an_update_builds_no_formula_node(self, monkeypatch):
        # A warmed-up fifo monitor: an update that regrounds for a new
        # element builds that element's letters and nothing else, and a
        # plain progression step builds no node at all.
        monitor = monitor_with({"fifo": FIFO_FILL})
        for element in range(4):
            monitor.append_state(
                DatabaseState.from_facts(V, [("Sub", (element,))])
            )
        monitor.append_state(DatabaseState.from_facts(V, [("Fill", (0,))]))

        def no_buchi(self, formula):
            raise AssertionError("no Büchi call expected")

        monkeypatch.setattr(BuchiKernel, "is_satisfiable", no_buchi)
        before = intern_cache_info()["misses"]
        monitor.append_state(DatabaseState.from_facts(V, [("Sub", (9,))]))
        letters = {
            rel_prop("Sub", (9,)),
            rel_prop("Fill", (9,)),
        }
        assert intern_cache_info()["misses"] - before == len(letters)
        assert monitor.stats()["fifo"].regrounds == 6
        before = intern_cache_info()["misses"]
        monitor.append_state(DatabaseState.from_facts(V, [("Fill", (1,))]))
        assert intern_cache_info()["misses"] == before
        assert monitor.is_satisfied("fifo")

    def test_cache_info_reports_the_kernel_and_reground_caches(self):
        service = _front("service")
        for element in range(4):
            service.apply_state(
                DatabaseState.from_facts(
                    V, [("Sub", (element,)), ("Fill", ((element + 3) % 4,))]
                )
            )
        total: dict[str, int] = {}
        for shard in service._shards:
            info = shard.cache_info()
            kernel = shard.progression_kernel_info()
            assert info["kernel_obligations"] == kernel.obligations
            assert info["kernel_letters"] == kernel.letters
            assert info["kernel_transitions"] == kernel.transitions
            assert info["kernel_evictions"] == kernel.evictions
            assert info["mask_log"] == len(shard.history)
            assert info["grounder_memo"] == sum(
                entry.grounder.memo_size() for entry in shard._entries
            )
            for key, value in info.items():
                total[key] = total.get(key, 0) + value
        assert service.cache_info() == total
        assert total["grounder_memo"] > 0


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

    def test_service_sums_its_shards_cache_info(self, monkeypatch):
        def run():
            service = MonitorService(HARNESS, History.empty(V), shards=2)
            reports = [
                service.apply_state(DatabaseState.from_facts(V, facts))
                for facts in self.TRACE
            ]
            return service, reports

        unbounded, expected = run()
        assert unbounded.cache_info()["sat_cache_resets"] == 0
        monkeypatch.setattr(monitor_module, "_SAT_CACHE_SIZE", 2)
        bounded, reports = run()
        info = bounded.cache_info()
        shards = [shard.cache_info() for shard in bounded._shards]
        assert len(shards) == 2
        assert info == {
            key: sum(shard[key] for shard in shards) for key in shards[0]
        }
        assert info["sat_cache_resets"] > 0
        assert reports == expected


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
