"""The streaming monitor service: shards, sessions, checkpoint/resume.

Sharding is an optimization, never a semantics change: a sharded
:class:`repro.service.MonitorService` must report exactly the verdicts
of an unsharded :class:`repro.core.monitor.IntegrityMonitor`
(hypothesis-pinned below).  The async
front adds per-session FIFO ordering and the snapshot adds kill/resume —
both asserted directly.  Async tests drive the event loop through
``asyncio.run`` inside synchronous test functions (no pytest-asyncio in
the CI image).
"""

import asyncio
import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntegrityMonitor, partition_constraints
from repro.database import DatabaseState, History, Update, vocabulary
from repro.errors import EvaluationError, SchemaError, StateError
from repro.logic import parse
from repro.ptl.caches import clear_all_caches
from repro.service import SERVICE_SNAPSHOT_FORMAT, MonitorService

V = vocabulary({"Sub": 1, "Fill": 1, "Ping": 1})
CONSTRAINTS = {
    "once": parse("forall x . G (Sub(x) -> X G !Sub(x))"),
    "audit": parse("forall x . G (Fill(x) -> Y O Sub(x))"),
    "ping_once": parse("forall x . G (Ping(x) -> X G !Ping(x))"),
}

traces = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["Sub", "Fill", "Ping"]),
            st.tuples(st.integers(0, 2)),
        ),
        max_size=2,
    ),
    min_size=1,
    max_size=5,
)


def _states(trace):
    return [DatabaseState.from_facts(V, facts) for facts in trace]


def _report_key(report):
    return (report.instant, report.satisfied, report.new_violations)


class TestPartition:
    def test_relation_sharing_merges(self):
        parts = partition_constraints(
            {
                "a": parse("forall x . G !Sub(x)"),
                "b": parse("forall x . G (Sub(x) -> X Fill(x))"),
                "c": parse("forall x . G !Ping(x)"),
            },
            3,
        )
        assert [sorted(p) for p in parts] == [["a", "b"], ["c"]]

    def test_respects_shard_bound(self):
        constraints = {
            f"c{i}": parse(f"forall x . G !P{i}(x)") for i in range(5)
        }
        parts = partition_constraints(constraints, 2)
        assert len(parts) == 2
        assert sorted(name for p in parts for name in p) == sorted(
            constraints
        )

    def test_builtins_do_not_merge(self):
        parts = partition_constraints(
            {
                "a": parse("forall x y . G !(Sub(x) & leq(x, y))"),
                "b": parse("forall x y . G !(Fill(x) & leq(x, y))"),
            },
            2,
        )
        assert len(parts) == 2

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            partition_constraints(CONSTRAINTS, 0)

    def test_partition_of_everything_into_one(self):
        parts = partition_constraints(CONSTRAINTS, 1)
        assert len(parts) == 1
        assert tuple(parts[0]) == tuple(CONSTRAINTS)


class TestShardedEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(trace=traces, shards=st.integers(1, 4))
    def test_sharded_matches_unsharded(self, trace, shards):
        states = _states(trace)
        service = MonitorService(
            CONSTRAINTS, History.empty(V), shards=shards
        )
        reference = IntegrityMonitor(CONSTRAINTS, History.empty(V))
        for state in states:
            got = service.apply_state(state)
            expected = reference.append_state(state)
            assert _report_key(got) == _report_key(expected)
        assert service.violations() == reference.violations()

    def test_shard_count_follows_components(self):
        service = MonitorService(CONSTRAINTS, History.empty(V), shards=8)
        # once+audit share Sub/Fill; ping_once is its own component.
        assert service.shard_count == 2

    def test_update_surface(self):
        service = MonitorService(CONSTRAINTS, History.empty(V), shards=2)
        service.apply(Update.insert(("Sub", (1,))))
        report = service.apply(Update.insert(("Sub", (1,))))
        assert not report.satisfied["once"]


class TestSessions:
    def test_stream_counters_per_session(self):
        service = MonitorService(CONSTRAINTS, History.empty(V))
        service.apply_state(DatabaseState.empty(V), session="alpha")
        service.apply_state(DatabaseState.empty(V), session="beta")
        service.apply_state(DatabaseState.empty(V), session="alpha")
        assert service.sessions() == {"alpha": 2, "beta": 1}
        assert service.service_stats.stream_updates["alpha"] == 2

    def test_interleaved_sessions_apply_in_submission_order(self):
        async def run():
            service = MonitorService(
                CONSTRAINTS, History.empty(V), shards=2
            )
            await service.start()
            try:
                # Two producers interleaving on one queue: global order
                # is arrival order, per-session order is submission
                # order — Sub(1) from alpha lands before alpha's
                # duplicate, with beta's updates in between.
                first = await service.submit(
                    Update.insert(("Sub", (1,))), session="alpha"
                )
                second = await service.submit(
                    Update.insert(("Ping", (9,))), session="beta"
                )
                third = await service.submit(
                    Update.insert(("Sub", (1,))), session="alpha"
                )
            finally:
                await service.stop()
            return service, first, second, third

        service, first, second, third = asyncio.run(run())
        assert first.instant == 1 and first.all_satisfied
        assert second.instant == 2
        assert not third.satisfied["once"]
        assert service.sessions() == {"alpha": 2, "beta": 1}

    def test_concurrent_producers_each_stay_fifo(self):
        async def run():
            service = MonitorService(CONSTRAINTS, History.empty(V))
            await service.start()
            instants = {"alpha": [], "beta": []}

            async def producer(name, count):
                for _ in range(count):
                    report = await service.submit_state(
                        DatabaseState.empty(V), session=name
                    )
                    instants[name].append(report.instant)

            try:
                await asyncio.gather(
                    producer("alpha", 5), producer("beta", 5)
                )
            finally:
                await service.stop()
            return service, instants

        service, instants = asyncio.run(run())
        # Each session sees strictly increasing instants (FIFO per
        # session), and all ten updates were applied exactly once.
        assert instants["alpha"] == sorted(instants["alpha"])
        assert instants["beta"] == sorted(instants["beta"])
        assert sorted(instants["alpha"] + instants["beta"]) == list(
            range(1, 11)
        )
        assert service.sessions() == {"alpha": 5, "beta": 5}

    def test_submit_requires_started_service(self):
        async def run():
            service = MonitorService(CONSTRAINTS, History.empty(V))
            with pytest.raises(RuntimeError, match="not started"):
                await service.submit_state(DatabaseState.empty(V))

        asyncio.run(run())

    def test_ingest_errors_propagate_to_submitter(self):
        async def run():
            service = MonitorService(CONSTRAINTS, History.empty(V))
            await service.start()
            try:
                bad_vocab = vocabulary({"Other": 1})
                with pytest.raises(Exception):
                    await service.submit_state(
                        DatabaseState.from_facts(bad_vocab, [("Other", (1,))])
                    )
                # The consumer survives a poisoned update.
                report = await service.submit_state(DatabaseState.empty(V))
            finally:
                await service.stop()
            return report

        report = asyncio.run(run())
        assert report.all_satisfied


class TestServiceSnapshot:
    @settings(max_examples=15, deadline=None)
    @given(trace=traces, cut=st.integers(0, 5), shards=st.integers(1, 3))
    def test_kill_and_restore_matches_uninterrupted(
        self, trace, cut, shards
    ):
        cut = min(cut, len(trace))
        states = _states(trace)
        ref = MonitorService(CONSTRAINTS, History.empty(V), shards=shards)
        live = MonitorService(CONSTRAINTS, History.empty(V), shards=shards)
        for state in states[:cut]:
            ref.apply_state(state, session="s")
            live.apply_state(state, session="s")
        blob = json.dumps(live.snapshot())
        del live
        clear_all_caches()
        gc.collect()
        resumed = MonitorService.restore(json.loads(blob))
        assert resumed.shard_count == ref.shard_count
        for state in states[cut:]:
            assert _report_key(resumed.apply_state(state)) == _report_key(
                ref.apply_state(state)
            )
        assert resumed.violations() == ref.violations()

    def test_snapshot_resumes_session_counters(self):
        service = MonitorService(CONSTRAINTS, History.empty(V))
        service.apply_state(DatabaseState.empty(V), session="alpha")
        resumed = MonitorService.restore(service.snapshot())
        resumed.apply_state(DatabaseState.empty(V), session="alpha")
        resumed.apply_state(DatabaseState.empty(V), session="beta")
        assert resumed.sessions() == {"alpha": 2, "beta": 1}

    def test_save_load_file_round_trip(self, tmp_path):
        service = MonitorService(CONSTRAINTS, History.empty(V), shards=2)
        service.apply(Update.insert(("Sub", (1,))))
        path = tmp_path / "service.json"
        service.save(path)
        loaded = MonitorService.load(path)
        assert loaded.now == service.now
        assert loaded.violations() == service.violations()
        data = json.loads(path.read_text())
        assert data["format"] == SERVICE_SNAPSHOT_FORMAT

    def test_history_written_once_and_shared_on_restore(self):
        service = MonitorService(CONSTRAINTS, History.empty(V), shards=2)
        service.apply(Update.insert(("Sub", (1,))))
        data = json.loads(json.dumps(service.snapshot()))
        assert data["format"] == "repro-service-snapshot/v4"
        for shard in data["shards"]:
            assert shard["format"] == "repro-monitor-snapshot/v5"
            assert "history" not in shard
            assert shard["entries"]
        restored = MonitorService.restore(data)
        assert restored.shard_count == 2
        for shard in restored._shards:
            assert shard.history is restored.history
        assert restored.now == service.now
        state = DatabaseState.from_facts(V, [("Fill", (2,))])
        assert _report_key(restored.apply_state(state)) == _report_key(
            service.apply_state(state)
        )

    def test_restore_rejects_v1_document(self):
        data = MonitorService(CONSTRAINTS, History.empty(V)).snapshot()
        data["format"] = "repro-service-snapshot/v1"
        with pytest.raises(StateError, match="format"):
            MonitorService.restore(data)

    def test_restore_rejects_v2_document(self):
        data = MonitorService(CONSTRAINTS, History.empty(V)).snapshot()
        data["format"] = "repro-service-snapshot/v2"
        with pytest.raises(StateError, match="format"):
            MonitorService.restore(data)

    def test_restore_rejects_v3_document(self):
        # A v3 service document holds v4 monitor shards.
        data = MonitorService(CONSTRAINTS, History.empty(V)).snapshot()
        data["format"] = "repro-service-snapshot/v3"
        for shard in data["shards"]:
            shard["format"] = "repro-monitor-snapshot/v4"
        with pytest.raises(
            StateError, match="expected 'repro-service-snapshot/v4'"
        ):
            MonitorService.restore(data)

    def test_bool_elements_are_refused_before_any_shard_moves(self, tmp_path):
        # The codec refuses True/False as elements, so a state holding one
        # must be refused up front, or the service could not be saved or
        # its save restored.
        service = MonitorService(
            {name: CONSTRAINTS[name] for name in ("once", "ping_once")},
            History.empty(V),
            shards=2,
        )
        assert service.shard_count == 2
        with pytest.raises(SchemaError):
            service.apply_state(
                DatabaseState.from_facts(V, [("Ping", (True,))])
            )
        assert MonitorService.restore(service.snapshot()).now == 0
        audit = MonitorService(
            {"audit": CONSTRAINTS["audit"]}, History.empty(V)
        )
        with pytest.raises(SchemaError):
            audit.apply(Update.insert(("Sub", (True,))))
        path = tmp_path / "audit.json"
        audit.save(path)
        assert MonitorService.load(path).now == 0

    def test_snapshot_refuses_half_applied_update(self, monkeypatch):
        service = MonitorService(CONSTRAINTS, History.empty(V), shards=2)

        def failing(state):
            raise RuntimeError("shard failure")

        monkeypatch.setattr(service._shards[1], "append_state", failing)
        with pytest.raises(RuntimeError):
            service.apply(Update.insert(("Sub", (1,))))
        assert service._shards[0].now != service.now
        with pytest.raises(StateError, match="half-applied"):
            service.snapshot()

    def test_restore_rejects_wrong_format(self):
        with pytest.raises(StateError, match="format"):
            MonitorService.restore({"format": "bogus"})

    def test_restore_rejects_missing_key(self):
        service = MonitorService(CONSTRAINTS, History.empty(V))
        data = service.snapshot()
        del data["shards"]
        with pytest.raises(StateError, match="shards"):
            MonitorService.restore(data)

    def _two_shard_snapshot(self):
        service = MonitorService(CONSTRAINTS, History.empty(V), shards=2)
        service.apply(Update.insert(("Ping", (1,))))
        return json.loads(json.dumps(service.snapshot()))

    def test_restore_rejects_order_missing_a_constraint(self):
        # Restored, the service would report no verdict for ping_once.
        data = self._two_shard_snapshot()
        data["order"].remove("ping_once")
        with pytest.raises(StateError, match=r"missing \['ping_once'\]"):
            MonitorService.restore(data)

    def test_restore_rejects_order_repeating_a_constraint(self):
        data = self._two_shard_snapshot()
        data["order"].append("once")
        with pytest.raises(StateError, match=r"repeated \['once'\]"):
            MonitorService.restore(data)

    def test_restore_rejects_order_naming_an_unknown_constraint(self):
        # Restored, the first update would fail after the shards moved.
        data = self._two_shard_snapshot()
        data["order"].append("ghost")
        with pytest.raises(StateError, match=r"extra \['ghost'\]"):
            MonitorService.restore(data)


ENTRY = ("shards", 0, "entries", 0)
PAST = ("shards", 0, "past", "audit")

#: One field of a saved two-constraint service set to a value of the wrong
#: type, violated_at to an impossible value, or a
#: constraint text to one the monitor could not run.  Every bad text must
#: be refused at restore: the progressed ones would otherwise fail only at
#: the first reground, half-way through an update.
MALFORMED_FIELDS = {
    "service_stats": (("service_stats",), 5),
    "entry_stats": (ENTRY + ("stats",), 5),
    "stats_counter": (ENTRY + ("stats", "progressions"), "x"),
    "relevant": (ENTRY + ("relevant",), 5),
    "order": (("order",), 5),
    "shards": (("shards",), 5),
    "entries": (("shards", 0, "entries"), 5),
    "violated_at_text": (ENTRY + ("violated_at",), "soon"),
    "violated_at_negative": (ENTRY + ("violated_at",), -3),
    "assume_safety": (("shards", 0, "config", "assume_safety"), "yes"),
    "constraint_unparsable": (ENTRY + ("constraint",), "forall x . G ("),
    "constraint_undeclared_relation": (
        ENTRY + ("constraint",),
        "forall x . G (Sub(x) -> X G !Foo(x))",
    ),
    "constraint_wrong_arity": (
        ENTRY + ("constraint",),
        "forall x . G (Sub(x) -> X G !Sub(x, x))",
    ),
    "constraint_unbound_constant": (
        ENTRY + ("constraint",),
        "forall x . G (Sub(x) -> X G !(x = Vip))",
    ),
    "constraint_internal_quantifier": (
        ENTRY + ("constraint",),
        "forall x . G (Sub(x) -> X G !(exists y . Fill(y)))",
    ),
    "past_unparsable": (PAST, "forall x . G ("),
    "past_undeclared_relation": (PAST, "forall x . G (Foo(x) -> Y O Sub(x))"),
    "past_unbound_constant": (
        PAST,
        "forall x . G (Fill(x) -> Y O (Sub(x) | x = Vip))",
    ),
}


@pytest.mark.parametrize(
    "path, value", list(MALFORMED_FIELDS.values()), ids=list(MALFORMED_FIELDS)
)
def test_restore_rejects_a_malformed_field(path, value):
    service = MonitorService(
        {name: CONSTRAINTS[name] for name in ("once", "audit")},
        History.empty(V),
    )
    service.apply(Update.insert(("Sub", (1,))))
    data = json.loads(json.dumps(service.snapshot()))
    node = data
    for key in path[:-1]:
        node = node[key]
    assert node[path[-1]] != value
    node[path[-1]] = value
    with pytest.raises(StateError, match=path[-1]):
        MonitorService.restore(data)


class TestMalformedPastConstraints:
    """A pasteval-routed constraint with a schema mistake is refused at
    construction, as the progression route refuses it, so no update is
    ever half-applied on its account."""

    @pytest.mark.parametrize(
        ("text", "error"),
        [
            ("forall x . G (Fil(x) -> Y O Sub(x))", SchemaError),
            ("forall x . G (Fill(x, x) -> Y O Sub(x))", SchemaError),
            (
                "forall x . G (Fill(x) -> Y O (Sub(x) | x = Vip))",
                EvaluationError,
            ),
        ],
        ids=["undeclared-relation", "wrong-arity", "unbound-constant"],
    )
    @pytest.mark.parametrize("front", [IntegrityMonitor, MonitorService])
    def test_rejected_at_construction(self, front, text, error):
        with pytest.raises(error):
            front({"audit": parse(text)}, History.empty(V))
