"""The streaming monitor service: sessions, checkpoint/resume.

:class:`repro.service.MonitorService` is one
:class:`repro.core.monitor.IntegrityMonitor` behind an async front (its
verdicts are checked against the paper's decision in
``tests/core/test_monitor.py::TestAgainstChecker``).  The async front adds
sessions, applied in arrival order and each in its own submission order,
and the snapshot adds kill/resume — both asserted directly.  Async tests
drive the event loop through ``asyncio.run`` inside synchronous test
functions (no pytest-asyncio in the CI image).
"""

import asyncio
import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.lifted as lifted_module
from repro.core import IntegrityMonitor
from repro.database import DatabaseState, History, Update, vocabulary
from repro.errors import EvaluationError, SchemaError, StateError
from repro.logic import parse
from repro.pasteval import IncrementalPastEvaluator
from repro.ptl.caches import clear_all_caches
from repro.service import SERVICE_SNAPSHOT_FORMAT, MonitorService
from repro.workloads.staleness import (
    StalenessSpec,
    staleness_constraints,
    staleness_predicates,
)

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


class TestSessions:
    def test_update_surface(self):
        service = MonitorService(CONSTRAINTS, History.empty(V))
        service.apply(Update.insert(("Sub", (1,))))
        report = service.apply(Update.insert(("Sub", (1,))))
        assert not report.satisfied["once"]

    def test_stream_counters_per_session(self):
        service = MonitorService(CONSTRAINTS, History.empty(V))
        service.apply_state(DatabaseState.empty(V), session="alpha")
        service.apply_state(DatabaseState.empty(V), session="beta")
        service.apply_state(DatabaseState.empty(V), session="alpha")
        assert service.sessions() == {"alpha": 2, "beta": 1}
        assert service.service_stats.stream_updates["alpha"] == 2

    def test_interleaved_sessions_apply_in_submission_order(self):
        async def run():
            service = MonitorService(CONSTRAINTS, History.empty(V))
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
                # A refused update leaves the service serving.
                report = await service.submit_state(DatabaseState.empty(V))
            finally:
                await service.stop()
            return report

        report = asyncio.run(run())
        assert report.all_satisfied

    def test_start_adds_no_task(self):
        async def run():
            service = MonitorService(CONSTRAINTS, History.empty(V))
            before = asyncio.all_tasks()
            await service.start()
            try:
                return before, asyncio.all_tasks()
            finally:
                await service.stop()

        before, after = asyncio.run(run())
        assert after == before

    def test_a_cancelled_submitter_loses_no_report(self):
        # Cancelled after one loop step, the submitter either holds the
        # report of an applied update or applied nothing.
        async def run():
            service = MonitorService(CONSTRAINTS, History.empty(V))
            await service.start()
            try:
                task = asyncio.create_task(
                    service.submit_state(DatabaseState.empty(V))
                )
                await asyncio.sleep(0)
                task.cancel()
                try:
                    report = await task
                except asyncio.CancelledError:
                    report = None
            finally:
                await service.stop()
            return service, report

        service, report = asyncio.run(run())
        if report is None:
            assert service.now == 0
        else:
            assert report.instant == service.now == 1

    def test_stop_closes_the_front_and_start_reopens_it(self):
        async def run():
            service = MonitorService(CONSTRAINTS, History.empty(V))
            await service.start()
            with pytest.raises(RuntimeError, match="already started"):
                await service.start()
            await service.submit_state(DatabaseState.empty(V), session="a")
            await service.stop()
            with pytest.raises(RuntimeError, match="not started"):
                await service.submit(Update.insert(("Sub", (1,))))
            await service.start()
            try:
                report = await service.submit(Update.insert(("Sub", (1,))))
            finally:
                await service.stop()
            return service, report

        service, report = asyncio.run(run())
        assert report.instant == service.now == 2
        assert service.sessions() == {"a": 1, "default": 1}

    @pytest.mark.parametrize("fault", ["entry", "past"])
    def test_half_applied_submit_raises_in_the_submitter(
        self, monkeypatch, fault
    ):
        def failing(*args):
            raise RuntimeError("failure after validation")

        owner = (
            lifted_module.LiftedTable
            if fault == "entry"
            else IncrementalPastEvaluator
        )

        async def run():
            service = MonitorService(CONSTRAINTS, History.empty(V))
            await service.start()
            try:
                await service.submit(Update.insert(("Sub", (1,))))
                monkeypatch.setattr(owner, "advance", failing)
                with pytest.raises(RuntimeError, match="after validation"):
                    await service.submit_state(
                        DatabaseState.from_facts(V, [("Fill", (1,))])
                    )
                monkeypatch.undo()
                with pytest.raises(StateError, match="instant 2"):
                    await service.submit_state(DatabaseState.empty(V))
            finally:
                await service.stop()
            return service

        service = asyncio.run(run())
        assert service.now == 2
        assert service.sessions() == {"default": 1}


class TestServiceSnapshot:
    @settings(max_examples=15, deadline=None)
    @given(trace=traces, cut=st.integers(0, 5))
    def test_kill_and_restore_matches_uninterrupted(self, trace, cut):
        cut = min(cut, len(trace))
        states = _states(trace)
        ref = MonitorService(CONSTRAINTS, History.empty(V))
        live = MonitorService(CONSTRAINTS, History.empty(V))
        for state in states[:cut]:
            ref.apply_state(state, session="s")
            live.apply_state(state, session="s")
        blob = json.dumps(live.snapshot())
        del live
        clear_all_caches()
        gc.collect()
        resumed = MonitorService.restore(json.loads(blob))
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
        service = MonitorService(CONSTRAINTS, History.empty(V))
        service.apply(Update.insert(("Sub", (1,))))
        path = tmp_path / "service.json"
        service.save(path)
        loaded = MonitorService.load(path)
        assert loaded.now == service.now
        assert loaded.violations() == service.violations()
        data = json.loads(path.read_text())
        assert data["format"] == SERVICE_SNAPSHOT_FORMAT

    def test_snapshot_holds_tables_and_no_history(self):
        service = MonitorService(CONSTRAINTS, History.empty(V))
        service.apply(Update.insert(("Sub", (1,))))
        data = json.loads(json.dumps(service.snapshot()))
        assert data["format"] == "repro-service-snapshot/v7"
        assert set(data) == {"format", "service_stats", "shards"}
        [monitor] = data["shards"]
        assert monitor["format"] == "repro-monitor-snapshot/v7"
        assert set(monitor) == {"format", "config", "now", "current", "entries"}
        assert [entry["name"] for entry in monitor["entries"]] == list(
            CONSTRAINTS
        )
        restored = MonitorService.restore(data)
        assert restored.now == service.now
        assert restored.current == service.current
        state = DatabaseState.from_facts(V, [("Fill", (2,))])
        assert _report_key(restored.apply_state(state)) == _report_key(
            service.apply_state(state)
        )

    def test_snapshot_stays_flat_on_a_long_stream(self):
        # No history in the document: on a staleness stream whose state
        # repeats every three instants, the saved service is as long at
        # t = 1,600 as at t = 400 up to its counters (it grew with t
        # while the document held the history).
        specs = tuple(StalenessSpec(name, 2) for name in ("price", "stock"))
        schema = {
            relation: 1
            for spec in specs
            for relation in staleness_predicates(spec.field)
        }
        vocab = vocabulary(schema)
        service = MonitorService(
            staleness_constraints(specs), History.empty(vocab)
        )
        sizes = {}
        for instant in range(1, 1601):
            facts = [
                (relation, (value,))
                for spec in specs
                for relation, values in zip(
                    staleness_predicates(spec.field),
                    (range(3), [instant % 3], [(instant + 1) % 3]),
                )
                for value in values
            ]
            service.apply_state(DatabaseState.from_facts(vocab, facts))
            if instant in (400, 1600):
                sizes[instant] = len(
                    json.dumps(service.snapshot(), indent=2, sort_keys=True)
                )
        assert service.violations() == {}
        assert abs(sizes[1600] - sizes[400]) <= 0.02 * sizes[400]

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

    def test_restore_rejects_v5_document(self):
        # A v5 service document records the shard layout and the
        # registration order beside its shards.
        data = MonitorService(CONSTRAINTS, History.empty(V)).snapshot()
        data.update(
            format="repro-service-snapshot/v5",
            config={"shards": 1},
            order=list(CONSTRAINTS),
        )
        with pytest.raises(
            StateError, match="expected 'repro-service-snapshot/v7'"
        ):
            MonitorService.restore(data)

    def test_restore_rejects_v6_document(self):
        # A v6 service document holds the history at the top level and v6
        # monitor shards, which record the registration order and the
        # past constraints' texts.
        data = MonitorService(CONSTRAINTS, History.empty(V)).snapshot()
        data["format"] = "repro-service-snapshot/v6"
        [shard] = data["shards"]
        data["history"] = shard.pop("current")
        shard.update(
            format="repro-monitor-snapshot/v6",
            order=list(CONSTRAINTS),
            past={"audit": shard["entries"].pop(1)["constraint"]},
        )
        with pytest.raises(
            StateError, match="expected 'repro-service-snapshot/v7'"
        ):
            MonitorService.restore(data)

    @pytest.mark.parametrize("count", [0, 2])
    def test_restore_rejects_other_than_one_monitor(self, count):
        data = MonitorService(CONSTRAINTS, History.empty(V)).snapshot()
        data["shards"] = data["shards"] * count
        with pytest.raises(StateError, match="exactly one monitor"):
            MonitorService.restore(data)

    def test_restore_rejects_v3_document(self):
        # A v3 service document holds v4 monitor shards.
        data = MonitorService(CONSTRAINTS, History.empty(V)).snapshot()
        data["format"] = "repro-service-snapshot/v3"
        for shard in data["shards"]:
            shard["format"] = "repro-monitor-snapshot/v4"
        with pytest.raises(
            StateError, match="expected 'repro-service-snapshot/v7'"
        ):
            MonitorService.restore(data)

    def test_restore_rejects_v4_document(self):
        # A v4 service document holds v5 monitor shards, whose entries
        # carry a ground remainder instead of a table.
        data = MonitorService(CONSTRAINTS, History.empty(V)).snapshot()
        data["format"] = "repro-service-snapshot/v4"
        for shard in data["shards"]:
            shard["format"] = "repro-monitor-snapshot/v5"
        with pytest.raises(
            StateError, match="expected 'repro-service-snapshot/v7'"
        ):
            MonitorService.restore(data)

    def test_bool_elements_are_refused_before_any_shard_moves(self, tmp_path):
        # The codec refuses True/False as elements, so a state holding one
        # must be refused up front, or the service could not be saved or
        # its save restored.
        service = MonitorService(
            {name: CONSTRAINTS[name] for name in ("once", "ping_once")},
            History.empty(V),
        )
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
        # An entry's table step, or else a past-closed entry's evaluator,
        # fails after the state passed validation and moved the monitor.
        def failing(*args):
            raise RuntimeError("failure after validation")

        for fault in ("entry", "past"):
            service = MonitorService(CONSTRAINTS, History.empty(V))
            service.apply(Update.insert(("Sub", (1,))))
            monitor = service._monitor
            if fault == "entry":
                monkeypatch.setattr(
                    lifted_module.LiftedTable, "advance", failing
                )
            else:
                monkeypatch.setattr(
                    IncrementalPastEvaluator, "advance", failing
                )
            state = DatabaseState.from_facts(V, [("Fill", (1,))])
            with pytest.raises(RuntimeError):
                service.apply_state(state)
            monkeypatch.undo()
            assert service.now == 2
            with pytest.raises(StateError, match="half-applied"):
                service.snapshot()
            with pytest.raises(StateError, match="half-applied"):
                monitor.snapshot_entries()
            with pytest.raises(StateError, match="instant 2"):
                service.apply(Update.insert(("Sub", (2,))))
            with pytest.raises(StateError, match="half-applied"):
                monitor.append_state(DatabaseState.empty(V))
            assert service.now == 2
            assert service.sessions() == {"default": 1}

    def test_refused_state_leaves_the_service_savable(self):
        # A state over another vocabulary is refused before it moves the
        # monitor, so the service stays whole at its old instant.
        service = MonitorService(CONSTRAINTS, History.empty(V))
        service.apply(Update.insert(("Sub", (1,))))
        other = vocabulary({"Other": 1})
        with pytest.raises(SchemaError):
            service.apply_state(
                DatabaseState.from_facts(other, [("Other", (1,))])
            )
        restored = MonitorService.restore(service.snapshot())
        assert restored.now == service.now == 1
        state = DatabaseState.from_facts(V, [("Sub", (1,))])
        assert _report_key(restored.apply_state(state)) == _report_key(
            service.apply_state(state)
        )

    def test_restore_rejects_wrong_format(self):
        with pytest.raises(StateError, match="format"):
            MonitorService.restore({"format": "bogus"})

    def test_restore_rejects_missing_key(self):
        service = MonitorService(CONSTRAINTS, History.empty(V))
        data = service.snapshot()
        del data["shards"]
        with pytest.raises(StateError, match="shards"):
            MonitorService.restore(data)

    def _entries(self):
        """The saved monitor's entries, in registration order."""
        service = MonitorService(CONSTRAINTS, History.empty(V))
        service.apply(Update.insert(("Ping", (1,))))
        data = json.loads(json.dumps(service.snapshot()))
        return data, data["shards"][0]["entries"]

    def test_restore_rejects_order_repeating_a_constraint(self):
        data, entries = self._entries()
        entries.append(entries[0])
        with pytest.raises(StateError, match=r"\['once'\] twice"):
            MonitorService.restore(data)

    def test_restore_rejects_order_naming_an_unknown_constraint(self):
        # An entry whose constraint names a relation the vocabulary does
        # not declare: restored, the first update would fail half-way.
        data, entries = self._entries()
        ghost = dict(entries[0])
        ghost.update(
            name="ghost", constraint="forall x . G (Gh(x) -> X G !Gh(x))"
        )
        entries.append(ghost)
        with pytest.raises(StateError, match="'ghost'.*undeclared"):
            MonitorService.restore(data)


ENTRY = ("shards", 0, "entries", 0)
PAST = ("shards", 0, "entries", 1, "constraint")

#: One field of a saved two-constraint service set to a value of the wrong
#: type, violated_at to an impossible value, or a
#: constraint text to one the monitor could not run.  Every bad text must
#: be refused at restore: the progressed ones would otherwise fail only
#: half-way through a later update.
MALFORMED_FIELDS = {
    "service_stats": (("service_stats",), 5),
    "entry_stats": (ENTRY + ("stats",), 5),
    "stats_counter": (ENTRY + ("stats", "progressions"), "x"),
    "relevant": (ENTRY + ("relevant",), 5),
    "table_nodes": (ENTRY + ("nodes",), 5),
    "table_states": (ENTRY + ("states",), 5),
    "table_witnesses": (ENTRY + ("witnesses",), 5),
    "now": (("shards", 0, "now"), "soon"),
    "current": (("shards", 0, "current"), 5),
    "seen": (("shards", 0, "entries", 1, "seen"), 5),
    "tables": (("shards", 0, "entries", 1, "tables"), 5),
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
