"""The three closed-loop workloads, driven through ``repro.MonitorService``.

Each workload runs in *units* (an order episode or a staleness stream)
that start cold: derived-result caches are cleared and garbage is
collected first, outside any timing.  A unit drives the service the way
``repro-tic serve`` does: ``start`` / ``submit_state`` / ``stop``, and
``save`` / ``load`` for checkpoints.  No monitoring or sharding keyword
is passed, so the service runs with its defaults.

Every report is checked against the verdict the generator's injection
record predicts; a mismatch or an exception counts as a failed
operation and the unit goes on.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable

from repro import (
    DatabaseState,
    History,
    MonitorService,
    check_extension,
    evaluate_finite,
    parse,
    vocabulary,
)
from repro.ptl.caches import cache_info, clear_all_caches

from inputs import (
    ORDER_CONSTRAINTS,
    ORDER_FUTURE,
    ORDER_INJECTIONS,
    ORDER_SCHEMA,
    Stream,
    order_episode,
    staleness_constraints,
    staleness_schema,
    staleness_stream,
    unit_rng,
    update_kinds,
)
from tracer import Tracer

# orders_fresh: short cold episodes, killed late and resumed from a
# checkpoint.  Every fresh order id regrounds over the whole history and
# replays the prefix, so an update costs more the later it comes; short
# episodes keep a run to many of them.
ORDER_LENGTH = 40
ORDER_KILL_AT = 30
# Exactly 7 orders arrive up to the kill and 3 after it (arrival rate
# 0.25), which keeps the grounding and the checkpoint the same size in
# every episode.  With fill probability 0.25 the p50 rank falls mid-way
# into the drain updates and the p90 rank into the fresh ones (see
# run.steadiness_guard).
ORDER_COUNTS = (7, 3)
ORDER_FILL = 0.25

# staleness_steady: warm-up, one small checkpoint proved restorable on a
# standby copy, a second warm-up to refill the caches the cold load
# cleared, then the timed steady window on the uninterrupted service.
STEADY_WARMUP = 100
STEADY_REWARM = 100
STEADY_WINDOW = 1500
STANDBY_ROUNDS = 10
# staleness_restart: a restart every RESTART_EVERY instants, each saving
# and cold-loading RESTART_ROUNDS times.
RESTART_LENGTH = 400
RESTART_EVERY = 100
RESTART_ROUNDS = 5
# Cold constructions per staleness stream; setup_s is their median.
STALENESS_SETUPS = 6

# The speed probe: a fixed pure-Python task timed every PROBE_EVERY
# seconds of a timed run, between updates and outside every timing.
PROBE_EVERY = 0.05
PROBE_SIZE = 3000
PROBE_ROUNDS = 4
PROBE_WINDOW = 20
#: Nominal probe time: reported times read as if every probe took this.
PROBE_NOMINAL_S = 0.001

#: Program counters summed over constraints from ``MonitorService.stats()``.
COUNTERS = (
    "progressions",
    "idle_steps",
    "skipped_constraints",
    "sat_calls",
    "sat_cache_hits",
)


@dataclass
class Sample:
    """One measured update."""

    latency: float
    kind: str
    position: float  # place in the stream, 0 (first) to 1 (last)
    request: str
    submitted: float


@dataclass
class UnitResult:
    samples: list[Sample] = field(default_factory=list)
    loop_seconds: float = 0.0
    #: Timed operations as (start, seconds), start on perf_counter.
    setups: list[tuple[float, float]] = field(default_factory=list)
    setup_requests: list[str] = field(default_factory=list)
    checkpoints: list[tuple[float, float]] = field(default_factory=list)
    snapshot_bytes: list[int] = field(default_factory=list)
    history_shares: list[float] = field(default_factory=list)
    restores: list[tuple[float, float]] = field(default_factory=list)
    save_requests: list[str] = field(default_factory=list)
    load_requests: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: Counter[str] = field(default_factory=Counter)
    entry_instants: int = 0
    cache_sizes: dict[str, int] = field(default_factory=dict)
    remainder_nodes: int = 0
    #: (stream, final violations of the service) for the oracle check.
    finals: list[tuple[Stream, dict[str, int]]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class Context:
    """What a unit needs besides its inputs: where to write checkpoints,
    the tracer of a traced pass and the speed probe of a timed run."""

    def __init__(
        self,
        workload: str,
        seed: int,
        out: Path,
        tracer: Tracer | None = None,
        probe: SpeedProbe | None = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.out = out
        self.tracer = tracer
        self.probe = probe

    def request(self, unit: int, what: object) -> str:
        request = f"{self.workload}/{unit}/{what}"
        if self.tracer is not None:
            self.tracer.request = request
        return request

    def idle(self) -> None:
        if self.tracer is not None:
            self.tracer.request = None


def cold() -> None:
    """Stand in for a fresh process: drop derived caches and garbage."""
    clear_all_caches()
    gc.collect()


class SpeedProbe:
    """Tracks the machine's speed during a timed run.

    On a shared machine the interpreter's speed drifts by tens of percent
    within seconds and minutes.  The probe times a fixed pure-Python task
    every PROBE_EVERY seconds, between updates and outside every timing;
    :meth:`scale` turns a time measured at some instant into the time it
    would have taken at the nominal probe speed (see README.md).  The
    task only reads prebuilt objects, so it triggers no garbage
    collection and its time does not depend on the program's heap.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()
        self._keys = [
            frozenset((i % 13, i % 7, (i * 31) % 101, i))
            for i in range(PROBE_SIZE)
        ]
        self._table = {key: i for i, key in enumerate(self._keys)}

    def maybe(self) -> None:
        """Run the probe task if PROBE_EVERY seconds have passed."""
        if time.perf_counter() - self._last < PROBE_EVERY:
            return
        table = self._table
        total = 0
        start = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            for key in self._keys:
                total += table[key] % 7
        self._last = time.perf_counter()
        self.ends.append(self._last)
        self.times.append(self._last - start)
        self.spent += self._last - start

    def scale(self, at: float) -> float:
        """Nominal over measured probe time, from the PROBE_WINDOW probes
        nearest to ``at``."""
        middle = bisect.bisect(self.ends, at)
        low = max(0, min(middle - PROBE_WINDOW // 2,
                         len(self.ends) - PROBE_WINDOW))
        window = self.times[low:low + PROBE_WINDOW]
        return PROBE_NOMINAL_S / statistics.median(window)


def expected_report(
    stream: Stream, order: tuple[str, ...], instant: int
) -> tuple[dict[str, bool], tuple[str, ...]]:
    violated = stream.violations
    satisfied = {
        name: not (name in violated and violated[name] <= instant)
        for name in order
    }
    new = tuple(name for name in order if violated.get(name) == instant)
    return satisfied, new


class Unit:
    """One cold unit of a workload: a stream and the service fed with it."""

    def __init__(
        self,
        ctx: Context,
        index: int,
        texts: dict[str, str],
        schema: dict[str, int],
        stream: Stream,
    ) -> None:
        self.ctx = ctx
        self.index = index
        self.texts = texts
        self.order = tuple(texts)
        self.vocabulary = vocabulary(schema)
        self.stream = stream
        self.kinds = update_kinds(stream)
        self.states = [
            DatabaseState.from_facts(self.vocabulary, facts)
            for facts in stream.facts
        ]
        self.result = UnitResult()
        self.service: MonitorService | None = None

    # -- set-up ----------------------------------------------------------

    def construct(self) -> None:
        """One cold construction, timed: parse, lint gate, plan,
        grounding and the first decisions."""
        self.service = None
        cold()
        self._probe()
        request = self.ctx.request(self.index, f"setup{len(self.result.setups)}")
        start = time.perf_counter()
        constraints = {name: parse(text) for name, text in self.texts.items()}
        service = MonitorService(constraints, History.empty(self.vocabulary))
        self.result.setups.append((start, time.perf_counter() - start))
        self.ctx.idle()
        self.result.setup_requests.append(request)
        self.service = service

    async def start(self) -> None:
        assert self.service is not None
        await self.service.start()

    def _probe(self) -> None:
        """Keep the speed probe current right before a timed operation."""
        if self.ctx.probe is not None:
            self.ctx.probe.maybe()

    # -- updates ----------------------------------------------------------

    async def drive(
        self, begin: int, end: int, sessions: tuple[str, ...],
        measured: bool, window: tuple[int, int] | None = None,
    ) -> None:
        """Submit states ``begin..end-1`` (instants ``begin+1..end``).

        Sessions take turns: each waits for its own report, then hands
        the turn to the next, so the queue never holds two updates.
        ``window`` is the measured stretch of the stream, for positions.
        """
        service = self.service
        assert service is not None
        result = self.result
        first, last = window or (0, len(self.states))
        span = max(1, last - first - 1)
        turns = [asyncio.Event() for _ in sessions]
        turns[0].set()
        counters = self._counters() if measured else None

        async def client(slot: int) -> None:
            name = sessions[slot]
            for index in range(begin + slot, end, len(sessions)):
                await turns[slot].wait()
                turns[slot].clear()
                instant = index + 1
                request = self.ctx.request(self.index, instant)
                submitted = time.perf_counter()
                try:
                    report = await service.submit_state(
                        self.states[index], session=name
                    )
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    latency = time.perf_counter() - submitted
                    result.fail(f"{request}: {type(exc).__name__}: {exc}")
                else:
                    latency = time.perf_counter() - submitted
                    self._check(report, instant, request)
                self.ctx.idle()
                result.attempted += 1
                if measured:
                    result.samples.append(Sample(
                        latency, self.kinds[index],
                        (index - first) / span, request, submitted,
                    ))
                self._probe()
                turns[(slot + 1) % len(sessions)].set()

        probe = self.ctx.probe
        probed = probe.spent if probe is not None else 0.0
        started = time.perf_counter()
        await asyncio.gather(*(client(slot) for slot in range(len(sessions))))
        if measured:
            result.loop_seconds += time.perf_counter() - started
            if probe is not None:
                result.loop_seconds -= probe.spent - probed
            assert counters is not None
            after = self._counters()
            for key, value in after.items():
                result.counters[key] += value - counters[key]
            result.entry_instants += (end - begin) * sum(
                1
                for plan in service.shard_plans()
                for entry in plan.entries
                if entry.backend != "pasteval"
            )

    def _check(self, report: Any, instant: int, request: str) -> None:
        satisfied, new = expected_report(self.stream, self.order, instant)
        if report.instant != instant:
            self.result.fail(f"{request}: report for instant {report.instant}")
        elif report.satisfied != satisfied or report.new_violations != new:
            self.result.fail(
                f"{request}: verdicts {report.satisfied} "
                f"new {report.new_violations}, expected {satisfied} new {new}"
            )

    def _counters(self) -> Counter[str]:
        assert self.service is not None
        counters: Counter[str] = Counter()
        for stats in self.service.stats().values():
            for key in COUNTERS:
                counters[key] += getattr(stats, key, 0)
        info = cache_info()
        for cache in ("progress", "progkernel"):
            for key in ("hits", "misses"):
                counters[f"cache.{key}"] += int(info[cache].get(key, 0))
        return counters

    # -- checkpoints -------------------------------------------------------

    async def restart(
        self, instant: int, resume: bool = True, rounds: int = 1
    ) -> None:
        """Stop, ``save``, clear caches, cold ``load``, verify the
        restored violations and start again.

        Each of ``save`` and ``load`` runs ``rounds`` times, so the run
        has enough checkpoints for a steady median.  With ``resume`` the
        old service is dropped before the loads and the last restored
        copy carries on, as after a process restart.  Without it the
        restored copies are only checked, and the old service carries on,
        as when a standby replica proves a backup restorable.
        """
        service = self.service
        assert service is not None
        await service.stop()
        before = service.violations()
        for _ in range(rounds):
            path = self._save(service, instant)
        if resume:
            self.service = None
            del service
        for _ in range(rounds):
            restored = self._load(path, instant, before)
        if resume:
            self.service = restored
        del restored
        await self.start()

    def _save(self, service: MonitorService, instant: int) -> Path:
        result = self.result
        path = self.ctx.out / f"{self.ctx.workload}.snapshot.json"
        gc.collect()
        self._probe()
        result.save_requests.append(self.ctx.request(
            self.index, f"save{len(result.save_requests)}@{instant}"
        ))
        start = time.perf_counter()
        service.save(path)
        result.checkpoints.append((start, time.perf_counter() - start))
        self.ctx.idle()
        result.snapshot_bytes.append(path.stat().st_size)
        if self.ctx.tracer is not None:
            result.history_shares.append(history_share(path))
        return path

    def _load(
        self, path: Path, instant: int, before: dict[str, int]
    ) -> MonitorService:
        result = self.result
        cold()
        self._probe()
        result.load_requests.append(self.ctx.request(
            self.index, f"load{len(result.load_requests)}@{instant}"
        ))
        start = time.perf_counter()
        restored = MonitorService.load(path)
        result.restores.append((start, time.perf_counter() - start))
        self.ctx.idle()
        result.attempted += 1
        if restored.now != instant or restored.violations() != before:
            result.fail(
                f"restore at {instant}: now {restored.now}, violations "
                f"{restored.violations()}, expected {before}"
            )
        return restored

    async def finish(self) -> None:
        service = self.service
        assert service is not None
        await service.stop()
        self.result.finals.append((self.stream, service.violations()))
        if self.ctx.tracer is not None:
            self._inspect(service)

    def _inspect(self, service: MonitorService) -> None:
        """Read the program's own sizes at the end of a traced unit."""
        tracer = self.ctx.tracer
        assert tracer is not None
        tracer.request = None
        info = cache_info()
        self.result.cache_sizes = {
            "intern": info["intern"]["size"],
            "progress": info["progress"]["currsize"],
            "quick": info["quick"]["currsize"],
        }
        from repro.database.serialize import ptl_from_jsonable

        nodes = 0
        for shard in service.snapshot()["shards"]:
            for entry in (shard.get("full") or {}).get("entries", ()):
                nodes += count_nodes(ptl_from_jsonable(entry["remainder"]))
        self.result.remainder_nodes = nodes


def count_nodes(formula: Any) -> int:
    """Distinct nodes of an interned formula DAG."""
    seen: set[int] = set()
    todo = [formula]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(node.children)
    return len(seen)


def history_share(path: Path) -> float:
    """Share of a snapshot's bytes taken by its history logs."""
    data = json.loads(path.read_text(encoding="utf-8"))

    def strip(node: Any) -> Any:
        if isinstance(node, dict):
            return {
                key: None if key == "history" else strip(value)
                for key, value in node.items()
            }
        if isinstance(node, list):
            return [strip(value) for value in node]
        return node

    full = len(json.dumps(data, indent=2, sort_keys=True))
    bare = len(json.dumps(strip(data), indent=2, sort_keys=True))
    return (full - bare) / full


# -- the workloads -----------------------------------------------------------


async def orders_fresh(unit: Unit) -> None:
    """One cold order episode, killed at ORDER_KILL_AT and resumed."""
    unit.construct()
    await unit.start()
    sessions = ("orders",)
    await unit.drive(0, ORDER_KILL_AT, sessions, measured=True)
    await unit.restart(ORDER_KILL_AT)
    await unit.drive(ORDER_KILL_AT, ORDER_LENGTH, sessions, measured=True)


async def staleness_steady(unit: Unit) -> None:
    """One long stream; only the steady window after warm-up is timed."""
    warm = STEADY_WARMUP + STEADY_REWARM
    for _ in range(STALENESS_SETUPS):
        unit.construct()
    await unit.start()
    sessions = ("a", "b")
    await unit.drive(0, STEADY_WARMUP, sessions, measured=False)
    await unit.restart(STEADY_WARMUP, resume=False, rounds=STANDBY_ROUNDS)
    await unit.drive(STEADY_WARMUP, warm, sessions, measured=False)
    length = len(unit.states)
    await unit.drive(
        warm, length, sessions, measured=True, window=(warm, length)
    )


async def staleness_restart(unit: Unit) -> None:
    """One stream with a cold restart every RESTART_EVERY instants."""
    for _ in range(STALENESS_SETUPS):
        unit.construct()
    await unit.start()
    sessions = ("ingest",)
    for begin in range(0, RESTART_LENGTH, RESTART_EVERY):
        if begin:
            await unit.restart(begin, rounds=RESTART_ROUNDS)
        await unit.drive(begin, begin + RESTART_EVERY, sessions, measured=True)


def _inputs(workload: str, seed: int, index: int) -> tuple[
    dict[str, str], dict[str, int], Stream
]:
    rng = unit_rng(workload, seed, index)
    if workload == "orders_fresh":
        # Every run sees the four injection kinds in equal shares; the
        # kind decides which constraint freezes for the episode's tail.
        # The rotation also cycles through all kinds on every residue
        # class of the index, so each child interpreter sees them all.
        kinds = sorted(ORDER_INJECTIONS)
        stream = order_episode(
            rng,
            length=ORDER_LENGTH,
            orders=ORDER_COUNTS,
            kill_at=ORDER_KILL_AT,
            fill_probability=ORDER_FILL,
            inject_at=rng.randint(ORDER_KILL_AT - 4, ORDER_LENGTH - 4),
            kind=kinds[(seed + index + index // len(kinds)) % len(kinds)],
        )
        return ORDER_CONSTRAINTS, ORDER_SCHEMA, stream
    if workload == "staleness_steady":
        warm = STEADY_WARMUP + STEADY_REWARM
        stream = staleness_stream(
            rng,
            length=warm + STEADY_WINDOW,
            stale_use_at=warm + int(0.7 * STEADY_WINDOW),
            missed_deadline_at=warm + int(0.95 * STEADY_WINDOW),
        )
    else:
        stream = staleness_stream(
            rng,
            length=RESTART_LENGTH,
            stale_use_at=int(0.7 * RESTART_LENGTH),
            missed_deadline_at=int(0.95 * RESTART_LENGTH),
        )
    return staleness_constraints(), staleness_schema(), stream


WORKLOADS: dict[str, Callable[[Unit], Awaitable[None]]] = {
    "orders_fresh": orders_fresh,
    "staleness_steady": staleness_steady,
    "staleness_restart": staleness_restart,
}

#: Units of the traced pass: fixed, so per-layer totals compare across runs.
TRACED_UNITS = {
    "orders_fresh": 12,
    "staleness_steady": 1,
    "staleness_restart": 2,
}


def run_unit(ctx: Context, index: int) -> UnitResult:
    """Generate one unit's inputs and run it on a fresh event loop.

    An exception the service raises outside an update (set-up, restore)
    ends the unit as one failed operation; the run goes on.
    """
    texts, schema, stream = _inputs(ctx.workload, ctx.seed, index)
    unit = Unit(ctx, index, texts, schema, stream)

    async def script() -> None:
        try:
            await WORKLOADS[ctx.workload](unit)
            await unit.finish()
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            unit.result.attempted += 1
            unit.result.fail(f"unit {index}: {type(exc).__name__}: {exc}")

    asyncio.run(script())
    return unit.result


def oracle(result: UnitResult) -> None:
    """Check every finished order episode's final verdicts against the
    paper's from-scratch decision on the full history."""
    vocab = vocabulary(ORDER_SCHEMA)
    for stream, violations in result.finals:
        result.attempted += 1
        history = History.from_facts(vocab, [[]] + stream.facts)
        for name, text in ORDER_CONSTRAINTS.items():
            formula = parse(text)
            if name in ORDER_FUTURE:
                holds = check_extension(formula, history).potentially_satisfied
            else:
                holds = evaluate_finite(formula, history, future="weak")
            if holds == (name in violations):
                result.fail(
                    f"oracle: {name} potentially satisfied={holds}, "
                    f"service violations {violations}"
                )
                break
