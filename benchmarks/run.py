"""Benchmark regression harness for the PTL monitoring core.

Runs the monitoring-shaped benchmarks (A1 monitoring strategies, E3
progression phases, E6 orders workload, E7 detection latency), the
satisfiability microbenchmarks (bitset kernel vs reference engines, on
identical formulas), the trigger sweep, and the semantic lint of
the seeded orders constraint set (per-formula TIC1xx passes + pairwise
sweep, serial vs jobs=4) against the *current* checkout and writes a
machine-readable ``BENCH_core.json`` so every performance PR leaves a
trajectory point that later PRs can compare against.

Usage::

    python benchmarks/run.py                  # full sizes -> BENCH_core.json
    python benchmarks/run.py --smoke          # tiny sizes (CI smoke)
    python benchmarks/run.py --baseline OLD.json   # embed baseline + speedups
    python benchmarks/run.py --validate BENCH_core.json  # schema check only

The harness only reads public monitor/PTL APIs and tolerates cores without
the newer instrumentation (``progress_cache_hits`` etc. default to 0), so
the same script can measure a pre-interning checkout to record a baseline.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.core.monitor import IntegrityMonitor  # noqa: E402
from repro.database.history import History  # noqa: E402
from repro.database.state import DatabaseState  # noqa: E402
from repro.database.vocabulary import vocabulary  # noqa: E402
from repro.logic.parser import parse  # noqa: E402
from repro.ptl.extension import check_extension_detailed  # noqa: E402
from repro.ptl.formulas import palways, pand, pimplies, pnext, prop  # noqa: E402
from repro.workloads.orders import (  # noqa: E402
    ORDER_VOCABULARY,
    OrderWorkloadConfig,
    generate_orders,
    standard_constraints,
    submit_once,
)

SCHEMA = "repro-bench-core/v14"

#: Schemas ``--validate`` accepts: v2 added the ``sat_*`` engine-comparison
#: and ``parallel_triggers`` shapes (with their extra record keys); v3 adds
#: the ``lint_semantic`` shape; v4 adds the ``e6_monitoring_pruned`` shape
#: (dependence-pruned monitoring, with ``skipped_constraints`` /
#: ``idle_steps`` counters); v5 adds the ``e6_monitoring_compiled`` shape
#: (table-driven progression kernel + shared obligation ledger, with its
#: compiled-vs-reference cross-validation fields) and the
#: ``progress_cache_hit_rate`` field on the monitoring records; v6 splits
#: compiled-kernel row hits out of ``progress_cache_hits`` into
#: ``kernel_row_hits`` on every record and adds the native-rule kernel
#: fields (``misses_by_rule``, ``reference_delegations`` — asserted zero —
#: and ``kernel_transitions``) to ``e6_monitoring_compiled``; v7 adds the
#: ``e6_monitoring_planned`` shape (temporal-hierarchy backend dispatch
#: through ``PlannedMonitor``, with ``routed_off_full`` / ``backends`` /
#: ``planned_fast_decisions`` / ``planned_fallbacks`` / ``retired_steps``
#: and the asserted-zero ``tic131`` cross-check count); v8 adds the
#: ``e6_monitoring_resumed`` shape (kill/checkpoint/restore through the
#: monitor snapshot codec: the run is snapshotted mid-trace, caches are
#: cleared and garbage collected to simulate a fresh process, and the
#: restored monitor finishes the trace — with ``snapshot_bytes`` /
#: ``restore_latency_s`` and the asserted ``resumed_match`` /
#: ``remainders_identical`` equality fields); v9 follows the monitor's
#: single progression engine: the ``e6_monitoring_compiled`` shape (compiled
#: against reference) is gone, every E6 shape runs the compiled kernel, and
#: ``e6_monitoring_planned`` drops ``planned_fast_decisions`` /
#: ``planned_fallbacks`` and the E6 shapes ``progress_cache_hit_rate`` (the
#: reference progression memo the monitor no longer uses); v10 follows the
#: monitor's single per-update step: the ``e6_monitoring_pruned`` shape
#: (dependence pruning) is gone, and ``a1_scratch`` sums the counters of a
#: fresh monitor built on every prefix; v11 runs ``parallel_triggers``
#: serially (the trigger manager has no process pool), so the shape drops
#: ``parallel_wall_s`` and ``jobs``; v12 follows the single monitor: the
#: ``e6_monitoring_planned`` shape is gone (E6's constraints have no
#: past-closed member, so it reran ``e6_monitoring``), and
#: ``e6_monitoring`` records the asserted-zero ``tic131`` count; v13
#: follows the monitor's single regrounding path: ``a1_spare`` is gone,
#: and the E6 shapes run the default monitor instead of a spare reserve
#: of 16; v14 follows the lifted monitor, which absorbs fresh elements
#: without regrounding: the ``regrounds`` counter of the A1 and E6 shapes
#: is replaced by ``absorbed``, the fresh elements taken in.  Each version
#: is otherwise backward compatible, so v1-v13 reports stay usable as
#: baselines.
ACCEPTED_SCHEMAS = (
    "repro-bench-core/v1",
    "repro-bench-core/v2",
    "repro-bench-core/v3",
    "repro-bench-core/v4",
    "repro-bench-core/v5",
    "repro-bench-core/v6",
    "repro-bench-core/v7",
    "repro-bench-core/v8",
    "repro-bench-core/v9",
    "repro-bench-core/v10",
    "repro-bench-core/v11",
    "repro-bench-core/v12",
    "repro-bench-core/v13",
    SCHEMA,
)

#: Required keys of every per-benchmark result record.
RESULT_KEYS = frozenset(
    {
        "wall_s",
        "updates",
        "progressions",
        "progressions_per_sec",
        "sat_calls",
        "sat_cache_hits",
        "progress_cache_hits",
        "sat_time_s",
        "progress_time_s",
    }
)


def _clear_caches() -> None:
    """Reset the PTL-core caches (when the core has them) so each benchmark
    starts cold and numbers are comparable run to run.

    Also collects garbage: clearing the caches strands the predecessor
    benchmark's formula graph as cycles the collector would otherwise
    keep re-tracing mid-benchmark, charging one shape's allocations with
    another shape's heap (measured at ~0.8s on E6 compiled after the
    reference run).
    """
    try:
        from repro.ptl import caches
    except ImportError:
        return
    caches.clear_all_caches()
    gc.collect()


def _sum_stats(monitor: IntegrityMonitor) -> dict[str, Any]:
    """Aggregate MonitorStats across constraints, tolerating old cores."""
    totals = _zero_totals()
    for stats in monitor.stats().values():
        totals["progressions"] += stats.progressions
        totals["sat_calls"] += stats.sat_calls
        totals["sat_cache_hits"] += stats.sat_cache_hits
        totals["absorbed"] += stats.absorbed
        totals["progress_cache_hits"] += getattr(
            stats, "progress_cache_hits", 0
        )
        totals["kernel_row_hits"] += getattr(stats, "kernel_row_hits", 0)
        totals["sat_time_s"] += getattr(stats, "sat_time", 0.0)
        totals["progress_time_s"] += getattr(stats, "progress_time", 0.0)
    return totals


def _result(
    wall: float, updates: int, totals: dict[str, Any], **extra: Any
) -> dict[str, Any]:
    record: dict[str, Any] = {
        "wall_s": round(wall, 6),
        "updates": updates,
        "progressions": totals["progressions"],
        "progressions_per_sec": round(totals["progressions"] / wall, 2)
        if wall > 0
        else None,
        "sat_calls": totals["sat_calls"],
        "sat_cache_hits": totals["sat_cache_hits"],
        "progress_cache_hits": totals["progress_cache_hits"],
        "kernel_row_hits": totals.get("kernel_row_hits", 0),
        "sat_time_s": round(totals["sat_time_s"], 6),
        "progress_time_s": round(totals["progress_time_s"], 6),
    }
    record.update(extra)
    return record


# --------------------------------------------------------------------------
# Benchmarks
# --------------------------------------------------------------------------


def bench_a1_strategies(smoke: bool) -> dict[str, dict[str, Any]]:
    """A1-shaped: the incremental monitor on a growing orders trace,
    against the naive baseline of a fresh monitor on every prefix."""
    length = 10 if smoke else 60
    trace = generate_orders(
        OrderWorkloadConfig(length=length, arrival_probability=0.5, seed=1)
    )
    prefixes = [History.empty(ORDER_VOCABULARY)]
    for state in trace.states():
        prefixes.append(prefixes[-1].extended(state))
    _clear_caches()
    totals = _zero_totals()
    start = time.perf_counter()
    for history in prefixes:
        fresh = IntegrityMonitor({"once": submit_once()}, history, lint="off")
        for key, value in _sum_stats(fresh).items():
            totals[key] += value
    wall = time.perf_counter() - start
    out: dict[str, dict[str, Any]] = {
        "a1_scratch": _result(
            wall, length, totals, absorbed=totals["absorbed"]
        )
    }
    _clear_caches()
    monitor = IntegrityMonitor(
        {"once": submit_once()}, History.empty(ORDER_VOCABULARY)
    )
    start = time.perf_counter()
    for state in trace.states():
        monitor.append_state(state)
    wall = time.perf_counter() - start
    totals = _sum_stats(monitor)
    out["a1_incremental"] = _result(
        wall, length, totals, absorbed=totals["absorbed"]
    )
    return out


def bench_e3_progression(smoke: bool) -> dict[str, dict[str, Any]]:
    """E3-shaped: the Lemma 4.2 phase split on the cycle-formula sweep."""
    length = 400 if smoke else 6400
    letters = 3
    formula = pand(
        *(
            palways(
                pimplies(
                    prop(f"p{i}"), pnext(prop(f"p{(i + 1) % letters}"))
                )
            )
            for i in range(letters)
        )
    )
    prefix = [
        frozenset({prop(f"p{t % letters}")}) for t in range(length)
    ]
    _clear_caches()
    start = time.perf_counter()
    detailed = check_extension_detailed(prefix, formula)
    wall = time.perf_counter() - start
    assert detailed.extendable
    totals = {
        "progressions": length,
        "sat_calls": 1,
        "sat_cache_hits": 0,
        "progress_cache_hits": 0,
        "absorbed": 0,
        "sat_time_s": detailed.satisfiability_seconds,
        "progress_time_s": detailed.progression_seconds,
    }
    return {"e3_progression": _result(wall, length, totals)}


def _run_e6(smoke: bool) -> tuple[float, int, IntegrityMonitor]:
    """One E6 monitoring loop."""
    length = 12 if smoke else 200
    trace = generate_orders(
        OrderWorkloadConfig(length=length, arrival_probability=0.3, seed=13)
    )
    _clear_caches()
    monitor = IntegrityMonitor(
        standard_constraints(), History.empty(ORDER_VOCABULARY)
    )
    start = time.perf_counter()
    for state in trace.states():
        monitor.append_state(state)
    wall = time.perf_counter() - start
    return wall, length, monitor


#: Cross-validation handoff from ``bench_e6_monitoring`` (the reference
#: run) to the resumed shape: violations and final remainders to compare
#: against.
_E6_REFERENCE: dict[str, Any] = {}


def bench_e6_monitoring(smoke: bool) -> dict[str, dict[str, Any]]:
    """E6-shaped: online monitoring of the paper's order constraints.

    The full size runs at history length 200 — the headline monitoring
    loop.  The harness asserts the progression kernel never fell back to
    the recursive reference engine (``reference_delegations == 0``).
    Before the run, every constraint passes the TIC13x hierarchy lint and
    the harness asserts the TIC131 classifier-vs-automaton cross-check
    count is zero — the static side of the dispatch soundness argument
    (DESIGN.md section 11).
    """
    from repro.lint import hierarchy_passes, lint_formula

    named = tuple(standard_constraints().items())
    tic131 = 0
    for index, (_name, formula) in enumerate(named):
        report = lint_formula(
            formula,
            mode="constraint",
            passes=hierarchy_passes(),
            constraint_set=named,
            set_index=index,
        )
        tic131 += len(report.by_code("TIC131"))
    assert tic131 == 0, (
        "hierarchy classifier disagrees with the closure-automaton "
        "safety analysis on the order constraints"
    )
    wall, length, monitor = _run_e6(smoke)
    totals = _sum_stats(monitor)
    kernel_info = monitor.progression_kernel_info()
    assert kernel_info.reference_delegations == 0, (
        "progression kernel fell back to the reference engine "
        f"{kernel_info.reference_delegations} times"
    )
    _E6_REFERENCE.clear()
    _E6_REFERENCE.update(
        violations=dict(monitor.violations()),
        remainders=dict(monitor.remainders()),
    )
    return {
        "e6_monitoring": _result(
            wall,
            length,
            totals,
            ms_per_update=round(1e3 * wall / length, 3),
            absorbed=totals["absorbed"],
            violations=len(monitor.violations()),
            reference_delegations=kernel_info.reference_delegations,
            tic131=tic131,
        )
    }


def bench_e6_monitoring_resumed(smoke: bool) -> dict[str, dict[str, Any]]:
    """E6 with a mid-stream kill: checkpoint, simulated process death,
    restore, finish — asserted equal to the uninterrupted run.

    Same trace and constraints as ``e6_monitoring`` —
    that record is the in-run reference.  The run is snapshotted through
    the monitor snapshot codec at the trace midpoint and serialized to
    JSON text; the live monitor is then dropped and every derived cache
    cleared (plus a full ``gc.collect()``), the closest in-process
    stand-in for a fresh interpreter.  ``restore_latency_s`` times
    ``monitor_from_dict`` alone — the Lemma 4.2 resume cost, independent
    of how much history precedes the cut — and ``snapshot_bytes`` the
    serialized size (O(t) for the history log, O(1) live state per
    constraint).  The harness asserts ``resumed_match`` (violation map
    equality with the uninterrupted reference) and
    ``remainders_identical`` (pointer identity of final remainders,
    exact via hash-consing) before writing the report; a stale memo
    surviving the simulated kill would break either.  ``wall_s`` covers
    only the resumed tail, so ``updates`` is the tail length.
    """
    from repro.database.serialize import monitor_from_dict, monitor_to_dict

    length = 12 if smoke else 200
    cut = length // 2
    trace = generate_orders(
        OrderWorkloadConfig(length=length, arrival_probability=0.3, seed=13)
    )
    states = trace.states()
    _clear_caches()
    monitor = IntegrityMonitor(
        standard_constraints(), History.empty(ORDER_VOCABULARY)
    )
    for state in states[:cut]:
        monitor.append_state(state)
    blob = json.dumps(monitor_to_dict(monitor), sort_keys=True)
    del monitor
    _clear_caches()  # simulated process death: drop every derived cache
    start = time.perf_counter()
    resumed = monitor_from_dict(json.loads(blob))
    restore_latency = time.perf_counter() - start
    start = time.perf_counter()
    for state in states[cut:]:
        resumed.append_state(state)
    wall = time.perf_counter() - start
    totals = _sum_stats(resumed)
    assert _E6_REFERENCE, "bench_e6_monitoring must run first"
    violations = dict(resumed.violations())
    resumed_match = violations == _E6_REFERENCE["violations"]
    assert resumed_match, (
        "resumed and uninterrupted runs disagree on violations: "
        f"{violations} vs {_E6_REFERENCE['violations']}"
    )
    remainders = resumed.remainders()
    remainders_identical = all(
        remainders[name] is formula
        for name, formula in _E6_REFERENCE["remainders"].items()
    )
    assert remainders_identical, (
        "resumed and uninterrupted runs disagree on final remainders"
    )
    tail = length - cut
    return {
        "e6_monitoring_resumed": _result(
            wall,
            tail,
            totals,
            ms_per_update=round(1e3 * wall / tail, 3),
            absorbed=totals["absorbed"],
            violations=len(violations),
            snapshot_instant=cut,
            snapshot_bytes=len(blob.encode("utf-8")),
            restore_latency_s=round(restore_latency, 6),
            resumed_match=resumed_match,
            remainders_identical=remainders_identical,
        )
    }


def bench_e7_detection(smoke: bool) -> dict[str, dict[str, Any]]:
    """E7-shaped: the detection-latency monitoring loop at history ≥200.

    The measured part is a *clean* run of the E7 lookahead constraints —
    ``p`` demands ``q`` exactly ``lookahead`` instants later, ``q`` may not
    repeat — over a long periodic trace that satisfies them, so the monitor
    must progress live obligations and decide potential satisfaction at
    every one of the 200 instants (no early violation freeze).  A short
    forced-violation probe re-checks E7's headline claim (detection at the
    forcing instant) without dominating the timing.
    """
    length = 12 if smoke else 200
    lookaheads = (2,) if smoke else (2, 3, 4)
    period = 8
    vocab = vocabulary({"p": 1, "q": 1})
    wall_total = 0.0
    totals = _zero_totals()
    detections: list[int | None] = []
    Facts = list[tuple[str, tuple[int, ...]]]
    for lookahead in lookaheads:
        demand = "X " * lookahead + "q(x)"
        constraint = parse(
            f"forall x . G ((q(x) -> X !q(x)) & (p(x) -> ({demand})))"
        )
        # Clean periodic trace: p every `period` instants, q supplied
        # exactly `lookahead` later — live obligations, no violation.
        trace: list[Facts] = []
        for t in range(length):
            facts: Facts = []
            if t % period == 0:
                facts.append(("p", (1,)))
            if t % period == lookahead and t >= lookahead:
                facts.append(("q", (1,)))
            trace.append(facts)
        _clear_caches()
        monitor = IntegrityMonitor(
            {"lookahead": constraint}, History.empty(vocab)
        )
        start = time.perf_counter()
        for facts in trace:
            monitor.append_state(DatabaseState.from_facts(vocab, facts))
        wall_total += time.perf_counter() - start
        for key, value in _sum_stats(monitor).items():
            totals[key] += value
        # Detection probe: q arrives one instant late -> the contradiction
        # is forced at the q instant and must be flagged right there.
        probe = IntegrityMonitor(
            {"lookahead": constraint}, History.empty(vocab)
        )
        detected: int | None = None
        probe_trace: list[Facts] = [[("p", (1,))]]
        probe_trace += [[] for _ in range(lookahead)]
        probe_trace += [[("q", (1,))], []]
        for facts in probe_trace:
            report = probe.append_state(
                DatabaseState.from_facts(vocab, facts)
            )
            if detected is None and report.new_violations:
                detected = report.instant
        detections.append(detected)
    updates = length * len(lookaheads)
    return {
        "e7_detection": _result(
            wall_total,
            updates,
            totals,
            detected_at=detections,
            ms_per_update=round(1e3 * wall_total / updates, 3),
        )
    }


def _zero_totals() -> dict[str, Any]:
    return {
        "progressions": 0,
        "sat_calls": 0,
        "sat_cache_hits": 0,
        "progress_cache_hits": 0,
        "kernel_row_hits": 0,
        "absorbed": 0,
        "sat_time_s": 0.0,
        "progress_time_s": 0.0,
    }


def _sat_workload(
    size: int, count: int, base_cap: int | None
) -> list[Any]:
    """``count`` random NNF formulas of the given size; with ``base_cap``,
    only formulas whose tableau base fits (keeps the 2^b reference side
    tractable)."""
    from repro.ptl.nnf import ptl_nnf
    from repro.ptl.tableau import _base_subformulas
    from repro.workloads.formulas import PTLConfig, random_ptl

    formulas: list[Any] = []
    seed = 0
    while len(formulas) < count and seed < 50 * count:
        formula = ptl_nnf(
            random_ptl(PTLConfig(size=size, propositions=3, seed=seed))
        )
        seed += 1
        if base_cap is not None:
            if len(_base_subformulas(formula)) > base_cap:
                continue
        formulas.append(formula)
    return formulas


def bench_sat_micro(smoke: bool) -> dict[str, dict[str, Any]]:
    """Satisfiability microbenchmarks: bitset kernel vs reference engines.

    Both engines decide the *same* formula set from a cold cache;
    ``wall_s`` is the bitset kernel's time (the regression-tracked
    number), ``reference_wall_s``/``engine_speedup`` record the
    comparison.  Verdict agreement is asserted formula by formula.
    """
    from repro.ptl.bitset import (
        is_satisfiable_buchi_bitset,
        is_satisfiable_tableau_bitset,
    )
    from repro.ptl.buchi import is_satisfiable_buchi
    from repro.ptl.tableau import is_satisfiable_tableau

    shapes: dict[str, tuple[list[Any], Callable[..., bool], dict[str, Any],
                            Callable[..., bool], dict[str, Any]]] = {
        "sat_tableau_micro": (
            _sat_workload(
                size=8 if smoke else 12,
                count=4 if smoke else 12,
                base_cap=7 if smoke else 10,
            ),
            is_satisfiable_tableau_bitset,
            {"max_base": 12},
            is_satisfiable_tableau,
            {"max_base": 12, "engine": "reference"},
        ),
        "sat_buchi_micro": (
            _sat_workload(
                size=8 if smoke else 14,
                count=4 if smoke else 12,
                base_cap=None,
            ),
            is_satisfiable_buchi_bitset,
            {},
            is_satisfiable_buchi,
            {"engine": "reference"},
        ),
    }
    out: dict[str, dict[str, Any]] = {}
    for name, (formulas, fast, fast_kw, slow, slow_kw) in shapes.items():
        _clear_caches()
        start = time.perf_counter()
        fast_verdicts = [fast(f, **fast_kw) for f in formulas]
        fast_wall = time.perf_counter() - start
        _clear_caches()
        start = time.perf_counter()
        slow_verdicts = [slow(f, **slow_kw) for f in formulas]
        slow_wall = time.perf_counter() - start
        assert fast_verdicts == slow_verdicts, f"{name}: engines disagree"
        out[name] = _result(
            fast_wall,
            len(formulas),
            _zero_totals(),
            reference_wall_s=round(slow_wall, 6),
            engine_speedup=round(slow_wall / fast_wall, 2)
            if fast_wall > 0
            else None,
            satisfiable=sum(fast_verdicts),
        )
    return out


def bench_parallel_triggers(smoke: bool) -> dict[str, dict[str, Any]]:
    """Trigger sweep on the compiled kernels, run serially.

    The name is kept from the serial-vs-parallel comparison it replaced,
    so ``--baseline`` still pairs it with older records.  The firing log
    is asserted equal to :func:`repro.core.triggers.firings`, the
    from-scratch definition, evaluated outside the timed region.
    """
    from repro.core.triggers import Trigger, TriggerManager, firings
    from repro.database.history import History as _History
    from repro.workloads.orders import trace_with_duplicate

    length = 6 if smoke else 14
    trace = trace_with_duplicate(length, violate_at=length // 2, seed=21)
    states = trace.states()
    triggers = [
        Trigger("resubmitted", parse("F (Sub(x) & X F Sub(x))")),
        Trigger("double_fill", parse("F (Fill(x) & X F Fill(x))")),
    ]
    _clear_caches()
    manager = TriggerManager(triggers)
    prefixes = []
    start = time.perf_counter()
    for upto in range(1, len(states) + 1):
        history = _History(
            vocabulary=ORDER_VOCABULARY, states=tuple(states[:upto])
        )
        manager.check(history)
        prefixes.append(history)
    wall = time.perf_counter() - start
    expected: list[Any] = []
    reported: set[Any] = set()
    for history in prefixes:
        for trigger in triggers:
            for firing in firings(trigger, history):
                key = (firing.trigger, firing.substitution)
                if key not in reported:
                    reported.add(key)
                    expected.append(firing)
    assert manager.log == expected, "firings differ from the definition"
    return {
        "parallel_triggers": _result(
            wall,
            length,
            _zero_totals(),
            firings=len(manager.log),
            memo_hits=manager.memo_hits,
            decisions=manager.decisions,
        )
    }


def bench_lint_semantic(smoke: bool) -> dict[str, dict[str, Any]]:
    """Semantic lint of the seeded orders constraint set, serial vs
    ``jobs=4``: the full TIC0xx+TIC1xx pass stack plus the pairwise
    entailment/conflict sweep.  Reports are asserted identical across
    worker counts; ``wall_s`` tracks the serial run.
    """
    from repro.lint import (
        analysis_cache_clear,
        cache_clear,
        lint_constraint_set,
    )
    from repro.lint.setanalysis import SetAnalyzer
    from repro.workloads.orders import fill_once, no_fill_before_submit

    named = list(standard_constraints().items()) + [
        ("no_fill_before_submit", no_fill_before_submit()),
        (
            "fill_once_weak",
            parse("forall x . G (Fill(x) -> X !Fill(x))"),
        ),
        ("always_submitted", parse("forall x . G Sub(x)")),
    ]
    assert fill_once  # the subsumer of fill_once_weak (TIC110)

    def run(jobs: int) -> tuple[float, list[dict[str, Any]]]:
        _clear_caches()
        analysis_cache_clear()
        cache_clear()
        start = time.perf_counter()
        reports = lint_constraint_set(named, jobs=jobs)
        wall = time.perf_counter() - start
        return wall, [report.to_dict() for report in reports]

    serial_wall, serial_reports = run(jobs=1)
    parallel_wall, parallel_reports = run(jobs=4)
    assert serial_reports == parallel_reports, (
        "jobs=1 and jobs=4 semantic reports differ"
    )
    semantic_findings = sum(
        1
        for report in serial_reports
        for diagnostic in report["diagnostics"]
        if diagnostic["code"].startswith("TIC1")
    )
    analysis_cache_clear()
    analyzer = SetAnalyzer(constraints=named)
    analyzer.sweep()
    stats = analyzer.stats()
    return {
        "lint_semantic": _result(
            serial_wall,
            len(named),
            _zero_totals(),
            parallel_wall_s=round(parallel_wall, 6),
            jobs=4,
            constraints=len(named),
            semantic_findings=semantic_findings,
            sweep_decisions=stats["decisions"],
            safety_checks=stats["safety_checks"],
        )
    }


BENCHMARKS: tuple[Callable[[bool], dict[str, dict[str, Any]]], ...] = (
    bench_a1_strategies,
    bench_e3_progression,
    bench_e6_monitoring,
    bench_e6_monitoring_resumed,
    bench_e7_detection,
    bench_sat_micro,
    bench_parallel_triggers,
    bench_lint_semantic,
)


# --------------------------------------------------------------------------
# Document assembly / schema
# --------------------------------------------------------------------------


def run_all(smoke: bool, label: str | None) -> dict[str, Any]:
    results: dict[str, dict[str, Any]] = {}
    for bench in BENCHMARKS:
        name = bench.__name__
        print(f"running {name} ...", file=sys.stderr, flush=True)
        results.update(bench(smoke))
    return {
        "schema": SCHEMA,
        "label": label or ("smoke" if smoke else "full"),
        "mode": "smoke" if smoke else "full",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }


def attach_baseline(doc: dict[str, Any], baseline: dict[str, Any]) -> None:
    """Embed a prior run and per-benchmark wall-time speedups."""
    validate_document(baseline)
    doc["baseline"] = {
        "label": baseline.get("label"),
        "mode": baseline.get("mode"),
        "created": baseline.get("created"),
        "results": baseline["results"],
    }
    speedup: dict[str, float] = {}
    for name, record in doc["results"].items():
        old = baseline["results"].get(name)
        if old and record["wall_s"] > 0:
            speedup[name] = round(old["wall_s"] / record["wall_s"], 2)
    doc["speedup"] = speedup


def validate_document(doc: Any) -> None:
    """Raise ValueError if ``doc`` is not a schema-valid benchmark report."""
    if not isinstance(doc, dict):
        raise ValueError("benchmark report must be a JSON object")
    if doc.get("schema") not in ACCEPTED_SCHEMAS:
        raise ValueError(
            "schema mismatch: expected one of "
            f"{list(ACCEPTED_SCHEMAS)}, got {doc.get('schema')!r}"
        )
    for key in ("mode", "created", "python", "results"):
        if key not in doc:
            raise ValueError(f"missing top-level key {key!r}")
    if doc["mode"] not in ("smoke", "full"):
        raise ValueError(f"bad mode {doc['mode']!r}")
    results = doc["results"]
    if not isinstance(results, dict) or not results:
        raise ValueError("results must be a non-empty object")
    for name, record in results.items():
        if not isinstance(record, dict):
            raise ValueError(f"result {name!r} must be an object")
        missing = RESULT_KEYS - record.keys()
        if missing:
            raise ValueError(f"result {name!r} missing keys {sorted(missing)}")
        if not isinstance(record["wall_s"], (int, float)):
            raise ValueError(f"result {name!r}: wall_s must be numeric")
    if "speedup" in doc and not isinstance(doc["speedup"], dict):
        raise ValueError("speedup must be an object")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (CI smoke run)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=_ROOT / "BENCH_core.json",
        help="output path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--label", default=None, help="free-form label stored in the report"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="prior BENCH_core.json to embed and compute speedups against",
    )
    parser.add_argument(
        "--validate",
        type=Path,
        default=None,
        metavar="FILE",
        help="only validate an existing report against the schema and exit",
    )
    args = parser.parse_args(argv)

    if args.validate is not None:
        try:
            doc = json.loads(args.validate.read_text())
            validate_document(doc)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"{args.validate}: schema-valid ({doc['schema']})")
        return 0

    doc = run_all(smoke=args.smoke, label=args.label)
    if args.baseline is not None:
        attach_baseline(doc, json.loads(args.baseline.read_text()))
    validate_document(doc)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for name, record in sorted(doc["results"].items()):
        line = f"  {name:20s} {record['wall_s']:10.3f}s"
        if "speedup" in doc and name in doc["speedup"]:
            line += f"   x{doc['speedup'][name]:.2f} vs baseline"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
