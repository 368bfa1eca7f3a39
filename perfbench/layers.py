"""Per-layer metrics of a traced pass.

Update metrics cover the measured updates only (for
``staleness_steady``, the steady window after warm-up).  Each update's
latency splits exactly into the self times of the spans inside it plus
the part no span covers (``trace.unattributed_ms_per_update``: the
asyncio queue hand-off and the benchmark's own bookkeeping), so the
``*.self_ms_per_update`` figures plus the unattributed share add up to
``trace.update_ms_mean``.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Any, Iterable

from tracer import END, LAYER, NAME, NOTE, PARENT, REQUEST, START, Tracer
from workloads import UnitResult

#: Every layer a span can belong to, in the order of the paper's cost
#: model first and the system's own layers after it.
LAYERS = (
    "reduction",
    "progression",
    "sat",
    "analysis",
    "monitor",
    "pasteval",
    "history",
    "plan",
    "service",
    "serialize",
    "checker",
)

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("reduction.regrounds_per_update", "1/update", "lower"),
    ("reduction.ms_per_reground", "ms", "lower"),
    ("reduction.instances_per_reground", "count", "lower"),
    ("reduction.scan_ms_per_update", "ms", "lower"),
    ("reduction.self_ms_per_update", "ms", "lower"),
    ("reduction.t_growth", "ratio", "lower"),
    ("progression.ms_per_fresh_update", "ms", "lower"),
    ("progression.ms_per_other_update", "ms", "lower"),
    ("progression.steps_per_update", "1/update", "lower"),
    ("progression.memo_hit_rate", "ratio", "higher"),
    ("progression.self_ms_per_update", "ms", "lower"),
    ("sat.quick_ms_total", "ms", "lower"),
    ("sat.buchi_calls", "count", "lower"),
    ("sat.buchi_ms_total", "ms", "lower"),
    ("sat.buchi_ms_max", "ms", "lower"),
    ("sat.memo_hit_rate", "ratio", "higher"),
    ("sat.self_ms_per_update", "ms", "lower"),
    ("analysis.ms_per_update", "ms", "lower"),
    ("monitor.idle_step_share", "ratio", "higher"),
    ("monitor.skipped_decision_share", "ratio", "higher"),
    ("monitor.self_ms_per_update", "ms", "lower"),
    ("monitor.remainder_nodes", "count", "lower"),
    ("pasteval.ms_per_update", "ms", "lower"),
    ("pasteval.restore_replay_ms", "ms", "lower"),
    ("history.extends_per_update", "1/update", "lower"),
    ("history.us_per_extend", "us", "lower"),
    ("history.self_ms_per_update", "ms", "lower"),
    ("history.t_growth", "ratio", "lower"),
    ("plan.self_ms_per_update", "ms", "lower"),
    ("plan.setup_ms", "ms", "lower"),
    ("service.self_ms_per_update", "ms", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("serialize.encode_ms", "ms", "lower"),
    ("serialize.decode_ms", "ms", "lower"),
    ("serialize.history_byte_share", "ratio", "lower"),
    ("serialize.self_ms_per_update", "ms", "lower"),
    ("checker.validate_ms", "ms", "lower"),
    ("checker.self_ms_per_update", "ms", "lower"),
    ("caches.intern_entries", "count", "lower"),
    ("caches.progress_entries", "count", "lower"),
    ("caches.quick_entries", "count", "lower"),
    ("trace.update_ms_mean", "ms", "lower"),
    ("trace.unattributed_ms_per_update", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_SELF_METRIC = {
    "analysis": "analysis.ms_per_update",
    "pasteval": "pasteval.ms_per_update",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    results: list[UnitResult],
    untraced_loop_seconds: float,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics plus the diagnostics that explain them."""
    spans = tracer.spans
    self_times = tracer.self_times()
    samples = {s.request: s for r in results for s in r.samples}
    setups = {q for r in results for q in r.setup_requests}
    saves = {q for r in results for q in r.save_requests}
    loads = {q for r in results for q in r.load_requests}

    request_layer: dict[str, Counter[str]] = defaultdict(Counter)
    root_time: Counter[str] = Counter()
    apply_start: dict[str, float] = {}
    by_name: dict[str, list[list[Any]]] = defaultdict(list)
    setup_time: Counter[str] = Counter()
    save_self = load_self = restore_replay = 0.0
    for index, span in enumerate(spans):
        request = span[REQUEST]
        if request is None:
            continue
        duration = span[END] - span[START]
        if request in samples:
            request_layer[request][span[LAYER]] += self_times[index]
            by_name[span[NAME]].append(span)
            if span[PARENT] is None:
                root_time[request] += duration
                if span[NAME] == "MonitorService.apply_state":
                    apply_start.setdefault(request, span[START])
        elif request in setups:
            setup_time[span[NAME]] += duration
        elif request in saves and span[LAYER] == "serialize":
            save_self += self_times[index]
        elif request in loads:
            if span[LAYER] == "serialize":
                load_self += self_times[index]
            if span[NAME] == "PastMonitor.append_state":
                restore_replay += duration

    updates = len(samples)
    per_update = {
        layer: _ratio(
            sum(spent[layer] for spent in request_layer.values()), updates
        )
        for layer in LAYERS
    }
    latency = sum(s.latency for s in samples.values())
    unattributed = sum(
        s.latency - root_time[s.request] for s in samples.values()
    )
    counters: Counter[str] = Counter()
    for result in results:
        counters.update(result.counters)
    entry_instants = sum(r.entry_instants for r in results)

    def durations(*names: str) -> list[float]:
        """Durations of the outermost spans among ``names``: the sat
        facade may call the Büchi kernel, which is one decision."""
        return [
            span[END] - span[START]
            for name in names
            for span in by_name[name]
            if span[PARENT] is None or spans[span[PARENT]][NAME] not in names
        ]

    def growth(layer: str) -> float:
        first = [s for s in samples.values() if s.position < 0.2]
        last = [s for s in samples.values() if s.position >= 0.8]
        early = _ratio(
            sum(request_layer[s.request][layer] for s in first), len(first)
        )
        late = _ratio(
            sum(request_layer[s.request][layer] for s in last), len(last)
        )
        return _ratio(late, early)

    def kind_mean(layer: str, fresh: bool) -> float:
        chosen = [
            s for s in samples.values() if (s.kind == "fresh") == fresh
        ]
        return _ratio(
            sum(request_layer[s.request][layer] for s in chosen), len(chosen)
        )

    reground = durations("reduce_universal")
    buchi = durations("BuchiKernel.is_satisfiable", "is_satisfiable")
    extend = durations("History.extended")
    n_setups = len(setups)
    ms = 1e3
    metrics: dict[str, float] = {
        "reduction.regrounds_per_update": _ratio(len(reground), updates),
        "reduction.ms_per_reground": _ratio(sum(reground), len(reground)) * ms,
        "reduction.instances_per_reground": _ratio(
            sum(span[NOTE] or 0 for span in by_name["reduce_universal"]),
            len(reground),
        ),
        "reduction.scan_ms_per_update": _ratio(
            sum(durations("state_to_props")), updates
        ) * ms,
        "reduction.t_growth": growth("reduction"),
        "progression.ms_per_fresh_update": kind_mean("progression", True) * ms,
        "progression.ms_per_other_update": (
            kind_mean("progression", False) * ms
        ),
        "progression.steps_per_update": _ratio(
            counters["progressions"], updates
        ),
        "progression.memo_hit_rate": _ratio(
            counters["cache.hits"],
            counters["cache.hits"] + counters["cache.misses"],
        ),
        "sat.quick_ms_total": sum(durations("quick_model_check")) * ms,
        "sat.buchi_calls": float(len(buchi)),
        "sat.buchi_ms_total": sum(buchi) * ms,
        "sat.buchi_ms_max": max(buchi, default=0.0) * ms,
        "sat.memo_hit_rate": _ratio(
            counters["sat_cache_hits"],
            counters["sat_cache_hits"] + counters["sat_calls"],
        ),
        "monitor.idle_step_share": _ratio(
            counters["idle_steps"], entry_instants
        ),
        "monitor.skipped_decision_share": _ratio(
            counters["skipped_constraints"], entry_instants
        ),
        "monitor.remainder_nodes": _median(r.remainder_nodes for r in results),
        "pasteval.restore_replay_ms": _ratio(restore_replay, len(loads)) * ms,
        "history.extends_per_update": _ratio(len(extend), updates),
        "history.us_per_extend": _ratio(sum(extend), len(extend)) * 1e6,
        "history.t_growth": growth("history"),
        "plan.setup_ms": _ratio(
            setup_time["plan_constraints"]
            + setup_time["partition_constraints"],
            n_setups,
        ) * ms,
        "service.queue_wait_ms_p50": _median(
            (apply_start[s.request] - s.submitted) * ms
            for s in samples.values()
            if s.request in apply_start
        ),
        "serialize.encode_ms": _ratio(save_self, len(saves)) * ms,
        "serialize.decode_ms": _ratio(load_self, len(loads)) * ms,
        "serialize.history_byte_share": _median(
            share for r in results for share in r.history_shares
        ),
        "checker.validate_ms": _ratio(
            setup_time["validate_constraint"], n_setups
        ) * ms,
        "caches.intern_entries": _median(
            r.cache_sizes.get("intern", 0) for r in results
        ),
        "caches.progress_entries": _median(
            r.cache_sizes.get("progress", 0) for r in results
        ),
        "caches.quick_entries": _median(
            r.cache_sizes.get("quick", 0) for r in results
        ),
        "trace.update_ms_mean": _ratio(latency, updates) * ms,
        "trace.unattributed_ms_per_update": _ratio(unattributed, updates) * ms,
        "trace.overhead_ratio": _ratio(
            sum(r.loop_seconds for r in results), untraced_loop_seconds
        ),
    }
    for layer in LAYERS:
        name = _SELF_METRIC.get(layer, f"{layer}.self_ms_per_update")
        metrics[name] = per_update[layer] * ms
    attributed = sum(per_update.values()) * ms
    closure = (
        attributed
        + metrics["trace.unattributed_ms_per_update"]
        - metrics["trace.update_ms_mean"]
    )
    diagnostics = {
        "trace.updates": updates,
        "trace.spans": len(spans),
        "trace.missing_targets": list(tracer.missing),
        "trace.layer_share": {
            layer: round(_ratio(per_update[layer] * ms,
                                metrics["trace.update_ms_mean"]), 4)
            for layer in LAYERS
        },
        "trace.closure_ms": closure,
        "trace.setup_ms_by_span": {
            name: round(value / max(1, n_setups) * ms, 3)
            for name, value in sorted(setup_time.items())
        },
    }
    return metrics, diagnostics
