"""Benchmark of the default monitoring path of ``repro.MonitorService``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload orders_fresh --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs whole workload units until ``--seconds`` have passed
and prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
units twice, untraced and then traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds diagnostics.  README.md in this directory describes the
workloads and what each metric should respond to.

The work runs in child interpreters started one after another, each
with a fixed ``PYTHONHASHSEED`` from :data:`HASH_SEEDS`.  String hashing
orders the program's sets and dicts, so fixing it makes a run's work
depend on ``--seed`` alone; spreading a run over several interpreters
keeps any one process's state from setting its figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: One child interpreter per hash seed; a timed run splits --seconds
#: evenly over them, a traced run uses the first.
HASH_SEEDS = (1, 2, 3, 4)
#: A run must end within this many seconds, children included.
DEADLINE = 170.0

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("updates_per_s", "1/s"),
    ("update_ms_p50", "ms"),
    ("update_ms_p90", "ms"),
    ("setup_s", "s"),
    ("checkpoint_s", "s"),
    ("restore_s", "s"),
    ("snapshot_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

#: Update kinds of orders_fresh in rising order of their typical cost.
KIND_ORDER = ("idle", "drain", "touch", "fresh")
#: The p50 and p90 ranks of orders_fresh must each sit this far inside
#: the rank range of one update kind.
GUARD_MARGIN = 0.05


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {source / 'repro'}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(fraction * len(ordered)) - 1))
    return ordered[rank]


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def steadiness_guard(kinds: list[str]) -> tuple[bool, dict[str, Any]]:
    """Check that the p50 and p90 ranks each fall inside the rank range
    of a single update kind, GUARD_MARGIN away from its ends, when
    ranks are ordered by KIND_ORDER.

    A percentile on the border between two kinds flips between runs; the
    kind shares come from the inputs alone, so this checks the design,
    not the timings.
    """
    shares = {kind: kinds.count(kind) / len(kinds) for kind in KIND_ORDER}
    ranges, low = {}, 0.0
    for kind in KIND_ORDER:
        ranges[kind] = (low, low + shares[kind])
        low += shares[kind]
    found = {}
    for label, rank in (("p50", 0.5), ("p90", 0.9)):
        found[label] = next(
            (
                kind
                for kind, (start, end) in ranges.items()
                if start + GUARD_MARGIN <= rank <= end - GUARD_MARGIN
            ),
            None,
        )
    return None not in found.values(), {"shares": shares, "kinds": found}


# -- child side --------------------------------------------------------------


def timed_part(
    workload: str, seed: int, seconds: float, part: int, parts: int
) -> dict[str, Any]:
    """Run units ``part, part+parts, ...`` until ``seconds`` have passed
    and return their raw measurements."""
    from workloads import Context, SpeedProbe, oracle, run_unit

    probe = SpeedProbe()
    ctx = Context(workload, seed, OUT, probe=probe)
    results = []
    started = time.perf_counter()
    index = part
    # Start another unit only if it should end within the budget, so a
    # faster machine does not run over by a whole unit.
    while not results or (
        (time.perf_counter() - started) * (len(results) + 1) / len(results)
        <= seconds
    ):
        probe.maybe()
        results.append(run_unit(ctx, index))
        index += parts
    wall = time.perf_counter() - started
    if workload == "orders_fresh":
        for result in results:
            oracle(result)
    samples = [s for r in results for s in r.samples]
    scaled = [s.latency * probe.scale(s.submitted) for s in samples]

    def timed(key: str) -> list[float]:
        return [
            took * probe.scale(at)
            for r in results
            for at, took in getattr(r, key)
        ]

    loop = sum(r.loop_seconds for r in results)
    raw = sum(s.latency for s in samples)
    return {
        "units": len(results),
        "wall": wall,
        "samples": [[t, s.kind] for t, s in zip(scaled, samples)],
        "raw_latencies": [s.latency for s in samples],
        "loop_seconds": loop * sum(scaled) / raw,
        "raw_loop_seconds": loop,
        "setups": timed("setups"),
        "checkpoints": timed("checkpoints"),
        "restores": timed("restores"),
        "raw_restores": [t for r in results for _at, t in r.restores],
        "snapshot_bytes": [b for r in results for b in r.snapshot_bytes],
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "errors": [e for r in results for e in r.errors][:20],
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "probe_ms_p50": _median(probe.times) * 1e3,
        "probes": len(probe.times),
    }


def traced_part(workload: str, seed: int) -> dict[str, Any]:
    """Run the fixed traced units, each untraced and then traced, and
    return the per-layer metrics."""
    from layers import PER_LAYER, layer_metrics
    from tracer import Tracer
    from workloads import TRACED_UNITS, Context, oracle, run_unit

    units = TRACED_UNITS[workload]
    plain_ctx = Context(workload, seed, OUT)
    tracer = Tracer()
    traced_ctx = Context(workload, seed, OUT, tracer=tracer)
    plain, traced = [], []
    # Each unit runs untraced and then traced, so both sides of the
    # overhead ratio see the same process state.
    for index in range(units):
        plain.append(run_unit(plain_ctx, index))
        tracer.install()
        try:
            traced.append(run_unit(traced_ctx, index))
        finally:
            tracer.uninstall()
    if workload == "orders_fresh":
        for result in plain + traced:
            oracle(result)
    values, diagnostics = layer_metrics(
        tracer, traced, sum(r.loop_seconds for r in plain)
    )
    tracer.dump(OUT / f"{workload}-seed{seed}.spans.jsonl")
    attempted = sum(r.attempted for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    closed = abs(diagnostics["trace.closure_ms"]) < 1e-6
    if not closed:
        print("perfbench: layer self times do not add up to the traced "
              "latency", file=sys.stderr)
    if tracer.missing:
        print("perfbench: tracer targets not found: "
              + ", ".join(tracer.missing), file=sys.stderr)
    diagnostics.update({
        "workload": workload,
        "seed": seed,
        "units": units,
        "errors": [e for r in plain + traced for e in r.errors][:20],
    })
    return {
        "diagnostics": diagnostics,
        "result": {
            "correct": failed == 0 and closed,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit, _better in PER_LAYER
            },
        },
    }


# -- parent side -------------------------------------------------------------


def merge_timed(workload: str, seed: int, parts: list[dict]) -> dict:
    """End-to-end metrics over the merged measurements of all children.

    Times arrive already scaled to the nominal probe speed; the unscaled
    figures are kept in the diagnostics.
    """
    samples = [tuple(sample) for part in parts for sample in part["samples"]]
    latencies = [latency * 1e3 for latency, _kind in samples]
    raw = [t * 1e3 for part in parts for t in part["raw_latencies"]]

    def pooled(key: str) -> list[float]:
        return [float(value) for part in parts for value in part[key]]

    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    values = {
        "updates_per_s": len(samples) / sum(p["loop_seconds"] for p in parts),
        "update_ms_p50": _median(latencies),
        "update_ms_p90": _percentile(latencies, 0.9),
        "setup_s": _median(pooled("setups")),
        "checkpoint_s": _median(pooled("checkpoints")),
        "restore_s": _median(pooled("restores")),
        "snapshot_bytes": _median(pooled("snapshot_bytes")),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "success_rate": (attempted - failed) / attempted,
    }
    diagnostics: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "hash_seeds": list(HASH_SEEDS[: len(parts)]),
        "probe_ms_p50_by_child": [part["probe_ms_p50"] for part in parts],
        "raw.updates_per_s": len(samples) / sum(
            p["raw_loop_seconds"] for p in parts
        ),
        "raw.update_ms_p50": _median(raw),
        "raw.update_ms_p90": _percentile(raw, 0.9),
        "raw.restore_s": _median(pooled("raw_restores")),
        "units": sum(part["units"] for part in parts),
        "measured_wall_s": sum(part["wall"] for part in parts),
        "tail.update_ms_p99": _percentile(latencies, 0.99),
        "tail.update_ms_max": max(latencies),
        "shape.updates": len(samples),
        "shape.updates_per_s_by_child": [
            len(part["samples"]) / part["loop_seconds"] for part in parts
        ],
        "shape.checkpoints": len(pooled("checkpoints")),
        "shape.restores": len(pooled("restores")),
        "shape.setups": len(pooled("setups")),
        "errors": [e for part in parts for e in part["errors"]][:20],
    }
    correct = failed == 0
    if workload == "orders_fresh":
        kinds = [kind for _latency, kind in samples]
        ok, guard = steadiness_guard(kinds)
        by_rank = sorted(samples)
        diagnostics.update({
            "shape.guard_ok": ok,
            "shape.guard_kinds": guard["kinds"],
            "shape.p50_sample_kind": by_rank[len(by_rank) // 2][1],
            "shape.p90_sample_kind": by_rank[int(0.9 * len(by_rank))][1],
        })
        for kind in KIND_ORDER:
            chosen = [ms for ms, k in zip(latencies, kinds) if k == kind]
            diagnostics[f"shape.{kind}_share"] = guard["shares"][kind]
            diagnostics[f"shape.{kind}_ms_p50"] = (
                _median(chosen) if chosen else 0.0
            )
        if not ok:
            print("perfbench: steadiness guard failed: "
                  f"{guard}", file=sys.stderr)
        correct = correct and ok
    return {
        "diagnostics": diagnostics,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END
            },
        },
    }


def run_children(args: argparse.Namespace) -> list[dict]:
    """Run the parts one after another, each in a fresh interpreter."""
    seeds = HASH_SEEDS[:1] if args.trace else HASH_SEEDS
    deadline = time.monotonic() + DEADLINE
    parts = []
    for index, hash_seed in enumerate(seeds):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds / len(seeds)),
            "--trace", str(args.trace),
            "--part", f"{index}/{len(seeds)}",
        ]
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        child = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        sys.stderr.write(child.stderr)
        if child.returncode:
            sys.exit(f"perfbench: part {index} exited {child.returncode}")
        parts.append(json.loads(child.stdout.splitlines()[-1]))
    return parts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("orders_fresh", "staleness_steady", "staleness_restart"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    OUT.mkdir(exist_ok=True)
    if args.part is not None:
        part, parts = (int(n) for n in args.part.split("/"))
        if args.trace:
            report = traced_part(args.workload, args.seed)
        else:
            report = timed_part(
                args.workload, args.seed, args.seconds, part, parts
            )
        print(json.dumps(report))
        return 0
    results = run_children(args)
    if args.trace:
        report = results[0]
    else:
        report = merge_timed(args.workload, args.seed, results)
    for error in report["diagnostics"].get("errors", []):
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"diagnostics": report["diagnostics"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
