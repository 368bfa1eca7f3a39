"""Process-pool fan-out for independent decisions.

Two workloads fan out across a
:class:`concurrent.futures.ProcessPoolExecutor` through
:func:`parallel_map`:

* **the semantic lint's pairwise sweep** —
  :meth:`repro.lint.setanalysis.SetAnalyzer.sweep` chunks its undecided
  entailment and conflict formulas across workers (``repro-tic lint
  --jobs``);
* **whole experiments** — ``python -m repro.experiments --jobs N`` runs
  experiments side by side.

The monitor and the trigger manager run serially: a monitor's cost is
dominated by one constraint, so a split across workers cannot balance,
and a trigger sweep is too small to pay for starting workers (README,
"Parallelism", has the measurements).

Soundness of crossing the process boundary rests on the pickle
behaviour of interned formulas: they serialize through ``__reduce__``
and *re-intern* on load, so a worker's results refer to canonical
objects in the parent again and every identity-keyed cache stays
coherent.  Workers are forked (the default start method on Linux), so
they inherit the parent's warm caches for free.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "parallel_map",
    "resolve_jobs",
    "split_chunks",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/1 -> serial, <= 0 -> cpu count."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


def split_chunks(items: Sequence[T], chunks: int) -> list[list[T]]:
    """Split into at most ``chunks`` contiguous, balanced, non-empty runs.

    Contiguity keeps the merge order-preserving: concatenating the chunk
    results in chunk order reproduces the serial order exactly.
    """
    items = list(items)
    chunks = max(1, min(chunks, len(items)))
    quotient, remainder = divmod(len(items), chunks)
    out: list[list[T]] = []
    start = 0
    for index in range(chunks):
        size = quotient + (1 if index < remainder else 0)
        out.append(items[start : start + size])
        start += size
    return [chunk for chunk in out if chunk]


def parallel_map(
    function: Callable[[T], R], items: Sequence[T], jobs: int = 1
) -> list[R]:
    """``[function(item) for item in items]``, optionally across processes.

    Order-preserving.  ``function`` and every item/result must be
    picklable (interned formulas are — they re-intern on load).  With
    ``jobs <= 1`` or fewer than two items this never forks.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    # Imported here: the pool pulls in multiprocessing, which serial
    # callers (every plain ``import repro``) never need.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(function, items))
