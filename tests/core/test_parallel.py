"""The process-pool helpers: order-preserving chunking and mapping.

The pools that use them (the semantic lint's pairwise sweep and the
experiment runner) are checked against their serial runs in their own
tests; parallelism is an execution detail, never a semantic one.
"""

from __future__ import annotations

import subprocess
import sys

from repro.core.parallel import parallel_map, resolve_jobs, split_chunks


class TestChunking:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_split_chunks_partitions_in_order(self):
        items = list(range(10))
        for chunks in (1, 2, 3, 4, 10, 99):
            parts = split_chunks(items, chunks)
            assert [x for part in parts for x in part] == items
            assert all(parts)
            assert len(parts) <= max(1, chunks)
            sizes = [len(part) for part in parts]
            assert max(sizes) - min(sizes) <= 1

    def test_split_chunks_empty(self):
        assert split_chunks([], 4) == []

    def test_parallel_map_preserves_order(self):
        items = list(range(7))
        assert parallel_map(str, items, jobs=1) == [str(i) for i in items]
        assert parallel_map(str, items, jobs=3) == [str(i) for i in items]

    def test_import_leaves_process_pool_unloaded(self):
        script = "import sys, repro; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
