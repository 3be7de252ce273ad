"""Physical analysis is the parent's alone, on every backend.

Counted, not timed: an untraced launch on ``workers=2`` runs the parent's
analysis at commit — one exact overlap test per task, whatever |P|, on
the per-point path; none when the launch is analysed by colour — and what
a shard plan weighs does not depend on how many users the analyzer holds.
"""

import numpy as np
import pytest

from repro.data.partition import equal_partition
from repro.exec.pool import WorkerPool
from repro.runtime import Runtime, RuntimeConfig

from tests.exec.test_parallel_equivalence import bump


def _runtime(name, pieces, **cfg):
    rt = Runtime(RuntimeConfig(n_nodes=2, tracing=False, **cfg))
    region = rt.create_region(name, pieces * 4, {"x": "f8"})
    region.storage("x")[:] = np.arange(pieces * 4.0)
    part = equal_partition(f"{name}p{region.uid}", region, pieces)
    return rt, region, part


@pytest.mark.parametrize("pieces", [32, 256])
def test_untraced_launch_runs_one_exact_test_per_task(pieces):
    """Per ``kernels`` setting.  With kernels the launch is the aligned
    shape — a write over the pieces an earlier launch wrote — and is
    analysed by colour: no exact test at all.  ``kernels=False`` is the
    per-point reference, one exact test per task."""
    for kernels in (False, True):
        seen = {}
        for workers in (1, 2):
            rt, region, part = _runtime(
                f"pa{workers}", pieces, workers=workers, kernels=kernels
            )
            rt.index_launch(bump, pieces, part)      # populate: |P| users
            assert rt.physical.overlap_tests == 0
            queries = rt.stats.overlap_queries
            aligned = rt.physical.launch_aligned
            rt.index_launch(bump, pieces, part)      # the launch under test
            tests = rt.physical.overlap_tests
            assert tests == (0 if kernels else pieces)                # |D|
            assert rt.physical.launch_aligned - aligned == int(kernels)
            charged = rt.stats.overlap_queries - queries
            assert charged == pieces * pieces                         # |D|·|P|
            assert rt.stats.physical_dependences == pieces
            seen[workers] = region.storage("x").tobytes()
        assert rt.backend.stats.parallel_launches == 2
        assert seen[2] == seen[1]


def test_plan_bytes_do_not_grow_with_live_users(monkeypatch):
    """A 16-point launch over 16 pieces of a |P|-piece partition whose
    every piece has a live user: the plans weigh the same at |P| = 32 and
    256 (region, partition and subset uids may pickle a byte apart)."""
    submitted = []
    real = WorkerPool.submit_shards

    def counting(self, k, items):
        submitted.append(sum(len(blob) for blob, _ in items))
        return real(self, k, items)

    monkeypatch.setattr(WorkerPool, "submit_shards", counting)
    weight = {}
    for pieces in (32, 256):
        rt, _, part = _runtime(f"pb{pieces}", pieces, workers=2)
        rt.index_launch(bump, pieces, part)          # |P| live users
        rt.index_launch(bump, 16, part)              # warms worker caches
        del submitted[:]
        rt.index_launch(bump, 16, part)
        assert rt.backend.stats.parallel_launches == 3
        weight[pieces] = sum(submitted) / 16
    assert abs(weight[256] - weight[32]) <= 1.0      # bytes per point
