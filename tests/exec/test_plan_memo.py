"""Plan-skeleton memoization on the replay path.

In the steady replay state a ``ShardPlan``'s skeleton (reqs, regions,
points, projections) is a pure function of the launch signature.  The
memo reuses the skeleton — and, while each unit's undo slots stay at
their fixed offsets in the same worker segment, the whole pickle blob.

Identity discipline: everything observable must be byte-identical to the
serial backend, including after worker respawns (generation bumps
invalidate shard memos).
"""

import numpy as np
import pytest

from tests.exec.test_parallel_equivalence import (
    full_stats, run_program,
)

PROGRAM = ("bump8", "copy", "shifted", "total")
CFG = dict(n_nodes=4, dcr=True)


def test_memo_hits_are_byte_identical_to_serial():
    on = run_program(PROGRAM, 6, None, CFG, workers=2)
    ref = run_program(PROGRAM, 6, None, CFG, workers=1)
    rt_on, x_on, y_on, fut_on, edges_on = on
    rt_ref, x_ref, y_ref, fut_ref, edges_ref = ref
    assert rt_on.backend.stats.plan_memo_hits > 0
    assert x_on.tobytes() == x_ref.tobytes()
    assert y_on.tobytes() == y_ref.tobytes()
    assert fut_on == fut_ref
    assert edges_on == edges_ref
    assert full_stats(rt_on) == full_stats(rt_ref)


def test_memo_actually_fires():
    """Anti-vacuity: steady-state replay hits the memo, on the parallel
    path."""
    rt, *_ = run_program(PROGRAM, 6, None, CFG, workers=2)
    stats = rt.backend.stats
    assert stats.plan_memo_hits > 0
    assert stats.fallbacks == 0


@pytest.mark.parametrize("analysis_cache", [True, False])
def test_untraced_launch_hits_the_memo(analysis_cache):
    """No plan carries analyzer state, so the memo no longer needs a
    template replay: with warm workers (one issue under other broadcast
    args) the first untraced issue keeps its skeleton and the second is a
    hit in every unit, byte-identical to serial."""
    from repro.data.partition import equal_partition
    from repro.runtime import Runtime, RuntimeConfig, task

    @task(privileges=["reads writes"])
    def scale(ctx, r, by):
        r.write("x", r.read("x") * by)

    def run(workers):
        rt = Runtime(RuntimeConfig(n_nodes=4, tracing=False, workers=workers,
                                   analysis_cache=analysis_cache))
        region = rt.create_region("um_rx", 32, {"x": "f8"})
        region.storage("x")[:] = np.arange(32.0)
        part = equal_partition(f"um_p{region.uid}", region, 8)
        rt.index_launch(scale, 8, part, args=(3.0,))
        hits = []
        for _ in range(2):
            rt.index_launch(scale, 8, part, args=(0.5,))
            if workers > 1:
                hits.append(rt.backend.stats.plan_memo_hits)
        return rt, region.storage("x").tobytes(), hits

    rt_s, x_s, _ = run(1)
    rt_p, x_p, hits = run(2)
    assert hits == [0, 2]                   # one per unit, second issue
    assert x_p == x_s
    assert full_stats(rt_p) == full_stats(rt_s)


def test_blob_reuse_with_shm():
    """With the shm arena on, each unit's undo slots stay at fixed offsets
    in its worker's segment, so whole pickled blobs are resent untouched."""
    from repro.exec.transport import TRANSPORTS, resolve_transport

    if not TRANSPORTS[resolve_transport(None)].local_shm:
        pytest.skip("transport cannot map parent shm; blobs never repeat")
    rt, *_ = run_program(PROGRAM, 6, None, CFG, workers=2)
    stats = rt.backend.stats
    assert stats.plan_memo_blob_reuse > 0
    assert stats.plan_memo_blob_reuse <= stats.plan_memo_hits


def test_memo_off_under_fault_injection():
    """The memo must stand aside whenever a fault injector is armed:
    directive consumption order is part of the recovery contract."""
    from repro.fault import FaultPlan, parse_fault
    from repro.runtime import Runtime, RuntimeConfig, task
    from repro.data.partition import equal_partition

    @task(privileges=["reads writes"])
    def bump(ctx, r):
        r.write("x", r.read("x") + 1.0)

    plan = FaultPlan(specs=(parse_fault("kill:worker:0"),))
    rt = Runtime(RuntimeConfig(n_nodes=4, validate_safety=True, workers=2,
                               fault_plan=plan))
    region = rt.create_region("fm_rx", 32, {"x": "f8"})
    region.storage("x")[:] = np.arange(32.0)
    part = equal_partition("fm_p", region, 8)
    for _ in range(4):
        rt.begin_trace(3)
        rt.index_launch(bump, 8, part)
        rt.end_trace(3)
    rt.drain()
    assert rt.backend.stats.plan_memo_hits == 0
    assert np.array_equal(region.storage("x"), np.arange(32.0) + 4)


@pytest.mark.parametrize("mutate", [False, True],
                         ids=["fresh_equal_arrays", "mutated_in_place"])
@pytest.mark.parametrize("workers", [1, 2])
def test_array_args_reach_the_bodies(workers, mutate):
    """Broadcast args holding a numpy array, with the analysis cache on:
    a fresh but equal array cannot be compared with ``==`` (it raised on
    both backends), and an array mutated in place compares equal to
    itself, so a memoized blob shipped the values pickled at build time.
    Either way the region must read what the serial semantics say."""
    from repro.data.partition import equal_partition
    from repro.runtime import Runtime, RuntimeConfig, task

    @task(privileges=["reads writes"])
    def add_sum(ctx, r, delta):
        r.write("x", r.read("x") + delta.sum())

    cfg = dict(workers=workers, transport="pipe") if workers > 1 else {}
    rt = Runtime(RuntimeConfig(n_nodes=4, analysis_cache=True, **cfg))
    region = rt.create_region("aa_rx", 32, {"x": "f8"})
    part = equal_partition(f"aa_p{region.uid}", region, 8)
    delta = np.arange(3.0)
    total = 0.0
    for _ in range(4):
        if not mutate:
            delta = np.arange(3.0)
        rt.index_launch(add_sum, 8, part, args=(delta,))
        total += delta.sum()
        if mutate:
            delta += 1.0
    assert total == (30.0 if mutate else 12.0)
    assert region.storage("x").tobytes() == np.full(32, total).tobytes()
    if workers > 1:
        assert rt.backend.stats.parallel_launches == 4
