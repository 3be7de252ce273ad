"""Pipelined launch dispatch: byte-identity at every depth.

``RuntimeConfig.pipeline_depth > 1`` lets the parallel backend submit
launch N+1's shards before launch N's results are collected, whenever
N+1's region footprint is disjoint from every pending launch's
uncommitted writes.  Commits stay strictly FIFO, so *every* functional
observable — region bytes, future values, dependence edges, every
``PipelineStats`` counter — must be byte-identical to the serial run at
any depth, under faults, and across the kill switch (depth 1 must be
the eager path exactly, not a degenerate pipeline).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import equal_partition
from repro.exec.parallel import resolve_pipeline_depth
from repro.exec.pool import shutdown_pools
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import Runtime, RuntimeConfig

from tests.exec.test_parallel_equivalence import (
    bump,
    full_stats,
    program_strategy,
    run_program,
    total,
)

FAST_RETRY = RetryPolicy(
    same_worker_retries=1,
    respawns=2,
    backoff_base_s=1e-4,
    backoff_cap_s=1e-3,
    shard_timeout_s=30.0,
)

FAULTS = [
    FaultSpec(kind="kill", scope="worker", target=(0,), phase="execution"),
    FaultSpec(kind="corrupt", scope="worker", target=(0,), phase="execution"),
    FaultSpec(kind="kill", scope="shard", target=(0,), phase="expansion"),
    FaultSpec(kind="kill", scope="worker", target=(0,), times=-1),
]


def _observables(ops, iters, cfg, workers, **extra):
    merged = dict(cfg)
    merged.update(extra)
    rt, x, y, futures, edges = run_program(
        ops, iters, None, merged, workers=workers
    )
    return rt, (x.tobytes(), y.tobytes(), futures, edges)


class TestResolveDepth:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_PIPELINE_DEPTH", raising=False)
        assert resolve_pipeline_depth(None) == 1

    def test_env_sets_depth(self, monkeypatch):
        monkeypatch.setenv("REPRO_PIPELINE_DEPTH", "3")
        assert resolve_pipeline_depth(None) == 3

    def test_config_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PIPELINE_DEPTH", "3")
        assert resolve_pipeline_depth(2) == 2

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_pipeline_depth(0)
        with pytest.raises(ValueError):
            resolve_pipeline_depth(-1)
        monkeypatch.setenv("REPRO_PIPELINE_DEPTH", "not-a-depth")
        with pytest.raises(ValueError):
            resolve_pipeline_depth(None)


class TestPipelineIdentity:
    @settings(max_examples=4, deadline=None)
    @given(program=program_strategy, depth=st.sampled_from([2, 4]))
    def test_pipelined_is_byte_identical_to_serial(self, program, depth):
        ops, iters, _, cfg = program
        ref_rt, ref_out = _observables(ops, iters, cfg, 1)
        rt, out = _observables(
            ops, iters, cfg, 2, transport="pipe", pipeline_depth=depth
        )
        assert out == ref_out
        assert full_stats(rt) == full_stats(ref_rt)

    @settings(max_examples=4, deadline=None)
    @given(program=program_strategy, spec=st.sampled_from(FAULTS))
    def test_pipelined_identical_under_faults(self, program, spec):
        """The recovery ladder — including the unlimited worker-killer
        that defeats every respawn and lands in the serial fallback —
        must recover byte-identically with pipelining armed."""
        ops, iters, _, cfg = program
        plan = FaultPlan(specs=(spec,))
        ref_rt, ref_out = _observables(ops, iters, cfg, 1)
        rt, out = _observables(
            ops, iters, cfg, 2,
            transport="pipe", pipeline_depth=2,
            fault_plan=plan, retry=FAST_RETRY,
        )
        assert rt.fault_injector.fired_count >= 1
        assert rt.stats.launches_poisoned == 0
        assert out == ref_out
        assert full_stats(rt) == full_stats(ref_rt)


class TestKillSwitch:
    def test_depth_one_is_the_eager_path_exactly(self):
        """``pipeline_depth=1`` must reproduce the unpipelined backend
        bit-for-bit — including the backend's own bookkeeping — and must
        never touch the pending queue."""
        ops = ("bump8", "copy", "total", "reduce")
        cfg = dict(n_nodes=4)

        def run(**extra):
            # Cold workers on both sides: a worker that already holds a
            # task lets the plan memo fire one issue sooner.
            shutdown_pools()
            rt, x, y, futures, edges = run_program(
                ops, 3, None, dict(cfg, **extra), workers=2
            )
            return rt, (x.tobytes(), y.tobytes(), futures, edges)

        rt_default, out_default = run()
        rt_one, out_one = run(pipeline_depth=1)
        assert rt_one.backend.pipeline_depth == 1
        assert out_one == out_default
        assert full_stats(rt_one) == full_stats(rt_default)
        assert (dataclasses.asdict(rt_one.backend.stats)
                == dataclasses.asdict(rt_default.backend.stats))

    def test_depth_one_never_defers(self):
        """At depth 1 the pending queue is never populated: every launch
        submits and collects in one call."""
        rt = Runtime(RuntimeConfig(workers=2, n_nodes=4, pipeline_depth=1))
        events = []
        rt.backend.observer = lambda event, info: events.append(event)
        r = rt.create_region("ks", 16, {"x": "f8"})
        p = equal_partition(f"ksp{r.uid}", r, 4)
        for _ in range(5):
            rt.index_launch(bump, 4, p)
            assert len(rt.backend._pending) == 0
        assert "pipeline.submit" not in events


def _disjoint_runtime(depth, transport="pipe", workers=2):
    """Two disjoint regions whose alternating launches can overlap."""
    rt = Runtime(RuntimeConfig(
        workers=workers, n_nodes=4, transport=transport,
        pipeline_depth=depth, retry=FAST_RETRY,
    ))
    ra = rt.create_region("pda", 16, {"x": "f8"})
    rb = rt.create_region("pdb", 16, {"x": "f8"})
    ra.storage("x")[:] = np.arange(16.0)
    rb.storage("x")[:] = np.arange(16.0) * 2.0
    pa = equal_partition(f"pdpa{ra.uid}", ra, 4)
    pb = equal_partition(f"pdpb{rb.uid}", rb, 4)
    return rt, ra, rb, pa, pb


class TestPipelinedAhead:
    def test_submit_ahead_actually_happens(self):
        """Anti-vacuity: once both launch signatures replay from live
        templates, the second of each disjoint pair must be submitted
        while the first is still in flight (observer depth reaches 2)."""
        rt, ra, rb, pa, pb = _disjoint_runtime(depth=2)
        depths = []
        rt.backend.observer = (
            lambda event, info: depths.append(info["depth"])
            if event == "pipeline.submit" else None
        )
        for _ in range(6):
            rt.begin_trace(7)
            rt.index_launch(bump, 4, pa)
            rt.index_launch(bump, 4, pb)
            rt.end_trace(7)
        rt.drain()
        assert max(depths, default=0) == 2
        # 6 bumps each, committed FIFO: storage reads drained values.
        assert ra.storage("x").tolist() == (np.arange(16.0) + 6).tolist()
        assert rb.storage("x").tolist() == (np.arange(16.0) * 2 + 6).tolist()

    def test_matches_serial_reference(self):
        def run(workers, depth=1, transport="pipe"):
            rt, ra, rb, pa, pb = _disjoint_runtime(
                depth, transport=transport, workers=workers
            )
            for _ in range(6):
                rt.begin_trace(7)
                rt.index_launch(bump, 4, pa)
                rt.index_launch(bump, 4, pb)
                rt.end_trace(7)
            rt.drain()
            return rt, ra.storage("x").tobytes() + rb.storage("x").tobytes()

        ref_rt, ref_bytes = run(1)
        rt, out_bytes = run(2, depth=4, transport="pipe")
        assert out_bytes == ref_bytes
        assert full_stats(rt) == full_stats(ref_rt)

    def test_storage_read_forces_drain(self):
        """Reading region storage while a launch is pending must commit
        it first — the program can never observe pre-launch bytes."""
        rt, ra, rb, pa, pb = _disjoint_runtime(depth=4)
        for _ in range(4):
            rt.begin_trace(7)
            rt.index_launch(bump, 4, pa)
            rt.end_trace(7)
        assert len(rt.backend._pending) >= 1
        seen = ra.storage("x").copy()
        assert len(rt.backend._pending) == 0
        assert seen.tolist() == (np.arange(16.0) + 4).tolist()

    def test_future_read_forces_drain(self):
        """Reading a pending launch's FutureMap must commit it (and, by
        FIFO, everything ahead of it)."""
        rt, ra, rb, pa, pb = _disjoint_runtime(depth=4)
        p8 = equal_partition(f"pdt{rb.uid}", rb, 8)
        fmap = None
        for _ in range(4):
            rt.begin_trace(7)
            rt.index_launch(bump, 4, pa)
            fmap = rt.index_launch(total, 8, p8)
            rt.end_trace(7)
        assert len(rt.backend._pending) >= 1
        values = [fmap.get((i,)) for i in range(8)]
        assert len(rt.backend._pending) == 0
        assert sum(values) == float(rb.storage("x").sum())

    def test_runtime_drain_is_a_barrier(self):
        rt, ra, rb, pa, pb = _disjoint_runtime(depth=4)
        for _ in range(4):
            rt.begin_trace(7)
            rt.index_launch(bump, 4, pa)
            rt.index_launch(bump, 4, pb)
            rt.end_trace(7)
        assert len(rt.backend._pending) >= 1
        rt.drain()
        assert len(rt.backend._pending) == 0
        rt.drain()  # idempotent

    def test_tier2_respawn_cancels_and_reissues_ahead_shards(self):
        """Kill a worker while launches are pipelined ahead on it: the
        dead worker's pending futures cancel, the ladder respawns at
        tier 2, the cancelled shards re-issue on the fresh worker, and
        the run still matches the serial reference byte-for-byte."""
        def run(workers, depth=1, drop=False):
            rt, ra, rb, pa, pb = _disjoint_runtime(depth, workers=workers)
            for i in range(8):
                if drop and i == 5:
                    # Steady state: launches are replaying from templates
                    # and pipelining ahead when the worker dies.
                    assert len(rt.backend._pending) >= 1
                    rt.backend.pool().transport.drop_connection(0)
                rt.begin_trace(7)
                rt.index_launch(bump, 4, pa)
                rt.index_launch(bump, 4, pb)
                rt.end_trace(7)
            rt.drain()
            return rt, ra.storage("x").tobytes() + rb.storage("x").tobytes()

        ref_rt, ref_bytes = run(1)
        rt, out_bytes = run(2, depth=2, drop=True)
        assert rt.backend.stats.worker_respawns >= 1
        assert rt.stats.launches_poisoned == 0
        assert out_bytes == ref_bytes
        assert full_stats(rt) == full_stats(ref_rt)
