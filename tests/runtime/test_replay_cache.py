"""Launch-replay cache: equivalence, accounting, and invalidation tests.

The cache must be *semantics-preserving*: running any program with
``analysis_cache`` on or off yields identical region contents, future
values, dependence edges, and pipeline statistics (save for the cache's own
hit/invalidation counters).  These tests drive iterated traced launches —
the workload the cache exists for — through both settings and diff every
observable.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.domain import Point
from repro.core.launch import ArgumentMap, IndexLaunch
from repro.core.projection import ModularFunctor
from repro.data.partition import block_partition, equal_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.mapper import CyclicMapper
from repro.tools.graph import GraphRecorder


@task(privileges=["reads", "writes"])
def copy_scaled(ctx, src, dst, alpha):
    dst.write("y", alpha * src.read("x"))


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


@task(privileges=["reads"])
def total(ctx, r):
    return float(r.read("x").sum())


# Counters the cache is allowed (expected) to change; everything else in
# PipelineStats must be bit-identical with the cache on or off.
CACHE_ONLY_COUNTERS = {"analysis_cache_hits", "analysis_cache_invalidations"}


def observable_stats(rt):
    out = {}
    for f in dataclasses.fields(rt.stats):
        if f.name in CACHE_ONLY_COUNTERS:
            continue
        value = getattr(rt.stats, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def iterated_program(config, iters=5, mapper=None, swap_mapper_at=None):
    """A traced time loop: scaled copy + bump + reduction, every iteration.

    Returns (runtime, region-x array, region-y array, per-iteration future
    values, physical edge list).
    """
    rt = Runtime(config, mapper=mapper)
    recorder = GraphRecorder().attach(rt)
    rx = rt.create_region("rx", 16, {"x": "f8"})
    ry = rt.create_region("ry", 16, {"y": "f8"})
    rx.storage("x")[:] = np.arange(16.0)
    px = equal_partition(f"px{rx.uid}", rx, 8)
    py = equal_partition(f"py{ry.uid}", ry, 8)
    futures = []
    for it in range(iters):
        if swap_mapper_at is not None and it == swap_mapper_at:
            rt.mapper = CyclicMapper()
        rt.begin_trace(7)
        fm = rt.index_launch(copy_scaled, 8, px, py, args=(float(it),))
        rt.index_launch(bump, 8, px)
        red = rt.index_launch(total, 8, px, reduce="+")
        rt.end_trace(7)
        futures.append(
            ([fm.get(Point(i)) for i in range(8)], red.get())
        )
    return rt, rx.storage("x").copy(), ry.storage("y").copy(), futures, list(
        recorder.physical_edges
    )


EQUIV_CONFIGS = [
    dict(n_nodes=4, dcr=True, tracing=True),
    dict(n_nodes=4, dcr=True, tracing=True, shuffle_intra_launch=True, seed=11),
    dict(n_nodes=4, dcr=True, tracing=False),
    dict(n_nodes=4, dcr=False, tracing=False),
    dict(n_nodes=4, dcr=False, tracing=True, bulk_tracing=True),
    dict(n_nodes=1, dcr=True, tracing=True),
]


class TestEquivalence:
    @pytest.mark.parametrize("cfg", EQUIV_CONFIGS)
    def test_cache_on_off_identical(self, cfg):
        on = iterated_program(RuntimeConfig(analysis_cache=True, **cfg))
        off = iterated_program(RuntimeConfig(analysis_cache=False, **cfg))
        rt_on, x_on, y_on, fut_on, edges_on = on
        rt_off, x_off, y_off, fut_off, edges_off = off
        assert np.array_equal(x_on, x_off)
        assert np.array_equal(y_on, y_off)
        assert fut_on == fut_off
        # Dependence edges: same edges, same order (replay re-stamps the
        # recorded template with the task ids the live path would have
        # allocated).
        assert edges_on == edges_off
        # Per-stage representation tables and every work counter agree.
        assert observable_stats(rt_on) == observable_stats(rt_off)
        assert rt_on.stats.as_table() == rt_off.stats.as_table()

    def test_cache_actually_engages(self):
        rt, *_ = iterated_program(RuntimeConfig(n_nodes=4, dcr=True, tracing=True))
        assert rt.stats.analysis_cache_hits > 0
        assert rt.stats.launch_replays > 0
        # Steady state: physical dependence templates recorded and reused.
        assert len(rt.replay_cache._physical) > 0

    def test_knob_off_keeps_cache_empty(self):
        rt, *_ = iterated_program(
            RuntimeConfig(n_nodes=4, dcr=True, tracing=True, analysis_cache=False)
        )
        assert rt.stats.analysis_cache_hits == 0
        assert len(rt.replay_cache._verdicts) == 0
        assert len(rt.replay_cache._expansions) == 0
        assert len(rt.replay_cache._physical) == 0


class TestAccounting:
    def test_every_launch_accounted_with_cached_verdicts(self):
        iters = 5
        rt, *_ = iterated_program(
            RuntimeConfig(n_nodes=4, dcr=True, tracing=True), iters=iters
        )
        s = rt.stats
        verified = (
            s.launches_verified_static
            + s.launches_verified_dynamic
            + s.launches_unverified
        )
        # 3 launches per iteration; replays are logged as cached verdicts,
        # not silently dropped.
        assert verified == s.index_launches == 3 * iters
        assert len(rt.safety_log) == 3 * iters
        assert all(v.cached for v in rt.safety_log[3:])
        assert not any(v.cached for v in rt.safety_log[:3])

    def test_cached_verdicts_charge_original_check_cost(self):
        def run(cache):
            rt = Runtime(RuntimeConfig(n_nodes=2, analysis_cache=cache))
            r = rt.create_region("r", 16, {"x": "f8"})
            p = equal_partition(f"p{r.uid}", r, 8)
            for _ in range(3):
                rt.index_launch(bump, 8, (p, ModularFunctor(8, 1)))
            return rt

        on, off = run(True), run(False)
        assert on.stats.launches_verified_dynamic == 3
        assert off.stats.launches_verified_dynamic == 3
        # 8 functor evaluations per issue, whether computed or memoized.
        assert on.stats.check_evaluations == off.stats.check_evaluations == 24

    def test_check_memo_shared_across_distinct_launches(self):
        @task(privileges=["reads writes"])
        def bump2(ctx, r):
            r.write("x", r.read("x") + 2.0)

        rt = Runtime(RuntimeConfig(n_nodes=2))
        r = rt.create_region("r", 16, {"x": "f8"})
        p = equal_partition(f"p{r.uid}", r, 8)
        # Two different tasks -> two launch signatures, but the Listing-3
        # check is keyed by (domain, functor, bounds) and shared.
        rt.index_launch(bump, 8, (p, ModularFunctor(8, 1)))
        assert rt.replay_cache.check_memo.misses == 1
        rt.index_launch(bump2, 8, (p, ModularFunctor(8, 1)))
        assert rt.replay_cache.check_memo.hits == 1
        assert rt.replay_cache.check_memo.misses == 1
        assert rt.stats.check_evaluations == 16  # both launches charged

    def test_unsafe_launch_verdict_memoized(self):
        from repro.core.projection import ConstantFunctor

        rt = Runtime(RuntimeConfig(n_nodes=2))
        rx = rt.create_region("rx", 16, {"x": "f8"})
        ry = rt.create_region("ry", 16, {"y": "f8"})
        px = equal_partition(f"px{rx.uid}", rx, 8)
        py = equal_partition(f"py{ry.uid}", ry, 8)
        for _ in range(2):
            rt.index_launch(copy_scaled, 8, px, (py, ConstantFunctor(0)), args=(1.0,))
        assert rt.stats.launches_fallback_serial == 2
        assert rt.safety_log[1].cached and not rt.safety_log[1].safe


class TestInvalidation:
    def test_mapper_change_invalidates_and_stays_correct(self):
        cfg = dict(n_nodes=4, dcr=True, tracing=True)
        on = iterated_program(
            RuntimeConfig(analysis_cache=True, **cfg), swap_mapper_at=3
        )
        off = iterated_program(
            RuntimeConfig(analysis_cache=False, **cfg), swap_mapper_at=3
        )
        rt_on, x_on, y_on, fut_on, edges_on = on
        rt_off, x_off, y_off, fut_off, edges_off = off
        assert rt_on.stats.analysis_cache_invalidations > 0
        assert np.array_equal(x_on, x_off)
        assert np.array_equal(y_on, y_off)
        assert fut_on == fut_off
        assert edges_on == edges_off
        assert observable_stats(rt_on) == observable_stats(rt_off)

    def test_mapper_setter_flushes_all_memos(self):
        rt, *_ = iterated_program(RuntimeConfig(n_nodes=4, dcr=True, tracing=True))
        assert len(rt.replay_cache._expansions) > 0
        rt.mapper = CyclicMapper()
        assert len(rt.replay_cache._verdicts) == 0
        assert len(rt.replay_cache._expansions) == 0
        assert len(rt.replay_cache._physical) == 0
        assert rt.sharding_cache.misses == 0 or len(rt.sharding_cache._cache) == 0

    def test_partition_change_breaks_trace_and_drops_templates(self):
        """Switching a launch to a different partition changes its signature:
        the trace breaks, and physical templates recorded under the old trace
        context are dropped (results stay correct either way)."""

        def run(cache):
            rt = Runtime(RuntimeConfig(n_nodes=4, dcr=True, analysis_cache=cache))
            r = rt.create_region("r", 16, {"x": "f8"})
            r.storage("x")[:] = np.arange(16.0)
            p8 = equal_partition(f"p8{r.uid}", r, 8)
            p4 = equal_partition(f"p4{r.uid}", r, 4)
            for it in range(6):
                part, n = (p8, 8) if it < 3 else (p4, 4)
                rt.begin_trace(1)
                rt.index_launch(bump, n, part)
                rt.end_trace(1)
            return rt, r.storage("x").copy()

        rt_on, x_on = run(True)
        rt_off, x_off = run(False)
        assert np.array_equal(x_on, x_off)
        assert np.all(x_on == np.arange(16.0) + 6.0)
        # Iteration 3 diverges from the recorded trace: templates recorded
        # for the p8 launch no longer describe a recurring context.
        assert rt_on.tracer.broken(1) == 1
        assert rt_on.stats.analysis_cache_invalidations > 0
        assert observable_stats(rt_on) == observable_stats(rt_off)

    def test_explicit_invalidate_api(self):
        rt, *_ = iterated_program(RuntimeConfig(n_nodes=4, dcr=True, tracing=True))
        dropped = rt.invalidate_analysis_cache()
        assert dropped > 0
        assert rt.invalidate_analysis_cache() == 0  # already empty


class TestPhysicalTemplates:
    def test_replay_reuses_dependence_template(self):
        rt, *_ = iterated_program(
            RuntimeConfig(n_nodes=4, dcr=True, tracing=True), iters=6
        )
        # Templates recorded on the first validated replay (iteration 1)
        # and re-stamped on iterations 2..5; the analyzer is only queried
        # live for iterations 0-1.
        assert len(rt.replay_cache._physical) > 0
        hits = rt.stats.analysis_cache_hits
        # Per replayed iteration: verdict x3 + expansion x3 (+ physical x3
        # from iteration 2 on).
        assert hits >= 3 * 2 + 4 * 3

    def test_overlap_queries_charged_on_replay(self):
        """Virtual charging: a replayed launch reports the same overlap-query
        count the live analysis would have performed."""
        cfg = dict(n_nodes=4, dcr=True, tracing=True)
        rt_on, *_ = iterated_program(RuntimeConfig(analysis_cache=True, **cfg))
        rt_off, *_ = iterated_program(RuntimeConfig(analysis_cache=False, **cfg))
        assert rt_on.stats.overlap_queries == rt_off.stats.overlap_queries
        assert rt_on.stats.physical_dependences == rt_off.stats.physical_dependences

class TestNonDCRCharging:
    """Virtual charging on the centralized (non-DCR) distribution path.

    With DCR off, distribution builds a broadcast tree of slices; the
    slicing memo must not change what the run *reports* — messages and tree
    depth are properties of the pure ``SlicingResult``, charged identically
    whether it was computed or served from the cache.
    """

    NON_DCR_CONFIGS = [
        dict(n_nodes=4, dcr=False, tracing=False),
        dict(n_nodes=4, dcr=False, tracing=True, bulk_tracing=True),
        dict(n_nodes=6, dcr=False, tracing=True, bulk_tracing=True),
    ]

    @pytest.mark.parametrize("cfg", NON_DCR_CONFIGS)
    def test_slice_charges_identical_cache_on_off(self, cfg):
        rt_on, *_ = iterated_program(RuntimeConfig(analysis_cache=True, **cfg))
        rt_off, *_ = iterated_program(RuntimeConfig(analysis_cache=False, **cfg))
        assert rt_on.stats.slice_messages == rt_off.stats.slice_messages
        assert rt_on.stats.max_slice_depth == rt_off.stats.max_slice_depth
        assert rt_on.stats.slice_messages > 0
        assert rt_on.stats.max_slice_depth > 0
        assert observable_stats(rt_on) == observable_stats(rt_off)

    def test_slicing_memo_engages_without_changing_charges(self):
        cfg = dict(n_nodes=4, dcr=False, tracing=True, bulk_tracing=True)
        rt_on, *_ = iterated_program(RuntimeConfig(analysis_cache=True, **cfg))
        rt_off, *_ = iterated_program(RuntimeConfig(analysis_cache=False, **cfg))
        # The memo actually served lookups on the cached run...
        assert rt_on.slicing_cache.hits > 0
        # ...while the uncached run never touched it.
        assert rt_off.slicing_cache.hits == rt_off.slicing_cache.misses == 0
        # Same launches, same trees: per-iteration charge is constant, so
        # totals divide evenly by the iteration count.
        assert rt_on.stats.slice_messages % 5 == 0

    def test_slicing_functor_launch_charges_identical(self):
        """A launch with an explicit (dynamic-checked) functor through the
        non-DCR column: verdict memo + slicing memo engaged, charges even."""
        def run(cache):
            rt = Runtime(RuntimeConfig(n_nodes=4, dcr=False, tracing=True,
                                       bulk_tracing=True,
                                       analysis_cache=cache))
            r = rt.create_region("r", 16, {"x": "f8"})
            r.storage("x")[:] = np.arange(16.0)
            p = equal_partition(f"p{r.uid}", r, 8)
            for _ in range(4):
                rt.begin_trace(3)
                rt.index_launch(bump, 8, (p, ModularFunctor(8, 3)))
                rt.end_trace(3)
            return rt, r.storage("x").copy()

        rt_on, x_on = run(True)
        rt_off, x_off = run(False)
        assert np.array_equal(x_on, x_off)
        assert rt_on.stats.launches_verified_dynamic == 4
        assert rt_on.stats.slice_messages == rt_off.stats.slice_messages > 0
        assert rt_on.stats.max_slice_depth == rt_off.stats.max_slice_depth > 0
        assert rt_on.stats.check_evaluations == rt_off.stats.check_evaluations
        assert observable_stats(rt_on) == observable_stats(rt_off)


class TestPhysicalTemplateArguments:
    def test_argument_changes_reuse_expansion_not_results(self):
        """Broadcast args change every iteration (args are not part of the
        launch signature): requirement footprints are reused, task launches
        are rebuilt, and the computed values track the new args."""
        rt = Runtime(RuntimeConfig(n_nodes=4, dcr=True, tracing=True))
        rx = rt.create_region("rx", 16, {"x": "f8"})
        ry = rt.create_region("ry", 16, {"y": "f8"})
        rx.storage("x")[:] = np.ones(16)
        px = equal_partition(f"px{rx.uid}", rx, 8)
        py = equal_partition(f"py{ry.uid}", ry, 8)
        for it in range(4):
            rt.begin_trace(2)
            rt.index_launch(copy_scaled, 8, px, py, args=(float(it),))
            rt.end_trace(2)
        assert np.all(ry.storage("y") == 3.0)  # last iteration's alpha
        assert rt.stats.analysis_cache_hits > 0


@task(privileges=["reads writes", "reads"])
def shift(ctx, dst, src, alpha, offset=0.0):
    dst.write("x", dst.read("x") * alpha + offset)
    return float(src.read("z").sum()) * alpha + offset


def argument_program(analysis_cache):
    """Two launch signatures over a rotated disjoint partition and a halo
    partition, issued with moving args: one first issued with a per-point
    ``ArgumentMap``, one first issued without and later given one.
    Returns (x bytes, future values per issue)."""
    rt = Runtime(RuntimeConfig(n_nodes=3, tracing=True,
                               analysis_cache=analysis_cache))
    rx = rt.create_region("ax", 24, {"x": "f8"})
    rz = rt.create_region("az", 24, {"z": "f8"})
    rx.storage("x")[:] = np.arange(24.0)
    rz.storage("z")[:] = np.arange(24.0) % 5
    px = equal_partition(f"apx{rx.uid}", rx, 8)
    hz = block_partition(f"ahz{rz.uid}", rz, (8,), halo=1)
    amap = ArgumentMap(lambda p: (p[0] / 4.0,))
    rotated = (px, ModularFunctor(8, 3))
    issues = [
        (rotated, (2.0,), amap), (px, (0.5,), None),
        (rotated, (2.0,), None), (px, (1.5,), None),
        (rotated, (3.0,), amap), (px, (1.5,), amap),
        (px, (1.5,), None),
    ]
    futures = []
    for it in range(2):
        rt.begin_trace(5)
        for dst, args, point_args in issues:
            fm = rt.index_launch(shift, 8, dst, hz, args=args,
                                 point_args=point_args)
            futures.append([fm.get(Point(i)) for i in range(8)])
        rt.end_trace(5)
    return rx.storage("x").tobytes(), futures


class TestBatchedExpansion:
    def test_argument_maps_and_moved_args_match_the_uncached_run(
        self, monkeypatch
    ):
        """First issues expand by batched projection; reissues whose args
        moved reuse the cached views with fresh args.  Regions and futures
        are byte-identical to a run that caches nothing, and no index
        launch materialises a point task."""
        def no_point_tasks(self, point):
            raise AssertionError("index launch expanded through point_task")

        monkeypatch.setattr(IndexLaunch, "point_task", no_point_tasks)
        assert argument_program(analysis_cache=True) == argument_program(
            analysis_cache=False
        )
