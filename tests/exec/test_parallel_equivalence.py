"""Property test: the parallel backend is purely an execution strategy.

For randomized launch sequences over randomized runtime configurations, a
``workers=2`` run must leave every functional observable — region contents,
future values, dependence edges, and *every* ``PipelineStats`` counter
including the cache's own — byte-identical to the serial run.  A profiled
parallel run must additionally export a valid Chrome trace with per-track
monotone timestamps (worker spans are rebased onto the parent clock).

Mirrors ``tests/obs/test_profiler_equivalence.py``, which establishes the
same contract for the profiler.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.projection import ModularFunctor
from repro.data.partition import equal_partition
from repro.machine.costmodel import CostModel
from repro.obs import Profiler, chrome_trace, validate_chrome_trace
from repro.runtime import Runtime, RuntimeConfig, task
from repro.tools.graph import GraphRecorder


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


@task(privileges=["reads writes"])
def halve(ctx, r):
    r.write("x", r.read("x") * 0.5)


@task(privileges=["reads", "writes"])
def copy_over(ctx, src, dst):
    dst.write("y", src.read("x"))


@task(privileges=["reads"])
def total(ctx, r):
    return float(r.read("x").sum())


@task(privileges=["reads", "reduces +"])
def accumulate(ctx, r, a):
    a.reduce("s", [float(r.read("x").sum())])
    return int(ctx.point[0])


OPS = ("bump8", "halve4", "copy", "total", "shifted", "reduce")


def full_stats(rt):
    out = {}
    for f in dataclasses.fields(rt.stats):
        value = getattr(rt.stats, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    # Performed analysis work, beside the charged ``overlap_queries``.
    # (``users_restamped`` stays out: it differs, rightly, with ``kernels``.)
    out["physical.overlap_tests"] = rt.physical.overlap_tests
    return out


def run_program(ops, iters, trunc_at, cfg_kwargs, workers=1, profiler=None):
    rt = Runtime(RuntimeConfig(profiler=profiler, workers=workers,
                               **cfg_kwargs))
    recorder = GraphRecorder().attach(rt)
    rx = rt.create_region("rx", 16, {"x": "f8"})
    ry = rt.create_region("ry", 16, {"y": "f8"})
    ra = rt.create_region("ra", 4, {"s": "f8"})
    rx.storage("x")[:] = np.arange(16.0)
    p8 = equal_partition(f"p8{rx.uid}", rx, 8)
    p4 = equal_partition(f"p4{rx.uid}", rx, 4)
    py = equal_partition(f"py{ry.uid}", ry, 8)
    pa = equal_partition(f"pa{ra.uid}", ra, 4)
    futures = []
    for it in range(iters):
        issue = ops if it != trunc_at else ops[: max(1, len(ops) // 2)]
        rt.begin_trace(5)
        for op in issue:
            if op == "bump8":
                rt.index_launch(bump, 8, p8)
            elif op == "halve4":
                rt.index_launch(halve, 4, p4)
            elif op == "copy":
                rt.index_launch(copy_over, 8, p8, py)
            elif op == "shifted":
                # Dynamically-verified rotation: exercises the check path.
                rt.index_launch(bump, 8, (p8, ModularFunctor(8, 1)))
            elif op == "reduce":
                futures.append(
                    [rt.index_launch(accumulate, 4, p4, pa).get((i,))
                     for i in range(4)]
                )
            else:
                futures.append(
                    rt.index_launch(total, 8, p8, reduce="+").get()
                )
        rt.end_trace(5)
    return (
        rt,
        rx.storage("x").copy(),
        np.concatenate([ry.storage("y"), ra.storage("s")]),
        futures,
        list(recorder.physical_edges),
    )


program_strategy = st.tuples(
    st.lists(st.sampled_from(OPS), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=4),       # iterations
    st.one_of(st.none(), st.integers(min_value=1, max_value=3)),  # prefix at
    st.sampled_from([
        dict(n_nodes=4, dcr=True, tracing=True),
        dict(n_nodes=4, dcr=True, tracing=False),
        dict(n_nodes=3, dcr=False, tracing=False),
        dict(n_nodes=4, dcr=False, tracing=True, bulk_tracing=True),
        dict(n_nodes=4, dcr=True, tracing=True, analysis_cache=False),
        dict(n_nodes=4, dcr=True, tracing=True,
             shuffle_intra_launch=True, seed=11),
    ]),
)


class TestParallelEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(program_strategy)
    def test_parallel_serial_identical(self, program):
        ops, iters, trunc_at, cfg = program
        if trunc_at is not None and trunc_at >= iters:
            trunc_at = iters - 1
        base = run_program(ops, iters, trunc_at, cfg, workers=1)
        par = run_program(ops, iters, trunc_at, cfg, workers=2)
        rt_s, x_s, y_s, fut_s, edges_s = base
        rt_p, x_p, y_p, fut_p, edges_p = par
        assert x_p.tobytes() == x_s.tobytes()
        assert y_p.tobytes() == y_s.tobytes()
        assert fut_p == fut_s
        assert edges_p == edges_s           # order-sensitive
        assert full_stats(rt_p) == full_stats(rt_s)
        # Every launch went through the parallel backend's gate (even if
        # some were delegated serially), and nothing crashed mid-dispatch.
        bstats = rt_p.backend.stats
        assert (
            bstats.parallel_launches + bstats.serial_launches
            + bstats.fallbacks > 0
        )

    @settings(max_examples=6, deadline=None)
    @given(program_strategy)
    def test_parallel_trace_valid_and_monotone(self, program):
        ops, iters, trunc_at, cfg = program
        if trunc_at is not None and trunc_at >= iters:
            trunc_at = iters - 1
        prof = Profiler(costmodel=CostModel())
        rt, *_ = run_program(ops, iters, trunc_at, cfg, workers=2,
                             profiler=prof)
        assert len(prof.wall_spans()) > 0
        trace = chrome_trace(prof, stats=rt.stats)
        assert validate_chrome_trace(json.loads(json.dumps(trace))) == []
        last = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "M":
                continue
            track = (ev["pid"], ev["tid"])
            assert ev["ts"] >= last.get(track, float("-inf"))
            last[track] = ev["ts"]

    def test_profiled_parallel_stats_match_profiled_serial(self):
        """Profiler on + workers on together: PipelineStats still byte-
        identical to profiler on + serial (the two features compose)."""
        ops = ("bump8", "copy", "total", "reduce")
        base = run_program(ops, 3, None, dict(n_nodes=4), workers=1,
                           profiler=Profiler(costmodel=CostModel()))
        par = run_program(ops, 3, None, dict(n_nodes=4), workers=2,
                          profiler=Profiler(costmodel=CostModel()))
        assert full_stats(par[0]) == full_stats(base[0])
        assert par[1].tobytes() == base[1].tobytes()

    def test_parallel_dispatch_actually_happens(self):
        """Anti-vacuity: the canonical program must take the parallel path,
        not fall back to serial delegation every launch."""
        rt, *_ = run_program(("bump8", "copy"), 3, None,
                             dict(n_nodes=4), workers=2)
        assert rt.backend.stats.parallel_launches > 0
        assert rt.backend.stats.fallbacks == 0
