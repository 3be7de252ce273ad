"""Golden observations of the expanded routes: a launch run task by task.

Four routes run a launch as the original task loop — the fallback loop of
a launch that fails its dynamic check, No-IDX, tracing without DCR (early
expansion) and No-IDX without DCR — and the paper apps take them too.
Each scenario below is pinned to literals: every ``PipelineStats`` field,
the representation rows in insertion order, the graph recorder's ops,
tasks and edges, the futures, the poison log, the profiler's span
structure, and the bytes of every region.  The large observations are
pinned as a short SHA-256 of their ``repr`` beside their sizes, so a
mismatch says which part moved.

The literals were captured from the per-point loop that preceded the
batched one (projection, placement, charges and logical analysis once
per launch), which must reproduce them exactly.
"""

import hashlib
from dataclasses import fields

import pytest

from repro.apps.circuit import CircuitConfig, build_circuit, run_circuit
from repro.apps.soleil import SoleilConfig, build_soleil, run_soleil
from repro.apps.stencil import StencilConfig, build_stencil, run_stencil
from repro.core.projection import AffineFunctor, ModularFunctor
from repro.data.partition import equal_partition
from repro.fault import FaultPlan, FaultSpec
from repro.obs.profiler import Profiler
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.futures import TaskPoisonedError
from repro.runtime.pipeline import PipelineStats
from repro.tools.graph import GraphRecorder


@task(privileges=["reads", "reads writes"], fields=[("x",), None])
def stir(ctx, src, dst, scale):
    dst.write("x", dst.read("x") + scale * src.read("x").sum())
    dst.write("y", dst.read("y") * 0.5 + 1.0)
    return float(dst.read("x").sum())


@task(privileges=["reduces +", "reads"], fields=[("y",), ("x", "y")])
def gather(ctx, acc, src):
    acc.reduce("y", src.read("x") + src.read("y"))
    return ctx.point[0]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def observe(rt, recorder) -> dict:
    """Everything the expanded loop leaves behind, as plain data."""
    stats = {
        f.name: getattr(rt.stats, f.name)
        for f in fields(PipelineStats) if f.name != "representation"
    }
    graph = (
        [(o.op_id, o.name, o.kind) for o in recorder.ops.values()],
        [(t.task_id, t.name, t.op_id, t.node) for t in recorder.tasks.values()],
        list(recorder.logical_edges),
        list(recorder.physical_edges),
    )
    storage = [
        (region.name, name, region.storage(name).tobytes())
        for region in rt._regions for name in region.fields.names
    ]
    return {
        "stats": stats,
        "representation": list(rt.stats.representation.items()),
        "graph_sizes": tuple(len(part) for part in graph),
        "graph": _digest(graph),
        "bytes": _digest(storage),
        "poison": [
            (err.task_id, err.launch, err.point) for err in rt.poison_log
        ],
    }


def _spans(profiler) -> str:
    """The span structure: names, stages, nodes and args, not times."""
    return _digest([
        (s.name, s.stage, s.node, sorted(s.args.items()))
        for s in profiler.spans
    ])


def _values(fmap) -> list:
    """A launch's point values, or the task id and point of its poison."""
    try:
        return [fmap.get((i,)) for i in range(8)]
    except TaskPoisonedError as err:
        return [("poisoned", err.task_id, err.point)]


def _program(rt, recorder, profiled=False) -> dict:
    """Three launches over two regions; the middle one writes through a
    non-injective functor, so under IDX it fails its dynamic check."""
    src = rt.create_region("src", 16, {"x": "f8", "y": "f8"})
    dst = rt.create_region("dst", 16, {"x": "f8", "y": "f8"})
    src.storage("x")[:] = range(16)
    src_p = equal_partition("src_p", src, 8)
    dst_p = equal_partition("dst_p", dst, 8)
    futures = []
    for step in range(2):
        rt.begin_trace(7)
        fm = rt.index_launch(stir, 8, (src_p, AffineFunctor(1, 0)), dst_p,
                             args=(1.0,))
        futures.append(_values(fm))
        fm = rt.index_launch(stir, 8, (src_p, ModularFunctor(8, 3)),
                             (dst_p, ModularFunctor(4, step)), args=(0.25,))
        futures.append(_values(fm))
        fm = rt.index_launch(gather, 8, (dst_p, ModularFunctor(8, 5)), src_p)
        futures.append(_values(fm))
        rt.end_trace(7)
    out = observe(rt, recorder)
    out["futures"] = _digest(futures)
    if profiled:
        out["spans"] = _spans(rt.profiler)
    return out


def _runtime(**overrides):
    rt = Runtime(RuntimeConfig(n_nodes=4, workers=1, **overrides))
    return rt, GraphRecorder().attach(rt)


def scenario_fallback():
    return _program(*_runtime())


def scenario_fallback_profiled():
    rt, recorder = _runtime(profiler=Profiler())
    return _program(rt, recorder, profiled=True)


def scenario_noidx():
    return _program(*_runtime(index_launches=False))


def scenario_noidx_profiled():
    rt, recorder = _runtime(index_launches=False, profiler=Profiler())
    return _program(rt, recorder, profiled=True)


def scenario_early_expansion():
    return _program(*_runtime(dcr=False, tracing=True))


def scenario_noidx_nodcr():
    return _program(*_runtime(index_launches=False, dcr=False))


def scenario_stencil_noidx():
    rt, recorder = _runtime(index_launches=False)
    cfg = StencilConfig(n=16, blocks=(2, 2), radius=1, steps=1)
    run_stencil(rt, build_stencil(rt, cfg))
    return observe(rt, recorder)


def scenario_circuit_noidx():
    rt, recorder = _runtime(index_launches=False)
    cfg = CircuitConfig(n_pieces=4, nodes_per_piece=6, wires_per_piece=8,
                        steps=1)
    run_circuit(rt, build_circuit(rt, cfg))
    return observe(rt, recorder)


def scenario_soleil_noidx():
    rt, recorder = _runtime(index_launches=False)
    cfg = SoleilConfig(tiles=(2, 2, 1), cells_per_tile=(2, 2, 2),
                       particles_per_tile=4, steps=1)
    run_soleil(rt, build_soleil(rt, cfg))
    return observe(rt, recorder)


def scenario_noidx_kill():
    plan = FaultPlan(specs=(
        FaultSpec(kind="kill", scope="point", target=(5,), times=1),
    ))
    rt, recorder = _runtime(index_launches=False, fault_plan=plan)
    return _program(rt, recorder)


SCENARIOS = {
    name[len("scenario_"):]: fn
    for name, fn in sorted(globals().items())
    if name.startswith("scenario_")
}

GOLDEN = {
    'circuit_noidx': dict(
        stats=dict(ops_issued=3, index_launches=0, single_tasks=12,
            tasks_executed=12, logical_users=20, logical_dependences=18,
            physical_dependences=16, overlap_queries=86, slice_messages=0,
            max_slice_depth=0, check_evaluations=0,
            launches_verified_static=0, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=0,
            trace_replays=0, trace_prefix_iterations=0, launch_replays=0,
            analysis_cache_hits=0, analysis_cache_invalidations=0,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 12), (('logical', 0), 12),
            (('issuance', 1), 12), (('logical', 1), 12), (('issuance', 2),
            12), (('logical', 2), 12), (('issuance', 3), 12), (('logical', 3),
            12), (('distribution', 0), 3), (('physical', 0), 3),
            (('distribution', 1), 3), (('physical', 1), 3), (('distribution',
            2), 3), (('physical', 2), 3), (('distribution', 3), 3),
            (('physical', 3), 3), (('execution', 0), 3), (('execution', 1),
            3), (('execution', 2), 3), (('execution', 3), 3)],
        graph_sizes=(12, 12, 18, 16), graph='507c23280063d2ae',
        bytes='b004128b2c5c840c', poison=[],
    ),
    'early_expansion': dict(
        stats=dict(ops_issued=6, index_launches=6, single_tasks=48,
            tasks_executed=48, logical_users=96, logical_dependences=55,
            physical_dependences=48, overlap_queries=1008, slice_messages=36,
            max_slice_depth=0, check_evaluations=16,
            launches_verified_static=4, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=2,
            trace_replays=0, trace_prefix_iterations=0, launch_replays=1,
            analysis_cache_hits=2, analysis_cache_invalidations=0,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 20), (('logical', 0), 48),
            (('distribution', 0), 12), (('physical', 0), 12),
            (('distribution', 1), 12), (('physical', 1), 12),
            (('distribution', 2), 12), (('physical', 2), 12),
            (('distribution', 3), 12), (('physical', 3), 12), (('execution',
            0), 12), (('execution', 1), 12), (('execution', 2), 12),
            (('execution', 3), 12)],
        graph_sizes=(48, 48, 55, 48), graph='b3724ca14afe7e9a',
        bytes='345be0f869dddaee', poison=[], futures='dd62a8acbbf0bc3a',
    ),
    'fallback': dict(
        stats=dict(ops_issued=6, index_launches=6, single_tasks=16,
            tasks_executed=48, logical_users=40, logical_dependences=20,
            physical_dependences=48, overlap_queries=1008, slice_messages=0,
            max_slice_depth=0, check_evaluations=16,
            launches_verified_static=4, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=2,
            trace_replays=0, trace_prefix_iterations=0, launch_replays=1,
            analysis_cache_hits=4, analysis_cache_invalidations=1,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 20), (('issuance', 1), 20),
            (('issuance', 2), 20), (('issuance', 3), 20), (('logical', 0),
            20), (('logical', 1), 20), (('logical', 2), 20), (('logical', 3),
            20), (('distribution', 0), 8), (('distribution', 1), 8),
            (('distribution', 2), 8), (('distribution', 3), 8), (('physical',
            0), 12), (('physical', 1), 12), (('physical', 2), 12),
            (('physical', 3), 12), (('execution', 0), 12), (('execution', 1),
            12), (('execution', 2), 12), (('execution', 3), 12)],
        graph_sizes=(20, 48, 20, 48), graph='bcad8976aed0864c',
        bytes='345be0f869dddaee', poison=[], futures='dd62a8acbbf0bc3a',
    ),
    'fallback_profiled': dict(
        stats=dict(ops_issued=6, index_launches=6, single_tasks=16,
            tasks_executed=48, logical_users=40, logical_dependences=20,
            physical_dependences=48, overlap_queries=1008, slice_messages=0,
            max_slice_depth=0, check_evaluations=16,
            launches_verified_static=4, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=2,
            trace_replays=0, trace_prefix_iterations=0, launch_replays=1,
            analysis_cache_hits=4, analysis_cache_invalidations=1,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 20), (('issuance', 1), 20),
            (('issuance', 2), 20), (('issuance', 3), 20), (('logical', 0),
            20), (('logical', 1), 20), (('logical', 2), 20), (('logical', 3),
            20), (('distribution', 0), 8), (('distribution', 1), 8),
            (('distribution', 2), 8), (('distribution', 3), 8), (('physical',
            0), 12), (('physical', 1), 12), (('physical', 2), 12),
            (('physical', 3), 12), (('execution', 0), 12), (('execution', 1),
            12), (('execution', 2), 12), (('execution', 3), 12)],
        graph_sizes=(20, 48, 20, 48), graph='bcad8976aed0864c',
        bytes='345be0f869dddaee', poison=[], futures='dd62a8acbbf0bc3a',
        spans='8a5315496cba301d',
    ),
    'noidx': dict(
        stats=dict(ops_issued=6, index_launches=0, single_tasks=48,
            tasks_executed=48, logical_users=96, logical_dependences=55,
            physical_dependences=48, overlap_queries=1008, slice_messages=0,
            max_slice_depth=0, check_evaluations=0,
            launches_verified_static=0, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=0,
            trace_replays=1, trace_prefix_iterations=0, launch_replays=0,
            analysis_cache_hits=0, analysis_cache_invalidations=0,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 48), (('logical', 0), 48),
            (('issuance', 1), 48), (('logical', 1), 48), (('issuance', 2),
            48), (('logical', 2), 48), (('issuance', 3), 48), (('logical', 3),
            48), (('distribution', 0), 12), (('physical', 0), 12),
            (('distribution', 1), 12), (('physical', 1), 12),
            (('distribution', 2), 12), (('physical', 2), 12),
            (('distribution', 3), 12), (('physical', 3), 12), (('execution',
            0), 12), (('execution', 1), 12), (('execution', 2), 12),
            (('execution', 3), 12)],
        graph_sizes=(48, 48, 55, 48), graph='4f1aea52a4c42e7a',
        bytes='345be0f869dddaee', poison=[], futures='dd62a8acbbf0bc3a',
    ),
    'noidx_kill': dict(
        stats=dict(ops_issued=6, index_launches=0, single_tasks=8,
            tasks_executed=5, logical_users=16, logical_dependences=7,
            physical_dependences=0, overlap_queries=56, slice_messages=0,
            max_slice_depth=0, check_evaluations=0,
            launches_verified_static=0, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=0,
            trace_replays=1, trace_prefix_iterations=0, launch_replays=0,
            analysis_cache_hits=0, analysis_cache_invalidations=0,
            launches_poisoned=6, poison_propagations=5),
        representation=[(('issuance', 0), 8), (('logical', 0), 8),
            (('issuance', 1), 8), (('logical', 1), 8), (('issuance', 2), 8),
            (('logical', 2), 8), (('issuance', 3), 8), (('logical', 3), 8),
            (('distribution', 0), 2), (('physical', 0), 2), (('distribution',
            1), 2), (('physical', 1), 2), (('distribution', 2), 2),
            (('physical', 2), 2), (('distribution', 3), 2), (('physical', 3),
            2), (('execution', 0), 2), (('execution', 1), 2), (('execution',
            2), 1)],
        graph_sizes=(8, 8, 7, 0), graph='4d09958e6a043c3b',
        bytes='97b5e69974b2d570', poison=[(5, 'stir[8]', (5,)), (5, 'stir[8]',
        (5,)), (5, 'stir[8]', (5,)), (5, 'stir[8]', (5,)), (5, 'stir[8]',
        (5,)), (5, 'stir[8]', (5,))], futures='4638833ab0c42f81',
    ),
    'noidx_nodcr': dict(
        stats=dict(ops_issued=6, index_launches=0, single_tasks=48,
            tasks_executed=48, logical_users=96, logical_dependences=55,
            physical_dependences=48, overlap_queries=1008, slice_messages=36,
            max_slice_depth=0, check_evaluations=0,
            launches_verified_static=0, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=0,
            trace_replays=1, trace_prefix_iterations=0, launch_replays=0,
            analysis_cache_hits=0, analysis_cache_invalidations=0,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 48), (('logical', 0), 48),
            (('distribution', 0), 12), (('physical', 0), 12),
            (('distribution', 1), 12), (('physical', 1), 12),
            (('distribution', 2), 12), (('physical', 2), 12),
            (('distribution', 3), 12), (('physical', 3), 12), (('execution',
            0), 12), (('execution', 1), 12), (('execution', 2), 12),
            (('execution', 3), 12)],
        graph_sizes=(48, 48, 55, 48), graph='4f1aea52a4c42e7a',
        bytes='345be0f869dddaee', poison=[], futures='dd62a8acbbf0bc3a',
    ),
    'noidx_profiled': dict(
        stats=dict(ops_issued=6, index_launches=0, single_tasks=48,
            tasks_executed=48, logical_users=96, logical_dependences=55,
            physical_dependences=48, overlap_queries=1008, slice_messages=0,
            max_slice_depth=0, check_evaluations=0,
            launches_verified_static=0, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=0,
            trace_replays=1, trace_prefix_iterations=0, launch_replays=0,
            analysis_cache_hits=0, analysis_cache_invalidations=0,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 48), (('logical', 0), 48),
            (('issuance', 1), 48), (('logical', 1), 48), (('issuance', 2),
            48), (('logical', 2), 48), (('issuance', 3), 48), (('logical', 3),
            48), (('distribution', 0), 12), (('physical', 0), 12),
            (('distribution', 1), 12), (('physical', 1), 12),
            (('distribution', 2), 12), (('physical', 2), 12),
            (('distribution', 3), 12), (('physical', 3), 12), (('execution',
            0), 12), (('execution', 1), 12), (('execution', 2), 12),
            (('execution', 3), 12)],
        graph_sizes=(48, 48, 55, 48), graph='4f1aea52a4c42e7a',
        bytes='345be0f869dddaee', poison=[], futures='dd62a8acbbf0bc3a',
        spans='81273c7b09df229a',
    ),
    'soleil_noidx': dict(
        stats=dict(ops_issued=54, index_launches=0, single_tasks=80,
            tasks_executed=80, logical_users=196, logical_dependences=137,
            physical_dependences=325, overlap_queries=751, slice_messages=0,
            max_slice_depth=0, check_evaluations=0,
            launches_verified_static=0, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=0,
            trace_replays=0, trace_prefix_iterations=0, launch_replays=0,
            analysis_cache_hits=0, analysis_cache_invalidations=0,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 80), (('logical', 0), 80),
            (('issuance', 1), 80), (('logical', 1), 80), (('issuance', 2),
            80), (('logical', 2), 80), (('issuance', 3), 80), (('logical', 3),
            80), (('distribution', 0), 50), (('physical', 0), 50),
            (('distribution', 1), 10), (('physical', 1), 10),
            (('distribution', 2), 10), (('physical', 2), 10),
            (('distribution', 3), 10), (('physical', 3), 10), (('execution',
            0), 50), (('execution', 1), 10), (('execution', 2), 10),
            (('execution', 3), 10)],
        graph_sizes=(80, 80, 137, 325), graph='e8f2d0b4bd300b6a',
        bytes='4821ba7f6aff79c9', poison=[],
    ),
    'stencil_noidx': dict(
        stats=dict(ops_issued=2, index_launches=0, single_tasks=8,
            tasks_executed=8, logical_users=12, logical_dependences=10,
            physical_dependences=16, overlap_queries=66, slice_messages=0,
            max_slice_depth=0, check_evaluations=0,
            launches_verified_static=0, launches_verified_dynamic=0,
            launches_unverified=0, launches_fallback_serial=0,
            trace_replays=0, trace_prefix_iterations=0, launch_replays=0,
            analysis_cache_hits=0, analysis_cache_invalidations=0,
            launches_poisoned=0, poison_propagations=0),
        representation=[(('issuance', 0), 8), (('logical', 0), 8),
            (('issuance', 1), 8), (('logical', 1), 8), (('issuance', 2), 8),
            (('logical', 2), 8), (('issuance', 3), 8), (('logical', 3), 8),
            (('distribution', 0), 2), (('physical', 0), 2), (('distribution',
            1), 2), (('physical', 1), 2), (('distribution', 2), 2),
            (('physical', 2), 2), (('distribution', 3), 2), (('physical', 3),
            2), (('execution', 0), 2), (('execution', 1), 2), (('execution',
            2), 2), (('execution', 3), 2)],
        graph_sizes=(8, 8, 10, 16), graph='16e3f74f879bbfd3',
        bytes='01737c14e1686ef3', poison=[],
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_expanded_route_matches_its_golden_observation(name):
    assert SCENARIOS[name]() == GOLDEN[name]
