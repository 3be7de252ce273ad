"""Issue is transactional: a launch is planned, then committed.

``Runtime._plan`` runs every piece of a launch's user code — projection
functors, the sharding and slicing functors, ``select_node`` and the
``ArgumentMap`` — before the runtime changes any state, so a hook that
raises leaves the runtime exactly as it was: no op or task id, stat,
trace entry, verdict, analysis state, graph entry or byte.  The tests here
pin three probes of the old interleaved route, the projection count of a
first issue on the worker pool, and a property that makes every hook raise
from its k-th call on, on every route.
"""

from dataclasses import fields
from functools import partial
from types import (
    BuiltinFunctionType, FunctionType, MethodType, SimpleNamespace,
)
import enum
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Point
from repro.core.launch import ArgumentMap, RegionRequirement
from repro.core.projection import (
    CallableFunctor, ModularFunctor, ProjectionFunctor,
)
from repro.data.collection import Region, Subregion
from repro.data.partition import Partition, equal_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.mapper import DefaultMapper, Mapper
from repro.runtime.task import Task
from repro.tools.graph import GraphRecorder


@task(privileges=["reads writes"])
def bump(ctx, r, base=1.0, extra=0.0):
    r.write("x", r.read("x") * 0.5 + base + extra)
    return float(r.read("x").sum())


@task(privileges=["reads", "writes"])
def copy_over(ctx, src, dst):
    dst.write("x", src.read("x"))


def _world(rt, pieces=8):
    region = rt.create_region("r", 2 * pieces, {"x": "f8"})
    region.storage("x")[:] = np.arange(2.0 * pieces)
    return region, equal_partition(f"p{region.uid}", region, pieces)


# ------------------------------------------------------------ the probes
class _OffTheEnd(DefaultMapper):
    """Sends every point to node ``n_nodes``, which does not exist."""

    def shard(self, point, domain, n_nodes):
        return n_nodes

    def shard_batch(self, points, domain, n_nodes):
        return np.full(len(points), n_nodes, dtype=np.int64)


class _NoNode(DefaultMapper):
    def select_node(self, task_launch, n_nodes):
        raise RuntimeError("no node for a single task")


def _explode(i):
    raise RuntimeError(f"functor refuses {i}")


class TestProbes:
    def test_a_sharding_functor_out_of_range_registers_nothing(self):
        rt = Runtime(RuntimeConfig(n_nodes=2, workers=1),
                     mapper=_OffTheEnd())
        recorder = GraphRecorder().attach(rt)
        _, part = _world(rt)
        with pytest.raises(ValueError, match="node 2 of 2"):
            rt.index_launch(bump, 8, part)
        rt.mapper = DefaultMapper()
        rt.index_launch(bump, 8, part)
        assert list(recorder.ops) == [0]
        assert list(recorder.logical_edges) == []
        assert len(rt.safety_log) == 1
        assert rt.stats.ops_issued == rt.stats.index_launches == 1

    def test_a_raising_functor_without_validation_registers_nothing(self):
        rt = Runtime(RuntimeConfig(n_nodes=2, workers=1,
                                   validate_safety=False))
        recorder = GraphRecorder().attach(rt)
        _, part = _world(rt)
        with pytest.raises(RuntimeError, match="functor refuses"):
            rt.index_launch(bump, 8, (part, CallableFunctor(_explode)))
        assert recorder.ops == {} and recorder.tasks == {}
        assert dict(rt.stats.representation) == {}
        assert rt.stats.ops_issued == 0

    def test_a_raising_select_node_issues_no_fill(self):
        rt = Runtime(RuntimeConfig(workers=1), mapper=_NoNode())
        region, _ = _world(rt)
        rt.begin_trace(3)
        with pytest.raises(RuntimeError, match="no node"):
            rt.fill(region, "x", 1.0)
        rt.end_trace(3)
        assert rt.stats.ops_issued == rt.stats.single_tasks == 0
        assert rt.tracer._traces[3].recorded == []
        assert list(region.storage("x")) == list(np.arange(16.0))


# ------------------------------------------------ projections per issue
@pytest.mark.parametrize("workers", [1, 2])
def test_a_first_issue_projects_once_per_requirement(monkeypatch, workers):
    """The plan's projections feed the checks' footprints, the physical
    analysis, the worker units and the commit's write-backs alike."""
    rt = Runtime(RuntimeConfig(n_nodes=2, workers=workers))
    src = rt.create_region("src", 16, {"x": "f8"})
    dst = rt.create_region("dst", 16, {"x": "f8"})
    src.storage("x")[:] = np.arange(16.0)
    src_p = equal_partition(f"s{src.uid}", src, 8)
    dst_p = equal_partition(f"d{dst.uid}", dst, 8)
    calls = []
    project_all = RegionRequirement.project_all

    def counting(self, points):
        calls.append(len(points))
        return project_all(self, points)

    monkeypatch.setattr(RegionRequirement, "project_all", counting)
    rt.index_launch(copy_over, 8, (src_p, ModularFunctor(8, 3)), dst_p)
    assert calls == [8, 8]
    if workers == 2:
        assert rt.backend.stats.parallel_launches == 1
    expected = np.arange(16.0).reshape(8, 2)[[(i + 3) % 8 for i in range(8)]]
    assert list(dst.storage("x")) == list(expected.ravel())


# --------------------------------------------------- a hook that raises
class Boom(Exception):
    """What an armed hook raises."""


class Fuse:
    """Counts the calls of one hook and raises from the k-th on, until
    re-armed: a retry of the hook fails too."""

    def __init__(self):
        self.hook, self.left = None, 0

    def __reduce__(self):  # a worker's copy is never armed
        return Fuse, ()

    def arm(self, hook, k):
        self.hook, self.left = hook, k

    def tick(self, hook):
        if hook == self.hook:
            self.left -= 1
            if self.left <= 0:
                raise Boom(hook)


class Tripping(ProjectionFunctor):
    """``lambda i: (a * i) % m``, ticking the fuse on every evaluation."""

    def __init__(self, fuse, a, m):
        self.fuse, self.a, self.m = fuse, a, m

    def apply(self, point):
        self.fuse.tick("apply")
        return Point((self.a * point[0]) % self.m)

    def apply_batch(self, points):
        self.fuse.tick("apply")
        return (self.a * points[:, :1]) % self.m


class TrippingMapper(DefaultMapper):
    """The default mapper, ticking the fuse in each of its hooks."""

    def __init__(self, fuse):
        self.fuse = fuse

    def shard_batch(self, points, domain, n_nodes):
        self.fuse.tick("shard_batch")
        return super().shard_batch(points, domain, n_nodes)

    def slice_domain(self, points, domain, n_nodes):
        self.fuse.tick("slice_domain")
        return super().slice_domain(points, domain, n_nodes)

    def select_node(self, task_launch, n_nodes):
        self.fuse.tick("select_node")
        return n_nodes - 1


def _extra(fuse, point):
    fuse.tick("argmap")
    return (0.125 * point[0],)


HOOKS = ("apply", "shard_batch", "slice_domain", "select_node", "argmap")
ROUTES = ("idx", "fallback", "noidx", "early", "single")


def _route_config(route, dcr, tracing, bulk_tracing, analysis_cache,
                  n_nodes, workers=1):
    if route == "early":
        dcr, tracing, bulk_tracing = False, True, False
    elif route == "idx" and tracing and not dcr:
        bulk_tracing = True  # else the launch expands early
    return RuntimeConfig(
        n_nodes=n_nodes, dcr=dcr, tracing=tracing, bulk_tracing=bulk_tracing,
        analysis_cache=analysis_cache, index_launches=route != "noidx",
        workers=workers,
    )


def _build(config):
    fuse = Fuse()
    rt = Runtime(config, mapper=TrippingMapper(fuse))
    recorder = GraphRecorder().attach(rt)
    region, part = _world(rt)
    return SimpleNamespace(
        rt=rt, fuse=fuse, recorder=recorder, region=region, part=part,
        safe=Tripping(fuse, 3, 8), unsafe=Tripping(fuse, 1, 4),
        argmap=ArgumentMap(partial(_extra, fuse)),
    )


def _issue(w, route):
    """The launch under test, by route; returns its values."""
    if route == "single":
        return [w.rt.execute_task(bump, w.part[(2,)], args=(1.0, 0.5)).get()]
    functor = w.unsafe if route == "fallback" else w.safe
    fmap = w.rt.index_launch(bump, 8, (w.part, functor), args=(1.0,),
                             point_args=w.argmap)
    return [fmap.get((i,)) for i in range(8)]


def _plain(w):
    fmap = w.rt.index_launch(bump, 8, w.part, args=(0.25, 0.0))
    return [fmap.get((i,)) for i in range(8)]


_LEAVES = (Region, Subregion, Partition, Task, ProjectionFunctor, Mapper,
           FunctionType, MethodType, BuiltinFunctionType, partial, type)


def _state(obj, seen):
    """A comparable snapshot of an object graph: containers and plain
    objects walked, arrays by bytes, handles to user or data objects by
    identity."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, (enum.Enum, np.generic, itertools.count)):
        return repr(obj)
    if isinstance(obj, _LEAVES):
        return ("id", id(obj))
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if id(obj) in seen:
        return ("seen", id(obj))
    seen.add(id(obj))
    if isinstance(obj, dict):
        return [(_state(k, seen), _state(v, seen)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_state(x, seen) for x in obj])
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(_state(x, seen)) for x in obj)
    if hasattr(obj, "__dict__"):
        attrs = vars(obj)
    else:
        slots = itertools.chain.from_iterable(
            getattr(cls, "__slots__", ()) for cls in type(obj).__mro__
        )
        attrs = {name: getattr(obj, name) for name in slots
                 if hasattr(obj, name)}
    return (type(obj).__name__, [
        (name, _state(value, seen)) for name, value in attrs.items()
        if name != "_profiler"
    ])


def digest(w):
    """Everything an issue may change but a pure memo fill: the stats,
    logical and physical analysis, the tracer, the id counters, the
    physical templates, the logs, the graph and the bytes."""
    rt, recorder = w.rt, w.recorder
    return _state({
        "stats": [(f.name, getattr(rt.stats, f.name))
                  for f in fields(rt.stats)],
        "logical": rt.logical,
        "physical": rt.physical,
        "tracer": rt.tracer,
        "counters": (rt._op_counter, rt._task_counter, rt._fault_ordinal),
        "templates": rt.replay_cache._physical,
        "safety_log": [id(verdict) for verdict in rt.safety_log],
        "poison_log": [(e.task_id, e.launch, e.point) for e in rt.poison_log],
        "graph": (recorder.ops, recorder.tasks, recorder.logical_edges,
                  recorder.physical_edges),
        "bytes": w.region.storage("x"),
        "rng": rt._rng.getstate(),
    }, set())


def _run(config, route, hook, k, warm):
    """Issue the route's launch with ``hook`` armed to raise from its k-th
    call on, inside a traced program, beside a reference runtime that never
    arms it; check nothing moved on a raise, and that both then agree."""
    w, ref = _build(config), _build(config)
    tracing = config.tracing
    for side in (w, ref):
        if tracing:
            side.rt.begin_trace(1)
        _plain(side)
        if warm:
            _issue(side, route)
        if tracing:
            side.rt.end_trace(1)
            side.rt.begin_trace(1)
        _plain(side)
    before = digest(w)
    w.fuse.arm(hook, k)
    try:
        _issue(w, route)
    except Boom:
        assert digest(w) == before
    else:
        _issue(ref, route)  # the call ran: keep the reference in step
    w.fuse.arm(None, 0)
    out = []
    for side in (w, ref):
        values = [_issue(side, route), _plain(side)]
        if tracing:
            side.rt.end_trace(1)
        out.append((values, side.region.storage("x").tobytes()))
    assert out[0] == out[1]


@settings(max_examples=120)
@given(
    route=st.sampled_from(ROUTES),
    hook=st.sampled_from(HOOKS),
    k=st.integers(1, 3),
    warm=st.booleans(),
    dcr=st.booleans(),
    tracing=st.booleans(),
    bulk_tracing=st.booleans(),
    analysis_cache=st.booleans(),
    n_nodes=st.sampled_from([2, 3]),
)
def test_a_raising_hook_leaves_no_trace(route, hook, k, warm, dcr, tracing,
                                        bulk_tracing, analysis_cache,
                                        n_nodes):
    config = _route_config(route, dcr, tracing, bulk_tracing,
                           analysis_cache, n_nodes)
    _run(config, route, hook, k, warm)


@pytest.mark.parametrize("route,hook", [
    ("idx", "apply"), ("idx", "shard_batch"), ("idx", "argmap"),
    ("fallback", "apply"), ("single", "select_node"),
])
def test_a_raising_hook_leaves_no_trace_on_the_worker_pool(route, hook):
    config = _route_config(route, True, True, False, True, 2, workers=2)
    for warm in (False, True):
        _run(config, route, hook, 1, warm)
