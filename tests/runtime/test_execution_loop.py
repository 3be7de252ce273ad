"""The execution loop: per point of a steady replay, a body call — nothing
else.

Every in-process body runs through ``ExecutionBackend.execute``: a serial
launch tail, an expanded launch (fallback loop, No-IDX, early expansion)
and a single task.  Its bookkeeping is per launch, and a reissued plan
list keeps its prepared calls (context, accessors, argument tuple), so the
count guards here measure Python calls per point of a steady traced replay
and of a first issue, and the fault tests pin what the loop stamps on an
``InjectedFaultError``.
"""

import sys
from collections import Counter

import pytest

from repro.core.projection import ModularFunctor
from repro.data.partition import equal_partition
from repro.fault import FaultPlan, FaultSpec
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.futures import TaskPoisonedError
from repro.tools.graph import GraphRecorder


@task(privileges=["reads writes"])
def noop(ctx, r):
    pass


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


def calls_in_steady_op(pieces):
    """Python ``call`` events of one steady op — two NOOP launches,
    identity then rotation — by function name."""
    rt = Runtime(RuntimeConfig(workers=1, tracing=True, n_nodes=4))
    region = rt.create_region("loop", 2 * pieces, {"x": "f8"})
    part = equal_partition(f"loop_p{pieces}", region, pieces)
    rotation = ModularFunctor(pieces, 3)

    def op():
        rt.begin_trace(1)
        rt.index_launch(noop, pieces, part)
        rt.index_launch(noop, pieces, (part, rotation))
        rt.end_trace(1)

    for _ in range(6):
        op()
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return calls


class TestCallsPerPoint:
    def test_a_steady_op_makes_no_more_calls(self):
        """The whole steady op, pinned: its issue and stage records are
        per launch, so a rise here is bookkeeping added to every op."""
        assert sum(calls_in_steady_op(16).values()) <= 313

    def test_a_point_costs_its_body_call_alone(self):
        """The replay's contexts, accessors and argument tuples were
        prepared on the plan list's first reissue: no ``__init__`` (of a
        ``TaskContext``) or any other call per point but the body."""
        small, large = calls_in_steady_op(16), calls_in_steady_op(256)
        points = 2 * (256 - 16)
        growth = sum(large.values()) - sum(small.values())
        assert round(growth / points, 1) <= 1.0
        scaling = {
            name for name in large
            if large[name] - small.get(name, 0) >= points
        }
        assert scaling == {"noop"}


def calls_in_first_issue(pieces):
    """Python ``call`` events of one first issue — a signature no cache
    holds, under an entry budget — of a BUMP launch over a disjoint
    partition through a bijective functor (the aligned shape), by
    function name."""
    rt = Runtime(RuntimeConfig(workers=1, tracing=False,
                               cache_entry_budget=16))
    region = rt.create_region("first", 4 * pieces, {"x": "f8"})
    part = equal_partition(f"first_p{pieces}", region, pieces)
    for offset in range(1, 4):
        rt.index_launch(bump, pieces, (part, ModularFunctor(pieces, offset)))
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        rt.index_launch(bump, pieces, (part, ModularFunctor(pieces, 7)))
    finally:
        sys.setprofile(None)
    return calls


class TestFirstIssueCallsPerPoint:
    """A first issue expands by one batched projection per requirement
    and one plan per point: no ``TaskLaunch``, concrete requirement or
    functor call per point, and no size estimate without a byte budget."""

    def test_a_point_costs_its_plan_its_body_and_its_analysis(self):
        small, large = calls_in_first_issue(16), calls_in_first_issue(256)
        points = 256 - 16
        growth = sum(large.values()) - sum(small.values())
        assert growth / points <= 24
        for name in ("point_task", "project", "apply", "coerce_point",
                     "__post_init__", "estimate_bytes"):
            assert large[name] == small[name], name


def calls_in_expanded_launch(pieces, index_launches):
    """Python ``call`` events of one BUMP launch run as the task loop, by
    function name: under IDX a non-injective functor fails its dynamic
    check and takes the fallback loop; under No-IDX every launch does.
    Four DCR nodes, so placement and charges spread over nodes."""
    rt = Runtime(RuntimeConfig(workers=1, tracing=False, n_nodes=4,
                               index_launches=index_launches))
    region = rt.create_region("expanded", 2 * pieces, {"x": "f8"})
    part = equal_partition(f"expanded_p{pieces}", region, pieces)
    for offset in range(1, 4):
        rt.index_launch(bump, pieces,
                        (part, ModularFunctor(pieces // 2, offset)))
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        rt.index_launch(bump, pieces, (part, ModularFunctor(pieces // 2, 7)))
    finally:
        sys.setprofile(None)
    if index_launches:
        assert rt.stats.launches_fallback_serial == 4
    return calls


class TestExpandedLoopCallsPerPoint:
    """The fallback loop and No-IDX project, place, charge and run logical
    and physical analysis once per launch — the latter by colour, as the
    launch writes through one disjoint partition; per point remain the
    ids, the plan and the body."""

    @pytest.mark.parametrize("index_launches", [True, False],
                             ids=["fallback", "noidx"])
    def test_a_point_costs_its_plan_its_body_and_no_physical_analysis(
        self, index_launches
    ):
        small = calls_in_expanded_launch(16, index_launches)
        large = calls_in_expanded_launch(256, index_launches)
        points = 256 - 16
        growth = sum(large.values()) - sum(small.values())
        assert growth / points <= 30
        for name in ("point_task", "project", "apply", "coerce_point",
                     "__post_init__", "of", "select_node", "shard",
                     "_charge", "analyze_operation",
                     "record_field_access", "_colour_region"):
            assert large[name] == small[name], name
        for name in ("record_task", "record_task_access", "candidates",
                     "_insert"):
            assert large[name] == small[name] == 0, name


def first_issue_cycle():
    """The physical analyzer after a warm-up cycle and its counters over
    one more: a compact ``first_issue`` program — eight regions of 32
    blocks, 64 signatures of (region, rotation), one functor column
    folding 32 points onto 16 colours (Listing 3's fallback), a 16-entry
    cache budget, tracing off."""
    rt = Runtime(RuntimeConfig(workers=1, tracing=False, n_nodes=4,
                               cache_entry_budget=16))
    parts = [
        equal_partition(f"cycle_p{i}",
                        rt.create_region(f"cycle{i}", 128, {"x": "f8"}), 32)
        for i in range(8)
    ]
    order = [(i * 5 + 3) % 64 for i in range(64)]

    def cycle(n):
        for sig in order:
            region, column = divmod(sig, 8)
            functor = (ModularFunctor(16, column + 16 * n) if column == 5
                       else ModularFunctor(32, 7 * sig + 1))
            rt.index_launch(bump, 32, (parts[region], functor))

    cycle(0)
    physical = rt.physical
    before = (physical.overlap_tests, physical.users_restamped,
              physical.launch_aligned, rt.stats.launches_fallback_serial)
    cycle(1)
    return (physical.overlap_tests - before[0],
            physical.users_restamped - before[1],
            physical.launch_aligned - before[2],
            rt.stats.launches_fallback_serial - before[3])


def test_a_first_issue_cycle_runs_no_exact_test_and_restamps_no_user():
    """Every launch of the cycle is analysed by colour, the eight fallback
    loops included: no exact overlap test, no per-point user."""
    tests, restamped, aligned, fallbacks = first_issue_cycle()
    assert fallbacks == 8
    assert (tests, restamped, aligned) == (0, 0, 64)


def _kill(point):
    return FaultPlan(specs=(
        FaultSpec(kind="kill", scope="point", target=point, times=1),
    ))


@pytest.mark.parametrize("index_launches", [True, False])
def test_an_inline_fault_names_its_task_and_point(index_launches):
    """A fault fired in the loop — the serial launch tail, or the expanded
    loop under No-IDX — reaches the poisoned map with the id and point of
    the task it fired at, and that task is not counted as executed."""
    rt = Runtime(RuntimeConfig(
        n_nodes=2, workers=1, index_launches=index_launches,
        fault_plan=_kill((2,)),
    ))
    recorder = GraphRecorder().attach(rt)
    region = rt.create_region("faulty", 8, {"x": "f8"})
    part = equal_partition(f"faulty_p{index_launches}", region, 4)
    fmap = rt.index_launch(bump, 4, part)
    with pytest.raises(TaskPoisonedError) as excinfo:
        fmap.get((0,))
    (culprit,) = [
        tid for tid, node in recorder.tasks.items() if node.name == "bump(2,)"
    ]
    assert (excinfo.value.task_id, excinfo.value.point) == (culprit, (2,))
    assert rt.stats.tasks_executed == 2
    assert list(region.storage("x")) == [1, 1, 1, 1, 0, 0, 0, 0]
