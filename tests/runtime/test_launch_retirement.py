"""Launch-level retirement keeps the physical state flat in history.

A halo reader (Stencil) or a ghost reader or reducer (Circuit) is covered by
no single block writer, only by all of them together.  Retired per access
alone, such users were never retired: every iteration coalesced more task
ids into them and every later writer depended on all of them.  Counted, not
timed: the dependences one step reports and the task ids the analyzer holds
are the same at step 10 and step 200, on both backends, traced or not, with
dependence kernels on or off.  Whether the edges it keeps are the right
ones is ``test_physical_ordering.py``'s business.
"""

import pytest

from repro.apps.circuit import CircuitConfig, build_circuit, run_circuit
from repro.apps.stencil import StencilConfig, build_stencil, run_stencil
from repro.cli import main
from repro.core.domain import Rect
from repro.data.collection import Region
from repro.data.partition import block_partition, equal_partition
from repro.data.privileges import PrivilegeSpec
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.physical import (
    PhysicalAnalyzer,
    _footprint_key,
    _LaunchUser,
    _User,
)


def held_task_ids(analyzer) -> int:
    """Task ids held by every user of every bucket, coalesced ones too."""
    return sum(
        len(bucket.task_ids) if type(bucket) is _LaunchUser
        else sum(len(user.task_ids) for user in bucket)
        for bucket in analyzer._users.values()
    )


def stepper(app, rt):
    if app == "stencil":
        grid = build_stencil(rt, StencilConfig(n=64, blocks=(2, 2)))
        return lambda: run_stencil(rt, grid, steps=1)
    graph = build_circuit(rt, CircuitConfig())
    return lambda: run_circuit(rt, graph, steps=1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kernels", [True, False])
@pytest.mark.parametrize("tracing", [True, False])
@pytest.mark.parametrize("app", ["stencil", "circuit"])
def test_dependences_per_step_are_flat_in_history(app, tracing, kernels, workers):
    rt = Runtime(RuntimeConfig(
        n_nodes=2, index_launches=True, tracing=tracing, kernels=kernels,
        workers=workers,
    ))
    try:
        step = stepper(app, rt)
        seen = {}
        for i in range(1, 201):
            before = rt.stats.physical_dependences
            step()
            if i in (10, 200):
                seen[i] = (
                    rt.stats.physical_dependences - before,
                    held_task_ids(rt.physical),
                )
        assert seen[200] == seen[10]
        assert rt.physical.launch_retired > 0
        if workers == 2:
            assert rt.backend.stats.parallel_launches > 0
    finally:
        rt.backend.shutdown()


def test_a_doubly_held_retired_key_makes_the_launch_unreplayable():
    """A template names what it retires by key; with two users under one
    key it could not say which, so none is captured — the live retirement
    itself still happens."""
    region = Region("line", Rect((0,), (15,)), {"x": "f8"})
    blocks = equal_partition("blocks", region, 4)
    halos = block_partition("halos", region, (4,), halo=1)
    reads, rw = PrivilegeSpec.parse("reads"), PrivilegeSpec.parse("reads writes")
    analyzer = PhysicalAnalyzer()
    analyzer.record_task(0, [(halos[1], reads, ("x",))])
    (user,) = analyzer._users[region.uid]
    twin = _User(list(user.task_ids), user.subregion, user.privilege, user.fields)
    analyzer.install_bucket(region.uid, [user, twin])
    writes = [[(blocks[c], rw, ("x",))] for c in range(4)]
    deps, template = analyzer.record_launch(
        [1, 2, 3, 4], writes, template_regions=[region.uid]
    )
    assert template is None and analyzer.launch_retired == 2
    assert analyzer.active_users(region.uid) == 4
    analyzer.record_task(5, [(halos[1], reads, ("x",))])
    _, template = analyzer.record_launch(
        [6, 7, 8, 9], writes, template_regions=[region.uid]
    )
    key = _footprint_key(halos[1], reads, frozenset({"x"}))
    assert template.launch_retire == [(region.uid, key)]


def test_profile_bench_summary_prints_launch_retired(capsys):
    assert main(["profile", "stencil", "--steps", "3", "--bench-summary"]) == 0
    rows = [
        line.split() for line in capsys.readouterr().out.splitlines()
    ]
    (retired,) = [row[2] for row in rows if row[:2] == ["launch", "retired"]]
    assert int(retired) > 0
    # Beside it, the launches analysed by colour: none here, because the
    # halo reads share every bucket the block writes go to.
    (aligned,) = [row[2] for row in rows if row[:2] == ["launch", "aligned"]]
    assert int(aligned) == 0


@pytest.mark.parametrize("app, edges", [("stencil", 40), ("circuit", 68)])
def test_a_step_depends_on_the_last_step_only(app, edges):
    """Stencil at n = 64 on 2 x 2 blocks: each halo read waits for the four
    block increments, each increment for its block's last one and the four
    halo reads.  Per access alone, step 75 reported 1 224 and growing."""
    rt = Runtime(RuntimeConfig())
    step = stepper(app, rt)
    for _ in range(75):
        before = rt.stats.physical_dependences
        step()
    assert rt.stats.physical_dependences - before == edges
