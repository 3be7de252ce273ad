"""Every stage span is one stage record's, priced by the cost model.

On every route a launch can take — launch-granular (with DCR, and sliced
without it), Listing 3's fallback loop, No-IDX, early expansion, a single
task, and the worker pool — the issuance through physical spans of one
launch are exactly the ``(stage, node)`` rows it charged to
``PipelineStats.representation``, one span per row, and each carries the
``sim_cost_s`` that ``CostModel.record_time`` prices that row at.
"""

import pytest

from repro.core.projection import ModularFunctor
from repro.data.partition import equal_partition
from repro.machine.costmodel import CostModel
from repro.obs import Profiler
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.pipeline import Stage

CONTROL = (Stage.ISSUANCE, Stage.LOGICAL, Stage.DISTRIBUTION, Stage.PHYSICAL)

ROUTES = {
    "idx": dict(workers=1),
    "idx_sliced": dict(workers=1, dcr=False, tracing=False),
    "noidx": dict(workers=1, index_launches=False),
    "early_expansion": dict(workers=1, dcr=False, tracing=True),
    "workers2": dict(workers=2),
}


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


def _launches(rt):
    """(launch, |D|) pairs: an aligned launch, one whose non-injective
    write fails its dynamic check under IDX, and a fill."""
    region = rt.create_region("r", 16, {"x": "f8"})
    part = equal_partition(f"p{region.uid}", region, 8)
    return [
        (lambda: rt.index_launch(bump, 8, part), 8),
        (lambda: rt.index_launch(bump, 8, (part, ModularFunctor(4, 1))), 8),
        (lambda: rt.fill(region, "x", 2.0), 1),
    ]


def _expected_cost(cost, cfg, span, units, volume):
    """The row's price, from its units and what its span says it did."""
    attrs = span.args
    aggregate = attrs.get("aggregate", False)
    if aggregate or span.stage == Stage.PHYSICAL:
        points = units
    else:
        points = attrs.get("points", volume)
    return cost.record_time(
        span.stage, units, points, granular=not aggregate, dcr=cfg.dcr,
        remote=span.node != 0, args=1, colors=volume,
        replayed=attrs.get("replayed", False),
    )


def _run(route):
    cost = CostModel()
    prof = Profiler(costmodel=cost)
    rt = Runtime(RuntimeConfig(n_nodes=4, profiler=prof, **ROUTES[route]))
    seen = []
    try:
        launches = _launches(rt)
        for _ in range(3):  # record, then replay: physical templates
            rt.begin_trace(1)
            for launch, volume in launches:
                before, first = dict(rt.stats.representation), len(prof.spans)
                launch()
                rows = {
                    key: units - before.get(key, 0)
                    for key, units in rt.stats.representation.items()
                    if key[0] in CONTROL and units != before.get(key, 0)
                }
                spans = [
                    s for s in prof.spans[first:]
                    if s.stage in CONTROL and not s.args.get("fallback")
                ]
                seen.append((rows, spans, volume))
            rt.end_trace(1)
    finally:
        rt.backend.shutdown()
    return cost, rt, seen


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_each_stage_span_is_one_row_priced_by_the_cost_model(route):
    cost, rt, seen = _run(route)
    kinds = set()
    for rows, spans, volume in seen:
        assert sorted((s.stage, s.node) for s in spans) == sorted(rows)
        for span in spans:
            units = rows[span.stage, span.node]
            assert span.args["sim_cost_s"] == pytest.approx(
                _expected_cost(cost, rt.config, span, units, volume)
            ), (span.name, span.node, span.args)
            kinds.add("task loop" if span.args.get("aggregate")
                      else "launch")
            kinds.add(("replayed", span.args.get("replayed")))
    # Anti-vacuity: the route ran the task loop, and under IDX also
    # launch-granular launches, replaying physical analysis when traced.
    assert "task loop" in kinds
    if rt.config.index_launches:
        assert "launch" in kinds
    if rt.config.index_launches and rt.config.dcr:
        assert ("replayed", True) in kinds
    if route == "workers2":
        assert rt.backend.stats.parallel_launches > 0


def test_record_time_prices_each_stage_at_its_granularity():
    cost = CostModel()
    live = cost.t_physical_task + cost.t_physical_log_factor * 3  # |P| = 8
    cases = [
        (("issuance", 1, 8), dict(granular=True), cost.t_issue_launch),
        (("issuance", 8, 8), dict(granular=False), 8 * cost.t_issue_task),
        (("logical", 1, 8), dict(granular=True, args=2),
         2 * cost.t_logical_launch_arg),
        (("logical", 8, 8), dict(granular=False), 8 * cost.t_logical_task),
        (("distribution", 1, 5), dict(granular=True),
         5 * cost.t_shard_point),
        (("distribution", 2, 5), dict(granular=True, dcr=False),
         2 * cost.t_slice_process),
        (("distribution", 3, 3), dict(granular=False, dcr=False),
         3 * cost.t_single_send),
        (("distribution", 3, 3), dict(granular=False, dcr=False,
                                      remote=False), 0.0),
        (("physical", 4, 4), dict(granular=True, colors=8), 4 * live),
        (("physical", 4, 4), dict(granular=True, replayed=True),
         cost.t_replay_cache_hit + 4 * cost.t_trace_replay_task),
        (("execution", 4, 4), dict(granular=True), 0.0),
    ]
    for args, kwargs, expected in cases:
        assert cost.record_time(*args, **kwargs) == pytest.approx(
            expected), (args, kwargs)
