"""Execution backends for the pipeline tail of an index launch.

``Runtime._issue_index_launch`` handles the launch-level stages — issuance,
safety, logical analysis, distribution — and then hands the per-node tail
(expansion, physical analysis, task-body execution) to its backend.
:class:`ExecutionBackend` owns the part of that tail every backend shares
— expansion, physical analysis on the parent's one analyzer, and their
accounting — so the two backends hold only what differs:

* :class:`SerialBackend` runs the task bodies in-process, through the
  execution loop (:meth:`ExecutionBackend.execute`) every in-process body
  takes.
* :class:`~repro.exec.parallel.ParallelBackend` has workers run them and
  applies their effects at commit; selected with
  ``RuntimeConfig.workers > 1`` (or env ``REPRO_WORKERS``).

The backend boundary is *after* distribution on purpose: everything up to
the assignment is O(launch) work the paper's control replicas replicate
anyway, while everything below it is the O(|D|_local) per-node work that
Section 5 distributes.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Tuple

from repro.fault.plan import InjectedFaultError
from repro.runtime.futures import FutureMap
from repro.runtime.physical import LaunchDependences
from repro.runtime.pipeline import Stage
from repro.runtime.replay import ExpansionTemplate, PointPlan
from repro.runtime.task import TaskContext

__all__ = ["ExecutionBackend", "SerialBackend", "resolve_backend"]


class ExecutionBackend:
    """Finish one distributed index launch.

    Everything between distribution and the task bodies is the same on
    every backend and is written once, here: :meth:`analyze_launch` runs
    expansion, then physical analysis against the runtime's one live
    analyzer in serial plan order (sorted node, then the node's points),
    then the accounting both leave behind.  A backend adds only how the
    bodies run and how their effects reach the parent's regions.
    """

    name = "abstract"

    def __init__(self, rt):
        self.rt = rt

    def finish_launch(
        self,
        launch,
        sig: tuple,
        op_id: int,
        assignment: Dict[int, list],
        replay: bool,
        safe_order_free: bool,
        cache,
    ) -> FutureMap:
        """Expansion -> physical analysis -> execution for ``assignment``."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (worker processes)."""

    def map_region(self, region) -> None:
        """Place a new region's storage where this backend's bodies run
        (see :class:`~repro.exec.parallel.ParallelBackend`).  In-process
        backends leave it in plain numpy storage."""

    # ------------------------------------------------- the shared launch tail
    def analyze_launch(self, launch, sig, op_id, assignment, replay, cache):
        """Expansion, physical analysis and their accounting.

        Returns ``(task_ids, plans, per_node)``: the fresh task ids in
        serial plan order, a callable giving the ``[(node, PointPlan)]``
        list in that order (see :meth:`_expansion`), and the task count of
        every node that has any.
        """
        rt = self.rt
        per_node = {
            node: len(assignment[node])
            for node in sorted(assignment) if assignment[node]
        }
        total = sum(per_node.values())
        plans = self._expansion(launch, sig, assignment, cache, total)
        t_phys = rt.profiler.mark()
        task_ids = list(islice(rt._task_counter, total))
        tdeps_lists, replayed = self._physical(
            launch, sig, replay, cache, task_ids, plans
        )
        self._account(
            launch, op_id, assignment, per_node, task_ids, tdeps_lists,
            replayed, t_phys,
        )
        return task_ids, plans, per_node

    def _expansion(self, launch, sig, assignment, cache, total):
        """Post-distribution expansion: reuse the memoized template
        (analyzer accesses, PhysicalRegion views and args per point) or
        build and store it on the first issue (:meth:`ExpansionTemplate.
        expand`: one batched projection per requirement, one plan per
        point).

        Returns a callable giving the ordered ``[(node, PointPlan)]`` list.
        On a template hit the list is materialised on first call only, so
        a launch that replays its physical template and runs its bodies
        elsewhere never builds it.
        """
        rt = self.rt
        prof = rt.profiler
        t_expand = prof.mark()
        template = cache.get_expansion(sig) if cache is not None else None
        cached = template is not None
        plan_list = None
        if cached:
            rt.stats.analysis_cache_hits += 1
        else:
            template = ExpansionTemplate(
                base_args=launch.args,
                had_point_args=launch.point_args is not None,
            )
            plan_list = template.expand(launch, assignment)
            if cache is not None:
                cache.put_expansion(sig, template)

        def plans() -> List[Tuple[int, PointPlan]]:
            nonlocal plan_list
            if plan_list is None:
                plan_list = template.ordered_plans(launch, assignment)
            if plan_list is None:
                plan_list = [
                    (node, template.point_plan(launch, point))
                    for node in sorted(assignment)
                    for point in assignment[node]
                ]
                template.store_plans(launch, assignment, plan_list)
            return plan_list

        if prof.enabled:
            prof.phase("expansion", "expansion", t_expand,
                       launch=launch.name, cached=cached, points=total)
            if cached:
                prof.instant("cache.expansion_hit", "expansion",
                             launch=launch.name)
        return plans

    def _physical(self, launch, sig, replay, cache, task_ids, plans):
        """Physical analysis, as ``(dependences per task, replayed)``.

        On a trace-validated replay, re-stamp the recorded dependence
        template with the fresh task ids; otherwise — no template yet, or
        one whose validation failed — run the live analyzer over the whole
        launch (:meth:`~repro.runtime.physical.PhysicalAnalyzer.
        record_launch`, which ends with the launch's joint retirement),
        capturing a template on a validated replay so the next one can skip
        it.
        """
        rt = self.rt
        prof = rt.profiler
        templated = replay and cache is not None
        if templated:
            ptemplate = cache.get_physical(sig)
            if ptemplate is not None:
                tdeps_lists = rt.physical.replay_tasks(task_ids, ptemplate)
                if tdeps_lists is not None:
                    rt.stats.analysis_cache_hits += 1
                    if prof.enabled:
                        prof.instant("cache.physical_replay", Stage.PHYSICAL,
                                     launch=launch.name)
                    return tdeps_lists, True
                # Validation failed (foreign state change): drop the
                # template and fall back to live analysis below.
                cache.drop_physical_for(sig)
                rt.stats.analysis_cache_invalidations += 1
                if prof.enabled:
                    prof.instant("cache.physical_bail", Stage.PHYSICAL,
                                 launch=launch.name)
        tdeps_lists, ptemplate = rt.physical.record_launch(
            task_ids,
            [plan.accesses for _, plan in plans()],
            {req.region.uid for req in launch.requirements}
            if templated else None,
        )
        if ptemplate is not None:
            cache.put_physical(sig, ptemplate)
        return tdeps_lists, False

    def _account(
        self, launch, op_id, assignment, per_node, task_ids, tdeps_lists,
        replayed, t_phys,
    ) -> None:
        """What physical analysis leaves in ``PipelineStats``, the graph
        recorder and the profiler.  The representation table is a pure
        additive counter, so one call per node lands the same totals as
        one call per task."""
        rt = self.rt
        prof = rt.profiler
        # A launch-user replay knows its edge count without building the
        # edges; they are materialised only for a graph recorder, below.
        rt.stats.physical_dependences += (
            tdeps_lists.n_edges
            if isinstance(tdeps_lists, LaunchDependences)
            else sum(len(t) for t in tdeps_lists)
        )
        for node, local in per_node.items():
            rt.stats.add_representation(Stage.PHYSICAL, node, local)
        if rt.graph_recorder is not None:
            points = (
                (node, point)
                for node in per_node for point in assignment[node]
            )
            for tid, (node, point), tdeps in zip(
                task_ids, points, tdeps_lists
            ):
                rt.graph_recorder.record_task(
                    tid, f"{launch.task.name}{tuple(point)}", op_id, node
                )
                rt.graph_recorder.record_physical_edges(tdeps)
        rt.stats.overlap_queries = rt.physical.overlap_queries
        if prof.enabled:
            cost = prof.costmodel
            for node, local in per_node.items():
                attrs = dict(op=op_id, launch=launch.name, tasks=local,
                             replayed=replayed)
                if cost is not None:
                    attrs["sim_cost_s"] = (
                        cost.t_replay_cache_hit
                        + cost.t_trace_replay_task * local
                        if replayed
                        else cost.physical_task_time(launch.domain.volume)
                        * local
                    )
                prof.phase("physical", Stage.PHYSICAL, t_phys,
                           node=node, **attrs)

    # ------------------------------------------------------ the execution loop
    def execute(self, fn, work) -> dict:
        """Run ``fn`` in this process for each ``(task_id, (node,
        PointPlan))`` of ``work``, in order; returns the values by point.

        Per task: the context and the body.  Per launch: reading the fault
        injector and profiler, and charging ``tasks_executed`` and the
        execution representation per node.  On a raise the charge is the
        tasks whose inline fault check passed — a body that raised counts,
        a fired fault does not — and an :class:`InjectedFaultError` leaves
        stamped with its task id and point.
        """
        rt = self.rt
        inj = rt.fault_injector
        prof = rt.profiler if rt.profiler.enabled else None
        values = {}
        ran = 0
        try:
            for tid, (node, plan) in work:
                point = plan.point
                if inj is not None:
                    inj.fire_inline(point, node)
                ran += 1
                ctx = TaskContext(point, node, rt)
                t0 = prof.now() if prof is not None else None
                values[point] = fn(ctx, *plan.regions, *plan.args)
                if prof is not None:
                    # Spans group by base task name; the point is an arg.
                    name = plan.task_launch.name
                    prof.phase(
                        f"execute:{name.split('(', 1)[0]}", Stage.EXECUTION,
                        t0, node=node, task=name,
                        point=str(tuple(point)) if point is not None else None,
                    )
        except InjectedFaultError as exc:
            if exc.task_id is None:
                exc.task_id = tid
            if exc.point is None and point is not None:
                exc.point = tuple(point)
            raise
        finally:
            per_node = {}
            for _, (node, _) in work[:ran]:
                per_node[node] = per_node.get(node, 0) + 1
            rt.stats.tasks_executed += ran
            for node, local in per_node.items():
                rt.stats.add_representation(Stage.EXECUTION, node, local)
        return values


class SerialBackend(ExecutionBackend):
    """The in-process pipeline tail — reference semantics for every backend."""

    name = "serial"

    def finish_launch(
        self, launch, sig, op_id, assignment, replay, safe_order_free, cache
    ) -> FutureMap:
        rt = self.rt
        task_ids, plans, _ = self.analyze_launch(
            launch, sig, op_id, assignment, replay, cache
        )
        # --- execution (functionally; order free for verified launches).
        work = list(zip(task_ids, plans()))
        if rt.config.shuffle_intra_launch and safe_order_free:
            rt._rng.shuffle(work)
        fmap = FutureMap(label=launch.name)
        fmap.fill(self.execute(launch.task.fn, work))
        return fmap


def resolve_backend(rt, workers: int) -> ExecutionBackend:
    """The backend for ``workers`` (1 = serial; >1 = process pool)."""
    if workers <= 1:
        return SerialBackend(rt)
    from repro.exec.parallel import ParallelBackend

    return ParallelBackend(rt, workers)
