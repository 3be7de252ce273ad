"""Execution backends: the per-node tail of a committed index launch.

Issue is two phases (``docs/architecture.md``).  ``Runtime._plan`` runs all
of a launch's user code — the verdict, the distribution and the point
plans — and changes no runtime state; ``Runtime._commit`` then acts on the
resulting :class:`~repro.runtime.runtime.LaunchPlan`.  A launch-granular
plan's commit registers one op in logical analysis and hands the plan to
its backend's :meth:`ExecutionBackend.finish_launch`, which runs physical
analysis and the task bodies.  :class:`ExecutionBackend` owns what every
backend shares — physical analysis on the parent's one analyzer, its
accounting, and the in-process execution loop the task-loop commit also
takes — so the two backends hold only what differs:

* :class:`SerialBackend` runs the task bodies in-process, through the
  execution loop (:meth:`ExecutionBackend.execute`).
* :class:`~repro.exec.parallel.ParallelBackend` has workers run them and
  applies their effects at commit; selected with
  ``RuntimeConfig.workers > 1`` (or env ``REPRO_WORKERS``).

The backend boundary is *after* distribution on purpose: everything up to
the assignment is O(launch) work the paper's control replicas replicate
anyway, while everything below it is the O(|D|_local) per-node work that
Section 5 distributes.  Nothing below the boundary runs user code but the
bodies: the plan already holds every projection and argument.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import List

from repro.fault.plan import InjectedFaultError
from repro.runtime.futures import FutureMap
from repro.runtime.physical import edge_count
from repro.runtime.pipeline import Stage
from repro.runtime.replay import prepared_calls

__all__ = ["ExecutionBackend", "SerialBackend", "resolve_backend"]


class ExecutionBackend:
    """Finish one launch-granular plan.

    Everything between the commit's logical analysis and the task bodies
    is the same on every backend and is written once, here:
    :meth:`analyze_launch` runs physical analysis against the runtime's one
    live analyzer in serial plan order (sorted node, then the node's
    points), then the accounting it leaves behind.  A backend adds only
    how the bodies run and how their effects reach the parent's regions.
    """

    name = "abstract"

    def __init__(self, rt):
        self.rt = rt

    def finish_launch(self, plan, op_id: int) -> FutureMap:
        """Physical analysis and execution of ``plan``, whose launch
        logical analysis registered as op ``op_id``."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (worker processes)."""

    def map_region(self, region) -> None:
        """Place a new region's storage where this backend's bodies run
        (see :class:`~repro.exec.parallel.ParallelBackend`).  In-process
        backends leave it in plain numpy storage."""

    # ------------------------------------------------- the shared launch tail
    def analyze_launch(self, plan, op_id: int) -> List[int]:
        """Physical analysis of ``plan``, what it leaves in
        ``PipelineStats`` and the graph recorder, and the plan's physical
        rows; returns the fresh task ids, in serial plan order."""
        rt = self.rt
        t_phys = rt.profiler.mark()
        task_ids = list(islice(rt._task_counter, len(plan.plans)))
        tdeps_lists, replayed = self._physical(plan, task_ids)
        # A launch-user replay knows its edge count without building the
        # edges; they are materialised only for a graph recorder, below.
        rt.stats.physical_dependences += edge_count(tdeps_lists)
        if rt.graph_recorder is not None:
            name = plan.launch.task.name
            for tid, (node, point_plan), tdeps in zip(
                task_ids, plan.plans, tdeps_lists
            ):
                rt.graph_recorder.record_task(
                    tid, f"{name}{tuple(point_plan.point)}", op_id, node,
                )
                rt.graph_recorder.record_physical_edges(tdeps)
        rt.stats.overlap_queries = rt.physical.overlap_queries
        rt._charge(plan, plan.rows[Stage.PHYSICAL], t_phys, each="tasks",
                   op=op_id, replayed=replayed)
        return task_ids

    def _physical(self, plan, task_ids):
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
        launch, sig = plan.launch, plan.sig
        cache = rt.replay_cache if rt.config.analysis_cache else None
        templated = plan.replay and cache is not None
        if templated:
            ptemplate = cache.get_physical(sig)
            if ptemplate is not None:
                tdeps_lists = rt.physical.replay_tasks(task_ids, ptemplate)
                if tdeps_lists is not None:
                    rt.stats.analysis_cache_hits += 1
                    if prof.enabled:  # names the launch only when traced
                        prof.instant("cache.physical_replay", Stage.PHYSICAL,
                                     launch=launch.name)
                    return tdeps_lists, True
                # Validation failed (foreign state change): drop the
                # template and fall back to live analysis below.
                cache.store.drop_group(sig, "physical")
                rt.stats.analysis_cache_invalidations += 1
                prof.instant("cache.physical_bail", Stage.PHYSICAL,
                             launch=launch.name)
        tdeps_lists, ptemplate = rt.physical.record_launch(
            task_ids,
            [point_plan.accesses for _, point_plan in plan.plans],
            {req.region.uid for req in launch.requirements}
            if templated else None,
        )
        if ptemplate is not None:
            cache.put_physical(sig, ptemplate)
        return tdeps_lists, False

    # ------------------------------------------------------ the execution loop
    def execute(self, plan, task_ids) -> dict:
        """Run ``plan``'s bodies in this process, task ``task_ids[i]`` the
        ``i``-th of its ``(node, PointPlan)`` list — in that order, or
        shuffled when the launch is order-free and the config asks;
        returns the values by point.

        One loop over the prepared calls, ``(point, context, (*regions,
        *args))``: the expansion template's, kept for a reissued plan list
        (:meth:`~repro.runtime.replay.ExpansionTemplate.reissue`), so a
        steady replay builds nothing per point and a task costs its body
        call; else prepared here, one context per point.  Per launch:
        reading the body (``launch.task.fn``, which a caller may rebind),
        the fault injector and the profiler, and charging
        ``tasks_executed`` and the plan's execution rows.  On a raise the
        charge is the tasks whose inline fault check passed — a body that
        raised counts, a fired fault does not — and an
        :class:`InjectedFaultError` leaves stamped with its task id and
        point.
        """
        rt = self.rt
        task = plan.launch.task
        fn = task.fn
        calls = plan.calls
        if calls is None:
            calls = prepared_calls(plan.plans, rt)
        if rt.config.shuffle_intra_launch and plan.order_free:
            work = list(zip(task_ids, calls))
            rt._rng.shuffle(work)
            task_ids = [tid for tid, _ in work]
            calls = [call for _, call in work]
        inj = rt.fault_injector
        prof = rt.profiler if rt.profiler.enabled else None
        values = {}
        ran = 0
        try:
            for tid, (point, ctx, args) in zip(task_ids, calls):
                if inj is not None:
                    inj.fire_inline(point, ctx.node)
                ran += 1
                t0 = prof.now() if prof is not None else None
                values[point] = fn(ctx, *args)
                if prof is not None:
                    # Spans group by base task name; the point is an arg.
                    name = task.name + ("" if point is None
                                        else str(tuple(point)))
                    prof.phase(
                        f"execute:{task.name.split('(', 1)[0]}",
                        Stage.EXECUTION, t0, node=ctx.node, task=name,
                        point=str(tuple(point)) if point is not None else None,
                    )
        except InjectedFaultError as exc:
            if exc.task_id is None:
                exc.task_id = tid
            if exc.point is None and point is not None:
                exc.point = tuple(point)
            raise
        finally:
            rt.stats.tasks_executed += ran
            rows = plan.rows[Stage.EXECUTION]
            if ran < len(calls):
                ran_on = Counter(ctx.node for _, ctx, _ in calls[:ran])
                rows = [((Stage.EXECUTION, node), n, n)
                        for node, n in ran_on.items()]
            rt._charge(plan, rows, None)
        return values


class SerialBackend(ExecutionBackend):
    """The in-process pipeline tail — reference semantics for every backend."""

    name = "serial"

    def finish_launch(self, plan, op_id: int) -> FutureMap:
        fmap = FutureMap(label=plan.launch.name)
        fmap.fill(self.execute(plan, self.analyze_launch(plan, op_id)))
        return fmap


def resolve_backend(rt, workers: int) -> ExecutionBackend:
    """The backend for ``workers`` (1 = serial; >1 = process pool)."""
    if workers <= 1:
        return SerialBackend(rt)
    from repro.exec.parallel import ParallelBackend

    return ParallelBackend(rt, workers)
