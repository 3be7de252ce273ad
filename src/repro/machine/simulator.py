"""Deterministic activity-graph scheduler: the simulation engine.

The machine is a set of *resources* — per node: a control (runtime analysis)
processor, GPUs, and send/receive NIC halves.  A simulation run is a DAG of
:class:`Activity` records, each bound to one resource with a duration and a
set of precedence edges.  Resources are non-preemptive and FIFO in activity
insertion order, so the schedule is computed with a single linear pass:

    start(a)  = max(resource_free[res(a)], max(finish(d) for d in deps(a)))
    finish(a) = start(a) + duration(a)

This is exact for FIFO resources when activities are inserted in a
topological, per-resource priority order — which the workload builders
guarantee by emitting activities in pipeline order.  The engine is O(V + E),
deterministic, and has no wall-clock dependence, so simulated results are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Resource", "Activity", "MachineSimulator"]


@dataclass(frozen=True)
class Resource:
    """A serially-shared execution resource on one node."""

    node: int
    kind: str  # "control" | "gpu" | "nic_out" | "nic_in"

    def __repr__(self) -> str:
        return f"{self.kind}@{self.node}"


@dataclass
class Activity:
    """One scheduled unit of work."""

    aid: int
    resource: Resource
    duration: float
    deps: Tuple[int, ...]
    label: str = ""
    start: float = -1.0
    finish: float = -1.0


class MachineSimulator:
    """Builds and schedules an activity graph over a simulated cluster."""

    def __init__(self, n_nodes: int, profiler=None):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.n_nodes = n_nodes
        self._activities: List[Activity] = []
        self._scheduled = False
        self._profiler = profiler

    # ------------------------------------------------------------- building
    def add(
        self,
        node: int,
        kind: str,
        duration: float,
        deps: Iterable[int] = (),
        label: str = "",
    ) -> int:
        """Append an activity; returns its id.  Dependencies must be ids of
        previously-added activities (enforced), keeping the graph acyclic."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        aid = len(self._activities)
        dep_tuple = tuple(deps)
        for d in dep_tuple:
            if not 0 <= d < aid:
                raise ValueError(f"dependency {d} must precede activity {aid}")
        self._activities.append(
            Activity(aid, Resource(node, kind), float(duration), dep_tuple, label)
        )
        self._scheduled = False
        return aid

    def barrier(self, ids: Sequence[int], node: int = 0) -> int:
        """A zero-cost activity joining many predecessors (sync point).

        Lives on a dedicated ``sink`` resource so it observes completion
        times without occupying any real resource — in particular it must
        not block the control processor, which in Legion's deferred
        execution model runs ahead of compute.
        """
        return self.add(node, "sink", 0.0, deps=ids, label="barrier")

    # ----------------------------------------------------------- scheduling
    def run(self) -> float:
        """Schedule all activities; returns the makespan (seconds)."""
        free: Dict[Resource, float] = {}
        makespan = 0.0
        acts = self._activities
        for act in acts:
            ready = 0.0
            for d in act.deps:
                f = acts[d].finish
                if f > ready:
                    ready = f
            avail = free.get(act.resource, 0.0)
            act.start = ready if ready > avail else avail
            act.finish = act.start + act.duration
            free[act.resource] = act.finish
            if act.finish > makespan:
                makespan = act.finish
        self._scheduled = True
        prof = self._profiler
        if prof is not None and prof.enabled:
            # Re-emit the schedule as simulated-time spans, one track per
            # (node, resource kind).  Sinks are zero-width bookkeeping.
            for act in acts:
                if act.resource.kind == "sink":
                    continue
                prof.add_simulated(
                    act.resource.node,
                    act.resource.kind,
                    act.label or f"activity:{act.aid}",
                    act.start,
                    act.duration,
                    aid=act.aid,
                )
            prof.count("sim.makespan_runs", 1.0)
        return makespan

    # -------------------------------------------------------------- queries
    def activity(self, aid: int) -> Activity:
        return self._activities[aid]

    def finish_time(self, aid: int) -> float:
        if not self._scheduled:
            raise RuntimeError("run() first")
        return self._activities[aid].finish

    def resource_busy_time(self, node: int, kind: str) -> float:
        """Total busy time of one resource (utilization analysis)."""
        res = Resource(node, kind)
        return sum(a.duration for a in self._activities if a.resource == res)

    def critical_path(self) -> List[Activity]:
        """The chain of activities realizing the makespan (diagnostics)."""
        if not self._scheduled:
            raise RuntimeError("run() first")
        if not self._activities:
            return []
        acts = self._activities
        current = max(acts, key=lambda a: a.finish)
        path = [current]
        while True:
            blocker: Optional[Activity] = None
            # Either a dependency or the previous activity on the resource
            # determined our start time.
            for d in current.deps:
                if abs(acts[d].finish - current.start) < 1e-15:
                    blocker = acts[d]
                    break
            if blocker is None:
                prev_on_res = [
                    a
                    for a in acts
                    if a.resource == current.resource
                    and a.aid < current.aid
                    and abs(a.finish - current.start) < 1e-15
                ]
                if prev_on_res:
                    blocker = prev_on_res[-1]
            if blocker is None or blocker.start <= 0 and blocker.aid == 0:
                if blocker is not None:
                    path.append(blocker)
                break
            path.append(blocker)
            current = blocker
        path.reverse()
        return path
