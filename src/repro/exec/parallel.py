"""The shard-parallel execution backend.

Fans the task bodies of a verified index launch out across the worker
pool and commits the results so that every observable is byte-identical
to :class:`~repro.exec.backend.SerialBackend`: region contents, future
values, dependence edges, ``PipelineStats``, analyzer state, RNG
consumption, and Chrome-trace schema.  Workers expand and execute;
physical analysis is the parent's, at commit, through the tail both
backends share (:meth:`ExecutionBackend.analyze_launch`).

**The dispatch unit is a worker's slice of a launch**, as §5 gives each
node one: node ``i`` of the sorted assignment goes to worker ``i %
workers``, whose *unit* holds the points of all its nodes in serial order.
One unit is one plan, undo set, future, ladder entry and result, so a
launch costs O(workers) frames and objects however many nodes it spans;
rule 3 below is why grouping nodes changes nothing observable.

The determinism contract rests on three rules:

1. **Commit after collect.**  Nothing in the parent mutates — no stats, no
   counters, no task ids, no analyzer state, no pickled write-back, no
   RNG — until every unit has answered.  Any failure before that point
   (worker exception, pickling error, broken pool) abandons the dispatch:
   every unit still running is waited for or its worker reset, every
   in-place write is undone (below), and the launch re-runs through the
   owned serial backend, which reproduces serial behavior exactly,
   including exceptions and their partial effects.  Each abandonment is
   counted by a constant reason code (:data:`FALLBACK_REASONS`).
2. **Commit in serial order.**  Results are committed by global ordinal
   (the serial plan order): the parent's analyzer records the tasks one
   by one, pickled write-backs scatter and recorded reductions re-apply in
   the serial (then optionally shuffled) execution order, and futures fill
   the FutureMap in that same order.
3. **Only verified launches.**  Eligibility requires a launch the safety
   analysis verified (static or hybrid): point tasks are pairwise
   non-interfering — their write footprints are disjoint, exclusive
   capabilities — so no dependence edge, retirement, or footprint can
   cross units, the bodies may run anywhere in any order, and a worker
   could learn nothing about analyzer state that the parent's own scan
   does not decide.  Anything
   else — unverified, trusted-without-validation, single-node, or a
   launch whose REDUCE requirement shares fields of a region with another
   requirement (its bodies would observe half-applied reductions) — runs
   on the serial backend.

**In-place writes.**  Rule 3 is also why a region mapped into the pipe
workers (:mod:`repro.exec.shm`) can be written where it lives: each
worker's write footprints are its exclusive capability on the one
instance, so the writes commute and need no commit at all.  Rule 1 then
holds through undo slots: before each point's body its worker saves the
bytes the body may overwrite, and every retry, respawn and fallback
scatters the saved bytes of the attempt back — only once that attempt's
worker has replied or been killed and reaped, so no late write can land
after the restore.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.data.collection import covering_subregions
from repro.data.privileges import REDUCTION_OPS, Privilege
from repro.exec.backend import ExecutionBackend, SerialBackend
from repro.fault.plan import RetryPolicy
from repro.exec.plan import (
    PLAN_MEMO_CAP,
    PartitionEntry,
    ReqTemplate,
    ShardPlan,
    dumps,
    loads,
    priv_token,
    region_spec,
    subset_ref,
)
from repro.exec.pool import get_pool
from repro.exec.shm import (
    PROGRESS_BYTES,
    Footprint,
    in_place,
    map_region,
    release_instances,
)
from repro.exec.transport import (
    ResultCancelled,
    ResultTimeout,
    WorkerLost,
    resolve_transport,
)
from repro.runtime.futures import FutureMap
from repro.runtime.pipeline import Stage

__all__ = [
    "FALLBACK_REASONS",
    "ParallelBackend",
    "ParallelExecStats",
]

#: Why a dispatch fell back to serial: the codes ``_ParallelBail`` carries,
#: counted in ``ParallelExecStats.fallback_reasons``.
FALLBACK_REASONS = (
    "task_unpicklable", "plan_unpicklable", "submit_broken", "submit_failed",
    "no_undo_shm", "worker_error", "ladder_exhausted", "result_inconsistent",
    "value_unpicklable",
)


def _empty_delta() -> Dict[str, set]:
    """A unit attempt's staged worker-cache delta, nothing staged yet."""
    return {key: set() for key in
            ("tasks", "regions", "partition_colors", "subsets")}


#: the delta of a plan built from a memoized skeleton: nothing to ship
_NO_DELTA = _empty_delta()


class _ParallelBail(Exception):
    """Abandon a dispatch and fall back to the serial backend: ``code`` is
    one of :data:`FALLBACK_REASONS`, ``detail`` free text."""

    def __init__(self, code: str, detail: str = "", poison: bool = False):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail
        self.poison = poison


class _InfraFailure(Exception):
    """A unit attempt lost to infrastructure, not to application code.

    ``kind`` drives the recovery ladder: ``broken``/``timeout`` mean the
    worker process itself is gone or wedged (tier 2: respawn), while
    ``corrupt``/``cancelled`` mean the process may be fine and a plain
    resubmission can succeed (tier 1: same-worker retry).
    """

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass
class _Footprints:
    """The data one unit moves — pure in (launch signature, unit) and in
    which regions are mapped, so a valid :class:`_PlanMemo` keeps it across
    issues.  A verified launch's write footprints are pairwise-disjoint
    subregions, so they are written back (or undone) as subregions,
    order-free; none becomes an index set on the way."""

    #: what the unit reads of fields it does not map, plus current
    #: write-footprint bytes so partial writes gather back intact (see
    #: ``covering_subregions``); mapped fields read the instance itself.
    reads: List[Footprint]
    #: per unit point, one per (WRITE/READ_WRITE requirement, field), in
    #: the worker's gather order.
    writes: List[List[Footprint]]
    in_place: bool                  # some write lands in a mapped instance
    nbytes: int                     # arena bytes one attempt's slots take
    read_bytes: int                 # what ``reads`` pickles into a plan
    pickled_writes: int             # write footprints not written in place


def _unit_footprints(requirements, local_projs) -> _Footprints:
    groups: Dict[Tuple[int, str], list] = {}
    writes: List[List[Footprint]] = [[] for _ in local_projs]
    for ri, req in enumerate(requirements):
        priv = req.privilege.privilege
        if priv is Privilege.REDUCE:
            continue
        for li, subs in enumerate(local_projs):
            for fname in req.resolved_fields():
                groups.setdefault((req.region.uid, fname), []).append(subs[ri])
                if priv is not Privilege.READ:
                    writes[li].append(Footprint([subs[ri]], fname))
    covers: Dict[tuple, list] = {}  # fields of one requirement share a cover
    reads: List[Footprint] = []
    for (uid, fname), subs in groups.items():
        if in_place(subs[0].region, fname):
            continue
        key = (uid, *(sub.subset.uid for sub in subs))
        if key not in covers:
            covers[key] = covering_subregions(subs)
        reads.extend(Footprint(group, fname) for group in covers[key])
    undo = [fp.nbytes for point in writes for fp in point if fp.in_place]
    return _Footprints(
        reads, writes, bool(undo), sum(undo) + PROGRESS_BYTES * bool(undo),
        read_bytes=sum(fp.count * fp.dtype.itemsize for fp in reads),
        pickled_writes=sum(len(point) for point in writes) - len(undo),
    )


@dataclass
class _UndoSet:
    """A unit's undo slots and progress counter in its worker's segment:
    the wire descriptors a plan names, the parent views
    :meth:`ParallelBackend._restore` reads, and what an attempt charges."""

    slots: List[List[Optional[tuple]]]       # ShardPlan.undo_slots
    done: tuple                              # ShardPlan.undo_done
    #: per unit point [(subregion, field, parent view)]
    views: List[list]
    progress: np.ndarray
    seg: Any                                 # the segment it is laid out in
    n_slots: int
    nbytes: int


def _undo_set(seg, footprints: _Footprints) -> _UndoSet:
    """The unit's slots at fixed offsets in ``seg``: the progress counter
    at 0, then one slot per in-place write footprint in gather order."""

    def slot(offset, count, dtype):
        return ((seg.name, offset, count, dtype.str),
                np.ndarray(count, dtype=dtype, buffer=seg.mm, offset=offset))

    done, progress = slot(0, 1, np.dtype(np.int64))
    offset, slots, views = PROGRESS_BYTES, [], []
    for point in footprints.writes:
        point_slots, point_views = [], []
        for fp in point:
            descriptor = None
            if fp.in_place and fp.nbytes:
                descriptor, view = slot(offset, fp.count, fp.dtype)
                point_views.append((fp.sub, fp.fname, view))
                offset += fp.nbytes
            point_slots.append(descriptor)
        slots.append(point_slots)
        views.append(point_views)
    return _UndoSet(
        slots, done, views, progress, seg,
        n_slots=sum(map(len, views)),
        nbytes=sum(view.nbytes for point in views for _, _, view in point),
    )


@dataclass
class _Skeleton:
    """A unit's memoized plan (see :class:`_PlanMemo`)."""

    gen: int                        # worker generation the skeleton targets
    plan: ShardPlan                 # empty-delta skeleton
    #: pickled ``plan``, set only when it carried no read data at build; it
    #: ships as-is while ``undo``, the set it names, is still the unit's.
    blob: Optional[bytes]
    undo: Optional[_UndoSet]


@dataclass(eq=False)
class _Unit:
    """One worker's slice of a launch: what is pure in (launch signature,
    assignment), which a valid :class:`_PlanMemo` keeps, and the live state
    of the current attempt, which every dispatch starts afresh."""

    k: int                                   # the worker
    #: (node, its domain points) for every node the worker is given, in
    #: serial order — what the fault injector arms, node by node
    runs: List[Tuple[int, list]]
    nodes: List[int]                         # per point
    points: list
    ordinals: List[int]
    local_projs: List[List[Any]]
    footprints: _Footprints
    skeleton: Optional[_Skeleton] = None     # set only through a memo
    #: the undo set, kept for as long as the worker keeps its segment
    undo: Optional[_UndoSet] = None
    # --- the current attempt
    gen: int = -1                            # worker generation at submit
    mark: float = 0.0                        # profiler mark at submit
    future: Any = None
    staged: Optional[dict] = None            # cache delta of this attempt
    payload: Any = None
    #: the attempt's progress counter: how many points' slots the worker
    #: completed (None: nothing staged or nothing written in place).
    progress: Optional[np.ndarray] = None


def _build_units(plan, workers: int) -> List[_Unit]:
    """Node ``i`` of the plan's sorted nodes to worker ``i % workers``: one
    unit per worker that gets any, its points in serial (ordinal) order,
    each point's subregions those the plan projected."""
    runs = [[] for _ in range(min(workers, len(plan.assignment)))]
    ordinals = [[] for _ in runs]
    start = 0
    for i, node in enumerate(sorted(plan.assignment)):
        local = plan.assignment[node]
        runs[i % workers].append((node, local))
        ordinals[i % workers].extend(range(start, start + len(local)))
        start += len(local)
    units = []
    for k, (run, ords) in enumerate(zip(runs, ordinals)):
        local_projs = [
            [access[0] for access in plan.plans[o][1].accesses] for o in ords
        ]
        units.append(_Unit(
            k=k, runs=run, nodes=[node for node, local in run for _ in local],
            points=[point for _, local in run for point in local],
            ordinals=ords, local_projs=local_projs,
            footprints=_unit_footprints(plan.launch.requirements,
                                        local_projs),
        ))
    return units


def _templates(requirements, local_projs, caches, staged):
    """Requirement templates, and the partition colors a unit projects
    onto that the worker lacks (staged in ``staged``)."""
    known_subsets = set(caches.subsets)
    reqs = []
    part_entries: Dict[int, PartitionEntry] = {}
    for ri, req in enumerate(requirements):
        reqs.append(
            ReqTemplate(
                priv=priv_token(req.privilege),
                fields=req.fields,
                resolved_fields=tuple(req.resolved_fields()),
                partition_uid=req.partition.uid,
                region_uid=req.region.uid,
                functor=req.functor,
            )
        )
        for subs in local_projs:
            sub = subs[ri]
            color_key = (req.partition.uid, tuple(sub.color))
            if (
                color_key in caches.partition_colors
                or color_key in staged["partition_colors"]
            ):
                continue
            staged["partition_colors"].add(color_key)
            entry = part_entries.get(req.partition.uid)
            if entry is None:
                entry = PartitionEntry(
                    uid=req.partition.uid,
                    region_uid=req.region.uid,
                    colors=[],
                )
                part_entries[req.partition.uid] = entry
            entry.colors.append(
                (tuple(sub.color), subset_ref(sub.subset, known_subsets))
            )
    staged["subsets"] = known_subsets - caches.subsets
    return reqs, list(part_entries.values())


@dataclass
class ParallelExecStats:
    """Backend-local accounting.

    Deliberately *not* part of :class:`PipelineStats`: the pipeline tables
    must stay byte-identical between backends, so everything specific to
    the worker pool lives here.  A *unit* is one worker's slice of one
    launch (module docstring).
    """

    parallel_launches: int = 0      # launches committed from unit results
    serial_launches: int = 0        # ineligible launches run serially
    fallbacks: int = 0              # dispatches abandoned mid-flight
    #: fallbacks by FALLBACK_REASONS code; the values sum to ``fallbacks``
    fallback_reasons: Counter = field(default_factory=Counter)
    shards_dispatched: int = 0      # units committed (one per worker used)
    tasks_shipped: int = 0
    # --- recovery ladder (see docs/fault-tolerance.md)
    shard_retries: int = 0          # tier 1: unit resubmissions, same worker
    worker_respawns: int = 0        # tier 2: worker process replacements
    shard_timeouts: int = 0         # hangs converted into respawns
    backoff_total_s: float = 0.0    # wall-clock slept between attempts
    stale_shipments_dropped: int = 0  # cache deltas from respawned gens
    # --- hot-path engine (see docs/hot-path.md)
    batched_commit_ops: int = 0     # vectorized scatter/reduce applications
    batched_commit_tasks: int = 0   # tasks whose effects committed batched
    # --- plan memo (replay path; see docs/service.md).  perfbench divides
    # plan_memo_hits by shards_dispatched: both count units.
    plan_memo_hits: int = 0         # unit plans rebuilt from a skeleton
    plan_memo_blob_reuse: int = 0   # units whose pickled blob shipped as-is
    worker_plan_hits: int = 0       # units a worker ran from its plan memo


@dataclass
class _PlanMemo:
    """Memoized unit construction for one launch signature.

    Everything in a plan except its live parts — pickled read values and
    undo slots — is pure in (signature, assignment, args): the units
    (points, ordinals, nodes, projections, footprints), requirement
    templates, and the empty cache deltas of a warm worker.  This memo
    keeps the units, and each unit its plan skeleton with the pickled blob
    and the undo set it names.  On mapped regions there are no read
    values, and the set sits at fixed offsets in the worker's segment, so
    a steady launch ships the blob as it is: per unit, O(1) work and no
    pickling.  The worker keys its own memo by those bytes
    (``exec/worker.py``), so a steady replay is not unpickled, installed
    or expanded there either.

    Validity is checked structurally on every use (assignment identity,
    args bytes, worker generation, profiler state); anything stale falls
    back to the ordinary build and overwrites the memo.  The args are
    compared pickled, as a blob ships them: ``==`` cannot compare numpy
    arrays and misses an array mutated in place.  Faulty runs (an armed
    injector) bypass the memo entirely so directive-consumption order is
    untouched.
    """

    args: bytes                     # ``dumps(launch.args)``
    assignment_key: Any             # identity token (the sharding cache's dict)
    profile: bool
    units: Optional[List[_Unit]] = None     # from the first dispatch


@dataclass
class _Dispatch:
    """A launch's units from submission on, and what collecting validated
    (by global ordinal: the plan's serial order)."""

    units: List[_Unit]
    #: per-unit rebuild-and-resubmit closure for the recovery ladder.
    resubmit: Any
    values: List[Any] = field(default_factory=list)  # decoded future values
    #: sparse, by global ordinal: only the points that have any
    writes: Dict[int, list] = field(default_factory=dict)
    reduces: Dict[int, list] = field(default_factory=dict)
    spans: Dict[int, tuple] = field(default_factory=dict)  # (start, end, k)
    # (worker index, worker generation at success, staged cache delta):
    # committed only while the generation still holds — a respawn wipes the
    # worker state a stale shipment would otherwise claim it has.
    shipments: List[Tuple[int, int, dict]] = field(default_factory=list)


class ParallelBackend(ExecutionBackend):
    """Task bodies on the worker pool, committed in serial order."""

    name = "parallel"

    def __init__(self, rt, workers: int):
        super().__init__(rt)
        self.workers = workers
        # Resolved eagerly so a bad RuntimeConfig.transport/REPRO_TRANSPORT
        # fails at Runtime construction, not mid-dispatch.
        self.transport = resolve_transport(
            getattr(rt.config, "transport", None)
        )
        self.serial = SerialBackend(rt)
        self.stats = ParallelExecStats()
        self._pool = None
        self._task_blobs: Dict[int, bytes] = {}
        self._poisoned_tasks: set = set()
        #: sig -> _PlanMemo, LRU-capped at PLAN_MEMO_CAP signatures.
        self._plan_memo: "OrderedDict[tuple, _PlanMemo]" = OrderedDict()
        #: the units of the dispatch in flight: a fallback undoes them all.
        self._units: List[_Unit] = []

    # ------------------------------------------------------------ plumbing
    def pool(self):
        if self._pool is None or self._pool.closed:
            self._pool = get_pool(self.workers, self.transport)
            # Fresh workers hold nothing a memoized skeleton assumes, and a
            # shut-down pool released the instances its footprints mapped.
            self._plan_memo.clear()
        # Re-point every fetch: pools are shared across runtimes, and
        # teardown errors should land in *this* runtime's metrics/trace.
        self._pool.profiler = self.rt.profiler
        return self._pool

    def map_region(self, region) -> None:
        """Back a new region by a segment the workers map (exec/shm.py),
        wherever the transport can map one."""
        arena = self.pool().arena
        if arena.available and not map_region(region):
            arena.stats.instance_fallbacks += 1

    def shutdown(self) -> None:
        """Unlink this runtime's region instances; storage stays readable.

        The runtime issues no further launches: workers that installed a
        region keep its mapping, and a launch after the release would
        write it in place without undo slots."""
        release_instances(self.rt._regions)

    # ---------------------------------------------------------- eligibility
    def _eligible(self, launch, assignment, safe_order_free: bool) -> bool:
        cfg = self.rt.config
        if not (cfg.validate_safety and safe_order_free):
            # Only launches the analysis actually *verified* are known to
            # be pairwise non-interfering; trusted launches may interfere
            # and their in-launch dependence edges only the serial path
            # reproduces.
            return False
        if len(assignment) < 2 or self.workers < 2:
            return False
        if launch.task.uid in self._poisoned_tasks:
            return False
        reqs = launch.requirements
        if any(req.partition is None for req in reqs):
            # Subregion-only requirements have no projection to shard.
            return False
        for i, a in enumerate(reqs):
            if a.privilege.privilege is not Privilege.REDUCE:
                continue
            fa = set(a.resolved_fields())
            for j, b in enumerate(reqs):
                if j == i or b.privilege.privilege is Privilege.REDUCE:
                    continue
                if b.region.uid == a.region.uid and fa & set(
                    b.resolved_fields()
                ):
                    # The body would read (or write around) a region it is
                    # also reducing into; recorded-reduction replay cannot
                    # interleave with that exactly.
                    return False
        return True

    # -------------------------------------------------------- entry point
    def finish_launch(self, plan, op_id: int) -> FutureMap:
        if not self._eligible(plan.launch, plan.assignment, plan.order_free):
            self.stats.serial_launches += 1
            return self.serial.finish_launch(plan, op_id)
        t_par = self.rt.profiler.mark()
        try:
            dispatch = self._submit_launch(plan)
            self._collect_launch(plan, dispatch)
        except _ParallelBail as bail:
            return self._fallback(plan, op_id, bail)
        fmap = self._finish_dispatch(plan, op_id, dispatch, t_par)
        # Every future was collected and no undo slot is needed any more:
        # the slots are free for the next dispatch.
        self._units = []
        self._pool.arena.rewind_all()
        return fmap

    def _fallback(self, plan, op_id: int, bail) -> FutureMap:
        """Tier 3: abandon a bailed dispatch, undo what its workers wrote
        in place, and re-run serially."""
        prof = self.rt.profiler
        self.stats.fallbacks += 1
        self.stats.fallback_reasons[bail.code] += 1
        if self._pool is not None and not self._pool.closed:
            self._quiesce()
            for unit in self._units:
                self._restore(unit)
            # The slots are forfeit; their segments unmap once the units
            # holding views into them are dropped.
            self._pool.arena.abandon_all()
        self._units = []
        if bail.poison:
            self._poisoned_tasks.add(plan.launch.task.uid)
        prof.instant(
            "parallel.fallback",
            Stage.EXECUTION,
            launch=plan.launch.name,
            code=bail.code,
            reason=bail.detail,
        )
        return self.serial.finish_launch(plan, op_id)

    def _quiesce(self) -> None:
        """Make sure no worker of the bailed dispatch can still write: a
        unit still pending is awaited within the shard timeout, or its
        worker is reset — killed and reaped."""
        pool = self._pool
        policy = getattr(self.rt, "retry_policy", None) or RetryPolicy()
        for unit in self._units:
            if unit.future is None or unit.future.done():
                continue
            try:
                unit.future.result(timeout=policy.shard_timeout_s)
            except Exception:
                if pool.generation(unit.k) == unit.gen:
                    pool.reset_worker(unit.k)

    def _restore(self, unit: _Unit) -> None:
        """Scatter back the undo slots of every point whose gather the
        current attempt completed.  Only ever called once that attempt's
        worker has replied or been killed and reaped (exec/shm.py): a slot
        the worker was still gathering is not counted, and its point's
        body never ran."""
        if unit.progress is None:
            return
        done = unit.undo.views[: int(unit.progress[0])]
        for views in done:
            for sub, fname, view in views:
                sub.scatter(fname, view)
        self._pool.arena.stats.undo_restores += sum(map(len, done))

    def _finish_dispatch(self, plan, op_id, dispatch, t_par) -> FutureMap:
        """Account, ship cache deltas, and commit one collected dispatch."""
        prof = self.rt.profiler
        self.stats.parallel_launches += 1
        self.stats.shards_dispatched += len(dispatch.units)
        self.stats.tasks_shipped += len(plan.plans)
        pool = self._pool
        for k, gen, staged in dispatch.shipments:
            if pool.generation(k) != gen:
                # Respawned since this unit's attempt was submitted: the
                # worker state this shipment claims no longer exists.
                self.stats.stale_shipments_dropped += 1
                continue
            if staged is _NO_DELTA:
                continue
            caches = pool.caches[k]
            caches.tasks |= staged["tasks"]
            caches.regions |= staged["regions"]
            caches.partition_colors |= staged["partition_colors"]
            caches.subsets |= staged["subsets"]
        if prof.enabled:  # names the launch only when traced
            prof.phase("parallel.shards", Stage.EXECUTION, t_par,
                       launch=plan.launch.name, workers=self.workers,
                       units=len(dispatch.units), points=len(plan.plans))
            prof.count("parallel.dispatches", 1.0)
        return self._commit(plan, op_id, dispatch)

    def _submit_launch(self, plan) -> _Dispatch:
        launch = plan.launch
        self._units = []
        self.pool()  # a replaced pool invalidates every memo, first
        memo = self._memo_for(plan.sig, launch, plan.assignment)

        # The units, built from the plan's projections — signature-pure,
        # so a valid memo serves them.
        units = memo.units if memo is not None else None
        if units is None:
            units = _build_units(plan, self.workers)
            if memo is not None:
                memo.units = units

        try:
            task_blob = self._task_blobs.get(launch.task.uid)
            if task_blob is None:
                task_blob = dumps(launch.task)
                self._task_blobs[launch.task.uid] = task_blob
        except Exception as exc:
            raise _ParallelBail("task_unpicklable", str(exc), poison=True)

        # A memoized unit still holds the last dispatch's attempt.
        for unit in units:
            unit.future = unit.progress = None
        self._units = units
        build = (plan, memo, task_blob)
        for unit in units:
            self._submit(build, unit)
        return _Dispatch(units=units,
                         resubmit=lambda unit: self._submit(build, unit))

    def _memo_for(self, sig, launch, assignment):
        """The launch signature's plan memo, or None.

        Valid while nothing the plan bakes in can have moved — same
        assignment object (the sharding cache returns a stable dict per
        mapping decision), args that pickle to the same bytes, no
        per-point args, no armed fault injector (directive-consumption
        order is sacred), and the same profiler state.  Stale memos are
        overwritten; unpicklable args get none."""
        enabled = self.rt.profiler.enabled
        if self.rt.fault_injector is not None or launch.point_args is not None:
            return None
        try:
            args = dumps(launch.args)
        except Exception:
            return None
        memo = self._plan_memo.get(sig)
        if memo is not None and (
            memo.args != args
            or memo.assignment_key is not assignment
            or memo.profile != enabled
        ):
            memo = None
        if memo is None:
            memo = _PlanMemo(
                args=args,
                assignment_key=assignment,
                profile=enabled,
            )
            self._plan_memo[sig] = memo
            while len(self._plan_memo) > PLAN_MEMO_CAP:
                self._plan_memo.popitem(last=False)
        else:
            self._plan_memo.move_to_end(sig)
        return memo

    def _submit(self, build, unit: _Unit, depth: int = 0):
        """Build and submit one unit — at first, and again on every ladder
        resubmission.  Units are submitted in worker order, which keeps
        the fault injector's directive-consumption order (worker, then
        node)."""
        launch = build[0].launch
        pool = self._pool
        k = unit.k
        item = self._build_plan(build, unit)
        try:
            (unit.future,) = pool.submit_shards(k, [item])
        except WorkerLost:
            # The worker's death surfaced at *submit* time (the transport
            # noticed its child was gone before we handed it this plan).
            # Respawn and rebuild against the emptied caches; deaths that
            # surface at result time go through the capped ladder in
            # _collect_unit instead.
            if depth >= 3:
                raise _ParallelBail(
                    "submit_broken", f"worker {k} broken at submit {depth} "
                    f"times"
                )
            pool.reset_worker(k)
            self._restore(unit)
            self.stats.worker_respawns += 1
            self._note_recovery(
                "respawn", launch, unit,
                _InfraFailure("broken", "pool broken at submit"),
            )
            # Same pause the collect-path ladder takes: a respawn is a
            # respawn, wherever the death happened to surface.
            self._backoff(depth + 1)
            self._submit(build, unit, depth + 1)
        except Exception as exc:
            raise _ParallelBail("submit_failed", str(exc))

    def _build_plan(self, build, unit: _Unit) -> Tuple[bytes, ShardPlan]:
        """(Re)build one unit plan.  Retries rebuild from scratch: a
        respawned worker's caches are empty, so the fresh plan ships
        everything it needs; a surviving worker's install is idempotent,
        so re-shipped state is harmless."""
        _, memo, _ = build
        prof = self.rt.profiler
        gen = self._pool.generation(unit.k)
        # Memoized skeleton fast path: the plan's structural payload
        # (reqs, regions, partitions, points) is a pure function of the
        # launch signature once the worker caches are warm, so only the
        # footprint data and undo slots are live.
        # Validity: same worker generation (a respawn empties the caches
        # the skeleton assumes warm).
        sk = unit.skeleton if memo is not None else None
        if sk is not None and sk.gen != gen:
            sk = None
        read_data, undo = self._stage_footprints(unit, gen)
        blob = None
        if sk is None:
            plan, staged = self._build_skeleton(build, unit, read_data, undo)
        else:
            self.stats.plan_memo_hits += 1
            staged = _NO_DELTA
            if sk.blob is not None and undo is sk.undo:
                # No read values and the very slots the blob names.
                plan, blob = sk.plan, sk.blob
                self.stats.plan_memo_blob_reuse += 1
            else:
                plan = replace(
                    sk.plan, read_data=read_data,
                    undo_slots=undo.slots if undo else None,
                    undo_done=undo.done if undo else None,
                )
        if blob is None:
            try:
                blob = dumps(plan)
            except Exception as exc:
                raise _ParallelBail("plan_unpicklable", str(exc),
                                    poison=True)
        unit.staged = staged
        unit.gen = gen
        unit.mark = prof.now() if prof.enabled else 0.0

        # Memoize the skeleton only once the worker holds everything the
        # plan assumes (no staged deltas, task blob already cached) and no
        # fault directives were baked in — then the fast path's empty delta
        # is exact, not an approximation.  A hit whose worker moved to a
        # new segment re-memoizes, so the next launch ships its blob again.
        if memo is not None and (sk is None or undo is not sk.undo) and (
            plan.task_blob is None
            and not (plan.faults or staged["regions"]
                     or staged["partition_colors"] or staged["subsets"])
        ):
            unit.skeleton = _Skeleton(
                gen=gen,
                plan=replace(plan, read_data=()) if read_data else plan,
                blob=None if read_data else blob,
                undo=undo,
            )
        return blob, plan

    def _build_skeleton(self, build, unit: _Unit, read_data, undo):
        """The plan against the worker's *current* committed cache view,
        and the cache delta shipping it stages."""
        plan, _, task_blob = build
        launch = plan.launch
        k = unit.k
        caches = self._pool.caches[k]
        staged = _empty_delta()

        # Region skeletons new to this worker.
        regions = []
        for req in launch.requirements:
            uid = req.region.uid
            if uid not in caches.regions and uid not in staged["regions"]:
                regions.append(region_spec(req.region))
                staged["regions"].add(uid)

        reqs, partitions = _templates(launch.requirements, unit.local_projs,
                                      caches, staged)

        extra = None
        if launch.point_args is not None:
            # The ArgumentMap's values, as the plan evaluated them.
            n = len(launch.args)
            extra = [plan.plans[o][1].args[n:] for o in unit.ordinals]

        plan = ShardPlan(
            nodes=unit.nodes,
            points=[tuple(p) for p in unit.points],
            ordinals=unit.ordinals,
            task_uid=launch.task.uid,
            task_blob=None if launch.task.uid in caches.tasks else task_blob,
            args=launch.args,
            point_extra_args=extra,
            reqs=reqs,
            regions=regions,
            partitions=partitions,
            read_data=read_data,
            profile=self.rt.profiler.enabled,
            undo_slots=undo.slots if undo else None,
            undo_done=undo.done if undo else None,
        )
        staged["tasks"].add(launch.task.uid)
        injector = self.rt.fault_injector
        if injector is not None:
            # Once per node, in serial order: consumption is as it was when
            # every node was its own dispatch.
            plan.faults = [
                directive for node, local in unit.runs
                for directive in injector.arm_shard(k, node, local)
            ]
        return plan, staged

    def _stage_footprints(self, unit: _Unit, gen: int):
        """One attempt's live plan parts, ``(read_data, undo)``: pickled
        read entries for the fields the worker does not map, and the unit's
        :class:`_UndoSet` for the ones it writes in place, its counter
        zeroed as ``unit.progress``.  A same-worker retry reuses the slots:
        it follows the worker's reply and :meth:`_restore`."""
        arena = self._pool.arena
        stats = arena.stats
        footprints = unit.footprints
        read_data = [fp.inline() for fp in footprints.reads]
        unit.progress = None
        if arena.available:
            stats.read_fallbacks += len(read_data)
            stats.bytes_staged += footprints.read_bytes
            stats.write_fallbacks += footprints.pickled_writes
        if not footprints.in_place:
            return read_data, None
        # In-place writes are never made without a way to undo them.
        seg = arena.segment(unit.k, gen, footprints.nbytes)
        if seg is None:
            raise _ParallelBail("no_undo_shm")
        undo = unit.undo
        if undo is None or undo.seg is not seg:
            undo = unit.undo = _undo_set(seg, footprints)
        undo.progress[0] = 0
        unit.progress = undo.progress
        stats.write_slots += undo.n_slots
        stats.bytes_slotted += undo.nbytes
        return read_data, undo

    def _collect_launch(self, plan, dispatch: _Dispatch) -> None:
        """Await every unit of one submitted launch and validate the
        results into ``dispatch``, recovering per unit (retry -> respawn),
        bailing to serial only when a unit exhausts its retry policy."""
        pool = self._pool
        policy = getattr(self.rt, "retry_policy", None) or RetryPolicy()
        for unit in dispatch.units:
            unit.payload = self._collect_unit(
                plan.launch, pool, policy, unit, dispatch.resubmit
            )
            # Stamp the shipment with the generation that *produced* it
            # (unit.gen, set at submit), never the generation at collect
            # time: a sibling unit's recovery may reset this worker after
            # the result was banked but before it was collected, and a
            # collect-time stamp would launder that stale state past the
            # commit-side generation check.  (Found by the commit-protocol
            # model checker; see docs/formal-verification.md.)
            dispatch.shipments.append((unit.k, unit.gen, unit.staged))

        # Validate everything before committing.
        values = dispatch.values = [None] * len(plan.plans)
        for unit in dispatch.units:
            result = unit.payload
            pool.arena.stats.worker_releases += result.shm_released
            self.stats.worker_plan_hits += result.plan_hit
            try:
                unit_values = loads(result.values)
            except Exception as exc:
                raise _ParallelBail("value_unpicklable", str(exc),
                                    poison=True)
            sparse = result.writes or result.reduces or result.spans
            if len(unit_values) != len(unit.ordinals) or sparse and not (
                result.writes.keys() | result.reduces.keys()
                | result.spans.keys()
            ) <= set(unit.ordinals):
                raise _ParallelBail(
                    "result_inconsistent",
                    f"worker {unit.k}: result does not match its plan",
                )
            for ordinal, value in zip(unit.ordinals, unit_values):
                values[ordinal] = value
            dispatch.writes.update(result.writes)
            dispatch.reduces.update(result.reduces)
            offset = unit.mark - result.t0
            for ordinal, (start, end) in result.spans.items():
                dispatch.spans[ordinal] = (start + offset, end + offset,
                                           unit.k)

    # ------------------------------------------------------ unit collection
    def _collect_unit(self, launch, pool, policy, unit, resubmit):
        """Await one unit's result, climbing the recovery ladder on
        infrastructure failures.

        Tier 1 (same-worker retry) handles failures that leave the process
        usable: a corrupt result blob, a future cancelled because another
        unit's recovery reset this worker.  Tier 2 (respawn) handles a
        dead, wedged or unaccountable process.  Exhausting both raises
        ``_ParallelBail`` (tier 3, serial fallback); a worker-side
        *application* error skips the ladder entirely — it is
        deterministic, so the serial re-run reproduces it exactly.

        Every rung undoes the failed attempt's in-place writes before it
        resubmits, and every rung gets there only once the attempt's
        writer is done: it replied (corrupt), or it was killed and reaped
        (a respawn here, a sibling's earlier reset when stale).
        """
        retries = respawns = 0
        while True:
            payload, failure = self._await(unit, policy)
            if failure is None:
                if payload[0] == "error":
                    raise _ParallelBail("worker_error", payload[1],
                                        poison=True)
                return payload[1]

            # Worker process gone, wedged, or in an unknown state (and not
            # already replaced by an earlier unit's recovery) -> the
            # attempt needs a respawn.
            worker_stale = pool.generation(unit.k) != unit.gen
            need_respawn = (
                failure.kind in ("broken", "timeout", "transport")
                and not worker_stale
            )
            if need_respawn:
                if respawns >= policy.respawns:
                    self._bail_unrecoverable(pool, unit, failure,
                                             retries, respawns)
                respawns += 1
                if failure.kind == "timeout":
                    self.stats.shard_timeouts += 1
                self.stats.worker_respawns += 1
                pool.reset_worker(unit.k)
                self._note_recovery("respawn", launch, unit, failure)
            elif retries < policy.same_worker_retries or worker_stale:
                # A stale-generation failure is not the worker's fault; the
                # resubmission goes to the already-fresh process.
                retries += 1
                self.stats.shard_retries += 1
                self._note_recovery("retry", launch, unit, failure)
            elif respawns < policy.respawns:
                # Same-worker retries exhausted: escalate, the process may
                # be corrupted in a way that does not kill it.
                respawns += 1
                self.stats.worker_respawns += 1
                pool.reset_worker(unit.k)
                self._note_recovery("respawn", launch, unit, failure)
            else:
                self._bail_unrecoverable(pool, unit, failure, retries,
                                         respawns)
            self._backoff(retries + respawns)
            self._restore(unit)
            resubmit(unit)

    @staticmethod
    def _await(unit, policy):
        """One attempt's decoded payload, or the infrastructure failure
        that lost it: ``(payload, None)`` or ``(None, failure)``."""
        try:
            raw = unit.future.result(timeout=policy.shard_timeout_s)
        except WorkerLost as exc:
            return None, _InfraFailure("broken", str(exc) or "worker died")
        except ResultTimeout:
            return None, _InfraFailure(
                "timeout", f"no result within {policy.shard_timeout_s}s"
            )
        except ResultCancelled:
            return None, _InfraFailure(
                "cancelled", "future cancelled by a worker reset"
            )
        except Exception as exc:
            return None, _InfraFailure("transport", str(exc))
        try:
            return loads(raw), None
        except Exception as exc:
            return None, _InfraFailure("corrupt", str(exc))

    def _backoff(self, attempt: int) -> None:
        """Capped exponential, wall-clock-only pause before a retry."""
        policy = getattr(self.rt, "retry_policy", None) or RetryPolicy()
        delay = policy.backoff_s(attempt)
        if delay > 0:
            time.sleep(delay)
            self.stats.backoff_total_s += delay

    def _bail_unrecoverable(self, pool, unit, failure, retries, respawns):
        """Tier 3: abandon the dispatch for the serial fallback.

        Every worker is reset — in-flight futures of sibling units die
        with their workers, and nothing about any worker's state can be
        trusted after a dispatch this broken.  The fallback then undoes
        every unit, the ones that already succeeded included."""
        for j in range(pool.n):
            pool.reset_worker(j)
        raise _ParallelBail(
            "ladder_exhausted",
            f"worker {unit.k}'s unit unrecoverable after {retries} retries "
            f"and {respawns} respawns: {failure}"
        )

    def _note_recovery(self, kind, launch, unit, failure) -> None:
        """One recovery-ladder transition: an instant and a counter."""
        prof = self.rt.profiler
        prof.instant(f"recovery.{kind}", Stage.EXECUTION, launch=launch.name,
                     worker=unit.k, failure=failure.kind)
        prof.count("recovery.events", 1.0, kind=kind, failure=failure.kind)

    # -------------------------------------------------------------- commit
    def _commit(self, plan, op_id, dispatch) -> FutureMap:
        rt = self.rt
        prof = rt.profiler
        launch, plans = plan.launch, plan.plans
        total = len(plans)
        self.analyze_launch(plan, op_id)
        fmap = FutureMap(label=launch.name)

        # --- execution commit: apply effects in serial (or shuffled) order.
        order = list(range(total))
        if rt.config.shuffle_intra_launch and plan.order_free:
            rt._rng.shuffle(order)
        region_by_uid = {
            req.region.uid: req.region for req in launch.requirements
        }
        self._commit_effects(plans, dispatch, order, region_by_uid)
        values = dispatch.values
        fmap.fill({plans[g][1].point: values[g] for g in order})
        rt.stats.tasks_executed += total
        rt._charge(plan, plan.rows[Stage.EXECUTION], None)
        if dispatch.spans:  # the workers timed their bodies: profiled
            span_name = f"execute:{launch.task.name}"
            for g in order:
                span = dispatch.spans.get(g)
                if span is None:
                    continue
                node, point = plans[g][0], plans[g][1].point
                start, end, k = span
                prof.ingest_span(
                    span_name,
                    Stage.EXECUTION,
                    node,
                    start,
                    end,
                    task=f"{launch.task.name}{tuple(point)}",
                    point=str(tuple(point)),
                    worker=k,
                )
        return fmap

    def _commit_effects(self, plans, dispatch, order, region_by_uid) -> None:
        """Apply pickled write-backs and recorded reduces in commit order
        (writes to mapped fields already landed in place).

        Writes: only verified launches are dispatched, and the cross-check
        proves all write footprints of a launch pairwise disjoint, so each
        lands in its own subregion, order-free — a box as one slice copy,
        with no index set built or concatenated — and counts one batched
        op per (region, field) however many footprints that is.  Reduces:
        ``np.ufunc.at`` applies duplicate indices sequentially in
        index-array order, so concatenating recorded calls per (region,
        field, operator) in commit order accumulates bit-identically to
        replaying them one by one; a group is flushed early whenever the
        *operator* on its (region, field) changes, preserving the
        interleaving.  Eligibility already guarantees writes and reduces
        never share a (region, field), so the two commute.
        """
        stats = self.stats
        writes, reduces = dispatch.writes, dispatch.reduces
        pending_by_key: Dict[Tuple[int, str], Tuple[str, list, list]] = {}
        if writes or reduces:
            for g in order:
                back = writes.get(g)
                if back:
                    accesses = plans[g][1].accesses
                    for ri, fname, vals in back:
                        accesses[ri][0].scatter(fname, vals)
                for uid, fname, idx, vals, opname in reduces.get(g, ()):
                    key = (uid, fname)
                    vals = np.asarray(vals).ravel()
                    pending = pending_by_key.get(key)
                    if pending is not None and pending[0] != opname:
                        self._apply_reduces(region_by_uid, key, pending)
                        stats.batched_commit_ops += 1
                        pending = None
                    if pending is None:
                        pending_by_key[key] = (opname, [idx], [vals])
                    else:
                        pending[1].append(idx)
                        pending[2].append(vals)
        for key, pending in pending_by_key.items():
            self._apply_reduces(region_by_uid, key, pending)
        # Every task writes back the same (requirement, field) list.
        accesses = plans[order[0]][1].accesses
        written = {
            (accesses[ri][0].region.uid, fname)
            for ri, fname, _ in writes.get(order[0], ())
        }
        stats.batched_commit_ops += len(written) + len(pending_by_key)
        stats.batched_commit_tasks += len(order)

    @staticmethod
    def _apply_reduces(region_by_uid, key, pending) -> None:
        """Replay recorded reduce calls on one (region, field), concatenated
        in commit order, exactly as ``Subregion.reduce`` applies a live one:
        duplicate-index accumulation order (and therefore floating point)
        matches the serial backend bit for bit."""
        opname, idx_parts, val_parts = pending
        uid, fname = key
        idx = idx_parts[0] if len(idx_parts) == 1 else np.concatenate(idx_parts)
        vals = val_parts[0] if len(val_parts) == 1 else np.concatenate(val_parts)
        REDUCTION_OPS[opname].fold_at(region_by_uid[uid].storage(fname), idx, vals)
