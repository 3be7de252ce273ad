"""The shard-parallel execution backend.

Fans the task bodies of a verified index launch out across the worker
pool — one shard per node of the distribution assignment, worker affinity
``shard % workers`` — and commits the results so that every observable is
byte-identical to :class:`~repro.exec.backend.SerialBackend`: region
contents, future values, dependence edges, ``PipelineStats``, analyzer
state, RNG consumption, and Chrome-trace schema.  Workers expand and
execute; physical analysis is the parent's, at commit, through the tail
both backends share (:meth:`ExecutionBackend.analyze_launch`).

The determinism contract rests on three rules:

1. **Commit after collect.**  Nothing in the parent mutates — no stats, no
   counters, no task ids, no analyzer state, no pickled write-back, no
   RNG — until every shard has answered.  Any failure before that point
   (worker exception, pickling error, broken pool) abandons the dispatch:
   every shard still running is waited for or its worker reset, every
   in-place write is undone (below), and the launch re-runs through the
   owned serial backend, which reproduces serial behavior exactly,
   including exceptions and their partial effects.
2. **Commit in serial order.**  Shard results are committed in sorted node
   order (the serial plan order): the parent's analyzer records the tasks
   one by one, pickled write-backs scatter and recorded reductions
   re-apply in the serial (then optionally shuffled) execution order, and
   futures fill the FutureMap in that same order.
3. **Only verified launches.**  Eligibility requires a launch the safety
   analysis verified (static or hybrid): point tasks are pairwise
   non-interfering — their write footprints are disjoint, exclusive
   capabilities — so no dependence edge, retirement, or footprint can
   cross shards, the bodies may run anywhere in any order, and a worker
   could learn nothing about analyzer state that the parent's own scan
   does not decide.  Anything
   else — unverified, trusted-without-validation, single-shard, or a
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

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.domain import Point
from repro.data.collection import covering_subregions
from repro.data.privileges import REDUCTION_OPS, Privilege
from repro.exec.backend import ExecutionBackend, SerialBackend
from repro.fault.plan import RetryPolicy
from repro.exec.plan import (
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
    SlotSet,
    in_place,
    map_region,
    release_instances,
    shm_env_enabled,
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
    "ParallelBackend",
    "ParallelExecStats",
    "resolve_plan_memo",
]

#: How many launch signatures keep a memoized shard-plan skeleton (LRU).
_PLAN_MEMO_CAP = 64


def resolve_plan_memo(configured: Optional[bool]) -> bool:
    """Effective plan-memo switch: explicit config wins, else env
    ``REPRO_PLAN_MEMO`` (unset/1 = on, 0 = off — the byte-identity
    ablation kill switch, mirroring ``REPRO_SHM``)."""
    if configured is not None:
        return bool(configured)
    return os.environ.get("REPRO_PLAN_MEMO", "1").strip() != "0"


def _empty_delta() -> Dict[str, set]:
    """A shard attempt's staged worker-cache delta, nothing staged yet."""
    return {
        "tasks": set(),
        "regions": set(),
        "partition_colors": set(),
        "subsets": set(),
    }


class _ParallelBail(Exception):
    """Abandon a dispatch and fall back to the serial backend."""

    def __init__(self, reason: str, poison: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.poison = poison


class _InfraFailure(Exception):
    """A shard attempt lost to infrastructure, not to application code.

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
    """The data one shard moves — pure in (launch signature, shard) and in
    which regions are mapped, so a valid :class:`_PlanMemo` keeps it across
    issues.  A verified launch's write footprints are pairwise-disjoint
    subregions, so they are written back (or undone) as subregions,
    order-free; none becomes an index set on the way."""

    #: what the shard reads of fields it does not map, plus current
    #: write-footprint bytes so partial writes gather back intact (see
    #: ``covering_subregions``); mapped fields read the instance itself.
    reads: List[Footprint]
    #: per local point, one per (WRITE/READ_WRITE requirement, field), in
    #: the worker's gather order.
    writes: List[List[Footprint]]
    in_place: bool                  # some write lands in a mapped instance
    nbytes: int                     # arena bytes one attempt's slots take


def _shard_footprints(requirements, local_projs) -> _Footprints:
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
        reads, writes, bool(undo), sum(undo) + PROGRESS_BYTES * bool(undo)
    )


@dataclass
class _UndoSet:
    """One attempt's undo slots and progress counter: the wire descriptors
    a plan names, the parent views :meth:`ParallelBackend._restore` reads,
    and the arena allocation behind them (None when it spans segments)."""

    slots: List[List[Optional[tuple]]]       # ShardPlan.undo_slots
    done: tuple                              # ShardPlan.undo_done
    #: per local point [(subregion, field, parent view)]
    views: List[list]
    progress: np.ndarray
    taken: Optional[SlotSet]


@dataclass
class _ShardJob:
    """One shard's dispatch state across retry attempts."""

    shard_index: int
    node: int
    k: int                                   # worker affinity
    local: list                              # the node's domain points
    ordinals: List[int]
    local_projs: List[List[Any]]
    footprints: _Footprints
    gen: int = -1                            # worker generation at submit
    mark: float = 0.0                        # profiler mark at submit
    future: Any = None
    staged: Optional[dict] = None            # cache delta of this attempt
    payload: Any = None
    #: the *current* attempt's undo slots, per local point [(subregion,
    #: field, parent view)], and its progress counter (how many points'
    #: slots the worker completed; None: nothing written in place).
    #: Rebound on every (re)submission, read only by :meth:`_restore`.
    undo: List[list] = field(default_factory=list)
    progress: Optional[np.ndarray] = None


@dataclass
class ParallelExecStats:
    """Backend-local accounting.

    Deliberately *not* part of :class:`PipelineStats`: the pipeline tables
    must stay byte-identical between backends, so everything specific to
    the worker pool lives here.
    """

    parallel_launches: int = 0      # launches committed from shard results
    serial_launches: int = 0        # ineligible launches run serially
    fallbacks: int = 0              # dispatches abandoned mid-flight
    shards_dispatched: int = 0
    tasks_shipped: int = 0
    # --- recovery ladder (see docs/fault-tolerance.md)
    shard_retries: int = 0          # tier 1: resubmissions, same worker
    worker_respawns: int = 0        # tier 2: worker process replacements
    shard_timeouts: int = 0         # hangs converted into respawns
    backoff_total_s: float = 0.0    # wall-clock slept between attempts
    stale_shipments_dropped: int = 0  # cache deltas from respawned gens
    # --- hot-path engine (see docs/hot-path.md)
    batched_commit_ops: int = 0     # vectorized scatter/reduce applications
    batched_commit_tasks: int = 0   # tasks whose effects committed batched
    # --- plan-skeleton memo (replay path; see docs/service.md)
    plan_memo_hits: int = 0         # shards rebuilt from a memoized skeleton
    plan_memo_blob_reuse: int = 0   # shards whose pickled blob shipped as-is
    worker_plan_hits: int = 0       # shards a worker ran from its plan memo


@dataclass
class _PlanMemoShard:
    """One shard's memoized plan skeleton (see :class:`_PlanMemo`)."""

    gen: int                        # worker generation the skeleton targets
    shm_on: bool                    # undo slots on at build
    plan: ShardPlan                 # empty-delta skeleton
    #: pickled ``plan``, set only when it carried no read data at build; it
    #: ships as-is whenever the arena retakes ``undo``, the set it names.
    blob: Optional[bytes]
    undo: Optional[_UndoSet]


@dataclass
class _PlanMemo:
    """Memoized shard-plan construction for one launch signature.

    Everything in a plan except its live parts — pickled read values and
    undo slots — is pure in (signature, assignment, args): projections,
    requirement templates, and the empty cache deltas of a warm worker.
    This memo keeps that skeleton per shard, with the pickled blob and the
    undo-slot set it names.  On mapped regions there are no read values,
    and the arena rewinds after every commit, so a steady launch retakes
    each shard's recorded slots (:meth:`ShmArena.retake`) and ships the
    blob as it is: per shard, O(1) work and no pickling.  The worker keys
    its own memo by those bytes (``exec/worker.py``), so a steady replay
    is not unpickled, installed or expanded there either.

    Validity is checked structurally on every use (assignment identity,
    args equality, worker generation, shm/profiler state); anything stale
    falls back to the ordinary build and overwrites the memo.  Faulty runs
    (an armed injector) bypass the memo entirely so directive-consumption
    order is untouched.
    """

    args: tuple
    assignment_key: Any             # identity token (the sharding cache's dict)
    profile: bool
    nodes: List[int]
    flat_points: List[Tuple[int, Point]]
    projections: Optional[List[List[Any]]] = None
    footprints: Dict[int, _Footprints] = field(default_factory=dict)
    shards: Dict[int, _PlanMemoShard] = field(default_factory=dict)


@dataclass
class _Dispatch:
    """Everything collected from a successful round of shard results."""

    nodes: List[int]
    points: List[Tuple[int, Point]]          # (node, point) in serial order
    tasks: List[Any]                          # TaskResult per global ordinal
    values: List[Any]                         # decoded future values
    task_worker: List[Tuple[int, float]]      # (worker index, span offset)
    # (worker index, worker generation at success, staged cache delta):
    # committed only while the generation still holds — a respawn wipes the
    # worker state a stale shipment would otherwise claim it has.
    shipments: List[Tuple[int, int, dict]] = field(default_factory=list)
    #: per global ordinal, the subregion each requirement projects to:
    #: pickled write-backs name their requirement, not an index set.
    projections: List[List[Any]] = field(default_factory=list)


@dataclass
class _InFlight:
    """A launch's shards between submission and collection."""

    nodes: List[int]
    flat_points: List[Tuple[int, Point]]
    projections: List[List[Any]]
    jobs: List[_ShardJob]
    #: per-job rebuild-and-resubmit closure for the recovery ladder.
    resubmit: Any


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
        self.plan_memo_enabled = resolve_plan_memo(
            getattr(rt.config, "plan_memo", None)
        )
        #: sig -> _PlanMemo, LRU-capped at _PLAN_MEMO_CAP signatures.
        self._plan_memo: "OrderedDict[tuple, _PlanMemo]" = OrderedDict()
        #: the shards of the dispatch in flight: a fallback undoes them all.
        self._jobs: List[_ShardJob] = []
        #: Optional action-ordering observer: ``observer(event, info)`` is
        #: called synchronously at every protocol transition (submit,
        #: collect, retry, respawn, fallback, commit shipment handling).
        #: Used by the formal conformance harness (src/repro/formal/) to
        #: compare the real execution order against model-checker traces;
        #: None (the default) costs nothing.
        self.observer = None

    def _observe(self, event: str, **info) -> None:
        if self.observer is not None:
            self.observer(event, info)

    # ------------------------------------------------------------ plumbing
    def pool(self):
        if self._pool is None or self._pool.closed:
            self._pool = get_pool(self.workers, self.transport)
            # Fresh workers hold nothing a memoized skeleton assumes, and a
            # shut-down pool released the instances its footprints mapped.
            self._plan_memo.clear()
        # Re-point every fetch: pools are shared across runtimes, and pool
        # failures should land in *this* runtime's metrics/trace.
        self._pool.profiler = self.rt.profiler
        self._pool.observer = self.observer
        return self._pool

    def _shm_on(self) -> bool:
        cfg = self.rt.config
        return self.pool().arena.available and (
            cfg.shm if cfg.shm is not None else shm_env_enabled()
        )

    def map_region(self, region) -> None:
        """Back a new region by a segment the workers map (exec/shm.py)."""
        if self._shm_on() and not map_region(region):
            self.pool().arena.stats.instance_fallbacks += 1

    def shutdown(self) -> None:
        """Unlink this runtime's region instances; storage stays readable.

        The runtime issues no further launches: workers that installed a
        region keep its mapping, and a launch after the release would
        write it in place without undo slots."""
        release_instances(self.rt._regions)

    def batch_evaluator(self, functor, points: np.ndarray) -> np.ndarray:
        """Chunked functor evaluation for large dynamic checks."""
        return self.pool().apply_batch_chunked(functor, points)

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
    def finish_launch(
        self, launch, sig, op_id, assignment, replay, safe_order_free, cache
    ) -> FutureMap:
        if not self._eligible(launch, assignment, safe_order_free):
            self.stats.serial_launches += 1
            return self.serial.finish_launch(
                launch, sig, op_id, assignment, replay, safe_order_free, cache
            )
        t_par = self.rt.profiler.mark()
        try:
            dispatch = self._collect_launch(
                launch, self._submit_launch(launch, sig, assignment)
            )
        except _ParallelBail as bail:
            return self._fallback(
                launch, sig, op_id, assignment, replay, safe_order_free,
                cache, bail,
            )
        fmap = self._finish_dispatch(
            launch, sig, op_id, assignment, replay, safe_order_free, cache,
            dispatch, t_par,
        )
        # Every future was collected and no undo slot is needed any more:
        # reclaim the arena offsets for the next dispatch.
        self._jobs = []
        self.pool().arena.rewind_all()
        return fmap

    def _fallback(
        self, launch, sig, op_id, assignment, replay, safe_order_free, cache,
        bail,
    ) -> FutureMap:
        """Tier 3: abandon a bailed dispatch, undo what its workers wrote
        in place, and re-run serially."""
        prof = self.rt.profiler
        self.stats.fallbacks += 1
        if self._pool is not None and not self._pool.closed:
            self._quiesce()
            for job in self._jobs:
                self._restore(job)
            # Retired slots stay mapped until the pool closes; their
            # offsets are forfeit.
            self._pool.arena.abandon_all()
        self._jobs = []
        self._observe("fallback", launch=launch.name, reason=bail.reason,
                      poison=bail.poison)
        if bail.poison:
            self._poisoned_tasks.add(launch.task.uid)
        if prof.enabled:
            prof.instant(
                "parallel.fallback",
                Stage.EXECUTION,
                launch=launch.name,
                reason=bail.reason,
            )
        return self.serial.finish_launch(
            launch, sig, op_id, assignment, replay, safe_order_free, cache
        )

    def _quiesce(self) -> None:
        """Make sure no worker of the bailed dispatch can still write: a
        shard still pending is awaited within the shard timeout, or its
        worker is reset — killed and reaped."""
        pool = self._pool
        policy = getattr(self.rt, "retry_policy", None) or RetryPolicy()
        for job in self._jobs:
            if job.future is None or job.future.done():
                continue
            try:
                job.future.result(timeout=policy.shard_timeout_s)
            except Exception:
                if pool.generation(job.k) == job.gen:
                    pool.reset_worker(job.k)

    def _restore(self, job: _ShardJob) -> None:
        """Scatter back the undo slots of every point whose gather the
        current attempt completed.  Only ever called once that attempt's
        worker has replied or been killed and reaped (exec/shm.py): a slot
        the worker was still gathering is not counted, and its point's
        body never ran."""
        if job.progress is None:
            return
        done = job.undo[: int(job.progress[0])]
        for views in done:
            for sub, fname, view in views:
                sub.scatter(fname, view)
        self._pool.arena.stats.undo_restores += sum(map(len, done))

    def _finish_dispatch(
        self, launch, sig, op_id, assignment, replay, safe_order_free, cache,
        dispatch, t_par,
    ) -> FutureMap:
        """Account, ship cache deltas, and commit one collected dispatch."""
        prof = self.rt.profiler
        self.stats.parallel_launches += 1
        self.stats.shards_dispatched += len(dispatch.nodes)
        self.stats.tasks_shipped += len(dispatch.tasks)
        pool = self.pool()
        for k, gen, staged in dispatch.shipments:
            if pool.generation(k) != gen:
                # Respawned since this shard's attempt was submitted: the
                # worker state this shipment claims no longer exists.
                self.stats.stale_shipments_dropped += 1
                self._observe("commit.drop_stale", worker=k, shipment_gen=gen,
                              worker_gen=pool.generation(k))
                continue
            self._observe("commit.ship", worker=k, gen=gen)
            caches = pool.caches[k]
            caches.tasks |= staged["tasks"]
            caches.regions |= staged["regions"]
            caches.partition_colors |= staged["partition_colors"]
            caches.subsets |= staged["subsets"]
        if prof.enabled:
            cost = prof.costmodel
            attrs = dict(
                launch=launch.name,
                workers=self.workers,
                shards=len(dispatch.nodes),
                points=len(dispatch.tasks),
            )
            if cost is not None:
                # Wall-clock bookkeeping only: the pool is an artifact of
                # this implementation, not of the modeled machine, so its
                # overhead is never charged to simulated time.
                attrs["pool_overhead_s"] = (
                    cost.t_worker_dispatch + cost.t_worker_result
                ) * len(dispatch.nodes)
            prof.phase("parallel.shards", Stage.EXECUTION, t_par, **attrs)
            prof.count("parallel.dispatches", 1.0)
        return self._commit(
            launch, sig, op_id, replay, safe_order_free, cache, dispatch,
            assignment,
        )

    def _submit_launch(self, launch, sig, assignment) -> _InFlight:
        self._jobs = []
        self.pool()  # a replaced pool invalidates every memo, first
        nodes = sorted(assignment)
        flat_points: List[Tuple[int, Point]] = [
            (node, point) for node in nodes for point in assignment[node]
        ]
        memo = self._memo_for(sig, launch, assignment, nodes, flat_points)

        # Per-point projections (pure: functor.apply + partition lookup) —
        # signature-pure, so a valid memo serves them without re-projecting.
        if memo is not None and memo.projections is not None:
            projections = memo.projections
        else:
            projections = [
                [req.project(point) for req in launch.requirements]
                for _, point in flat_points
            ]
            if memo is not None:
                memo.projections = projections

        try:
            task_blob = self._task_blobs.get(launch.task.uid)
            if task_blob is None:
                task_blob = dumps(launch.task)
                self._task_blobs[launch.task.uid] = task_blob
        except Exception as exc:
            raise _ParallelBail(f"task not picklable: {exc}", poison=True)

        ordinal = 0
        known_footprints = memo.footprints if memo is not None else {}
        for shard_index, node in enumerate(nodes):
            local = assignment[node]
            local_projs = projections[ordinal : ordinal + len(local)]
            footprints = known_footprints.get(shard_index)
            if footprints is None:
                footprints = known_footprints[shard_index] = _shard_footprints(
                    launch.requirements, local_projs
                )
            self._jobs.append(
                _ShardJob(
                    shard_index=shard_index,
                    node=node,
                    k=shard_index % self.workers,
                    local=local,
                    ordinals=list(range(ordinal, ordinal + len(local))),
                    local_projs=local_projs,
                    footprints=footprints,
                )
            )
            ordinal += len(local)

        build = (launch, memo, self._shm_on(), task_blob)
        by_worker: Dict[int, List[_ShardJob]] = {}
        for job in self._jobs:
            by_worker.setdefault(job.k, []).append(job)
        for k in sorted(by_worker):
            self._submit(build, by_worker[k])
        return _InFlight(
            nodes=nodes,
            flat_points=flat_points,
            projections=projections,
            jobs=self._jobs,
            resubmit=lambda job: self._submit(build, [job]),
        )

    def _memo_for(self, sig, launch, assignment, nodes, flat_points):
        """The launch signature's shard-plan memo, or None.

        Valid while nothing the plan bakes in can have moved — same
        assignment object (the sharding cache returns a stable dict per
        mapping decision), same broadcast args, no per-point args, no armed
        fault injector (directive-consumption order is sacred), and the
        same profiler state.  Stale memos are overwritten."""
        enabled = self.rt.profiler.enabled
        if not (
            self.plan_memo_enabled
            and self.rt.fault_injector is None
            and launch.point_args is None
        ):
            return None
        memo = self._plan_memo.get(sig)
        if memo is not None and (
            memo.args != launch.args
            or memo.assignment_key is not assignment
            or memo.profile != enabled
        ):
            memo = None
        if memo is None:
            memo = _PlanMemo(
                args=launch.args,
                assignment_key=assignment,
                profile=enabled,
                nodes=nodes,
                flat_points=flat_points,
            )
            self._plan_memo[sig] = memo
            while len(self._plan_memo) > _PLAN_MEMO_CAP:
                self._plan_memo.popitem(last=False)
        else:
            self._plan_memo.move_to_end(sig)
        return memo

    def _submit(self, build, worker_jobs: List[_ShardJob], depth: int = 0):
        """Build and submit shards of one worker: its whole batch at first
        (one vectored write), a single shard on a ladder resubmission.
        Building per worker in shard order preserves both the
        fault-injector's directive-consumption order and the arena's
        per-worker allocation order."""
        launch, _, shm_on, _ = build
        pool = self._pool
        k = worker_jobs[0].k
        if shm_on:
            # One segment per worker per dispatch: its shards' slot bytes
            # are known before the first slot is allocated.
            pool.arena.reserve(k, pool.generation(k), sum(
                job.footprints.nbytes for job in worker_jobs
            ))
        items = [self._build_plan(build, job) for job in worker_jobs]
        for job in worker_jobs:
            self._observe("submit", shard=job.node, worker=k, gen=job.gen)
        try:
            futures = pool.submit_shards(k, items)
        except WorkerLost:
            # The worker's death surfaced at *submit* time (the transport
            # noticed its child was gone before we handed it these plans).
            # Respawn and rebuild against the emptied caches; deaths that
            # surface at result time go through the capped ladder in
            # _collect_shard instead.
            if depth >= 3:
                raise _ParallelBail(
                    f"worker {k} broken at submit {depth} times"
                )
            pool.reset_worker(k)
            for job in worker_jobs:
                self._restore(job)
            self.stats.worker_respawns += 1
            self._note_recovery(
                "respawn", launch, worker_jobs[0],
                _InfraFailure("broken", "pool broken at submit"),
            )
            # Same pause the collect-path ladder takes: a respawn is a
            # respawn, wherever the death happened to surface.
            self._backoff(depth + 1)
            self._submit(build, worker_jobs, depth + 1)
            return
        except Exception as exc:
            raise _ParallelBail(f"submit failed: {exc}")
        for job, future in zip(worker_jobs, futures):
            job.future = future

    def _build_plan(self, build, job: _ShardJob) -> Tuple[bytes, ShardPlan]:
        """(Re)build one shard plan.  Retries rebuild from scratch: a
        respawned worker's caches are empty, so the fresh plan ships
        everything it needs; a surviving worker's install is idempotent,
        so re-shipped state is harmless."""
        _, memo, shm_on, _ = build
        prof = self.rt.profiler
        gen = self._pool.generation(job.k)
        # Memoized skeleton fast path: the plan's structural payload
        # (reqs, regions, partitions, points) is a pure function of the
        # launch signature once the worker caches are warm, so only the
        # footprint data and undo slots are live.
        # Validity: same worker generation (a respawn empties the caches
        # the skeleton assumes warm) and the same shm mode.
        sm = memo.shards.get(job.shard_index) if memo is not None else None
        if sm is not None and (sm.gen != gen or sm.shm_on != shm_on):
            sm = None
        read_data, undo = self._stage_footprints(job, gen, shm_on, sm)
        blob = None
        if sm is None:
            plan, staged = self._build_skeleton(build, job, read_data, undo)
        else:
            self.stats.plan_memo_hits += 1
            staged = _empty_delta()
            if sm.blob is not None and undo is sm.undo:
                # No read values and the very slots the blob names.
                plan, blob = sm.plan, sm.blob
                self.stats.plan_memo_blob_reuse += 1
            else:
                plan = replace(
                    sm.plan, read_data=read_data,
                    undo_slots=undo.slots if undo else None,
                    undo_done=undo.done if undo else None,
                )
        if blob is None:
            try:
                blob = dumps(plan)
            except Exception as exc:
                raise _ParallelBail(f"plan not picklable: {exc}", poison=True)
        job.staged = staged
        job.gen = gen
        job.mark = prof.now() if prof.enabled else 0.0

        # Memoize the skeleton only once the worker holds everything the
        # plan assumes (no staged deltas, task blob already cached) and no
        # fault directives were baked in — then the fast path's empty delta
        # is exact, not an approximation.  A hit that had to allocate fresh
        # slots re-memoizes, so the next launch can retake them.
        if memo is not None and (sm is None or undo is not sm.undo) and (
            plan.task_blob is None
            and not (plan.faults or staged["regions"]
                     or staged["partition_colors"] or staged["subsets"])
        ):
            memo.shards[job.shard_index] = _PlanMemoShard(
                gen=gen,
                shm_on=shm_on,
                plan=replace(plan, read_data=()) if read_data else plan,
                blob=None if read_data else blob,
                undo=undo,
            )
        return blob, plan

    def _build_skeleton(self, build, job: _ShardJob, read_data, undo):
        """The plan against the worker's *current* committed cache view,
        and the cache delta shipping it stages."""
        launch, _, _, task_blob = build
        k, node, local = job.k, job.node, job.local
        caches = self._pool.caches[k]
        staged = _empty_delta()
        known_subsets = set(caches.subsets)

        # Region skeletons new to this worker.
        regions = []
        for req in launch.requirements:
            uid = req.region.uid
            if uid not in caches.regions and uid not in staged["regions"]:
                regions.append(region_spec(req.region))
                staged["regions"].add(uid)

        # Requirement templates plus the partition colors they project.
        reqs = []
        part_entries: Dict[int, PartitionEntry] = {}
        for ri, req in enumerate(launch.requirements):
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
            for subs in job.local_projs:
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

        extra = None
        if launch.point_args is not None:
            extra = [launch.point_args.get(p) for p in local]

        plan = ShardPlan(
            node=node,
            points=[tuple(p) for p in local],
            ordinals=job.ordinals,
            task_uid=launch.task.uid,
            task_blob=None if launch.task.uid in caches.tasks else task_blob,
            args=launch.args,
            point_extra_args=extra,
            reqs=reqs,
            regions=regions,
            partitions=list(part_entries.values()),
            read_data=read_data,
            profile=self.rt.profiler.enabled,
            undo_slots=undo.slots if undo else None,
            undo_done=undo.done if undo else None,
        )
        staged["tasks"].add(launch.task.uid)
        injector = self.rt.fault_injector
        if injector is not None:
            plan.faults = injector.arm_shard(k, node, local)
        return plan, staged

    def _stage_footprints(self, job: _ShardJob, gen: int, shm_on: bool,
                          sm: Optional[_PlanMemoShard]):
        """One attempt's live plan parts, ``(read_data, undo)``: pickled
        read entries for the fields the worker does not map, and the
        :class:`_UndoSet` for the ones it writes in place — the memoized
        shard's own set when the arena can retake it, else fresh slots —
        rebinding ``job.undo`` and ``job.progress``."""
        arena = self._pool.arena
        stats = arena.stats
        footprints = job.footprints
        read_data = [fp.inline() for fp in footprints.reads]
        job.undo, job.progress = [], None
        if shm_on:
            stats.read_fallbacks += len(read_data)
            stats.bytes_staged += sum(
                fp.count * fp.dtype.itemsize for fp in footprints.reads
            )
            stats.write_fallbacks += sum(
                not fp.in_place for point in footprints.writes for fp in point
            )
        if not footprints.in_place:
            return read_data, None
        undo = sm.undo if sm is not None else None
        if undo is None or undo.taken is None or not arena.retake(
            job.k, gen, undo.taken
        ):
            undo = self._alloc_undo(job.k, gen, shm_on, footprints)
        job.undo, job.progress = undo.views, undo.progress
        return read_data, undo

    def _alloc_undo(self, k: int, gen: int, shm_on: bool,
                    footprints: _Footprints) -> _UndoSet:
        """Fresh undo slots and progress counter for one attempt.  In-place
        writes are never made without a way to undo them."""
        arena = self._pool.arena
        progress = arena.alloc_progress(k, gen) if shm_on else None
        if progress is None:
            raise _ParallelBail("no shared memory for undo slots")
        undo_slots, views, nbytes = [], [], 0
        for point in footprints.writes:
            slots, point_views = [], []
            for fp in point:
                slot = None
                if fp.in_place and fp.nbytes:
                    slot = arena.alloc_undo_slot(k, gen, fp)
                    if slot is None:
                        raise _ParallelBail("no shared memory for undo slots")
                    point_views.append((fp.sub, fp.fname, slot[1]))
                    nbytes += slot[1].nbytes
                    slot = slot[0]
                slots.append(slot)
            undo_slots.append(slots)
            views.append(point_views)
        taken = arena.record(k, gen, progress, sum(map(len, views)), nbytes)
        return _UndoSet(undo_slots, progress[0], views, progress[1], taken)

    def _collect_launch(self, launch, inflight: _InFlight) -> _Dispatch:
        """Await every shard of one submitted launch and validate the
        results into a :class:`_Dispatch`, recovering per shard
        (retry -> respawn), bailing to serial only when a shard exhausts
        its retry policy."""
        rt = self.rt
        pool = self.pool()
        jobs = inflight.jobs
        flat_points = inflight.flat_points
        policy = getattr(rt, "retry_policy", None) or RetryPolicy()
        shipments: List[Tuple[int, int, dict]] = []
        for job in jobs:
            job.payload = self._collect_shard(
                launch, pool, policy, job, inflight.resubmit
            )
            # Stamp the shipment with the generation that *produced* it
            # (job.gen, set at submit), never the generation at collect
            # time: a sibling shard's recovery may reset this worker after
            # the result was banked but before it was collected, and a
            # collect-time stamp would launder that stale state past the
            # commit-side generation check.  (Found by the commit-protocol
            # model checker; see docs/formal-verification.md.)
            shipments.append((job.k, job.gen, job.staged))

        # Validate everything before committing.
        total = len(flat_points)
        tasks: List[Optional[Any]] = [None] * total
        task_worker: List[Tuple[int, float]] = [(0, 0.0)] * total
        for job in jobs:
            result = job.payload
            pool.arena.stats.worker_closes += result.shm_closed
            self.stats.worker_plan_hits += result.plan_hit
            offset = job.mark - result.t0
            for trec in result.tasks:
                if not 0 <= trec.ordinal < total or tasks[trec.ordinal] is not None:
                    raise _ParallelBail("shard result ordinals inconsistent")
                tasks[trec.ordinal] = trec
                task_worker[trec.ordinal] = (job.k, offset)
        if any(t is None for t in tasks):
            raise _ParallelBail("missing tasks in shard results")
        try:
            values = [loads(t.value_blob) for t in tasks]
        except Exception as exc:
            raise _ParallelBail(f"future value not unpicklable: {exc}",
                                poison=True)
        return _Dispatch(
            nodes=inflight.nodes,
            points=flat_points,
            tasks=tasks,
            values=values,
            task_worker=task_worker,
            shipments=shipments,
            projections=inflight.projections,
        )

    # ----------------------------------------------------- shard collection
    def _collect_shard(self, launch, pool, policy, job, resubmit):
        """Await one shard's result, climbing the recovery ladder on
        infrastructure failures.

        Tier 1 (same-worker retry) handles failures that leave the process
        usable: a corrupt result blob, a future cancelled because another
        shard's recovery reset this worker.  Tier 2 (respawn) handles a
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
            payload, failure = self._await(job, policy)
            if failure is None:
                if payload[0] == "error":
                    raise _ParallelBail(
                        f"worker error: {payload[1]}", poison=True
                    )
                self._observe("collect.ok", shard=job.node, worker=job.k,
                              gen=job.gen)
                return payload[1]

            # Worker process gone, wedged, or in an unknown state (and not
            # already replaced by an earlier shard's recovery) -> the
            # attempt needs a respawn.
            worker_stale = pool.generation(job.k) != job.gen
            need_respawn = (
                failure.kind in ("broken", "timeout", "transport")
                and not worker_stale
            )
            if need_respawn:
                if respawns >= policy.respawns:
                    self._bail_unrecoverable(pool, job, failure,
                                             retries, respawns)
                respawns += 1
                if failure.kind == "timeout":
                    self.stats.shard_timeouts += 1
                self.stats.worker_respawns += 1
                pool.reset_worker(job.k)
                self._note_recovery("respawn", launch, job, failure)
            elif retries < policy.same_worker_retries or worker_stale:
                # A stale-generation failure is not the worker's fault; the
                # resubmission goes to the already-fresh process.
                retries += 1
                self.stats.shard_retries += 1
                self._note_recovery("retry", launch, job, failure)
            elif respawns < policy.respawns:
                # Same-worker retries exhausted: escalate, the process may
                # be corrupted in a way that does not kill it.
                respawns += 1
                self.stats.worker_respawns += 1
                pool.reset_worker(job.k)
                self._note_recovery("respawn", launch, job, failure)
            else:
                self._bail_unrecoverable(pool, job, failure, retries, respawns)
            self._backoff(retries + respawns)
            self._restore(job)
            resubmit(job)

    @staticmethod
    def _await(job, policy):
        """One attempt's decoded payload, or the infrastructure failure
        that lost it: ``(payload, None)`` or ``(None, failure)``."""
        try:
            raw = job.future.result(timeout=policy.shard_timeout_s)
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

    def _bail_unrecoverable(self, pool, job, failure, retries, respawns):
        """Tier 3: abandon the dispatch for the serial fallback.

        Every worker is reset — in-flight futures of sibling shards die
        with their workers, and nothing about any worker's state can be
        trusted after a dispatch this broken.  The fallback then undoes
        every shard, the ones that already succeeded included."""
        self._observe("ladder.bail", shard=job.node, worker=job.k,
                      failure=failure.kind, retries=retries,
                      respawns=respawns)
        for j in range(pool.n):
            pool.reset_worker(j)
        raise _ParallelBail(
            f"shard {job.node} unrecoverable after {retries} retries and "
            f"{respawns} respawns: {failure}"
        )

    def _note_recovery(self, kind, launch, job, failure) -> None:
        """One recovery-ladder transition: instant + counter, wall-clock
        cost annotations only (never charged to simulated time)."""
        self._observe(f"recovery.{kind}", shard=job.node, worker=job.k,
                      failure=failure.kind, stamped_gen=job.gen)
        prof = self.rt.profiler
        if not prof.enabled:
            return
        cost = prof.costmodel
        attrs = dict(
            launch=launch.name,
            shard=job.node,
            worker=job.k,
            failure=failure.kind,
        )
        if cost is not None:
            attrs["wall_cost_s"] = (
                cost.t_worker_respawn if kind == "respawn"
                else cost.t_retry_backoff
            )
        prof.instant(f"recovery.{kind}", Stage.EXECUTION, **attrs)
        prof.count("recovery.events", 1.0, kind=kind, failure=failure.kind)

    # -------------------------------------------------------------- commit
    def _commit(
        self, launch, sig, op_id, replay, safe_order_free, cache, dispatch,
        assignment,
    ) -> FutureMap:
        rt = self.rt
        cfg = rt.config
        prof = rt.profiler
        total = len(dispatch.points)
        _, _, per_node = self.analyze_launch(
            launch, sig, op_id, assignment, replay, cache
        )
        fmap = FutureMap(label=launch.name)

        # --- execution commit: apply effects in serial (or shuffled) order.
        order = list(range(total))
        if cfg.shuffle_intra_launch and safe_order_free:
            rt._rng.shuffle(order)
        region_by_uid = {
            req.region.uid: req.region for req in launch.requirements
        }
        self._commit_effects(dispatch, order, region_by_uid, cfg.batched_commit)
        points, values = dispatch.points, dispatch.values
        fmap.fill({points[g][1]: values[g] for g in order})
        rt.stats.tasks_executed += total
        for node, local in per_node.items():
            rt.stats.add_representation(Stage.EXECUTION, node, local)
        if prof.enabled:
            span_name = f"execute:{launch.task.name}"
            for g in order:
                trec = dispatch.tasks[g]
                if trec.span is None:
                    continue
                node, _point = dispatch.points[g]
                k, offset = dispatch.task_worker[g]
                start, end = trec.span
                prof.ingest_span(
                    span_name,
                    Stage.EXECUTION,
                    node,
                    start + offset,
                    end + offset,
                    task=f"{launch.task.name}{tuple(trec.point)}",
                    point=str(tuple(trec.point)),
                    worker=k,
                )
        return fmap

    def _commit_effects(self, dispatch, order, region_by_uid, batched) -> None:
        """Apply pickled write-backs and recorded reduces in commit order
        (writes to mapped fields already landed in place).

        Writes: only verified launches are dispatched, and the cross-check
        proves all write footprints of a launch pairwise disjoint, so each
        lands in its own subregion, order-free — a box as one slice copy,
        with no index set built or concatenated — and counts one batched
        op per (region, field) however many footprints that is.  Reduces,
        ``batched``: ``np.ufunc.at`` applies duplicate indices sequentially
        in index-array order, so concatenating recorded calls per (region,
        field, operator) in commit order accumulates bit-identically to
        replaying them one by one; a group is flushed early whenever the
        *operator* on its (region, field) changes, preserving the
        interleaving.  Eligibility already guarantees writes and reduces
        never share a (region, field), so the two commute.
        """
        reduces: Dict[Tuple[int, str], Tuple[str, list, list]] = {}
        stats = self.stats
        for g in order:
            trec = dispatch.tasks[g]
            projs = dispatch.projections[g]
            for ri, fname, vals in trec.writes:
                projs[ri].scatter(fname, vals)
            for uid, fname, idx, vals, opname in trec.reduces:
                key = (uid, fname)
                vals = np.asarray(vals).ravel()
                if not batched:
                    self._apply_reduces(region_by_uid, key, (opname, [idx], [vals]))
                    continue
                pending = reduces.get(key)
                if pending is not None and pending[0] != opname:
                    self._apply_reduces(region_by_uid, key, pending)
                    stats.batched_commit_ops += 1
                    pending = None
                if pending is None:
                    reduces[key] = (opname, [idx], [vals])
                else:
                    pending[1].append(idx)
                    pending[2].append(vals)
        if batched:
            for key, pending in reduces.items():
                self._apply_reduces(region_by_uid, key, pending)
            # Every task writes back the same (requirement, field) list.
            projs = dispatch.projections[order[0]]
            written = {
                (projs[ri].region.uid, fname)
                for ri, fname, _ in dispatch.tasks[order[0]].writes
            }
            stats.batched_commit_ops += len(written) + len(reduces)
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
