"""Worker-process entry points for the parallel execution backend.

One worker owns a persistent reconstruction of the slice of the parent's
world it has been shipped: region skeletons — storage mapped from the
parent's shm instance where the region has one, private and zeroed
otherwise — partition stubs holding exactly the colors its shards project
onto, sparse subsets by uid, unpickled task functions, and bare plans
already run, unpickled and expanded, keyed by their bytes (a steady replay
sends the same bytes every launch; ``ShardResult.plan_hit``).  Per shard it
then runs the two stages of the pipeline tail that need no analyzer state
— expansion (projection) and task-body execution — and ships back
portable deltas: pickled write-backs of unmapped fields, recorded
reductions, future values, and execution spans.  Physical analysis is the
parent's, at commit; the ``physical`` fault phase remains as the boundary
between the two stages.

Determinism notes:

* Tasks are named by plan-list ordinal; the parent draws their ids at
  commit.
* Reductions are *recorded, not applied*: ``np.add.at`` with duplicate
  indices is order-sensitive, so the parent replays the recorded calls in
  serial task order for bit-identical floating point results.
* Mapped fields are written in place.  Before each point's body the
  worker gathers the point's write footprints into the plan's undo slots
  and then bumps the shard's progress counter, so the parent can put back
  exactly the points that may have written (see :mod:`repro.exec.shm`).
* Pickled write-backs return final values addressed by (requirement,
  field): projection is pure, so the parent holds the very subregion they
  belong to and no index set travels back.
* Workers never see ``ctx.runtime`` (it is None): a task attempting a
  nested launch fails here, and the parent falls back to the serial
  backend, which reproduces the serial behavior exactly.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.domain import Point, Rect
from repro.core.launch import RegionRequirement
from repro.data.collection import RectSubset, Region, SparseSubset, Subregion
from repro.data.privileges import Privilege
from repro.exec.plan import (
    ShardPlan,
    ShardResult,
    TaskResult,
    dumps,
    loads,
    priv_from_token,
)
from repro.exec.shm import attach_instance
from repro.runtime.task import PhysicalRegion, TaskContext

__all__ = [
    "run_shard_bytes",
    "handle_frame",
    "serve",
    "reset_state",
]


# ------------------------------------------------- persistent worker state
_REGIONS: Dict[int, Region] = {}
_SUBSETS: Dict[int, Any] = {}
_PARTITIONS: Dict[int, "_PartitionStub"] = {}
_TASKS: Dict[int, Any] = {}
_SHM: Dict[str, Any] = {}  # attached arena segments, by name
_SHM_NAMED: set = set()    # the segments the shard being run has named
#: read-footprint boxes by (region uid, corner bytes), as (subregion, start,
#: end) into the values: slice geometry is worked out once per box.
_BOXES: Dict[tuple, list] = {}
#: bare plans by their exact bytes, with their expansion (LRU; see
#: ``_remember``).  What the expansions point into — regions and partition
#: stubs by uid — is never replaced while this state lives.
_PLANS: "OrderedDict[bytes, tuple]" = OrderedDict()
_PLAN_MEMO_CAP = 64


def reset_state() -> None:
    """Wipe the persistent caches back to a fresh-process state.

    A ``--listen`` socket worker serves a succession of parent
    connections; each new parent's delta-shipping bookkeeping assumes a
    blank worker, and stale region uids from a previous parent must never
    collide with the new one's — nor may a memoized plan's expansion, whose
    bytes a new parent can repeat exactly."""
    _REGIONS.clear()
    _SUBSETS.clear()
    _PARTITIONS.clear()
    _TASKS.clear()
    _BOXES.clear()
    _PLANS.clear()
    _release_shm(keep=())


def _attach_shm(name: str):
    """Attach (and cache) one parent-owned shared-memory segment.

    The attachment is immediately unregistered from this process's resource
    tracker: segments are parent-owned, and a worker death must never let a
    tracker cleanup unlink memory the parent still uses.
    """
    _SHM_NAMED.add(name)
    shm = _SHM.get(name)
    if shm is None:
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker impl details vary
            pass
        _SHM[name] = shm
    return shm


def _shm_view(name: str, offset: int, count: int, dtype: str) -> np.ndarray:
    return np.ndarray(
        count, dtype=np.dtype(dtype), buffer=_attach_shm(name).buf,
        offset=offset,
    )


def _release_shm(keep) -> int:
    """Close every cached arena attachment not named in ``keep``: the
    parent retires (unlinks) segments without telling anyone, and a mapping
    kept here is then what keeps the pages resident.  Views are transient —
    made and dropped inside one shard — so none outlives this.  Region
    instances are not in ``_SHM``: their mappings live as long as the
    installed region."""
    stale = [name for name in _SHM if name not in keep]
    for name in stale:
        try:
            _SHM.pop(name).close()
        except Exception:  # pragma: no cover - segment already gone
            pass
    return len(stale)


class _PartitionStub:
    """Just enough of a Partition to serve ``RegionRequirement.project``."""

    __slots__ = ("uid", "region", "_subregions")

    def __init__(self, uid: int, region: Region):
        self.uid = uid
        self.region = region
        self._subregions: Dict[tuple, Subregion] = {}

    def add_color(self, color: tuple, subset) -> None:
        if color not in self._subregions:
            self._subregions[color] = Subregion(
                self.region, subset, Point(*color), self
            )

    def __getitem__(self, color) -> Subregion:
        return self._subregions[tuple(color)]


class _RecordingRegion(PhysicalRegion):
    """A REDUCE accessor that logs contributions instead of applying them."""

    __slots__ = ("_log",)

    def __init__(self, subregion, privilege, fields, log):
        super().__init__(subregion, privilege, fields)
        self._log = log

    def _fold(self, fname: str, values) -> None:
        self._log.append(
            (
                self.subregion.region.uid,
                fname,
                self.subregion._indices(),
                np.array(values, copy=True),
                self.privilege.redop.name,
            )
        )


# ---------------------------------------------------------- reconstruction
def _resolve_subset(ref: tuple):
    kind = ref[0]
    if kind == "rect":
        subset = RectSubset(Rect(ref[1], ref[2]))
        subset.uid = ref[3]
        return subset
    if kind == "sparse":
        subset = SparseSubset(ref[2])
        subset.uid = ref[1]
        _SUBSETS[ref[1]] = subset
        return subset
    if kind == "sparse_ref":
        return _SUBSETS[ref[1]]
    raise ValueError(f"unknown subset ref {ref[0]!r}")


def _install_regions(entries) -> None:
    """Install the plan's region-skeleton deltas."""
    for uid, name, lo, hi, fields, instance in entries:
        # Never replace an installed region: partition stubs hold references
        # to it, and a bailed dispatch can make the parent re-ship skeletons
        # this worker already has.  Same uid means same immutable shape.
        if uid in _REGIONS:
            continue
        region = Region(name, Rect(lo, hi), {fname: dt for fname, dt in fields})
        region.uid = uid
        if instance is not None:
            attach_instance(region, instance)
        _REGIONS[uid] = region


def _install_partitions(entries) -> None:
    """Install the plan's partition-color deltas."""
    for entry in entries:
        stub = _PARTITIONS.get(entry.uid)
        if stub is None:
            stub = _PartitionStub(entry.uid, _REGIONS[entry.region_uid])
            _PARTITIONS[entry.uid] = stub
        for color, ref in entry.colors:
            stub.add_color(color, _resolve_subset(ref))


def _install_plan_state(plan: ShardPlan) -> None:
    _install_regions(plan.regions)
    _install_partitions(plan.partitions)
    if plan.task_blob is not None:
        _TASKS[plan.task_uid] = loads(plan.task_blob)
    for kind, region_uid, fname, where, values in plan.read_data:
        if kind == "idx":
            _REGIONS[region_uid].storage(fname)[where] = values
            continue
        key = region_uid, where.tobytes()
        boxes = _BOXES.get(key)
        if boxes is None:
            boxes = _BOXES[key] = _resolve_boxes(_REGIONS[region_uid], where)
        for box, start, end in boxes:
            box.scatter(fname, values[start:end])


def _resolve_boxes(region: Region, corners: np.ndarray) -> list:
    dim = region.bounds.dim
    boxes, start = [], 0
    for row in corners.reshape(-1, 2 * dim).tolist():
        subset = RectSubset(Rect(row[:dim], row[dim:]))
        boxes.append((Subregion(region, subset, None, None), start,
                      start + subset.volume()))
        start += subset.volume()
    return boxes


# ----------------------------------------------------------- fault firing
class _CorruptResult(Exception):
    """Raised once a shard that fired a ``corrupt`` directive has run to
    the end: run_shard_bytes garbles its blob."""


def _fire_faults(
    faults, phase: str, point: Optional[tuple] = None
) -> bool:
    """Fire armed directives matching this phase (and point, if given);
    True if a ``corrupt`` one matched.

    Real effects only — this is the injected analogue of actual worker
    failures: ``kill`` hard-exits the process (the parent observes a
    ``WorkerLost``), ``hang`` sleeps (the parent's shard timeout
    converts a long enough sleep into a respawn), ``corrupt`` lets the
    shard finish — every in-place write lands — and then makes the result
    blob unreadable (the parent retries the same worker).
    """
    corrupt = False
    for kind, ph, pt, hang_s in faults:
        if ph != phase:
            continue
        # Exact anchor match: worker/shard directives (pt None) fire at the
        # phase boundary; point directives fire only at their point.
        if (pt is None) != (point is None):
            continue
        if pt is not None and tuple(point) != tuple(pt):
            continue
        if kind == "hang":
            time.sleep(hang_s)
        elif kind == "kill":
            os._exit(13)
        elif kind == "corrupt":
            corrupt = True
    return corrupt


# -------------------------------------------------------------- shard body
def _expand(plan: ShardPlan):
    """Project every requirement at every local point: the requirements,
    their resolved fields, per point ``(i, point, subregions, args)``, and
    per point the written ``(subregion, requirement index, field)`` in the
    order ``plan.undo_slots`` lists them."""
    reqs = [
        RegionRequirement(
            privilege=priv_from_token(r.priv),
            fields=r.fields,
            partition=_PARTITIONS[r.partition_uid],
            functor=r.functor,
        )
        for r in plan.reqs
    ]
    resolved_fields = [r.resolved_fields for r in plan.reqs]
    extras = plan.point_extra_args
    point_tasks = []
    for i, pt in enumerate(plan.points):
        point = Point(*pt)
        subregions = [req.project(point) for req in reqs]
        args = plan.args + (extras[i] if extras is not None else ())
        point_tasks.append((i, point, subregions, args))
    written = [
        [
            (sub, ri, fname)
            for ri, (sub, req, rf) in enumerate(
                zip(subregions, reqs, resolved_fields)
            )
            if req.privilege.privilege not in (Privilege.READ,
                                               Privilege.REDUCE)
            for fname in rf
        ]
        for _, _, subregions, _ in point_tasks
    ]
    return reqs, resolved_fields, point_tasks, written


def _remember(blob: bytes, plan: ShardPlan, expanded) -> None:
    """Keep a bare plan — no cache deltas, read values or faults, so
    running it again changes no state but what its bodies write — and its
    expansion, under its bytes."""
    if plan.task_blob is None and not (
        plan.regions or plan.partitions or plan.read_data or plan.faults
    ):
        _PLANS[blob] = (plan, expanded)
        if len(_PLANS) > _PLAN_MEMO_CAP:
            _PLANS.popitem(last=False)


def _run_shard(blob: bytes) -> ShardResult:
    memo = _PLANS.get(blob)
    if memo is not None:
        # Bytes seen before: nothing to unpickle, install or expand.
        _PLANS.move_to_end(blob)
        plan, expanded = memo
    else:
        plan, expanded = loads(blob), None
    t0 = time.perf_counter()
    faults = plan.faults or []
    corrupt = _fire_faults(faults, "install")
    _SHM_NAMED.clear()
    if expanded is None:
        _install_plan_state(plan)
    task = _TASKS[plan.task_uid]
    result = ShardResult(node=plan.node, t0=t0, plan_hit=memo is not None)

    corrupt |= _fire_faults(faults, "expansion")
    if expanded is None:
        expanded = _expand(plan)
        _remember(blob, plan, expanded)
    reqs, resolved_fields, point_tasks, written = expanded
    progress = (
        _shm_view(*plan.undo_done) if plan.undo_done is not None else None
    )

    # Physical analysis is the parent's, at commit; its fault phase stays
    # as the boundary between expansion and execution.
    corrupt |= _fire_faults(faults, "physical")

    # Execution: run bodies against worker storage, recording reductions
    # instead of applying them.
    corrupt |= _fire_faults(faults, "execution")
    for i, point, subregions, args in point_tasks:
        corrupt |= _fire_faults(faults, "execution", point=tuple(point))
        slots = plan.undo_slots[i] if plan.undo_slots else [None] * len(
            written[i]
        )
        for (sub, _, fname), slot in zip(written[i], slots):
            if slot is not None:
                # Written in place: keep what was there, for the parent to
                # put back if this attempt does not commit.
                sub.gather(fname, _shm_view(*slot))
        if progress is not None:
            progress[0] = i + 1
        reduce_log: List[tuple] = []
        regions = []
        for sub, req, rf in zip(subregions, reqs, resolved_fields):
            if req.privilege.privilege is Privilege.REDUCE:
                regions.append(
                    _RecordingRegion(sub, req.privilege, rf, reduce_log)
                )
            else:
                regions.append(PhysicalRegion(sub, req.privilege, rf))
        ctx = TaskContext(point=point, node=plan.node, runtime=None)
        start = time.perf_counter() if plan.profile else 0.0
        value = task(ctx, *regions, *args)
        end = time.perf_counter() if plan.profile else 0.0
        result.tasks.append(
            TaskResult(
                ordinal=plan.ordinals[i],
                point=tuple(point),
                value_blob=dumps(value),
                writes=[
                    (ri, fname, sub.gather(fname))
                    for (sub, ri, fname), slot in zip(written[i], slots)
                    if slot is None
                ],
                reduces=reduce_log,
                span=(start, end) if plan.profile else None,
            )
        )
    if _SHM_NAMED:  # a plan naming none leaves the attachments be
        result.shm_closed = _release_shm(keep=_SHM_NAMED)
    if corrupt:
        raise _CorruptResult()
    return result


def run_shard_bytes(blob: bytes) -> bytes:
    """One shard, bytes to bytes: ("ok", result) | ("error", ...) pickled."""
    try:
        return dumps(("ok", _run_shard(blob)))
    except _CorruptResult:
        # Injected corruption: bytes that cannot unpickle, exactly what a
        # truncated/garbled transport would hand the parent.
        return b"\x80\x04repro-injected-corrupt-result"
    except BaseException as exc:  # noqa: BLE001 - ships diagnosis to parent
        try:
            return dumps(
                ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
        except Exception:  # pragma: no cover - unpicklable exception repr
            return dumps(("error", type(exc).__name__, ""))


# --------------------------------------------------------- framed serve loop
def handle_frame(frame, reply) -> bool:
    """Dispatch one wire frame against the persistent worker state;
    ``reply(seq, payload)`` sends one RESULT frame back.  Returns
    ``False`` on SHUTDOWN.  Cache deltas need no frames of their own:
    they ride inside the shard plans (``_install_plan_state``)."""
    from repro.exec import wire

    if frame.msg == wire.SHUTDOWN:
        return False
    if frame.msg == wire.SHARD:
        reply(frame.seq, run_shard_bytes(frame.payload))
    elif frame.msg == wire.SHARDS:
        # One vectored submit carrying a whole per-worker shard batch;
        # each shard still answers its own RESULT so the parent's fault
        # ladder keeps per-shard granularity.
        for seq, blob in loads(frame.payload):
            reply(seq, run_shard_bytes(blob))
    elif frame.msg == wire.BATCH:
        functor_blob, points = loads(frame.payload)
        try:
            out = loads(functor_blob).apply_batch(points)
        except Exception:
            # The functor raised: an application bug, not a dead worker.
            # ``None`` tells the parent to evaluate inline, which raises
            # the very same exception where the caller can see it.
            out = None
        reply(frame.seq, dumps(out))
    return True


def serve(rfd: int, wfd: int) -> bool:
    """Blocking serve loop over two fds — a forked child's pipe pair or
    a socket worker's connection (the same fd twice).

    Returns ``True`` on a deliberate SHUTDOWN and ``False`` when the
    stream ended (EOF, reset, a frame that does not parse): a
    ``--listen`` socket worker exits on the first and goes back to
    ``accept`` on the second.
    """
    from repro.exec import wire

    def reply(seq: int, payload: bytes) -> None:
        data = wire.pack_frame(wire.RESULT, seq, payload)
        view = memoryview(data)
        while view:
            view = view[os.write(wfd, view):]

    decoder = wire.FrameDecoder()
    try:
        while True:
            frame = decoder.next()
            if frame is None:
                chunk = os.read(rfd, 1 << 20)
                if not chunk:
                    return False
                decoder.feed(chunk)
                continue
            if not handle_frame(frame, reply):
                return True
    except OSError:  # includes wire.WireError: the parent is gone or alien
        return False
