"""Picklable shard plans and results for the parallel execution backend.

A :class:`ShardPlan` is the self-contained description of one node's share
of an index launch — the moral equivalent of the per-node launch descriptor
that DCR ships to each control replica (Section 5 of the paper): the task,
the local domain slice, requirement templates, and just enough region /
partition metadata to run expansion and the task bodies in another
process.  Nothing about the analyzer travels in either direction: physical
analysis is the parent's (see :mod:`repro.exec.backend`).

Everything here is built from plain values (tuples, ints, strings, numpy
arrays) plus a handful of repro objects that pickle by value (functors,
``Point``/``Rect``).  Task functions are serialized with ``cloudpickle``
when available (decorated module attributes are :class:`Task` objects, so
stdlib reference pickling cannot find them); plans and results travel as
opaque byte blobs so the worker pool never depends on the parent's pickling
defaults.

Identity discipline: regions, partitions, and sparse subsets are addressed
by their construction ``uid`` on both sides of the process boundary.  The
worker reconstructs skeleton objects and *overwrites* their locally
assigned uids with the shipped ones, so a cached skeleton is found again
under the name the parent uses for it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised indirectly by the parallel backend
    import cloudpickle as _by_value_pickler
except ImportError:  # pragma: no cover - the container bakes cloudpickle in
    _by_value_pickler = pickle

__all__ = [
    "dumps",
    "loads",
    "subset_ref",
    "region_spec",
    "priv_token",
    "priv_from_token",
    "ReqTemplate",
    "PartitionEntry",
    "ShardPlan",
    "TaskResult",
    "ShardResult",
]


def dumps(obj: Any) -> bytes:
    """Serialize by value (closures and Task objects included).

    Plans and results are almost always plain data (dataclasses, tuples,
    numpy arrays), which the stdlib C pickler handles in under half the
    time of cloudpickle's Python-level pickler — and this runs once per
    shard per launch on the dispatch hot path.  The fast path is safe
    because stdlib pickle *verifies* by-reference identity at save time:
    any object it cannot faithfully reference (a closure, or a ``Task``
    shadowing the function it decorates) raises ``PicklingError`` rather
    than mis-serializing, and only then do we pay for cloudpickle.
    """
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return _by_value_pickler.dumps(obj)


def loads(blob: bytes) -> Any:
    """Cloudpickle output is plain pickle data; stdlib loads it."""
    return pickle.loads(blob)


# --------------------------------------------------------------- references
def subset_ref(subset, shipped_uids: Optional[set] = None) -> tuple:
    """A portable reference to an :class:`IndexSubset`.

    Rect subsets ship by bounds value (cheap, and footprint keys address
    them by rectangle anyway).  Sparse subsets ship their index array once
    per worker: when ``shipped_uids`` already contains the uid, only the
    uid travels and the worker resolves it from its cache.
    """
    from repro.data.collection import RectSubset

    if isinstance(subset, RectSubset):
        return ("rect", tuple(subset.rect.lo), tuple(subset.rect.hi), subset.uid)
    if shipped_uids is not None and subset.uid in shipped_uids:
        return ("sparse_ref", subset.uid)
    if shipped_uids is not None:
        shipped_uids.add(subset.uid)
    return ("sparse", subset.uid, subset.indices)


def region_spec(region) -> tuple:
    """Skeleton of a region: uid, name, bounds, field dtypes, and the shm
    instance the worker maps as storage (``None``: private storage, filled
    from the plan's read footprints; see :mod:`repro.exec.shm`).

    Storage itself is *not* shipped.
    """
    instance = region.instance
    return (
        region.uid,
        region.name,
        tuple(region.bounds.lo),
        tuple(region.bounds.hi),
        tuple((fname, np.dtype(dt).str) for fname, dt in region.fields.items()),
        instance.spec() if instance is not None else None,
    )


def priv_token(privilege) -> tuple:
    """Portable privilege encoding; see ``_priv_token`` in physical.py."""
    redop = privilege.redop.name if privilege.redop is not None else None
    return (privilege.privilege.value, redop)


def priv_from_token(token: tuple):
    """Rebuild a :class:`PrivilegeSpec` sharing the parent's operator table."""
    from repro.data.privileges import (
        REDUCTION_OPS,
        Privilege,
        PrivilegeSpec,
    )

    value, redop = token
    if redop is not None:
        return PrivilegeSpec(Privilege(value), REDUCTION_OPS[redop])
    return PrivilegeSpec(Privilege(value))


@dataclass
class ReqTemplate:
    """One region requirement of the launch, in shippable form."""

    priv: tuple                     # priv_token
    fields: Tuple[str, ...]         # declared fields ('' means region default)
    resolved_fields: Tuple[str, ...]
    partition_uid: int
    region_uid: int
    functor: Any                    # ProjectionFunctor; pickles by value


@dataclass
class PartitionEntry:
    """The colors of one partition a shard actually projects onto."""

    uid: int
    region_uid: int
    colors: List[Tuple[tuple, tuple]]  # (color tuple, subset_ref)


@dataclass
class ShardPlan:
    """Everything one worker needs to run its shard of a launch."""

    node: int
    points: List[tuple]             # local domain slice, in serial order
    ordinals: List[int]             # global plan-list positions of the points
    task_uid: int
    task_blob: Optional[bytes]      # cloudpickled Task; None when cached
    args: tuple
    point_extra_args: Optional[List[tuple]]  # per-point ArgumentMap values
    reqs: List[ReqTemplate]
    regions: List[tuple]            # region_spec for regions new to the worker
    partitions: List[PartitionEntry]
    #: read footprints of fields the worker does not map (pickled path):
    #: ("box", region_uid, field, corners, values) — one lo..., hi... row
    #: per box, the boxes' cells back to back — or, sparse,
    #: ("idx", region_uid, field, indices, values)
    read_data: List[tuple]
    profile: bool
    #: armed fault directives (kind, phase, point|None, hang_s) — injected
    #: failures the worker fires with real effects; see repro.fault.
    faults: List[tuple] = field(default_factory=list)
    #: undo slots, parallel to ``points``: per point, one (segment,
    #: offset, count, dtype) | None per (WRITE/READ_WRITE requirement,
    #: field) in gather order.  A slot means the field is written in place
    #: and the worker gathers its current bytes there before the body; None
    #: (or no list) means it pickles the final bytes into
    #: ``TaskResult.writes`` after the body (exec/shm.py).
    undo_slots: Optional[List[List[Optional[tuple]]]] = None
    #: (segment, offset, 1, dtype) of an int64 the worker sets to the
    #: number of points whose undo slots are complete; None: no slots.
    undo_done: Optional[tuple] = None


@dataclass
class TaskResult:
    """What one point task produced, addressed by its plan-list ordinal.

    Workers never see the parent's task-id counter: ids are drawn at
    commit, so a bailed dispatch consumes none.
    """

    ordinal: int
    point: tuple
    value_blob: bytes               # future value (pickled separately)
    writes: List[tuple]             # (requirement index, field, final values)
    reduces: List[tuple]            # (region_uid, field, idx, values, op name)
    span: Optional[tuple]           # (start, end) on the worker clock


@dataclass
class ShardResult:
    """One worker's answer for one shard."""

    node: int
    t0: float                       # worker perf_counter at shard start
    tasks: List[TaskResult] = field(default_factory=list)
    shm_closed: int = 0             # stale segment attachments released
    plan_hit: bool = False          # run from the worker's plan memo
