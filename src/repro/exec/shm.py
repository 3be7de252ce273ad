"""Shared-memory region instances and undo slots for pipe workers.

Hot-path engine layer 1 (see ``docs/hot-path.md``).  §5's physical
analysis exists so a task runs on an instance that already holds valid
data.  On a transport whose workers share the parent's shm namespace
(``pipe``), the parent's region storage *is* that instance:

* **Region instances.**  ``Runtime.create_region`` backs every shm-able
  field of a region with one named, parent-owned segment
  (``reproshm-<pid>pr<uid>``, fields back to back; see
  :func:`map_region`).  ``region_spec`` carries the segment name, and a
  worker installing the region maps it (:func:`attach_instance`) instead
  of allocating private storage.  Bodies then read and write the parent's
  bytes in place: no read footprint is staged into a plan and no write is
  scattered back at commit.  This is sound because a verified launch's
  write footprints are pairwise disjoint and disjoint from every other
  point's reads, so workers may write their pieces of the one instance in
  any order.

* **Undo slots.**  What in-place writes give up is fault atomicity: a
  worker that dies, hangs, or returns garbage has already changed the
  parent's storage.  So before each point's body the worker gathers the
  point's WRITE/READ_WRITE boxes into undo slots in its own parent-owned
  segment (``ShardPlan.undo_slots``), then bumps the unit's progress
  counter (``ShardPlan.undo_done``) to the number of points whose slots
  are complete.  On every retry, respawn and serial fallback the parent
  scatters the complete slots back — a slot torn by a mid-gather death is
  never counted, and its point's body never ran.

* **Restore only after the writer is gone.**  The parent restores an
  attempt only once its worker has replied or been killed *and reaped*:
  a hung process restored around would land its write after the restore.
  The ladder restores after ``reset_worker`` (kill + reap), a fallback
  first waits for or resets every sibling still running.  The protocol,
  and four must-fail mutations of it, are checked in
  :mod:`repro.formal.commit_model`.

Segments: region instances and undo arenas are the same kind of object,
made and unmapped the same way.  :func:`_open_segment` creates one with
``O_EXCL`` and reserves its pages up front (``posix_fallocate``), so a
full ``/dev/shm`` fails at creation with ``ENOSPC`` instead of raising
SIGBUS at the first write; workers attach by name.  Only the owner
unlinks (:func:`_unlink_segment`).  A mapping is never closed: it unmaps
when its last reference goes, and every numpy view of it is one, so a
view that outlives the segment's name or its owner's bookkeeping still
reads live memory (closing an ``mmap`` under a view leaves a dangling
pointer).

Arena lifecycle: a worker carries one unit per launch, so it has one
parent-owned undo segment, named for the worker and its **generation**
(``reproshm-<pid>p<pool>w<k>g<gen>-<seq>``).  A unit's slots sit at fixed
offsets in it — the progress counter at 0, then one slot per in-place
write footprint in gather order — and serve every later launch of the
signature, and a retry on the same worker process (it follows that
worker's reply), for as long as the segment stays the worker's.  The
parent zeroes the counter before every attempt.  :meth:`ShmArena.segment`
grows a worker's segment by replacing it; ``reset_worker`` and a serial
fallback retire the segments a stale process could still touch — unlink
the name, drop the reference.  A segment that cannot be created switches
the arena off: a launch that writes a mapped region then falls back to
the serial backend (``no_undo_shm``), and regions created later stay
unmapped.

Region segments are unlinked when their region is collected, when its
runtime's backend shuts down, at :func:`~repro.exec.pool.shutdown_pools`
(:func:`release_instances`), and at exit; storage stays readable after
that, but new workers can no longer map it, so a released region takes
the pickled path.  A region whose segment cannot be allocated
(``/dev/shm`` full) keeps plain numpy storage and the pickled path,
counted as ``ShmStats.instance_fallbacks``.

Everything unmapped — non-shm-able dtypes, the instance fallback, the
``socket`` transport — takes the pickled path: read footprints travel as
arrays in ``ShardPlan.read_data`` and writes come back in
``ShardResult.writes``.
"""

from __future__ import annotations

import mmap
import os
import secrets
import weakref
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.collection import RectSubset, Subregion
from repro.obs.profiler import NULL_PROFILER

try:  # pragma: no cover - exercised on every POSIX CI leg
    import _posixshmem
except ImportError:  # pragma: no cover - exotic platforms only
    _posixshmem = None

__all__ = [
    "Footprint",
    "ShmArena",
    "ShmStats",
    "attach_instance",
    "in_place",
    "map_region",
    "release_instances",
]


class ShmStats:
    """Hot-path counters for the shared-memory layer."""

    __slots__ = (
        "read_fallbacks",      # read footprints pickled beside the arena
        "write_fallbacks",     # write footprints pickled beside the arena
        "write_slots",         # undo slots handed to unit attempts
        "bytes_staged",        # read bytes pickled into plans, arena on
        "bytes_slotted",       # undo-slot bytes
        "undo_restores",       # undo slots scattered back on recovery
        "instance_fallbacks",  # regions left on plain numpy storage
        "segments_created",
        "segments_unlinked",
        "rewinds",
        "abandons",
        "teardown_errors",
        "worker_releases",     # stale attachments workers reported dropping
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def _shmable(dtype: np.dtype) -> bool:
    return not dtype.hasobject and dtype.kind != "V"


_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


# ------------------------------------------------------- region instances
class RegionInstance:
    """The named segment backing a region's shm-able fields."""

    __slots__ = ("name", "offsets", "release")

    def __init__(self, region, name: str, offsets: Dict[str, int]):
        self.name = name
        self.offsets = offsets
        #: unlinks the name once: at collection of the region, at
        #: :func:`release_instances`, or at exit — whichever comes first.
        self.release = weakref.finalize(
            region, _unlink_segment, os.getpid(), name
        )

    def spec(self) -> tuple:
        """What ``region_spec`` ships: segment name and field offsets."""
        return self.name, tuple(self.offsets.items())


#: regions currently backed by a linked segment (see release_instances).
_MAPPED: "weakref.WeakSet" = weakref.WeakSet()


def _layout(region) -> Tuple[Dict[str, int], int]:
    """Field offsets in a region's segment and the segment size."""
    offsets, size = {}, 0
    for fname, dt in region.fields.items():
        dtype = np.dtype(dt)
        if _shmable(dtype):
            offsets[fname] = size
            size += _aligned(region.volume * dtype.itemsize)
    return offsets, size


def _open_segment(name: str, size: int = 0) -> mmap.mmap:
    """Map segment ``name``: create it ``size`` bytes long (reserved up
    front, so a full ``/dev/shm`` fails here instead of faulting later),
    or attach the whole existing segment when ``size`` is 0."""
    flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if size else 0)
    fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
    try:
        if size:
            try:
                os.posix_fallocate(fd, 0, size)
            except OSError:
                _posixshmem.shm_unlink("/" + name)
                raise
        return mmap.mmap(fd, size)
    finally:
        os.close(fd)


def _create_segment(name: str, size: int) -> Tuple[str, mmap.mmap]:
    """Create segment ``name`` (see :func:`_open_segment`); a stale run's
    segment under that name is never reused — the new one gets a random
    suffix.  Raises OSError when ``/dev/shm`` cannot back it."""
    try:
        return name, _open_segment(name, size)
    except FileExistsError:
        name = f"{name}-{secrets.token_hex(4)}"
        return name, _open_segment(name, size)


def _unlink_segment(owner: int, name: str) -> Optional[OSError]:
    """Unlink ``name`` if this process is its ``owner`` (forked workers
    inherit finalizers and arenas); the error, if the unlink failed."""
    if os.getpid() == owner:
        try:
            _posixshmem.shm_unlink("/" + name)
        except OSError as exc:
            return exc
    return None


def _bind(region, mm: mmap.mmap, offsets) -> None:
    for fname, offset in offsets:
        region._storage[fname] = np.ndarray(
            region.volume, dtype=region._storage[fname].dtype, buffer=mm,
            offset=offset,
        )


def map_region(region) -> bool:
    """Move a freshly created (all-zero) region's shm-able fields into one
    new named segment; False if it could not be allocated."""
    offsets, size = _layout(region)
    if not size:
        return True                 # no shm-able field: nothing to map
    try:
        name, mm = _create_segment(f"reproshm-{os.getpid()}pr{region.uid}",
                                   size)
    except OSError:
        return False
    _bind(region, mm, offsets.items())
    region.instance = RegionInstance(region, name, offsets)
    _MAPPED.add(region)
    return True


def attach_instance(region, spec: tuple) -> None:
    """Worker side: map the parent's segment as ``region``'s storage."""
    name, offsets = spec
    _bind(region, _open_segment(name), offsets)


def in_place(region, fname: str) -> bool:
    """Whether workers read and write ``fname`` of ``region`` in place."""
    instance = region.instance
    return instance is not None and fname in instance.offsets


def release_instances(regions=None) -> int:
    """Unlink the segments of ``regions`` (default: every mapped region,
    at pool shutdown).  The parent keeps its mappings, so storage stays
    readable; the regions take the pickled path from now on, because no
    new worker could map them."""
    released = 0
    for region in list(_MAPPED if regions is None else regions):
        if region.instance is None:
            continue
        region.instance.release()
        region.instance = None
        _MAPPED.discard(region)
        released += 1
    return released


# -------------------------------------------------------------- footprints
class Footprint:
    """What a unit moves of one ``(region, field)`` — a list of rect
    subregions (boxes) or one sparse subregion, values back to back in that
    order — with everything moving it needs worked out once."""

    __slots__ = ("sub", "parts", "fname", "count", "dtype", "where", "head",
                 "nbytes", "in_place")

    def __init__(self, subs: List[Subregion], fname: str):
        self.sub = first = subs[0]      # a write footprint's one subregion
        self.fname = fname
        self.dtype = first.region.storage(fname).dtype
        ends = list(accumulate(sub.volume for sub in subs))
        self.parts = list(zip(subs, [0] + ends, ends))
        self.count = ends[-1]
        if isinstance(first.subset, RectSubset):
            kind = "box"
            self.where = np.array(
                [(*sub.subset.rect.lo, *sub.subset.rect.hi) for sub in subs],
                dtype=np.int64,
            ).ravel()
        else:
            kind, self.where = "idx", first._indices()
        self.head = (kind, first.region.uid, fname)
        #: arena bytes of an undo slot for it (0: nothing to undo)
        self.nbytes = _aligned(self.count * self.dtype.itemsize)
        #: workers write it in place (see module docstring)
        self.in_place = in_place(first.region, fname)

    def gather(self, out: np.ndarray) -> np.ndarray:
        """The current values, each part through its own accessor."""
        if len(self.parts) == 1:
            return self.sub.gather(self.fname, out)
        for sub, start, end in self.parts:
            sub.gather(self.fname, out[start:end])
        return out

    def inline(self) -> tuple:
        """The read entry with the arrays themselves in it (pickle form)."""
        return self.head + (
            self.where, self.gather(np.empty(self.count, self.dtype))
        )


# ------------------------------------------------------------------ arena
class _Segment:
    __slots__ = ("name", "mm", "size")

    def __init__(self, name: str, mm: mmap.mmap, size: int):
        self.name = name
        self.mm = mm
        self.size = size


_ARENA_COUNTER = [0]

#: Smallest segment; grows geometrically per worker as dispatches demand.
_MIN_SEGMENT = 1 << 16

#: bytes of a unit's progress counter: one int64, padded to a slot.
PROGRESS_BYTES = _ALIGN


class ShmArena:
    """Per-pool owner of the parent's undo segments, one per worker.

    One arena serves one :class:`~repro.exec.pool.WorkerPool`; worker ``k``
    of generation ``g`` writes its unit's undo slots into the one segment
    named for ``(k, g)``.  All methods are parent-side only and
    single-threaded (the backend's dispatch loop); a ``None`` segment
    means "no undo slots" and never raises.
    """

    def __init__(self, n: int):
        self.n = n
        self.available = _posixshmem is not None
        self.stats = ShmStats()
        self._segments: List[Optional[_Segment]] = [None] * n
        self._gens = [0] * n
        self._seq = [0] * n
        self._owner = os.getpid()
        _ARENA_COUNTER[0] += 1
        self._tag = f"{self._owner}p{_ARENA_COUNTER[0]}"
        #: re-pointed by the owning pool so teardown errors land in the
        #: runtime's trace/metrics stream.
        self.profiler = NULL_PROFILER

    def segment(self, k: int, gen: int, nbytes: int) -> Optional[_Segment]:
        """Worker ``k``'s segment, at least ``nbytes`` long: the one it
        has, or a larger one that retires the old (whose writers have all
        replied or been reaped).  None when the arena is off or cannot
        create it, which switches it off."""
        if not self.available:
            return None
        if gen != self._gens[k]:
            # The pool respawned this worker without telling us (defensive;
            # reset_worker normally calls on_reset first).
            self.on_reset(k, gen)
        seg = self._segments[k]
        if seg is not None and nbytes <= seg.size:
            return seg
        size = max(
            _MIN_SEGMENT,
            seg.size * 2 if seg is not None else 0,
            1 << max(nbytes - 1, 1).bit_length(),
        )
        name = f"reproshm-{self._tag}w{k}g{gen}-{self._seq[k]}"
        self._seq[k] += 1
        try:
            new = _Segment(*_create_segment(name, size), size)
        except OSError:
            self.available = False  # e.g. /dev/shm missing or full
            return None
        self._drop_worker(k)
        self._segments[k] = new
        self.stats.segments_created += 1
        return new

    # ------------------------------------------------------------ lifecycle
    def _retire(self, seg: _Segment) -> None:
        """Unlink the segment's name and drop the arena's reference: the
        mapping goes with the last view into it (a recovery may still be
        reading the undo slots of an attempt whose worker was just reset)."""
        exc = _unlink_segment(self._owner, seg.name)
        if exc is None:
            self.stats.segments_unlinked += 1
        else:
            self._note_teardown_error(exc)

    def _note_teardown_error(self, exc: BaseException) -> None:
        """A segment unlink failed: counted (``stats.teardown_errors``) and
        emitted as an obs instant so shm leaks are diagnosable."""
        self.stats.teardown_errors += 1
        prof = self.profiler
        prof.count("shm.teardown_errors", 1.0, kind=type(exc).__name__)
        prof.instant("shm.teardown_error", "execution",
                     kind=type(exc).__name__, detail=str(exc))

    def _drop_worker(self, k: int) -> None:
        seg, self._segments[k] = self._segments[k], None
        if seg is not None:
            self._retire(seg)

    def on_reset(self, k: int, new_gen: int) -> None:
        """Worker respawn: orphan the segment its old incarnation could
        still be writing to, and key the next one to the new gen."""
        self._drop_worker(k)
        self._gens[k] = new_gen

    def rewind_all(self) -> None:
        """A dispatch committed: no writer is outstanding by construction,
        so a commit leaves the slots free again.  Only counted."""
        self.stats.rewinds += 1

    def abandon_all(self) -> None:
        """A dispatch bailed: its slots can never be trusted again, so
        retire the segments."""
        self.stats.abandons += 1
        self.close()

    def close(self) -> None:
        for k in range(self.n):
            self._drop_worker(k)

    def live_segments(self) -> List[str]:
        """Names of every segment currently linked (leak-test hook)."""
        return [seg.name for seg in self._segments if seg is not None]
