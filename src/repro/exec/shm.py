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
  point's WRITE/READ_WRITE boxes into undo slots the parent allocated in
  a per-worker arena segment (``ShardPlan.undo_slots``), then bumps the
  shard's progress counter (``ShardPlan.undo_done``) to the number of
  points whose slots are complete.  On every retry, respawn and serial
  fallback the parent scatters the complete slots back — a slot torn by a
  mid-gather death is never counted, and its point's body never ran.

* **Restore only after the writer is gone.**  The parent restores an
  attempt only once its worker has replied or been killed *and reaped*:
  a hung process restored around would land its write after the restore.
  The ladder restores after ``reset_worker`` (kill + reap), a fallback
  first waits for or resets every sibling still running.  The protocol,
  and four must-fail mutations of it, are checked in
  :mod:`repro.formal.commit_model`.

Arena lifecycle: undo segments are parent-owned and named for their
worker and **generation** (``reproshm-<pid>p<pool>w<k>g<gen>-<seq>``);
workers attach by name and unregister the attachment from their resource
tracker, so a worker death never reaps a live segment.  Offsets grow
across a dispatch (retries included) and rewind only after a commit;
``reset_worker`` and a serial fallback retire (unlink) the segments a
stale process could still touch.  A steady launch takes its shards'
slots with :meth:`ShmArena.retake` instead of allocating them: the
recorded offsets, handed out again only where fresh allocations would
land anyway.

Region segments are unlinked when their region is collected, when its
runtime's backend shuts down, at :func:`~repro.exec.pool.shutdown_pools`
(:func:`release_instances`), and at exit; storage stays readable after that, but new workers can no longer
map it, so a released region takes the pickled path.  A region whose
segment cannot be allocated (``/dev/shm`` full) keeps plain numpy storage
and the pickled path, counted as ``ShmStats.instance_fallbacks``.

The pickled path — non-shm-able dtypes, ``shm=False`` / ``REPRO_SHM=0``,
the ``socket`` transport — is unchanged: read footprints travel as arrays
in ``ShardPlan.read_data`` and writes come back in ``TaskResult.writes``.
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
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _posixshmem = _shared_memory = None

__all__ = [
    "Footprint",
    "ShmArena",
    "ShmStats",
    "SlotSet",
    "attach_instance",
    "in_place",
    "map_region",
    "release_instances",
    "shm_env_enabled",
]


def shm_env_enabled() -> bool:
    """The ``REPRO_SHM`` gate: unset or ``1`` means on, ``0`` means off."""
    return os.environ.get("REPRO_SHM", "1").strip() != "0"


class ShmStats:
    """Hot-path counters for the shared-memory layer."""

    __slots__ = (
        "read_fallbacks",      # read footprints pickled while shm is on
        "write_fallbacks",     # write footprints pickled while shm is on
        "write_slots",         # undo slots allocated
        "bytes_staged",        # read bytes pickled into plans, shm on
        "bytes_slotted",       # undo-slot bytes
        "undo_restores",       # undo slots scattered back on recovery
        "instance_fallbacks",  # regions left on plain numpy storage
        "segments_created",
        "segments_unlinked",
        "rewinds",
        "abandons",
        "teardown_errors",
        "worker_closes",       # stale attachments workers reported releasing
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


def _unlink_segment(owner: int, name: str) -> None:
    # Forked workers inherit the finalizer; only the owner unlinks.
    if os.getpid() == owner:
        try:
            _posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


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
    name = f"reproshm-{os.getpid()}pr{region.uid}"
    try:
        try:
            mm = _open_segment(name, size)
        except FileExistsError:  # a stale run's segment: never reuse it
            name = f"{name}-{secrets.token_hex(4)}"
            mm = _open_segment(name, size)
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
    """What a shard moves of one ``(region, field)`` — a list of rect
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
    __slots__ = ("shm", "size", "used")

    def __init__(self, shm, size: int):
        self.shm = shm
        self.size = size
        self.used = 0


class SlotSet:
    """One shard attempt's slots, recorded so that a later dispatch can take
    the very same offsets again (:meth:`ShmArena.retake`): the generation
    and segment they were carved from, the byte range, what they charged,
    and the parent view of the progress counter that opens the range."""

    __slots__ = ("gen", "seg", "start", "end", "slots", "nbytes", "progress")

    def __init__(self, gen, seg, start, end, slots, nbytes, progress):
        self.gen = gen
        self.seg = seg
        self.start = start
        self.end = end
        self.slots = slots
        self.nbytes = nbytes
        self.progress = progress


_ARENA_COUNTER = [0]

#: Smallest segment; grows geometrically per worker as dispatches demand.
_MIN_SEGMENT = 1 << 16

#: bytes of a shard's progress counter: one int64, padded to a slot.
PROGRESS_BYTES = _ALIGN


class ShmArena:
    """Per-pool allocator of parent-owned undo-slot segments.

    One arena serves one :class:`~repro.exec.pool.WorkerPool`; worker ``k``
    of generation ``g`` draws from segments named for ``(k, g)``.  All
    methods are parent-side only and single-threaded (the backend's
    dispatch loop); ``None`` returns mean "no slot" and never raise.
    """

    def __init__(self, n: int):
        self.n = n
        self.available = _shared_memory is not None
        self.stats = ShmStats()
        #: slots actually carved out of a segment; ``stats.write_slots`` is
        #: what the dispatches charged, retaken sets included.
        self.allocations = 0
        self._segments: List[List[_Segment]] = [[] for _ in range(n)]
        #: Unlinked but still-mapped segments.  A retired segment may hold
        #: undo slots whose parent-side views a recovery still reads (the
        #: slots of an attempt whose worker was just reset), and
        #: ``SharedMemory.close()`` does *not* refuse while numpy views
        #: exist — it silently unmaps, and the next segment's mapping can
        #: land at the same address, aliasing the dangling views onto fresh
        #: data.  So retirement only unlinks (frees the name); the mapping
        #: stays open until :meth:`close`, when no dispatch can be alive.
        self._retired: List[_Segment] = []
        self._gens = [0] * n
        self._seq = [0] * n
        _ARENA_COUNTER[0] += 1
        self._tag = f"{os.getpid()}p{_ARENA_COUNTER[0]}"
        #: re-pointed by the owning pool so teardown errors land in the
        #: runtime's trace/metrics stream.
        self.profiler = NULL_PROFILER

    # ------------------------------------------------------------ allocation
    def _alloc(self, k: int, gen: int, nbytes: int):
        """An (segment, offset) slice for ``nbytes``, or None on failure."""
        if not self.available:
            return None
        if gen != self._gens[k]:
            # The pool respawned this worker without telling us (defensive;
            # reset_worker normally calls on_reset first).
            self._drop_worker(k)
            self._gens[k] = gen
        segs = self._segments[k]
        if segs:
            seg = segs[-1]
            offset = (seg.used + _ALIGN - 1) & ~(_ALIGN - 1)
            if offset + nbytes <= seg.size:
                seg.used = offset + nbytes
                return seg, offset
        size = max(
            _MIN_SEGMENT,
            segs[-1].size * 2 if segs else 0,
            1 << max(nbytes - 1, 1).bit_length(),
        )
        name = f"reproshm-{self._tag}w{k}g{gen}-{self._seq[k]}"
        self._seq[k] += 1
        try:
            shm = _shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except Exception:
            try:  # name collision with a stale run: retry anonymously
                shm = _shared_memory.SharedMemory(create=True, size=size)
            except Exception:
                self.available = False  # e.g. /dev/shm missing or full
                return None
        seg = _Segment(shm, size)
        segs.append(seg)
        self.stats.segments_created += 1
        seg.used = nbytes
        return seg, 0

    def reserve(self, k: int, gen: int, nbytes: int) -> None:
        """Make room for a whole dispatch's slots on worker ``k`` at once;
        sizing a new segment for the slot in hand instead walks
        8 -> 16 -> 32 MB, retiring two segments it just filled."""
        slice_ = self._alloc(k, gen, nbytes) if nbytes else None
        if slice_ is not None:
            slice_[0].used = slice_[1]      # hand the room straight back

    def view(self, seg: _Segment, offset: int, count: int, dtype):
        return np.ndarray(count, dtype=dtype, buffer=seg.shm.buf, offset=offset)

    def _slot(self, k: int, gen: int, nbytes: int, count: int, dtype):
        slice_ = self._alloc(k, gen, nbytes) if nbytes else None
        if slice_ is None:
            return None
        seg, offset = slice_
        self.allocations += 1
        return ((seg.shm.name, offset, count, dtype.str),
                self.view(seg, offset, count, dtype))

    def alloc_undo_slot(
        self, k: int, gen: int, fp: Footprint
    ) -> Optional[Tuple[tuple, np.ndarray]]:
        """An uninitialized undo slot for a write footprint: (wire
        descriptor, parent view), or None."""
        slot = self._slot(k, gen, fp.nbytes, fp.count, fp.dtype)
        if slot is not None:
            self.stats.write_slots += 1
            self.stats.bytes_slotted += slot[1].nbytes
        return slot

    def alloc_progress(
        self, k: int, gen: int
    ) -> Optional[Tuple[tuple, np.ndarray]]:
        """A shard's zeroed progress counter: (descriptor, parent view)."""
        slot = self._slot(k, gen, PROGRESS_BYTES, 1, np.dtype(np.int64))
        if slot is not None:
            slot[1][0] = 0
        return slot

    def record(self, k: int, gen: int, progress, slots: int,
               nbytes: int) -> Optional[SlotSet]:
        """The slots worker ``k`` was handed since ``progress`` (the shard's
        first allocation, from :meth:`alloc_progress`), charged ``slots`` /
        ``nbytes``, as a retakeable set; None when they did not stay in one
        segment."""
        segs = self._segments[k]
        descriptor, view = progress
        if not segs or segs[-1].shm.name != descriptor[0]:
            return None
        seg = segs[-1]
        return SlotSet(gen, seg, descriptor[1], seg.used, slots, nbytes, view)

    def retake(self, k: int, gen: int, taken: SlotSet) -> bool:
        """Hand ``taken``'s offsets out again, exactly where allocating the
        same slots would put them: only while worker ``k`` is generation
        ``gen`` as at the record, ``taken``'s segment is still its newest,
        and that segment is rewound to where ``taken`` began.  Re-zeroes
        the progress counter and charges ``write_slots`` / ``bytes_slotted``
        as the allocations would; False (nothing changed) otherwise."""
        seg = taken.seg
        segs = self._segments[k]
        if not (
            self.available
            and gen == taken.gen == self._gens[k]
            and segs and segs[-1] is seg
            and (seg.used + _ALIGN - 1) & ~(_ALIGN - 1) == taken.start
        ):
            return False
        seg.used = taken.end
        taken.progress[0] = 0
        self.stats.write_slots += taken.slots
        self.stats.bytes_slotted += taken.nbytes
        return True

    # ------------------------------------------------------------ lifecycle
    def _retire(self, seg: _Segment) -> None:
        """Free the segment's *name* now; keep its mapping open.

        Workers unregister their attachments from the (fork-shared)
        resource tracker so a worker death can never reap a live segment —
        which may have removed *our* registration too.  Re-register first
        so unlink()'s internal unregister always balances instead of
        spraying KeyError noise in the tracker process.
        """
        try:
            from multiprocessing import resource_tracker

            resource_tracker.register(seg.shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker impl details vary
            pass
        try:
            seg.shm.unlink()
            self.stats.segments_unlinked += 1
        except Exception as exc:  # pragma: no cover - already gone
            self._note_teardown_error(exc)
        self._retired.append(seg)

    def _note_teardown_error(self, exc: BaseException) -> None:
        """A segment unlink/close failed: counted
        (``stats.teardown_errors``) and emitted as an obs instant so shm
        leaks are diagnosable."""
        self.stats.teardown_errors += 1
        prof = self.profiler
        if prof.enabled:
            prof.count("shm.teardown_errors", 1.0, kind=type(exc).__name__)
            prof.instant("shm.teardown_error", "execution",
                         kind=type(exc).__name__, detail=str(exc))

    def _drop_worker(self, k: int) -> None:
        for seg in self._segments[k]:
            self._retire(seg)
        self._segments[k] = []

    def on_reset(self, k: int, new_gen: int) -> None:
        """Worker respawn: orphan everything its old incarnation could
        still be writing to, and key future segments to the new gen."""
        self._drop_worker(k)
        self._gens[k] = new_gen

    def rewind_all(self) -> None:
        """Reclaim offsets after a committed dispatch (no outstanding
        writers by construction).  Keeps only each worker's newest — and
        largest — segment so steady state settles to one segment each."""
        self.stats.rewinds += 1
        for k in range(self.n):
            segs = self._segments[k]
            for seg in segs[:-1]:
                self._retire(seg)
            del segs[:-1]
            if segs:
                segs[-1].used = 0

    def abandon_all(self) -> None:
        """A dispatch bailed: its offsets can never be trusted again, so
        retire the segments."""
        self.stats.abandons += 1
        for k in range(self.n):
            self._drop_worker(k)

    def close(self) -> None:
        for k in range(self.n):
            self._drop_worker(k)
        for seg in self._retired:
            try:
                seg.shm.close()
            except Exception as exc:  # pragma: no cover
                self._note_teardown_error(exc)
        self._retired.clear()

    def live_segments(self) -> List[str]:
        """Names of every segment currently linked (leak-test hook)."""
        return [
            seg.shm.name
            for segs in self._segments
            for seg in segs
        ]
