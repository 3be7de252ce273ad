"""Zero-copy shared-memory transport for shard footprint data.

Hot-path engine layer 1 (see ``docs/hot-path.md``).  The parallel backend
ships two kinds of bulk array data per shard: *read footprints* (the region
bytes a shard's tasks read, scattered into worker-local storage at install)
and *write-back footprints* (the final bytes a shard's WRITE/READ_WRITE
tasks produced, scattered into parent storage at commit).  Both previously
traveled as pickled numpy arrays inside the plan/result blobs; this module
moves them through per-worker ``multiprocessing.shared_memory`` segments so
the plan and result carry only small descriptors:

* read footprint (in ``ShardPlan.read_data``; see :class:`Footprint`)::

      ("box", region_uid, field, corners, values)
      ("idx", region_uid, field, indices, values)

  where each array slot holds an shm reference ``(segment, offset, count,
  dtype)``.  A rectangular footprint is a short list of *boxes*: one
  ``lo..., hi...`` row of ``corners`` each, their cells back to back in
  ``values``, each copied out of the region — and, by the worker, into its
  own storage — with one strided slice copy; no index array exists on
  either side.  Only a sparse footprint ships one index per cell.

* write slot (in ``ShardPlan.write_slots``, one entry per (requirement,
  field) in the worker's gather order)::

      (segment, val_off, count, val_dtype)

  The parent allocates an uninitialized slot per write footprint
  (projection is pure, so parent and worker derive identical subregions);
  the worker gathers its final bytes into it instead of pickling them, and
  the parent commits its view of the slot straight into the subregion.

Ownership and lifecycle — designed so the PR 5/6 stale-shipment protocol
carries over unchanged:

* Segments are **parent-owned**: created, rewound, and unlinked only by the
  parent.  Workers attach read-only by name and explicitly *unregister*
  the attachment from their resource tracker, so a worker death can never
  reap a live segment.
* Segment names embed the worker index and **generation**
  (``reproshm-<pid>p<pool>w<k>g<gen>-<seq>``).  ``WorkerPool.reset_worker``
  bumps the generation and unlinks the old generation's segments, so a
  zombie process from before a respawn writes into an orphaned mapping —
  exactly the fate of its stale cache shipments.
* Offsets grow monotonically across a dispatch (retries included) and are
  **rewound** only after a successful commit, when every future has been
  collected and no worker can still be writing.  A dispatch abandoned for
  the serial fallback *abandons* (unlinks) the current segments instead:
  an uncollected straggler keeps its orphaned mapping and the next
  dispatch starts on fresh segments.

Fallback: every entry degrades independently to the pickle transport —
object/void dtypes, zero-length write footprints, allocation failures, or
shm being unavailable (``REPRO_SHM=0``, ``RuntimeConfig.shm=False``, or no
platform support) put the arrays themselves where the references would be
(:meth:`Footprint.inline`); the worker accepts either, and CI runs both.
"""

from __future__ import annotations

import os
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.collection import RectSubset, Subregion
from repro.obs.profiler import NULL_PROFILER

try:  # pragma: no cover - exercised on every POSIX CI leg
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None

__all__ = ["Footprint", "ShmArena", "ShmStats", "shm_env_enabled"]


def shm_env_enabled() -> bool:
    """The ``REPRO_SHM`` gate: unset or ``1`` means on, ``0`` means off."""
    return os.environ.get("REPRO_SHM", "1").strip() != "0"


class ShmStats:
    """Hot-path counters for the shared-memory transport."""

    __slots__ = (
        "read_entries",
        "read_boxes",       # staged as box corners + values
        "read_indexed",     # staged as index array + values (sparse subsets)
        "read_fallbacks",
        "write_slots",
        "write_fallbacks",
        "bytes_staged",
        "bytes_slotted",
        "segments_created",
        "segments_unlinked",
        "rewinds",
        "abandons",
        "teardown_errors",
        "worker_closes",    # stale attachments workers reported releasing
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Segment:
    __slots__ = ("shm", "size", "used")

    def __init__(self, shm, size: int):
        self.shm = shm
        self.size = size
        self.used = 0


_ARENA_COUNTER = [0]

#: Smallest segment; grows geometrically per worker as dispatches demand.
_MIN_SEGMENT = 1 << 16
_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class Footprint:
    """What a shard moves of one ``(region, field)`` — a list of rect
    subregions (boxes) or one sparse subregion, values back to back in that
    order — with everything moving it needs worked out once."""

    __slots__ = ("sub", "parts", "fname", "count", "dtype", "where", "head",
                 "nbytes", "val_off")

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
        #: arena bytes of the values; 0 = travels by pickle only.  A staged
        #: read puts ``where`` in front of them, values at ``val_off``.
        self.nbytes = 0
        self.val_off = _aligned(self.where.nbytes)
        if self.count > 0 and not self.dtype.hasobject and self.dtype.kind != "V":
            self.nbytes = _aligned(self.count * self.dtype.itemsize)

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


class ShmArena:
    """Per-pool allocator of parent-owned shared-memory segments.

    One arena serves one :class:`~repro.exec.pool.WorkerPool`; worker ``k``
    of generation ``g`` draws from segments named for ``(k, g)``.  All
    methods are parent-side only and single-threaded (the backend's
    dispatch loop); ``None`` returns mean "use the pickle fallback for this
    entry" and never raise.
    """

    def __init__(self, n: int):
        self.n = n
        self.available = _shared_memory is not None
        self.stats = ShmStats()
        self._segments: List[List[_Segment]] = [[] for _ in range(n)]
        #: Unlinked but still-mapped segments.  A retired segment may hold
        #: write slots whose parent-side views an in-flight dispatch still
        #: reads at commit (the stale-success-racing-respawn interleaving),
        #: and ``SharedMemory.close()`` does *not* refuse while numpy views
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
        """Make room for a whole dispatch's staging on worker ``k`` at once;
        sizing a new segment for the entry in hand instead walks
        8 -> 16 -> 32 MB, retiring two segments it just filled."""
        slice_ = self._alloc(k, gen, nbytes) if nbytes else None
        if slice_ is not None:
            slice_[0].used = slice_[1]      # hand the room straight back

    def view(self, seg: _Segment, offset: int, count: int, dtype):
        return np.ndarray(count, dtype=dtype, buffer=seg.shm.buf, offset=offset)

    # -------------------------------------------------------------- staging
    def stage_read(self, k: int, gen: int, fp: Footprint) -> Optional[tuple]:
        """Gather one read footprint into shm; returns its wire entry."""
        where, val_off = fp.where, fp.val_off
        slice_ = self._alloc(k, gen, val_off + fp.nbytes) if fp.nbytes else None
        if slice_ is None:
            self.stats.read_fallbacks += 1
            return None
        seg, offset = slice_
        name = seg.shm.name
        self.view(seg, offset, where.size, where.dtype)[:] = where
        fp.gather(self.view(seg, offset + val_off, fp.count, fp.dtype))
        stats = self.stats
        stats.read_entries += 1
        stats.bytes_staged += fp.count * fp.dtype.itemsize
        if fp.head[0] == "box":
            stats.read_boxes += 1
        else:
            stats.read_indexed += 1
            stats.bytes_staged += where.nbytes
        return fp.head + (
            (name, offset, where.size, where.dtype.str),
            (name, offset + val_off, fp.count, fp.dtype.str),
        )

    def alloc_write_slot(
        self, k: int, gen: int, fp: Footprint
    ) -> Optional[Tuple[tuple, np.ndarray]]:
        """An uninitialized gather-back slot: (wire descriptor, parent view)."""
        slice_ = self._alloc(k, gen, fp.nbytes) if fp.nbytes else None
        if slice_ is None:
            self.stats.write_fallbacks += 1
            return None
        seg, offset = slice_
        view = self.view(seg, offset, fp.count, fp.dtype)
        self.stats.write_slots += 1
        self.stats.bytes_slotted += view.nbytes
        return (seg.shm.name, offset, fp.count, fp.dtype.str), view

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
        """A segment unlink/close failed.  Historically swallowed with a
        bare ``except: pass``; now counted (``stats.teardown_errors``) and
        emitted as an obs instant so shm leaks are diagnosable."""
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
        """A dispatch bailed with futures possibly uncollected: these
        offsets can never be trusted again, so retire the segments."""
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
