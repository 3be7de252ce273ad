"""Persistent worker pools for the parallel execution backend.

A :class:`WorkerPool` owns ``n`` worker slots rather than one shared work
queue: node ``i`` of every launch always lands on slot ``i % n`` — the
backend submits each slot one unit per launch, the points of all its
nodes — which makes worker-side caches (task functions, partition colors, sparse
subsets, region skeletons) deterministic — the parent knows exactly what
each worker already holds and ships only deltas, mirroring how DCR's
control replicas keep persistent per-node state across launches.

*How* a slot is reached is the transport's business
(:mod:`repro.exec.transport`): one selector-driven engine over framed
fds, with ``pipe`` forking persistent workers wired by raw pipes and
``socket`` running standalone worker processes over loopback sockets
(see ``docs/distributed-transport.md``).
The pool keeps everything transport-independent: cache bookkeeping,
respawn generations, the shm arena, and teardown-error counts.  The pool
carries launch units only: dynamic checks are evaluated inline in the
parent, one vectorised sweep per check.

Pools are cached per ``(worker count, transport)`` in a module-level
registry so iterated benchmarks and long CLI runs reuse warm workers;
:func:`shutdown_pools` (also registered via ``atexit``) tears everything
down — region instances included — and the CLI calls it on every exit
path so error paths cannot leak worker processes or segments.
"""

from __future__ import annotations

import atexit
import os
from typing import Dict, List, Optional, Tuple

from repro.exec.shm import ShmArena, release_instances
from repro.exec.transport import make_transport, resolve_transport
from repro.obs.profiler import NULL_PROFILER

__all__ = [
    "WorkerPool",
    "get_pool",
    "shutdown_pools",
    "active_pool_count",
    "resolve_workers",
]


def resolve_workers(configured: Optional[int]) -> int:
    """Effective worker count: explicit config wins, else ``REPRO_WORKERS``.

    Returns at least 1; 1 means the serial backend.
    """
    if configured is not None:
        value = int(configured)
    else:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        try:
            value = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {raw!r}"
            ) from None
    if value < 1:
        raise ValueError(f"workers must be >= 1, got {value}")
    return value


class _WorkerCaches:
    """What the parent believes one worker process already holds."""

    __slots__ = ("tasks", "regions", "partition_colors", "subsets")

    def __init__(self):
        self.tasks: set = set()              # task uids
        self.regions: set = set()            # region uids
        self.partition_colors: set = set()   # (partition uid, color tuple)
        self.subsets: set = set()            # sparse subset uids

    def clear(self):
        self.tasks.clear()
        self.regions.clear()
        self.partition_colors.clear()
        self.subsets.clear()


class WorkerPool:
    """``n`` persistent worker slots with deterministic node affinity."""

    def __init__(self, n: int, transport: Optional[str] = None):
        if n < 1:
            raise ValueError("WorkerPool needs at least one worker")
        self.n = n
        self.transport_name = resolve_transport(transport)
        self._transport = make_transport(self.transport_name, n)
        self.caches: List[_WorkerCaches] = [_WorkerCaches() for _ in range(n)]
        self._closed = False
        #: bumped on every reset: lets callers tell "this worker died" from
        #: "this worker was already respawned by an earlier failure", and
        #: lets the backend discard cache shipments collected from a worker
        #: generation that no longer exists.
        self._generations: List[int] = [0] * n
        #: parent-owned shared-memory transport (hot-path engine layer 1).
        #: The backend decides per dispatch whether to use it; the arena's
        #: lifecycle is tied to the pool's: generation bumps orphan a
        #: worker's segments, shutdown unlinks everything.  A transport
        #: whose workers cannot map parent segments (socket workers stand
        #: in for remote nodes) disables it outright and every footprint
        #: degrades to the pickled wire payload.
        self.arena = ShmArena(n)
        if not self._transport.local_shm:
            self.arena.available = False
        #: teardown exceptions that used to vanish in bare excepts: counted
        #: here and surfaced as obs instants (see shutdown()).
        self.shutdown_errors = 0
        self._profiler = NULL_PROFILER

    # --------------------------------------------------------------- wiring
    @property
    def profiler(self):
        return self._profiler

    @profiler.setter
    def profiler(self, prof):
        # The arena and transport share the pool's profiler so teardown
        # errors and dispatch wakes land in the same trace/metrics stream.
        self._profiler = prof
        self.arena.profiler = prof
        self._transport.profiler = prof

    @property
    def transport(self):
        return self._transport

    # ----------------------------------------------------------- lifecycle
    def reset_worker(self, k: int) -> None:
        """Discard a broken worker process and everything it cached."""
        self.caches[k].clear()
        self._generations[k] += 1
        self.arena.on_reset(k, self._generations[k])
        self._transport.discard_worker(k)

    def generation(self, k: int) -> int:
        """The respawn generation of worker ``k`` (bumped on every reset)."""
        return self._generations[k]

    def shutdown(self) -> None:
        self._closed = True
        self.arena.close()
        for k in range(self.n):
            self.caches[k].clear()
        for exc in self._transport.shutdown():
            self._note_shutdown_error(exc)

    def _note_shutdown_error(self, exc: BaseException) -> None:
        """A teardown step failed.  Historically swallowed with a bare
        ``except: pass``; now every one is counted and emitted as an obs
        instant so leaked worker processes are diagnosable."""
        self.shutdown_errors += 1
        prof = self._profiler
        prof.count("pool.shutdown_errors", 1.0, kind=type(exc).__name__)
        prof.instant("pool.shutdown_error", "execution",
                     kind=type(exc).__name__, detail=str(exc))

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------- dispatch
    def submit_shard(self, k: int, plan_blob: bytes):
        """Submit one plan blob to worker ``k``; returns the future."""
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        return self._transport.submit_shard(k, plan_blob)

    def submit_shards(self, k: int, items):
        """Submit ``[(plan_blob, plan), ...]`` to worker ``k`` — the backend
        sends one, its unit; returns one future per plan, in order."""
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        return self._transport.submit_shards(k, items)


# ------------------------------------------------------------ pool registry
_POOLS: Dict[Tuple[int, str], WorkerPool] = {}


def get_pool(n: int, transport: Optional[str] = None) -> WorkerPool:
    """The shared pool for ``(n, transport)``, creating it on first use.

    ``transport=None`` resolves ``REPRO_TRANSPORT`` (default ``pipe``).
    """
    name = resolve_transport(transport)
    key = (n, name)
    pool = _POOLS.get(key)
    if pool is None or pool.closed:
        pool = WorkerPool(n, transport=name)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> int:
    """Tear down every registered pool and unlink every region instance
    (no worker is left to map one); returns how many pools were active."""
    n = 0
    for pool in list(_POOLS.values()):
        if not pool.closed:
            n += 1
        pool.shutdown()
    _POOLS.clear()
    release_instances()
    return n


def active_pool_count() -> int:
    """How many live pools the registry holds (test/teardown hook)."""
    return sum(1 for pool in _POOLS.values() if not pool.closed)


atexit.register(shutdown_pools)
