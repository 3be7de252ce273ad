"""Mappers: user-controlled performance decisions (Section 5).

"Distribution in Legion is entirely under the control of the end user" —
mappers choose which node runs each task.  Under DCR the relevant hook is
the *sharding functor* (point -> node, a pure function, memoized); without
DCR it is the *slicing functor*, which splits a launch domain recursively so
slices can be scattered down a broadcast tree.

Because sharding functors are pure, a whole launch domain can be sharded in
one batched evaluation: :meth:`Mapper.shard_batch` takes the ``(|D|, dim)``
point array of :meth:`repro.core.domain.Domain.point_array` and returns one
node id per point.  The built-in mappers implement it with vectorized numpy
arithmetic; custom mappers inherit a per-point fallback that preserves the
pure-``shard`` contract.

The sharding functor places every point task, whichever route its launch
takes: an index launch, the fallback loop of a launch that failed its
dynamic check, early expansion and No-IDX all place point ``p`` of domain
``D`` on ``shard(p, D, n)`` (the expanded routes in one
:meth:`Mapper.shard_batch` call), so a launch's per-node distribution does
not depend on how it ran.  :meth:`Mapper.select_node` places only single
tasks, which have no launch domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.domain import Domain, Point

__all__ = [
    "Mapper", "DefaultMapper", "CyclicMapper", "ShardingCache", "shard_nodes",
]


class Mapper:
    """Base mapper interface."""

    def shard(self, point: Point, domain: Domain, n_nodes: int) -> int:
        """Sharding functor: which node owns ``point`` of ``domain`` (DCR mode).

        Must be a pure function of its arguments.
        """
        raise NotImplementedError

    def shard_batch(
        self, points: np.ndarray, domain: Domain, n_nodes: int
    ) -> np.ndarray:
        """Vectorized sharding: node ids for a ``(n, dim)`` point array.

        Must agree elementwise with :meth:`shard`; the default evaluates the
        scalar functor per point so custom mappers only need to override it
        when they want the numpy fast path.
        """
        return np.fromiter(
            (self.shard(Point(*row), domain, n_nodes) for row in points),
            dtype=np.int64,
            count=len(points),
        )

    def slice_domain(
        self, points: Sequence[Point], domain: Domain, n_nodes: int
    ) -> List[Tuple[List[Point], int]]:
        """Slicing functor: split ``points`` into (sub-slice, target node) pairs.

        The default splits the point list in half repeatedly; the runtime
        applies this recursively, producing a binary broadcast tree of depth
        O(log |D|).  Returning a single-element list stops recursion.
        """
        if len(points) <= 1 or n_nodes <= 1:
            return [(list(points), self.shard(points[0], domain, n_nodes))] if points else []
        mid = (len(points) + 1) // 2
        return [
            (list(points[:mid]), self.shard(points[0], domain, n_nodes)),
            (list(points[mid:]), self.shard(points[mid], domain, n_nodes)),
        ]

    def select_node(self, task_launch, n_nodes: int) -> int:
        """Node for a single (non-index) task launch."""
        return 0


class DefaultMapper(Mapper):
    """Block sharding: contiguous ranges of the (linearized) domain per node.

    This matches the common idiom of one task per GPU with neighbouring
    tasks placed on the same node.
    """

    def shard(self, point: Point, domain: Domain, n_nodes: int) -> int:
        if n_nodes <= 1:
            return 0
        volume = domain.volume
        if volume == 0:
            return 0
        index = domain.bounds.linearize(point)
        total = domain.bounds.volume
        # Scale by bounding-box position: exact block split for dense
        # domains, approximate (but pure and deterministic) for sparse ones.
        node = index * n_nodes // total
        return min(node, n_nodes - 1)

    def shard_batch(
        self, points: np.ndarray, domain: Domain, n_nodes: int
    ) -> np.ndarray:
        if n_nodes <= 1 or domain.volume == 0 or len(points) == 0:
            return np.zeros(len(points), dtype=np.int64)
        index = domain.bounds.linearize_batch(points)
        total = domain.bounds.volume
        return np.minimum(index * n_nodes // total, n_nodes - 1)


class CyclicMapper(Mapper):
    """Round-robin sharding: point ``i`` goes to node ``i mod n`` (load balance
    for irregular task costs, at the price of locality)."""

    def shard(self, point: Point, domain: Domain, n_nodes: int) -> int:
        if n_nodes <= 1:
            return 0
        return domain.bounds.linearize(point) % n_nodes

    def shard_batch(
        self, points: np.ndarray, domain: Domain, n_nodes: int
    ) -> np.ndarray:
        if n_nodes <= 1 or len(points) == 0:
            return np.zeros(len(points), dtype=np.int64)
        return domain.bounds.linearize_batch(points) % n_nodes


class ShardingCache:
    """Memoizes sharding decisions per (mapper, domain, n_nodes).

    Sharding functors are pure, so Legion memoizes them; we do the same and
    expose hit statistics so tests can assert the memoization happens.  The
    miss path evaluates the whole domain in one :meth:`Mapper.shard_batch`
    call instead of |D| scalar ``shard`` calls.
    """

    def __init__(self):
        self._cache: Dict[Tuple[int, Domain, int], Dict[int, List[Point]]] = {}
        self.hits = 0
        self.misses = 0

    def clear(self) -> int:
        """Drop all memoized assignments; returns how many were dropped."""
        n = len(self._cache)
        self._cache.clear()
        return n

    def shard_map(
        self, mapper: Mapper, domain: Domain, n_nodes: int
    ) -> Dict[int, List[Point]]:
        """Node -> locally-owned points, computed once per distinct launch shape."""
        key = (id(mapper), domain, n_nodes)
        found = self._cache.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        assignment: Dict[int, List[Point]] = {}
        for p, node in zip(domain, shard_nodes(mapper, domain, n_nodes)):
            assignment.setdefault(node, []).append(p)
        self._cache[key] = assignment
        return assignment


def shard_nodes(mapper: Mapper, domain: Domain, n_nodes: int) -> List[int]:
    """The node of every point of ``domain``, in iteration order, from one
    :meth:`Mapper.shard_batch` call; a node outside ``[0, n_nodes)`` is
    rejected, on every route a launch can take."""
    points = domain.point_array()
    if not len(points):
        return []
    nodes = mapper.shard_batch(points, domain, n_nodes)
    bad = (nodes < 0) | (nodes >= max(n_nodes, 1))
    if np.any(bad):
        pos = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"sharding functor sent {Point(*points[pos])} to node "
            f"{int(nodes[pos])} of {n_nodes}"
        )
    return nodes.tolist()
