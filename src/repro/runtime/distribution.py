"""Distribution: assigning tasks to nodes (Section 5, stage 3).

Two mechanisms, matching Legion:

* **DCR**: every node evaluates the (pure, memoizable) sharding functor and
  keeps only its local points — O(|D|_local) work, zero communication.
* **No DCR**: the owner node applies the *slicing functor* recursively,
  producing a binary tree of slices that is scattered across the machine in
  O(log |D|) steps.  Each slice carries the fixed-size index-launch
  representation with a restricted sub-domain; expansion into individual
  tasks happens only at the destination.

:func:`build_slices` returns both the final slices and the tree's transfer
list so the machine model can charge communication, and tests can verify
the O(log) depth.  Shard targets are evaluated once for the whole domain
(one batched :meth:`Mapper.shard_batch` call) and threaded through the
recursion, instead of re-invoking the sharding functor for every point at
every tree level.  Slicing is pure in (mapper, domain, n_nodes, origin), so
:class:`SlicingCache` memoizes whole results — with the node assignment
built from them — the same way sharding maps are memoized on the DCR path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.domain import Domain, Point
from repro.runtime.mapper import Mapper, shard_nodes, shard_points
from repro.runtime.store import AnalysisStore

__all__ = [
    "Slice",
    "SliceTransfer",
    "SlicingResult",
    "SlicingCache",
    "build_slices",
    "shard_points",
]


@dataclass
class Slice:
    """A contiguous chunk of a launch domain bound for one node."""

    points: List[Point]
    node: int
    depth: int  # depth in the broadcast tree at which this slice was created


@dataclass(frozen=True)
class SliceTransfer:
    """One slice hop between nodes in the broadcast tree."""

    src_node: int
    dst_node: int
    depth: int
    n_points: int  # points *represented* (the message itself is O(1))


@dataclass
class SlicingResult:
    """Output of recursive slicing for one index launch."""

    slices: List[Slice]
    transfers: List[SliceTransfer]
    max_depth: int
    #: node -> its points, in slice order: built once with the result, so
    #: a cached slicing hands every reissue the same assignment object
    assignment: Dict[int, List[Point]] = field(default_factory=dict)

    @property
    def n_messages(self) -> int:
        return len(self.transfers)


def build_slices(
    mapper: Mapper,
    domain: Domain,
    n_nodes: int,
    origin_node: int = 0,
) -> SlicingResult:
    """Non-DCR path: recursively slice ``domain`` into per-node chunks.

    Splits the point list in half until every point in a slice shards to the
    same node, moving slices toward their destinations level by level.  The
    resulting tree has O(log |D|) depth and each hop forwards a fixed-size
    message (slices are unexpanded index-launch descriptors).
    """
    points = list(domain)
    transfers: List[SliceTransfer] = []
    slices: List[Slice] = []
    max_depth = 0

    # One batched functor evaluation for the whole domain; the recursion
    # below only does set arithmetic on the precomputed targets.
    shard_of = dict(zip(points, shard_nodes(mapper, domain, n_nodes)))

    def recurse(pts: List[Point], holder: int, depth: int) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        if not pts:
            return
        nodes = {shard_of[p] for p in pts}
        if len(nodes) == 1:
            dst = nodes.pop()
            if dst != holder:
                transfers.append(SliceTransfer(holder, dst, depth, len(pts)))
            slices.append(Slice(pts, dst, depth))
            return
        split = mapper.slice_domain(pts, domain, n_nodes)
        for sub_pts, hint in split:
            if not sub_pts:
                continue
            # The slice is forwarded toward the hinted node (one hop per
            # tree level); further splitting happens there.
            next_holder = hint
            if next_holder != holder:
                transfers.append(
                    SliceTransfer(holder, next_holder, depth, len(sub_pts))
                )
            recurse(sub_pts, next_holder, depth + 1)

    recurse(points, origin_node, 0)
    assignment: Dict[int, List[Point]] = {}
    for slc in slices:
        assignment.setdefault(slc.node, []).extend(slc.points)
    return SlicingResult(slices, transfers, max_depth, assignment)


class SlicingCache:
    """Memoizes :func:`build_slices` per (mapper key, domain, n_nodes,
    origin) in the ``slicing`` layer of an :class:`~repro.runtime.store.
    AnalysisStore`.

    Slicing functors, like sharding functors, are required to be pure, so a
    launch domain slices identically every time it is issued.  The cached
    :class:`SlicingResult` is shared — callers must not mutate it.
    """

    def __init__(self, store: Optional[AnalysisStore] = None):
        self.store = AnalysisStore() if store is None else store

    hits = property(lambda self: self.store.hits["slicing"])
    misses = property(lambda self: self.store.misses["slicing"])

    def slice(
        self, mapper: Mapper, domain: Domain, n_nodes: int, origin_node: int = 0
    ) -> SlicingResult:
        key = (mapper.key, domain, n_nodes, origin_node)
        found = self.store.get("slicing", key)
        if found is None:
            found = build_slices(mapper, domain, n_nodes, origin_node)
            self.store.put("slicing", key, found)
        return found
