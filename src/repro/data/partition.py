"""Partitions: named divisions of a collection into subregions (Section 2).

Partitions may be *disjoint* (no object in two subregions — e.g. the dense
blocks a stencil computes) or *aliased* (overlapping — e.g. the halos around
each block).  Disjointness is the property the safety analysis of Section 3
consumes; it is either known by construction (block/equal partitioners) or
verified by counting duplicate indices (:meth:`Partition.verify_disjointness`),
standing in for the paper's assumption that "the compiler and runtime have a
procedure for determining the disjointness of partitions".

Dependent partitioners (:func:`image_partition`, :func:`preimage_partition`,
and the color-wise set operations) follow Treichler et al. [29] and are what
the Circuit application uses to derive private/shared/ghost node sets from
an unstructured graph.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.domain import Domain, Point, Rect, coerce_point
from repro.data.collection import (
    IndexSubset,
    RectSubset,
    Region,
    SparseSubset,
    Subregion,
)

__all__ = [
    "Partition",
    "equal_partition",
    "block_partition",
    "explicit_partition",
    "partition_by_field",
    "image_partition",
    "preimage_partition",
    "partition_difference",
    "partition_intersection",
    "partition_union",
]

_next_partition_id = itertools.count()


class Partition:
    """A partition of a region: a map from colors to subregions.

    Args:
        name: human-readable label.
        region: the parent collection.
        color_space: domain of colors.
        subsets: mapping from color point to :class:`IndexSubset`.  Every
            color in ``color_space`` must be present (possibly empty).
        disjoint: declared disjointness; ``None`` defers to verification on
            first query.
    """

    def __init__(
        self,
        name: str,
        region: Region,
        color_space: Domain,
        subsets: Mapping[Point, IndexSubset],
        disjoint: Optional[bool] = None,
        parent_subregion: Optional[Subregion] = None,
    ):
        self.name = name
        self.uid = next(_next_partition_id)
        self.region = region
        self.color_space = color_space
        #: for nested partitions (the Legion region tree): the subregion
        #: this partition subdivides; None for partitions of the root.
        self.parent_subregion = parent_subregion
        missing = [c for c in color_space if c not in subsets]
        if missing:
            raise ValueError(f"partition {name!r} missing colors {missing[:4]}...")
        self._subregions: Dict[Point, Subregion] = {
            color: Subregion(region, subsets[color], color, self)
            for color in color_space
        }
        self._disjoint = disjoint
        region.partitions.append(self)

    # ------------------------------------------------------------- queries
    @property
    def n_colors(self) -> int:
        """Number of subregions (|P| in the paper's complexity analysis)."""
        return self.color_space.volume

    @property
    def color_bounds(self) -> Rect:
        """Bounding rectangle of the color space (sizes the check bitmask)."""
        return self.color_space.bounds

    @property
    def disjoint(self) -> bool:
        """Whether no object belongs to two subregions (verified lazily)."""
        if self._disjoint is None:
            self._disjoint = self.verify_disjointness()
        return self._disjoint

    def validate_containment(self) -> bool:
        """For nested partitions: every subset lies within the parent
        subregion (trivially true for root partitions)."""
        if self.parent_subregion is None:
            return True
        parent = self.parent_subregion.subset
        bounds = self.region.bounds
        return all(
            parent.covers(sub.subset, bounds) for sub in self._subregions.values()
        )

    def verify_disjointness(self) -> bool:
        """Recompute disjointness by counting duplicate linear indices."""
        total = 0
        chunks = []
        for sub in self._subregions.values():
            idx = sub.subset.linear_indices(self.region.bounds)
            total += len(idx)
            chunks.append(idx)
        if not total:
            return True
        merged = np.concatenate(chunks)
        return len(np.unique(merged)) == total

    def __getitem__(self, color) -> Subregion:
        return self._subregions[coerce_point(color, self.color_space.dim)]

    def lookup(self, colors: np.ndarray) -> List[Subregion]:
        """The subregions of an ``(n, dim)`` colour array, in order;
        ``KeyError`` for a colour (of any length) not in the colour space."""
        rows = map(tuple, colors.tolist())
        return list(map(self._subregions.__getitem__, rows))

    def subregion(self, color) -> Subregion:
        """The subregion with the given color."""
        return self[color]

    def subregions(self) -> Iterable[Subregion]:
        """All subregions in color-space order."""
        return (self._subregions[c] for c in self.color_space)

    def __iter__(self):
        return iter(self.color_space)

    def ancestry(self) -> List[Tuple[int, "Point", bool]]:
        """The chain of (partition uid, color, disjoint) from the root down
        to (and excluding) this partition — the region-tree path."""
        chain: List[Tuple[int, Point, bool]] = []
        sub = self.parent_subregion
        while sub is not None and sub.partition is not None:
            part = sub.partition
            chain.append((part.uid, sub.color, part.disjoint))
            sub = part.parent_subregion
        chain.reverse()
        return chain

    def disjoint_from(self, other: "Partition") -> bool:
        """Whether every subregion of ``self`` is provably disjoint from
        every subregion of ``other`` by region-tree reasoning: the two
        partitions descend from *different colors* of a common *disjoint*
        ancestor partition (or live in different regions entirely).

        This is the generalized form of the paper's cross-check rule 2
        ("partitions of collections that are themselves disjoint") — a
        subregion of a disjoint partition is itself a collection disjoint
        from its siblings.
        """
        if self.region.uid != other.region.uid:
            return True
        mine = {(uid): (color, dj) for uid, color, dj in self.ancestry()}
        for uid, color, dj in other.ancestry():
            if uid in mine:
                my_color, my_dj = mine[uid]
                if dj and my_color != color:
                    return True
        return False

    def __repr__(self) -> str:
        kind = (
            "disjoint" if self._disjoint else
            "aliased" if self._disjoint is not None else "unverified"
        )
        return (
            f"Partition({self.name!r} of {self.region.name!r}, "
            f"{self.n_colors} colors, {kind})"
        )


# ---------------------------------------------------------------- builders

def _as_parent(parent) -> Tuple[Region, Optional[Subregion]]:
    """Normalize a Region-or-Subregion parent for the partition builders."""
    if isinstance(parent, Region):
        return parent, None
    if isinstance(parent, Subregion):
        return parent.region, parent
    raise TypeError(f"parent must be a Region or Subregion, got {parent!r}")


def equal_partition(name: str, parent, n: int) -> Partition:
    """Split a 1-D region (or rectangular subregion) into ``n`` nearly-equal
    contiguous chunks (disjoint).  Passing a subregion creates a *nested*
    partition — a deeper level of the region tree."""
    region, parent_sub = _as_parent(parent)
    if parent_sub is None:
        bounds = region.bounds
        size = region.volume
    else:
        if not isinstance(parent_sub.subset, RectSubset):
            return _equal_sparse(name, region, parent_sub, n)
        bounds = parent_sub.subset.rect
        size = bounds.volume
    if bounds.dim != 1:
        raise ValueError("equal_partition requires a 1-D parent; use block_partition")
    if n <= 0:
        raise ValueError("n must be positive")
    lo = bounds.lo[0]
    base, extra = divmod(size, n)
    subsets: Dict[Point, IndexSubset] = {}
    start = lo
    for c in range(n):
        count = base + (1 if c < extra else 0)
        subsets[Point(c)] = RectSubset(Rect(Point(start), Point(start + count - 1)))
        start += count
    return Partition(name, region, Domain.range(n), subsets, disjoint=True,
                     parent_subregion=parent_sub)


def _equal_sparse(name: str, region: Region, parent_sub: Subregion,
                  n: int) -> Partition:
    """Equal split of a sparse subregion's index list."""
    if n <= 0:
        raise ValueError("n must be positive")
    idx = parent_sub.subset.linear_indices(region.bounds)
    subsets: Dict[Point, IndexSubset] = {}
    base, extra = divmod(len(idx), n)
    start = 0
    for c in range(n):
        count = base + (1 if c < extra else 0)
        subsets[Point(c)] = SparseSubset(idx[start:start + count])
        start += count
    return Partition(name, region, Domain.range(n), subsets, disjoint=True,
                     parent_subregion=parent_sub)


def block_partition(
    name: str,
    parent,
    blocks: Sequence[int],
    halo: int = 0,
) -> Partition:
    """Tile an N-D region (or rectangular subregion) into ``blocks`` tiles.

    With ``halo == 0`` the tiles are disjoint (a stencil's compute blocks).
    With ``halo > 0`` each tile is grown by ``halo`` in every direction and
    clamped to the parent bounds — an *aliased* partition (the stencil's
    ghost halos).  Passing a subregion creates a nested partition.
    """
    region, parent_sub = _as_parent(parent)
    if parent_sub is not None and not isinstance(parent_sub.subset, RectSubset):
        raise ValueError("block_partition requires a rectangular parent")
    bounds = region.bounds if parent_sub is None else parent_sub.subset.rect
    dim = bounds.dim
    blocks = tuple(int(b) for b in blocks)
    if len(blocks) != dim:
        raise ValueError(f"blocks must have {dim} entries")
    if any(b <= 0 for b in blocks):
        raise ValueError("block counts must be positive")
    extents = bounds.extents
    lo = bounds.lo
    hi = bounds.hi
    subsets: Dict[Point, IndexSubset] = {}
    color_space = Domain.rect([0] * dim, [b - 1 for b in blocks])
    for color in color_space:
        blo, bhi = [], []
        for d in range(dim):
            base, extra = divmod(extents[d], blocks[d])
            c = color[d]
            start = lo[d] + c * base + min(c, extra)
            count = base + (1 if c < extra else 0)
            end = start + count - 1
            blo.append(max(lo[d], start - halo))
            bhi.append(min(hi[d], end + halo))
        subsets[color] = RectSubset(Rect(Point(*blo), Point(*bhi)))
    return Partition(name, region, color_space, subsets, disjoint=(halo == 0),
                     parent_subregion=parent_sub)


def explicit_partition(
    name: str,
    region: Region,
    subsets: Mapping,
    disjoint: Optional[bool] = None,
) -> Partition:
    """Build a partition from an explicit color -> subset mapping.

    Subset values may be :class:`IndexSubset`, :class:`Rect`, or iterables of
    points/linear indices.
    """
    normalized: Dict[Point, IndexSubset] = {}
    colors = []
    for color, subset in subsets.items():
        cpt = coerce_point(color)
        colors.append(cpt)
        if isinstance(subset, IndexSubset):
            normalized[cpt] = subset
        elif isinstance(subset, Rect):
            normalized[cpt] = RectSubset(subset)
        elif isinstance(subset, np.ndarray) and subset.ndim == 1 and subset.dtype.kind in "iu":
            normalized[cpt] = SparseSubset(subset)
        else:
            normalized[cpt] = SparseSubset.from_points(subset, region.bounds)
    return Partition(name, region, Domain.points(colors), normalized, disjoint=disjoint)


def partition_by_field(
    name: str, region: Region, field: str, n_colors: int
) -> Partition:
    """Partition by an integer field holding each object's color (disjoint).

    Objects whose field value falls outside ``[0, n_colors)`` belong to no
    subregion.
    """
    values = region.storage(field)
    if values.dtype.kind not in "iu":
        raise ValueError("partition_by_field requires an integer field")
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    subsets: Dict[Point, IndexSubset] = {}
    for c in range(n_colors):
        lo = np.searchsorted(sorted_vals, c, side="left")
        hi = np.searchsorted(sorted_vals, c, side="right")
        subsets[Point(c)] = SparseSubset(order[lo:hi])
    return Partition(name, region, Domain.range(n_colors), subsets, disjoint=True)


def image_partition(
    name: str,
    src_partition: Partition,
    field: str,
    dst_region: Region,
) -> Partition:
    """Dependent partition: color c gets the *image* of ``src_partition[c]``
    through a pointer ``field`` (values are linear indices into ``dst_region``).

    Generally aliased: multiple source subregions may point at the same
    destination objects (e.g. circuit wires from different pieces sharing an
    endpoint node).
    """
    subsets: Dict[Point, IndexSubset] = {}
    for color in src_partition.color_space:
        ptrs = src_partition[color].read(field)
        if len(ptrs) and (ptrs.min() < 0 or ptrs.max() >= dst_region.volume):
            raise ValueError(f"pointer field {field!r} out of range for {dst_region}")
        subsets[color] = SparseSubset(ptrs)
    return Partition(
        name, dst_region, src_partition.color_space, subsets, disjoint=None
    )


def preimage_partition(
    name: str,
    src_region: Region,
    field: str,
    dst_partition: Partition,
) -> Partition:
    """Dependent partition: color c gets the source objects whose ``field``
    points into ``dst_partition[c]``.

    Disjoint whenever ``dst_partition`` is disjoint (each pointer value lands
    in at most one destination subregion).
    """
    ptrs = src_region.storage(field)
    subsets: Dict[Point, IndexSubset] = {}
    for color in dst_partition.color_space:
        dst_idx = dst_partition[color].subset.linear_indices(
            dst_partition.region.bounds
        )
        mask = np.isin(ptrs, dst_idx)
        subsets[color] = SparseSubset(np.nonzero(mask)[0])
    return Partition(
        name,
        src_region,
        dst_partition.color_space,
        subsets,
        disjoint=True if dst_partition.disjoint else None,
    )


# -------------------------------------------------- color-wise set algebra

def _colorwise(
    name: str,
    a: Partition,
    b: Partition,
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
    disjoint: Optional[bool],
) -> Partition:
    if a.region.uid != b.region.uid:
        raise ValueError("set operations require partitions of the same region")
    if a.color_space != b.color_space:
        raise ValueError("set operations require identical color spaces")
    bounds = a.region.bounds
    subsets: Dict[Point, IndexSubset] = {}
    for color in a.color_space:
        ia = a[color].subset.linear_indices(bounds)
        ib = b[color].subset.linear_indices(bounds)
        subsets[color] = SparseSubset(combine(ia, ib))
    return Partition(name, a.region, a.color_space, subsets, disjoint=disjoint)


def partition_difference(name: str, a: Partition, b: Partition) -> Partition:
    """Color-wise ``a[c] \\ b[c]``; disjoint when ``a`` is disjoint."""
    return _colorwise(
        name, a, b, lambda ia, ib: np.setdiff1d(ia, ib),
        disjoint=True if a.disjoint else None,
    )


def partition_intersection(name: str, a: Partition, b: Partition) -> Partition:
    """Color-wise ``a[c] & b[c]``; disjoint when either input is disjoint."""
    return _colorwise(
        name, a, b, lambda ia, ib: np.intersect1d(ia, ib),
        disjoint=True if (a.disjoint or b.disjoint) else None,
    )


def partition_union(name: str, a: Partition, b: Partition) -> Partition:
    """Color-wise ``a[c] | b[c]``; disjointness unknown in general."""
    return _colorwise(name, a, b, lambda ia, ib: np.union1d(ia, ib), disjoint=None)
