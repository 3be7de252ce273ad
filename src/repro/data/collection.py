"""Collections (regions) and subregions.

A :class:`Region` is a collection in the paper's sense: an indexed set of
objects with named fields, backed by numpy arrays.  Regions are the primary
way to pass large data to tasks.  Subregions — created by partitioning — are
*views* onto the parent's storage: writes through one partition are visible
through every other partition of the same region.

Subsets come in two flavours, mirroring the structured/unstructured split in
the paper's applications:

* rectangular (:class:`RectSubset`) — dense blocks and halos (Stencil, Soleil);
* point sets (:class:`SparseSubset`) — arbitrary element lists (Circuit's
  private/shared/ghost node sets on an unstructured graph).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.domain import Point, Rect, coalesce_rects, coerce_point
from repro.data.fields import FieldSpace
from repro.data.privileges import ReductionOp

__all__ = [
    "Region",
    "Subregion",
    "IndexSubset",
    "RectSubset",
    "SparseSubset",
    "covering_subregions",
]

_next_region_id = itertools.count()
_next_subset_id = itertools.count()


class IndexSubset:
    """Abstract subset of a region's index space.

    Every subset carries a monotonically increasing ``uid`` assigned at
    construction.  Unlike ``id()``, a uid is never reused after garbage
    collection and survives pickling, so it is safe to use as an identity
    token in footprint keys and cross-process shard plans.
    """

    def __init__(self):
        self.uid = next(_next_subset_id)

    def volume(self) -> int:
        raise NotImplementedError

    def linear_indices(self, bounds: Rect) -> np.ndarray:
        """Row-major linear indices of the subset within ``bounds``."""
        raise NotImplementedError

    def bounding_box(self, bounds: Rect) -> Optional[Tuple[tuple, tuple]]:
        """Tight ``(lo, hi)`` corners around the subset's points, as plain
        tuples; None when the subset is empty."""
        raise NotImplementedError

    def overlaps(self, other: "IndexSubset", bounds: Rect) -> bool:
        """Whether the two subsets share any point of the same index space."""
        if isinstance(self, RectSubset) and isinstance(other, RectSubset):
            return self.rect.overlaps(other.rect)
        a = self.linear_indices(bounds)
        b = other.linear_indices(bounds)
        if len(a) == 0 or len(b) == 0:
            return False
        return bool(np.isin(a, b, assume_unique=False).any())

    def covers(self, other: "IndexSubset", bounds: Rect) -> bool:
        """Whether every point of ``other`` is contained in ``self``."""
        if isinstance(self, RectSubset) and isinstance(other, RectSubset):
            return self.rect.contains_rect(other.rect)
        a = self.linear_indices(bounds)
        b = other.linear_indices(bounds)
        if len(b) == 0:
            return True
        if len(a) == 0:
            return False
        return bool(np.isin(b, a, assume_unique=False).all())


class RectSubset(IndexSubset):
    """A dense rectangular subset."""

    __slots__ = ("rect", "_linear_cache")

    def __init__(self, rect: Rect):
        super().__init__()
        self.rect = rect
        self._linear_cache = None

    def volume(self) -> int:
        return self.rect.volume

    def box(self, bounds: Rect) -> tuple:
        """``(index, extents)`` addressing this rect inside flat storage.

        ``extents is None``: ``storage[index]`` with one plain slice (1-D
        regions — no reshape).  Otherwise ``storage.reshape(extents)[index]``
        with one slice per axis.  Either way the view enumerates the rect in
        row-major order, i.e. in :meth:`linear_indices` order, so dense
        footprints move as one strided copy and no index array is built.
        Pure in ``(rect, bounds)``; a :class:`Subregion` computes it once.
        """
        rect = self.rect
        if rect.empty:
            # No points to address; keep the zero-extent shape of the rect.
            index = tuple(slice(0, e) for e in rect.extents)
        elif not bounds.contains_rect(rect):
            raise ValueError(f"{rect} not contained in region bounds {bounds}")
        else:
            index = tuple(
                slice(l - bl, h - bl + 1)
                for l, h, bl in zip(rect.lo, rect.hi, bounds.lo)
            )
        return (index[0], None) if bounds.dim == 1 else (index, bounds.extents)

    def bounding_box(self, bounds: Rect) -> Optional[Tuple[tuple, tuple]]:
        rect = self.rect
        return None if rect.empty else (tuple(rect.lo), tuple(rect.hi))

    def linear_indices(self, bounds: Rect) -> np.ndarray:
        # Pure in (rect, bounds) and recomputed on every replay's footprint
        # build, so memoize per instance (subregion objects are stable
        # across reissues).  The cached array is frozen: every consumer
        # only indexes with it, and freezing turns an accidental in-place
        # mutation into an error instead of silent cache corruption.
        cached = self._linear_cache
        if cached is not None and (cached[0] is bounds or cached[0] == bounds):
            return cached[1]
        if self.rect.empty:
            return np.empty(0, dtype=np.int64)
        if not bounds.contains_rect(self.rect):
            raise ValueError(f"{self.rect} not contained in region bounds {bounds}")
        axes = [
            np.arange(l - bl, h - bl + 1, dtype=np.int64)
            for l, h, bl in zip(self.rect.lo, self.rect.hi, bounds.lo)
        ]
        extents = bounds.extents
        strides = np.ones(len(extents), dtype=np.int64)
        for d in range(len(extents) - 2, -1, -1):
            strides[d] = strides[d + 1] * extents[d + 1]
        grids = np.meshgrid(*axes, indexing="ij")
        linear = np.asarray(
            sum(g.ravel() * s for g, s in zip(grids, strides)), dtype=np.int64
        )
        linear.flags.writeable = False
        self._linear_cache = (bounds, linear)
        return linear

    def __getstate__(self):
        # The memoized index array must not ride along in pickled shard
        # plans (it can dwarf the descriptor-sized plan the shm transport
        # works to keep small); workers rebuild it on demand.
        return (dict(self.__dict__), {"rect": self.rect})

    def __setstate__(self, state):
        d, slots = state
        self.__dict__.update(d)
        self.rect = slots["rect"]
        self._linear_cache = None

    def __repr__(self) -> str:
        return f"RectSubset({self.rect!r})"


class SparseSubset(IndexSubset):
    """An explicit point set, stored as sorted unique linear indices.

    The linear indices are relative to the owning region's bounds, which must
    be supplied at construction (so equality and overlap are well-defined).
    """

    __slots__ = ("indices",)

    def __init__(self, linear: np.ndarray):
        super().__init__()
        arr = np.unique(np.asarray(linear, dtype=np.int64))
        self.indices = arr

    @classmethod
    def from_points(cls, points: Iterable, bounds: Rect) -> "SparseSubset":
        linear = [bounds.linearize(coerce_point(p, bounds.dim)) for p in points]
        return cls(np.asarray(linear, dtype=np.int64))

    def volume(self) -> int:
        return int(len(self.indices))

    def linear_indices(self, bounds: Rect) -> np.ndarray:
        return self.indices

    def bounding_box(self, bounds: Rect) -> Optional[Tuple[tuple, tuple]]:
        if len(self.indices) == 0:
            return None
        axes = np.unravel_index(self.indices, bounds.extents)
        return (
            tuple(l + int(axis.min()) for l, axis in zip(bounds.lo, axes)),
            tuple(l + int(axis.max()) for l, axis in zip(bounds.lo, axes)),
        )

    def __repr__(self) -> str:
        return f"SparseSubset(<{len(self.indices)} indices>)"


class Region:
    """A top-level collection: an N-D index space with named, typed fields.

    Storage is struct-of-arrays: each field is a flat numpy array of length
    ``bounds.volume`` (row-major).  Two distinct top-level regions are always
    disjoint collections — the runtime's whole-partition logical analysis
    relies on this (Section 5).
    """

    def __init__(self, name: str, bounds: Rect, fields: Union[FieldSpace, Dict]):
        self.name = name
        self.uid = next(_next_region_id)
        self.bounds = bounds
        self.fields = fields if isinstance(fields, FieldSpace) else FieldSpace(fields)
        self._storage: Dict[str, np.ndarray] = {
            fname: np.zeros(bounds.volume, dtype=dt) for fname, dt in self.fields.items()
        }
        self.partitions: list = []  # populated by Partition.__init__
        #: the named shm segment backing the storage, if the runtime mapped
        #: one for its workers (see ``repro.exec.shm.map_region``)
        self.instance = None

    @property
    def volume(self) -> int:
        """Number of objects in the collection."""
        return self.bounds.volume

    def storage(self, field: str) -> np.ndarray:
        """The flat backing array for ``field`` (length ``volume``)."""
        return self._storage[field]

    def field_nd(self, field: str) -> np.ndarray:
        """The backing array reshaped to the region's N-D extents (a view)."""
        return self._storage[field].reshape(self.bounds.extents)

    def fill(self, field: str, value) -> None:
        """Fill every point's ``field`` with ``value``."""
        self.storage(field)[:] = value

    def root_subregion(self) -> "Subregion":
        """The whole region viewed as a subregion (color None)."""
        return Subregion(self, RectSubset(self.bounds), color=None, partition=None)

    def __repr__(self) -> str:
        return (
            f"Region({self.name!r}, bounds={self.bounds!r}, "
            f"fields={list(self.fields.names)})"
        )


class Subregion:
    """A named subset of a region: the unit of data a task instance receives.

    Subregions are views: ``read``/``write``/``reduce`` go straight to the
    parent region's storage.  ``color`` is the subregion's point in its
    partition's color space (None for a root subregion).
    """

    __slots__ = ("region", "subset", "color", "partition", "_box", "_bbox")

    def __init__(self, region: Region, subset: IndexSubset, color: Optional[Point],
                 partition):
        self.region = region
        self.subset = subset
        self.color = color
        self.partition = partition
        self._box = None    # RectSubset.box(region.bounds), on first access
        self._bbox = None   # (bounding_box(),), on first access

    @property
    def volume(self) -> int:
        """Number of objects in this subregion."""
        return self.subset.volume()

    def _indices(self) -> np.ndarray:
        return self.subset.linear_indices(self.region.bounds)

    def _view(self, field: str) -> np.ndarray:
        """Rect subsets only: a view of ``field`` shaped like the rect."""
        box = self._box
        if box is None:
            box = self._box = self.subset.box(self.region.bounds)
        index, extents = box
        store = self.region.storage(field)
        return store[index] if extents is None else store.reshape(extents)[index]

    def gather(self, field: str, out: Optional[np.ndarray] = None) -> np.ndarray:
        """This subregion's values of ``field``: a flat copy in
        :meth:`IndexSubset.linear_indices` order, written into ``out`` (flat,
        ``volume`` long) when given.

        A rect subset is one strided slice copy; only a sparse subset
        gathers through its index array.
        """
        if isinstance(self.subset, RectSubset):
            view = self._view(field)
            if out is None:
                return view.flatten()
            # reshape raises unless ``out`` is exactly volume long
            dst = out if out.shape == view.shape else out.reshape(view.shape)
            dst[...] = view
            return out
        return np.take(self.region.storage(field), self._indices(), out=out)

    def scatter(self, field: str, values) -> None:
        """Store ``values`` — ``volume`` of them in :meth:`gather` order, any
        shape, or a single value for all — into this subregion's ``field``."""
        values = np.asarray(values)
        if not isinstance(self.subset, RectSubset):
            self.region.storage(field)[self._indices()] = (
                values.ravel() if values.ndim > 1 else values
            )
            return
        view = self._view(field)
        if values.shape != view.shape:
            if values.size == view.size:
                values = values.reshape(view.shape)
            elif values.size != 1:
                raise ValueError(
                    f"cannot scatter {values.size} values into {self!r}"
                )
        view[...] = values

    def read(self, field: str) -> np.ndarray:
        """Gather this subregion's values of ``field``.

        Rect-backed subsets of 1-D regions return a writable view; everything
        else returns a gathered copy (use :meth:`write` to store back).
        """
        if isinstance(self.subset, RectSubset) and self.region.bounds.dim == 1:
            return self._view(field)
        return self.gather(field)

    def read_nd(self, field: str) -> np.ndarray:
        """Rect subsets only: the field as an N-D *view* shaped like the rect."""
        if not isinstance(self.subset, RectSubset):
            raise TypeError("read_nd requires a rectangular subset")
        return self._view(field)

    def write(self, field: str, values) -> None:
        """Scatter ``values`` into this subregion's points of ``field``."""
        self.scatter(field, values)

    def fill(self, field: str, value) -> None:
        """Set every point of ``field`` in this subregion to ``value``."""
        self.scatter(field, value)

    def reduce(self, field: str, values, op: ReductionOp) -> None:
        """Fold ``values`` into ``field`` with a commutative operator.

        Uses ``np.ufunc.at``-style accumulation so repeated indices (never
        produced by partitions, but possible through aliased views) still
        reduce correctly for ``+``.
        """
        op.fold_at(
            self.region.storage(field), self._indices(),
            np.asarray(values).ravel(),
        )

    def bounding_box(self) -> Optional[Tuple[tuple, tuple]]:
        """Tight ``(lo, hi)`` corners around this subregion's points in the
        region's index space; None when it has no points.  Two subregions of
        one region whose boxes are disjoint cannot :meth:`overlaps`."""
        cached = self._bbox
        if cached is None:
            cached = self._bbox = (
                self.subset.bounding_box(self.region.bounds),
            )
        return cached[0]

    def overlaps(self, other: "Subregion") -> bool:
        """Whether two subregions can share data (same region and intersecting)."""
        if self.region.uid != other.region.uid:
            return False
        return self.subset.overlaps(other.subset, self.region.bounds)

    def __repr__(self) -> str:
        pname = self.partition.name if self.partition is not None else "<root>"
        return f"Subregion({self.region.name}/{pname}[{self.color}], n={self.volume})"


def covering_subregions(subs: Sequence[Subregion]) -> List[List[Subregion]]:
    """Subregions of one region covering the union of ``subs``, grouped by
    how they move: one list of boxes, then one single sparse subregion.

    Rect subsets become boxes: repeated and contained ones dropped, abutting
    ones coalesced (:func:`~repro.core.domain.coalesce_rects`); boxes that
    genuinely overlap stay separate, so moving each in turn copies the shared
    cells twice — harmless when every copy carries the same bytes.  Sparse
    subsets union into one index set.  A result that equals an input *is*
    that input, so its cached geometry is reused.
    """
    rects: Dict[Rect, Subregion] = {}
    sparse: Dict[int, Subregion] = {}
    for sub in subs:
        if isinstance(sub.subset, RectSubset):
            rects.setdefault(sub.subset.rect, sub)
        else:
            sparse.setdefault(sub.subset.uid, sub)
    groups = []
    if rects:
        groups.append([
            rects.get(rect)
            or Subregion(subs[0].region, RectSubset(rect), None, None)
            for rect in coalesce_rects(rects)
        ])
    if len(sparse) == 1:
        groups.append(list(sparse.values()))
    elif sparse:
        union = SparseSubset(np.concatenate([s._indices() for s in sparse.values()]))
        groups.append([Subregion(subs[0].region, union, None, None)])
    return [group for group in groups if group]
