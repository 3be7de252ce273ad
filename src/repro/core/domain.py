"""N-dimensional points, rectangles, and launch domains.

A :class:`Domain` is the index space of an index launch: the set of points
``i`` for which a task instance ``T(f1(i), ..., fn(i))`` is created.  Domains
may be dense rectangles (the common case: ``for i = 0, N``) or irregular
point sets (e.g. the 3-D diagonal slices used by DOM sweeps in Soleil-X).

Coordinates are integers.  Rectangle bounds are *inclusive* on both ends,
matching Legion's ``Rect`` convention (``[0,3]`` has volume 4, as drawn in
Figures 2 and 3 of the paper).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = ["Point", "Rect", "Domain", "coerce_point", "coalesce_rects"]

Coord = Union[int, np.integer]


class Point(tuple):
    """An N-dimensional integer point.

    ``Point`` is a tuple subclass so it is hashable, orderable, and cheap.
    1-D points compare equal to ``(x,)`` but helpers accept bare ints where
    unambiguous (see :func:`coerce_point`).
    """

    __slots__ = ()

    def __new__(cls, *coords: Coord) -> "Point":
        if len(coords) == 1 and isinstance(coords[0], (tuple, list, np.ndarray)):
            coords = tuple(coords[0])
        if not coords:
            raise ValueError("Point requires at least one coordinate")
        return super().__new__(cls, (int(c) for c in coords))

    @property
    def dim(self) -> int:
        """Dimensionality of the point."""
        return len(self)

    def __add__(self, other: Sequence[Coord]) -> "Point":
        other = coerce_point(other, self.dim)
        return Point(*(a + b for a, b in zip(self, other)))

    def __sub__(self, other: Sequence[Coord]) -> "Point":
        other = coerce_point(other, self.dim)
        return Point(*(a - b for a, b in zip(self, other)))

    def __mul__(self, scalar: Coord) -> "Point":
        return Point(*(a * int(scalar) for a in self))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Point{tuple(self)!r}"


def coerce_point(value: Union[Coord, Sequence[Coord], Point], dim: int = None) -> Point:
    """Coerce ``value`` into a :class:`Point`, validating dimensionality.

    Bare integers become 1-D points.  Raises ``ValueError`` on a dimension
    mismatch when ``dim`` is given.
    """
    if isinstance(value, Point):
        pt = value
    elif isinstance(value, (int, np.integer)):
        pt = Point(int(value))
    elif isinstance(value, (tuple, list, np.ndarray)):
        pt = Point(*value)
    else:
        raise TypeError(f"cannot interpret {value!r} as a Point")
    if dim is not None and pt.dim != dim:
        raise ValueError(f"expected a {dim}-D point, got {pt.dim}-D point {pt}")
    return pt


class Rect:
    """A dense N-dimensional rectangle with inclusive bounds ``[lo, hi]``.

    An empty rectangle (any ``hi[d] < lo[d]``) has volume 0.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[Coord], hi: Sequence[Coord]):
        self.lo = coerce_point(lo)
        self.hi = coerce_point(hi, self.lo.dim)

    @property
    def dim(self) -> int:
        """Dimensionality of the rectangle."""
        return self.lo.dim

    @property
    def extents(self) -> Tuple[int, ...]:
        """Per-dimension size (clamped at zero for empty rects)."""
        return tuple(max(0, h - l + 1) for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        """Number of points contained."""
        v = 1
        for e in self.extents:
            v *= e
        return v

    @property
    def empty(self) -> bool:
        """True when the rectangle contains no points."""
        for l, h in zip(self.lo, self.hi):
            if h < l:
                return True
        return False

    def contains(self, point: Union[Coord, Sequence[Coord]]) -> bool:
        """Whether ``point`` lies within the inclusive bounds."""
        p = coerce_point(point, self.dim)
        return all(l <= c <= h for l, c, h in zip(self.lo, p, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` is fully contained in ``self``."""
        if other.empty:
            return True
        if len(self.lo) != len(other.lo):
            raise ValueError("dimension mismatch in Rect.contains_rect")
        # ``other`` is non-empty, so lo <= hi there: two comparisons per
        # axis decide it.
        for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            if ol < sl or sh < oh:
                return False
        return True

    def intersection(self, other: "Rect") -> "Rect":
        """The overlapping rectangle (possibly empty)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in Rect.intersection")
        lo = Point(*(max(a, b) for a, b in zip(self.lo, other.lo)))
        hi = Point(*(min(a, b) for a, b in zip(self.hi, other.hi)))
        return Rect(lo, hi)

    def overlaps(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least one point.

        Same answer as ``not self.intersection(other).empty`` — an empty
        operand overlaps nothing — decided on the coordinates, because the
        physical analysis asks this once per candidate user.
        """
        if len(self.lo) != len(other.lo):
            raise ValueError("dimension mismatch in Rect.overlaps")
        # max(a, c) <= min(b, d) on every axis, spelled as its four pairs.
        for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi):
            if b < a or d < a or b < c or d < c:
                return False
        return True

    def linearize(self, point: Union[Coord, Sequence[Coord]]) -> int:
        """Bijectively map a contained point to ``[0, volume)`` (row-major).

        This is the linearization procedure from Listing 3 (line 12): the
        dynamic check's bitmask is a linear array, so N-D projection functor
        values must be mapped to scalars using the bounds of the partition.
        """
        p = coerce_point(point, self.dim)
        if not self.contains(p):
            raise ValueError(f"{p} not contained in {self}")
        index = 0
        for c, l, e in zip(p, self.lo, self.extents):
            index = index * e + (c - l)
        return index

    def linearize_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`linearize` for a ``(n, dim)`` int array.

        All points must be contained in the rectangle; the scalar method's
        bounds check is hoisted into one vectorized comparison.
        """
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.shape[1] != self.dim:
            raise ValueError(
                f"expected {self.dim}-D points, got {pts.shape[1]}-D batch"
            )
        lo = np.asarray(self.lo, dtype=np.int64)
        hi = np.asarray(self.hi, dtype=np.int64)
        if len(pts) and not np.all((pts >= lo) & (pts <= hi)):
            bad = pts[~np.all((pts >= lo) & (pts <= hi), axis=1)][0]
            raise ValueError(f"{Point(*bad)} not contained in {self}")
        extents = np.asarray(self.extents, dtype=np.int64)
        strides = np.ones_like(extents)
        for d in range(len(extents) - 2, -1, -1):
            strides[d] = strides[d + 1] * extents[d + 1]
        return (pts - lo) @ strides

    def delinearize(self, index: int) -> Point:
        """Inverse of :meth:`linearize`."""
        if not 0 <= index < self.volume:
            raise ValueError(f"index {index} out of range for {self}")
        coords = []
        for e in reversed(self.extents):
            coords.append(index % e)
            index //= e
        coords.reverse()
        return Point(*(l + c for l, c in zip(self.lo, coords)))

    def points(self) -> Iterator[Point]:
        """Iterate contained points in row-major order."""
        if self.empty:
            return
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        for coords in itertools.product(*ranges):
            yield Point(*coords)

    def __iter__(self) -> Iterator[Point]:
        return self.points()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        if self.empty and other.empty:
            return self.dim == other.dim
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        if self.empty:
            return hash(("Rect-empty", self.dim))
        return hash(("Rect", self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Rect({tuple(self.lo)}, {tuple(self.hi)})"


def coalesce_rects(rects: Iterable[Rect]) -> List[Rect]:
    """A short, deterministic list of rects with the same union.

    Empty and repeated rects are dropped; rects that abut exactly along one
    axis and agree on every other merge into one (repeatedly, so a tiling
    collapses to its bounding rect); a rect contained in another is
    dropped.  Rects that merely overlap — two halos sharing a strip — or
    touch at a corner stay as they are: their union is not a rect.
    """
    boxes = {(tuple(r.lo), tuple(r.hi)) for r in rects if not r.empty}
    merged = len(boxes) > 1
    while merged:
        merged = False
        for d in range(len(next(iter(boxes))[0])):
            runs: dict = {}
            for lo, hi in boxes:
                rest = (lo[:d], lo[d + 1:], hi[:d], hi[d + 1:])
                runs.setdefault(rest, []).append((lo[d], hi[d]))
            boxes = set()
            for (lo_a, lo_b, hi_a, hi_b), spans in runs.items():
                spans.sort()
                start, end = spans[0]
                for l, h in spans[1:]:
                    if l == end + 1:
                        end, merged = h, True
                        continue
                    boxes.add((lo_a + (start,) + lo_b, hi_a + (end,) + hi_b))
                    start, end = l, h
                boxes.add((lo_a + (start,) + lo_b, hi_a + (end,) + hi_b))

    def volume(box) -> int:
        v = 1
        for l, h in zip(*box):
            v *= h - l + 1
        return v

    kept: List[tuple] = []          # (volume, box), largest first

    def contained(v: int, lo: tuple, hi: tuple) -> bool:
        # Only a strictly larger rect can contain a distinct one.
        for kv, (klo, khi) in kept:
            if kv == v:
                return False
            if all(a <= b for a, b in zip(klo, lo)) and all(
                a >= b for a, b in zip(khi, hi)
            ):
                return True
        return False

    for v, (lo, hi) in sorted(((volume(b), b) for b in boxes), reverse=True):
        if not contained(v, lo, hi):
            kept.append((v, (lo, hi)))
    return [Rect(lo, hi) for lo, hi in sorted(box for _, box in kept)]


class Domain:
    """The index space of an index launch.

    Two flavours share one interface:

    * *dense*: a :class:`Rect` (``Domain.rect`` / ``Domain.range``), the common
      ``for i = 0, N`` case;
    * *sparse*: an explicit point set (``Domain.points``), e.g. the diagonal
      slices of a DOM sweep where the launch domain is
      ``{(x, y, z) : x + y + z == k}``.

    The degree of parallelism of a launch is ``|D|`` (:attr:`volume`), per
    Section 3 of the paper (``P = |D|``).
    """

    __slots__ = ("_rect", "_points", "_dim", "_hash", "_fset")

    def __init__(self, rect: Rect = None, points: Sequence[Point] = None):
        self._hash = None
        self._fset = None
        if (rect is None) == (points is None):
            raise ValueError("Domain takes exactly one of rect= or points=")
        if rect is not None:
            self._rect = rect
            self._points = None
            self._dim = rect.dim
        else:
            pts = [coerce_point(p) for p in points]
            if not pts:
                raise ValueError("sparse Domain requires at least one point; "
                                 "use Domain.empty(dim) for an empty domain")
            dim = pts[0].dim
            for p in pts:
                if p.dim != dim:
                    raise ValueError("mixed-dimension points in Domain")
            if len(set(pts)) != len(pts):
                raise ValueError("duplicate points in sparse Domain")
            self._rect = None
            self._points = tuple(pts)
            self._dim = dim

    # ---------------------------------------------------------------- ctors
    @classmethod
    def rect(cls, lo: Sequence[Coord], hi: Sequence[Coord]) -> "Domain":
        """Dense domain over inclusive bounds ``[lo, hi]``."""
        return cls(rect=Rect(lo, hi))

    @classmethod
    def range(cls, n: int) -> "Domain":
        """The 1-D domain ``[0, n)`` — i.e. ``for i = 0, n`` in Regent."""
        if n < 0:
            raise ValueError("Domain.range requires n >= 0")
        return cls(rect=Rect(Point(0), Point(n - 1)))

    @classmethod
    def points(cls, pts: Iterable[Union[Coord, Sequence[Coord]]]) -> "Domain":
        """Sparse domain from an explicit point list (no duplicates)."""
        return cls(points=[coerce_point(p) for p in pts])

    @classmethod
    def empty(cls, dim: int = 1) -> "Domain":
        """An empty dense domain of the given dimensionality."""
        return cls(rect=Rect(Point(*([0] * dim)), Point(*([-1] * dim))))

    # ------------------------------------------------------------- queries
    @property
    def dim(self) -> int:
        """Dimensionality of the domain's points."""
        return self._dim

    @property
    def dense(self) -> bool:
        """True when backed by a rectangle."""
        return self._rect is not None

    @property
    def bounds(self) -> Rect:
        """Tight bounding rectangle of the domain."""
        if self._rect is not None:
            return self._rect
        lo = Point(*(min(p[d] for p in self._points) for d in range(self._dim)))
        hi = Point(*(max(p[d] for p in self._points) for d in range(self._dim)))
        return Rect(lo, hi)

    @property
    def volume(self) -> int:
        """Number of points — the launch's degree of parallelism P."""
        if self._rect is not None:
            return self._rect.volume
        return len(self._points)

    def contains(self, point: Union[Coord, Sequence[Coord]]) -> bool:
        """Membership test."""
        p = coerce_point(point, self._dim)
        if self._rect is not None:
            return self._rect.contains(p)
        return p in self._points

    def __iter__(self) -> Iterator[Point]:
        if self._rect is not None:
            return self._rect.points()
        return iter(self._points)

    def __len__(self) -> int:
        return self.volume

    def point_array(self) -> np.ndarray:
        """All points as an ``(volume, dim)`` int64 array (vectorized checks)."""
        if self._rect is not None:
            if self._rect.empty:
                return np.empty((0, self._dim), dtype=np.int64)
            axes = [np.arange(l, h + 1, dtype=np.int64)
                    for l, h in zip(self._rect.lo, self._rect.hi)]
            grids = np.meshgrid(*axes, indexing="ij")
            return np.stack([g.ravel() for g in grids], axis=1)
        return np.asarray(self._points, dtype=np.int64).reshape(self.volume, self._dim)

    def _point_set(self) -> frozenset:
        if self._fset is None:
            self._fset = frozenset(iter(self))
        return self._fset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        if self._dim != other._dim:
            return False
        # Fast paths: dense rects compare by bounds, sparse point tuples by
        # cached frozensets.  Only the mixed dense/sparse case still needs a
        # point-set comparison, and the dense side never materializes: equal
        # volume plus full containment of the (deduplicated) sparse points is
        # equivalent to set equality.
        if self._rect is not None and other._rect is not None:
            return self._rect == other._rect
        if self._rect is None and other._rect is None:
            if self._points == other._points:
                return True
            return self._point_set() == other._point_set()
        dense, sparse = (self, other) if self._rect is not None else (other, self)
        if dense.volume != len(sparse._points):
            return False
        rect = dense._rect
        return all(rect.contains(p) for p in sparse._points)

    def __hash__(self) -> int:
        # Equal domains must hash equal even across the dense/sparse divide
        # (Domain.range(4) == Domain.points([0, 1, 2, 3])), so hash only
        # invariants shared by equal point sets: volume and tight bounds.
        # Sparse domains with equal bounds collide and fall back to __eq__.
        h = self._hash
        if h is None:
            h = hash(("Domain", self.volume, self.bounds))
            self._hash = h
        return h

    def __getstate__(self):
        # Keep pickled blobs independent of lazily-populated hash/point-set
        # caches so delta-shipped state stays deterministic.
        return (self._rect, self._points, self._dim)

    def __setstate__(self, state):
        self._rect, self._points, self._dim = state
        self._hash = None
        self._fset = None

    def __repr__(self) -> str:
        if self._rect is not None:
            return f"Domain(rect={self._rect!r})"
        if len(self._points) <= 4:
            return f"Domain(points={list(self._points)!r})"
        return f"Domain(points=<{len(self._points)} pts, dim={self._dim}>)"
