"""Projection functors: map launch-domain points to partition sub-collections.

A projection functor ``f_i`` controls which sub-collection of partition
``P_i`` each task instance in an index launch receives (Section 3 of the
paper).  Functors are pure functions from :class:`~repro.core.domain.Point`
to :class:`~repro.core.domain.Point` (the *color* of a subregion).

Functors carry whatever static knowledge they can about their own
injectivity — this is what the compiler's static analysis consumes
(Section 4).  Functors for which injectivity cannot be decided statically
(modular, quadratic, opaque callables, plane projections used by DOM
sweeps) report :data:`Injectivity.UNKNOWN` and are handled by the dynamic
check in :mod:`repro.core.checks`.

Every functor supports vectorized evaluation over an ``(n, dim)`` point
array; this is the fast path used by the dynamic checks, keeping their
measured cost linear with small constants (Tables 2 and 3).

**Purity contract.**  A functor is a pure function of the point (§2), and
caches key on :attr:`ProjectionFunctor.key`.  A :class:`CallableFunctor`
over mutable captured state is outside the contract; nothing detects it.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.domain import Domain, Point, coerce_point

__all__ = [
    "Injectivity",
    "ProjectionFunctor",
    "IdentityFunctor",
    "ConstantFunctor",
    "AffineFunctor",
    "ModularFunctor",
    "QuadraticFunctor",
    "CallableFunctor",
    "ComposedFunctor",
    "AffineNDFunctor",
    "PlaneProjectionFunctor",
    "is_value_key",
]


class Injectivity(enum.Enum):
    """Result of static reasoning about a functor's injectivity over a domain."""

    INJECTIVE = "injective"
    NOT_INJECTIVE = "not-injective"
    UNKNOWN = "unknown"


class ProjectionFunctor:
    """Base class for projection functors.

    Subclasses implement :meth:`apply` (scalar) and may override
    :meth:`apply_batch` (vectorized) and :meth:`static_injectivity`.
    """

    #: dimensionality of input points; None means "any".
    input_dim: Optional[int] = None
    #: dimensionality of output points; None means "same as input".
    output_dim: Optional[int] = None

    def apply(self, point: Point) -> Point:
        """Evaluate the functor at one domain point."""
        raise NotImplementedError

    def __call__(self, point) -> Point:
        return self.apply(coerce_point(point))

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate over an ``(n, dim)`` int64 array, returning ``(n, out_dim)``.

        Row ``i`` must equal ``apply(points[i])``, for any ``dim``: the
        1-D families read the first coordinate only, as ``apply`` does.
        The default falls back to a Python loop; numeric subclasses override
        this with numpy expressions.
        """
        out = [self.apply(Point(*row)) for row in points]
        if not out:
            odim = self.output_dim or points.shape[1]
            return np.empty((0, odim), dtype=np.int64)
        return np.asarray(out, dtype=np.int64)

    def static_injectivity(self, domain: Domain) -> Injectivity:
        """What a compile-time analysis can conclude about injectivity over ``domain``.

        The base class is conservatively :data:`Injectivity.UNKNOWN`.  Any
        functor is trivially injective over a domain of volume <= 1.
        """
        if domain.volume <= 1:
            return Injectivity.INJECTIVE
        return Injectivity.UNKNOWN

    def describe(self) -> str:
        """Human-readable form, e.g. ``lambda i: a*i + b``; never a key."""
        return type(self).__name__

    @cached_property
    def key(self):
        """Identity, computed once: ``(exact class, *_params values)`` for
        this module's classes, else the object itself (a subclass may
        compute anything).  ``==`` and ``hash`` derive from it."""
        cls = type(self)
        if cls.__module__ != __name__:
            return self
        return (cls, *(getattr(self, name) for name in cls._params))

    def __eq__(self, other) -> bool:
        key = self.key
        if key is self or not isinstance(other, ProjectionFunctor):
            return self is other
        return key == other.key

    def __hash__(self) -> int:
        key = self.key
        return object.__hash__(self) if key is self else hash(key)

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


class IdentityFunctor(ProjectionFunctor):
    """``lambda i: i`` — the trivial functor; always injective.

    This is the functor of ``foo(p[i])`` in Listing 1.  Index launches using
    only identity functors over disjoint partitions are proven safe entirely
    statically (as in the paper's Circuit and Stencil codes).
    """

    _params = ()

    def apply(self, point: Point) -> Point:
        return point

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return points

    def static_injectivity(self, domain: Domain) -> Injectivity:
        return Injectivity.INJECTIVE

    def describe(self) -> str:
        return "lambda i: i"


class ConstantFunctor(ProjectionFunctor):
    """``lambda i: c`` — every task selects the same subregion.

    Statically *not* injective over any domain with more than one point, so a
    launch writing through it is rejected without any dynamic check.
    """

    _params = ("value",)

    def __init__(self, value):
        self.value = coerce_point(value)
        self.output_dim = self.value.dim

    def apply(self, point: Point) -> Point:
        return self.value

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(
            np.asarray(self.value, dtype=np.int64), (len(points), self.value.dim)
        )

    def static_injectivity(self, domain: Domain) -> Injectivity:
        if domain.volume <= 1:
            return Injectivity.INJECTIVE
        return Injectivity.NOT_INJECTIVE

    def describe(self) -> str:
        return f"lambda i: {tuple(self.value) if self.value.dim > 1 else self.value[0]}"


class AffineFunctor(ProjectionFunctor):
    """``lambda i: a*i + b`` on 1-D domains.

    Injective iff it does not degenerate to a constant (``a != 0``) — the
    "slightly more general affine case" the paper's static analysis accepts.
    """

    _params = ("a", "b")
    input_dim = 1
    output_dim = 1

    def __init__(self, a: int, b: int = 0):
        self.a = int(a)
        self.b = int(b)

    def apply(self, point: Point) -> Point:
        return Point(self.a * point[0] + self.b)

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return self.a * points[:, :1] + self.b

    def static_injectivity(self, domain: Domain) -> Injectivity:
        if domain.volume <= 1 or self.a != 0:
            return Injectivity.INJECTIVE
        return Injectivity.NOT_INJECTIVE

    def describe(self) -> str:
        return f"lambda i: {self.a}*i + {self.b}"


class ModularFunctor(ProjectionFunctor):
    """``lambda i: (i + k) mod n`` on 1-D domains.

    Injectivity depends on how the launch domain interacts with the modulus
    (``i % 3`` over ``[0, 5)`` is not injective, Listing 2), which the paper's
    static analysis does not attempt to decide; it is resolved by the dynamic
    check (Table 2, "Modular").
    """

    _params = ("n", "k")
    input_dim = 1
    output_dim = 1

    def __init__(self, n: int, k: int = 0):
        if n <= 0:
            raise ValueError("modulus must be positive")
        self.n = int(n)
        self.k = int(k)

    def apply(self, point: Point) -> Point:
        return Point((point[0] + self.k) % self.n)

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return (points[:, :1] + self.k) % self.n

    def describe(self) -> str:
        return f"lambda i: (i + {self.k}) mod {self.n}"


class QuadraticFunctor(ProjectionFunctor):
    """``lambda i: a*i**2 + b*i + c`` on 1-D domains (dynamic analysis only)."""

    _params = ("a", "b", "c")
    input_dim = 1
    output_dim = 1

    def __init__(self, a: int, b: int = 0, c: int = 0):
        self.a = int(a)
        self.b = int(b)
        self.c = int(c)

    def apply(self, point: Point) -> Point:
        i = point[0]
        return Point(self.a * i * i + self.b * i + self.c)

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        i = points[:, :1]
        return self.a * i * i + self.b * i + self.c

    def describe(self) -> str:
        return f"lambda i: {self.a}*i^2 + {self.b}*i + {self.c}"


class CallableFunctor(ProjectionFunctor):
    """Wrap an arbitrary Python callable — the opaque ``f`` of ``bar(q[f(i)])``.

    Statically unanalyzable by design; always resolved by the dynamic check.
    """

    # Functions compare by identity: two lambdas never share a key.
    _params = ("fn", "output_dim")

    def __init__(self, fn: Callable, output_dim: int = None, name: str = None):
        self.fn = fn
        self.output_dim = output_dim
        self.name = name or getattr(fn, "__name__", "f")

    def apply(self, point: Point) -> Point:
        arg = point[0] if point.dim == 1 else tuple(point)
        return coerce_point(self.fn(arg))

    def describe(self) -> str:
        return f"lambda i: {self.name}(i)"


class ComposedFunctor(ProjectionFunctor):
    """``outer . inner`` — composition; injective if both components are."""

    _params = ("outer", "inner")

    def __init__(self, outer: ProjectionFunctor, inner: ProjectionFunctor):
        self.outer = outer
        self.inner = inner
        self.input_dim = inner.input_dim
        self.output_dim = outer.output_dim

    def apply(self, point: Point) -> Point:
        return self.outer.apply(self.inner.apply(point))

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return self.outer.apply_batch(self.inner.apply_batch(points))

    def static_injectivity(self, domain: Domain) -> Injectivity:
        if domain.volume <= 1:
            return Injectivity.INJECTIVE
        inner = self.inner.static_injectivity(domain)
        if inner is Injectivity.NOT_INJECTIVE:
            return Injectivity.NOT_INJECTIVE
        # The outer functor must be injective over the *image* of the inner;
        # we conservatively require it be injective over any domain, which
        # holds for Identity/Affine(a != 0).
        image = Domain.points({self.inner.apply(p) for p in domain}) \
            if domain.volume <= 1024 else None
        if image is not None:
            outer = self.outer.static_injectivity(image)
        else:
            outer = Injectivity.UNKNOWN
        if inner is Injectivity.INJECTIVE and outer is Injectivity.INJECTIVE:
            return Injectivity.INJECTIVE
        return Injectivity.UNKNOWN

    def describe(self) -> str:
        return f"({self.outer.describe()}) . ({self.inner.describe()})"


class AffineNDFunctor(ProjectionFunctor):
    """``lambda p: A @ p + b`` for an integer matrix ``A`` and offset ``b``.

    Injective over all of Z^n (hence any domain) iff ``A`` has full column
    rank — decidable statically, so multi-dimensional affine functors are
    accepted or rejected without a dynamic check.
    """

    _params = ("_values",)

    def __init__(self, matrix: Sequence[Sequence[int]], offset: Sequence[int] = None):
        self.matrix = np.asarray(matrix, dtype=np.int64)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        out_dim, in_dim = self.matrix.shape
        self.offset = (
            np.zeros(out_dim, dtype=np.int64)
            if offset is None
            else np.asarray([int(x) for x in offset], dtype=np.int64)
        )
        if self.offset.shape != (out_dim,):
            raise ValueError("offset length must match matrix rows")
        self.input_dim = in_dim
        self.output_dim = out_dim
        self._values = (self.matrix.shape, self.matrix.tobytes(),
                        self.offset.tobytes())

    def apply(self, point: Point) -> Point:
        p = np.asarray(point, dtype=np.int64)
        return Point(*(self.matrix @ p + self.offset))

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return points @ self.matrix.T + self.offset

    def static_injectivity(self, domain: Domain) -> Injectivity:
        if domain.volume <= 1:
            return Injectivity.INJECTIVE
        rank = np.linalg.matrix_rank(self.matrix.astype(np.float64))
        if rank == self.matrix.shape[1]:
            return Injectivity.INJECTIVE
        # Rank-deficient maps may still be injective over a particular domain
        # (e.g. projecting a diagonal slice); that is the dynamic check's job.
        return Injectivity.UNKNOWN

    def describe(self) -> str:
        return f"lambda p: {self.matrix.tolist()} @ p + {self.offset.tolist()}"


class PlaneProjectionFunctor(ProjectionFunctor):
    """Project an N-D point onto a subset of its axes, e.g. (x,y,z) -> (x,y).

    This is the non-trivial functor family used by Soleil-X's DOM radiation
    sweeps (Section 6.2.3): 3-D diagonal-slice launch domains are projected
    onto 2-D exchange planes.  The projection is injective only when the
    launch domain contains no duplicate pairs along the kept axes — hard for
    a static compiler, trivial for the dynamic check.
    """

    _params = ("keep_axes",)

    def __init__(self, keep_axes: Sequence[int]):
        self.keep_axes = tuple(int(a) for a in keep_axes)
        if len(set(self.keep_axes)) != len(self.keep_axes):
            raise ValueError("keep_axes must be distinct")
        self.output_dim = len(self.keep_axes)

    def apply(self, point: Point) -> Point:
        return Point(*(point[a] for a in self.keep_axes))

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return points[:, list(self.keep_axes)]

    def describe(self) -> str:
        axes = ",".join(f"p[{a}]" for a in self.keep_axes)
        return f"lambda p: ({axes})"


def is_value_key(key) -> bool:
    """Is ``key`` (a functor key, or a cache key holding some) free of
    callables and user objects, so it may outlive a runtime?"""
    if isinstance(key, ProjectionFunctor):
        return key.key is not key and is_value_key(key.key)
    if isinstance(key, tuple):
        return (not (key and key[0] is CallableFunctor)
                and all(map(is_value_key, key)))
    return True
