"""Tasks, task registration, and privilege-enforcing region accessors.

A task is "just a function marked for parallel execution by the user"
(Section 2).  Tasks declare privileges on each collection parameter; the
declarations are verified at *execution* time by :class:`PhysicalRegion`,
which refuses reads/writes/reductions the privilege does not permit —
standing in for Regent's compile-time privilege checking [26].

Task bodies have the signature::

    @task(privileges=["reads", "reads writes"])
    def step(ctx, inputs, outputs, dt):
        ...

where ``ctx`` is a :class:`TaskContext`, one :class:`PhysicalRegion` is
passed per declared privilege, and remaining parameters are by-value
arguments.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.domain import Point
from repro.data.collection import RectSubset, Subregion
from repro.data.privileges import Privilege, PrivilegeSpec

__all__ = ["Task", "TaskContext", "PhysicalRegion", "PrivilegeError", "task"]

_next_task_id = itertools.count()


class PrivilegeError(RuntimeError):
    """A task accessed a region in a way its declared privilege forbids."""


class PhysicalRegion:
    """A task's view of one subregion, gated by the declared privilege.

    Mirrors Legion's physical instance accessors: ``read``/``read_nd``
    require a reading privilege, ``write``/``fill`` a writing one, and
    ``reduce`` exactly the declared reduction operator.

    A READ accessor is a read-only capability: ``read`` and ``read_nd``
    return arrays with ``writeable=False``, so a body that writes through
    one raises ``ValueError`` at the write, on every backend.  A view of
    storage is made once per field and kept (accessors live as long as
    their launch's expansion); a gathered copy is made per call.
    """

    __slots__ = ("subregion", "privilege", "fields", "_views")

    def __init__(self, subregion: Subregion, privilege: PrivilegeSpec,
                 fields: Tuple[str, ...]):
        self.subregion = subregion
        self.privilege = privilege
        self.fields = fields
        self._views = None  # READ only: {(field, nd): read-only view}

    # ------------------------------------------------------------- queries
    @property
    def volume(self) -> int:
        """Number of objects visible through this accessor."""
        return self.subregion.volume

    @property
    def color(self) -> Optional[Point]:
        """The subregion's color within its partition."""
        return self.subregion.color

    def bounds(self):
        """Rect bounds for rectangular subregions."""
        return self.subregion.subset.rect

    def linear_indices(self) -> np.ndarray:
        """The subregion's sorted linear indices within its region."""
        return self.subregion.subset.linear_indices(self.subregion.region.bounds)

    def locate(self, global_ids: np.ndarray) -> np.ndarray:
        """Positions of ``global_ids`` within this subregion's index list.

        Unstructured apps address objects by global id (e.g. a wire's
        endpoint node); ``locate`` translates those ids to offsets into the
        arrays returned by :meth:`read`.  Raises :class:`PrivilegeError`
        when an id is not covered by the subregion — accessing data outside
        the declared requirement.
        """
        idx = self.linear_indices()
        pos = np.searchsorted(idx, global_ids)
        valid = (pos < len(idx)) & (idx[np.minimum(pos, len(idx) - 1)] == global_ids)
        if not np.all(valid):
            bad = np.asarray(global_ids)[~valid]
            raise PrivilegeError(
                f"ids {bad[:5]}... are outside subregion {self.subregion!r}"
            )
        return pos

    def _check_field(self, fname: str) -> None:
        if fname not in self.fields:
            raise PrivilegeError(
                f"field {fname!r} not among declared fields {self.fields}"
            )

    # -------------------------------------------------------------- access
    def read(self, fname: str) -> np.ndarray:
        self._check_field(fname)
        privilege = self.privilege.privilege
        if privilege is Privilege.READ:
            return self._read_only(fname, False)
        if not privilege.reads:
            raise PrivilegeError(
                f"task holds {self.privilege!r} on {self.subregion!r}; read denied"
            )
        return self.subregion.read(fname)

    def read_nd(self, fname: str) -> np.ndarray:
        self._check_field(fname)
        privilege = self.privilege.privilege
        if privilege is Privilege.READ:
            return self._read_only(fname, True)
        if not privilege.reads:
            raise PrivilegeError(
                f"task holds {self.privilege!r} on {self.subregion!r}; read denied"
            )
        return self.subregion.read_nd(fname)

    def _read_only(self, fname: str, nd: bool) -> np.ndarray:
        """``read`` (``nd`` False) or ``read_nd`` of a READ accessor, made
        read-only: a view once per field, a gathered copy per call."""
        views = self._views
        if views is None:
            views = self._views = {}
        view = views.get((fname, nd))
        if view is None:
            sub = self.subregion
            view = sub.read_nd(fname) if nd else sub.read(fname)
            view.flags.writeable = False
            if isinstance(sub.subset, RectSubset) and (
                nd or sub.region.bounds.dim == 1
            ):
                views[fname, nd] = view   # a view of storage: keep it
        return view

    def write(self, fname: str, values) -> None:
        self._check_field(fname)
        if self.privilege.privilege not in (Privilege.WRITE, Privilege.READ_WRITE):
            raise PrivilegeError(
                f"task holds {self.privilege!r} on {self.subregion!r}; write denied"
            )
        self.subregion.write(fname, values)

    def write_nd(self, fname: str, values) -> None:
        """Write through the N-D view (rect subsets only)."""
        self._check_field(fname)
        if self.privilege.privilege not in (Privilege.WRITE, Privilege.READ_WRITE):
            raise PrivilegeError(
                f"task holds {self.privilege!r} on {self.subregion!r}; write denied"
            )
        self.subregion.read_nd(fname)[...] = values

    def fill(self, fname: str, value) -> None:
        self._check_field(fname)
        if self.privilege.privilege not in (Privilege.WRITE, Privilege.READ_WRITE):
            raise PrivilegeError(
                f"task holds {self.privilege!r} on {self.subregion!r}; fill denied"
            )
        self.subregion.fill(fname, value)

    def reduce(self, fname: str, values) -> None:
        self._check_field(fname)
        if self.privilege.privilege is not Privilege.REDUCE:
            raise PrivilegeError(
                f"task holds {self.privilege!r} on {self.subregion!r}; reduce denied"
            )
        self._fold(fname, values)

    def _fold(self, fname: str, values) -> None:
        """Apply one permitted reduction (worker accessors record it)."""
        self.subregion.reduce(fname, values, self.privilege.redop)

    def __repr__(self) -> str:
        return f"PhysicalRegion({self.subregion!r}, {self.privilege!r})"


class TaskContext:
    """Execution context handed to every task body: the facade a body sees
    of the runtime.

    Immutable (assigning or deleting an attribute raises
    ``AttributeError``): a replayed launch builds its points' contexts once
    and hands the same object to the point's body on every replay, in the
    parent (``ExpansionTemplate.reissue``) and on a worker (its plan
    memo).

    Attributes:
        point: the task's point in its index launch's domain (None for
            single launches).
        node: the simulated node the task was mapped to (0 in purely local
            runs).
        runtime: the owning runtime, for nested launches.  None on a
            worker process: a body that launches from there fails, and
            the parent re-runs the launch on the serial backend.
    """

    __slots__ = ("point", "node", "runtime")

    def __init__(self, point: Optional[Point] = None, node: int = 0,
                 runtime: Any = None):
        _set_point(self, point)
        _set_node(self, node)
        _set_runtime(self, runtime)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"TaskContext is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"TaskContext is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        return (f"TaskContext(point={self.point!r}, node={self.node!r}, "
                f"runtime={self.runtime!r})")


# The slots' own setters: what ``__init__`` uses, as ``__setattr__`` raises.
_set_point = TaskContext.point.__set__
_set_node = TaskContext.node.__set__
_set_runtime = TaskContext.runtime.__set__


class Task:
    """A registered task: a function plus privilege declarations.

    Args:
        fn: the task body ``fn(ctx, *physical_regions, *args)``.
        privileges: one privilege spec (string or :class:`PrivilegeSpec`)
            per collection parameter, in positional order.
        name: defaults to the function name.
        fields: optional per-parameter field tuples restricting access;
            ``None`` entries mean "all fields".
        cost: optional callable ``(task_launch) -> seconds`` giving the
            simulated execution time of one instance (used by the machine
            model; ignored by functional execution).
    """

    def __init__(
        self,
        fn: Callable,
        privileges: Sequence[Union[str, PrivilegeSpec]],
        name: Optional[str] = None,
        fields: Optional[Sequence[Optional[Sequence[str]]]] = None,
        cost: Optional[Callable] = None,
    ):
        self.fn = fn
        self.uid = next(_next_task_id)
        self.name = name or fn.__name__
        self.privileges: List[PrivilegeSpec] = [
            p if isinstance(p, PrivilegeSpec) else PrivilegeSpec.parse(p)
            for p in privileges
        ]
        if fields is not None and len(fields) != len(self.privileges):
            raise ValueError("fields must align with privileges")
        self.fields: List[Optional[Tuple[str, ...]]] = (
            [tuple(f) if f is not None else None for f in fields]
            if fields is not None
            else [None] * len(self.privileges)
        )
        self.cost = cost

    @property
    def n_region_params(self) -> int:
        """How many collection parameters the task declares."""
        return len(self.privileges)

    def __call__(self, ctx: TaskContext, *args) -> Any:
        return self.fn(ctx, *args)

    def __repr__(self) -> str:
        privs = ", ".join(repr(p) for p in self.privileges)
        return f"Task({self.name!r}, [{privs}])"


def task(
    privileges: Sequence[Union[str, PrivilegeSpec]],
    name: Optional[str] = None,
    fields: Optional[Sequence[Optional[Sequence[str]]]] = None,
    cost: Optional[Callable] = None,
) -> Callable[[Callable], Task]:
    """Decorator form of task registration::

        @task(privileges=["reads", "writes"])
        def saxpy(ctx, x, y, alpha): ...
    """

    def register(fn: Callable) -> Task:
        return Task(fn, privileges=privileges, name=name, fields=fields, cost=cost)

    return register
