"""Launch representations: the O(1) index launch and the single task launch.

An :class:`IndexLaunch` is the paper's central object:

    ``forall(D, T, <P1, f1>, ..., <Pn, fn>)``

It stores the launch domain, the task, and one :class:`RegionRequirement`
per collection argument — a fixed-size representation no matter how many
tasks it denotes.  :meth:`IndexLaunch.expand` materializes the individual
:class:`TaskLaunch` instances; the runtime defers this expansion until after
distribution (Section 5), and the No-IDX configurations of the evaluation
perform it eagerly at issuance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from typing import TYPE_CHECKING

import numpy as np

from repro.core.domain import Domain, Point, coerce_point
from repro.core.projection import IdentityFunctor, ProjectionFunctor
from repro.data.privileges import PrivilegeSpec

if TYPE_CHECKING:  # type-only: avoids a cycle through repro.data.collection
    from repro.data.collection import Region, Subregion
    from repro.data.partition import Partition

__all__ = ["RegionRequirement", "IndexLaunch", "TaskLaunch", "ArgumentMap"]

_next_launch_id = itertools.count()


def _task_label(task) -> str:
    """``task.name``; the repr is built only for a task without one."""
    return task.name if hasattr(task, "name") else repr(task)


@dataclass(frozen=True)
class RegionRequirement:
    """One collection argument of a launch.

    For an index launch: ``partition`` + ``functor`` (the pair <P_i, f_i>).
    For a single task launch: a concrete ``subregion``.  ``privilege``
    declares the task's access; ``fields`` restricts it to named fields
    (empty means all fields of the region).
    """

    privilege: PrivilegeSpec
    fields: Tuple[str, ...] = ()
    partition: Optional[Partition] = None
    functor: Optional[ProjectionFunctor] = None
    subregion: Optional[Subregion] = None

    def __post_init__(self):
        indexed = self.partition is not None
        single = self.subregion is not None
        if indexed == single:
            raise ValueError(
                "RegionRequirement needs either partition+functor (index launch) "
                "or subregion (single launch)"
            )
        if indexed and self.functor is None:
            object.__setattr__(self, "functor", IdentityFunctor())

    @property
    def region(self) -> Region:
        """The underlying top-level collection."""
        if self.partition is not None:
            return self.partition.region
        return self.subregion.region

    def project(self, point: Point) -> Subregion:
        """Resolve the subregion this requirement selects for domain point ``point``."""
        if self.partition is None:
            return self.subregion
        color = self.functor.apply(point)
        return self.partition[color]

    def project_all(self, points: Sequence[Point]) -> List[Subregion]:
        """``[self.project(p) for p in points]`` from one batched functor
        evaluation, whose raise propagates as it is.  Colours the batch
        cannot resolve (not ``(len(points), dim)``, or one outside the
        colour space) send the whole call per point, which raises exactly
        what :meth:`project` raises."""
        if self.partition is None:
            return [self.subregion] * len(points)
        if not len(points):
            return []
        colors = np.asarray(
            self.functor.apply_batch(np.asarray(points, dtype=np.int64))
        )
        if colors.ndim == 2 and len(colors) == len(points):
            try:
                return self.partition.lookup(colors)
            except KeyError:  # per point below: raise what project raises
                pass
        return [self.project(p) for p in points]

    def resolved_fields(self) -> Tuple[str, ...]:
        """The fields accessed (defaults to all fields of the region)."""
        return self.fields if self.fields else self.region.fields.names


class ArgumentMap:
    """Per-point by-value arguments for an index launch (Legion's ArgumentMap).

    Wraps either a dict ``{point: args_tuple}`` or a callable
    ``point -> args_tuple``.  Missing points get the empty tuple.
    """

    def __init__(self, source: Union[Dict, Callable[[Point], tuple]]):
        self._source = source

    def get(self, point: Point) -> tuple:
        if callable(self._source):
            out = self._source(point)
        else:
            out = self._source.get(point, ())
        if not isinstance(out, tuple):
            out = (out,)
        return out


@dataclass
class TaskLaunch:
    """A single task invocation: concrete subregions plus by-value args."""

    task: Any  # repro.runtime.task.Task (kept opaque to avoid a layering cycle)
    requirements: List[RegionRequirement]
    args: tuple = ()
    point: Optional[Point] = None       # index point when spawned from an index launch
    launch_id: int = field(default_factory=lambda: next(_next_launch_id))
    parent: Optional["IndexLaunch"] = None

    def __post_init__(self):
        for req in self.requirements:
            if req.subregion is None:
                raise ValueError("TaskLaunch requirements must be concrete subregions")

    @property
    def name(self) -> str:
        label = _task_label(self.task)
        return f"{label}{tuple(self.point) if self.point is not None else ''}"

    def representation_units(self) -> int:
        """In-memory size in abstract units: one per individual task."""
        return 1

    def encoded_size(self) -> int:
        """Approximate wire/memory size in bytes of one task descriptor.

        Mirrors what a runtime serializes per task: a task id, a point, and
        one (region-tree id, subregion id, privilege) triple per
        requirement, plus by-value arguments (counted at 8 bytes each).
        """
        header = 16  # task uid + launch id
        point = 8 * (len(self.point) if self.point is not None else 0)
        reqs = 24 * len(self.requirements)
        args = 8 * len(self.args)
        return header + point + reqs + args

    def __repr__(self) -> str:
        return f"TaskLaunch({self.name}, #{self.launch_id})"


@dataclass
class IndexLaunch:
    """The O(1) representation of |D| parallel tasks.

    Attributes:
        task: the task to invoke at every domain point.
        domain: launch domain D (degree of parallelism P = |D|).
        requirements: the <P_i, f_i, privilege> tuples, one per collection
            argument.
        args: by-value arguments broadcast to every point.
        point_args: optional :class:`ArgumentMap` for per-point values.
        reduction: optional reduction operator name; when set, each task's
            return value is folded into a single future value.
    """

    task: Any
    domain: Domain
    requirements: List[RegionRequirement]
    args: tuple = ()
    point_args: Optional[ArgumentMap] = None
    reduction: Optional[str] = None
    launch_id: int = field(default_factory=lambda: next(_next_launch_id))

    def __post_init__(self):
        for req in self.requirements:
            if req.partition is None:
                raise ValueError(
                    "IndexLaunch requirements must be partition+functor pairs"
                )

    @property
    def name(self) -> str:
        return f"{_task_label(self.task)}[{self.domain.volume}]"

    @property
    def parallelism(self) -> int:
        """P = |D|."""
        return self.domain.volume

    def representation_units(self) -> int:
        """In-memory size in abstract units: a *fixed* size regardless of |D|.

        This is the quantity Figures 2 and 3 illustrate — an index launch box
        occupies one unit however many tasks it denotes.
        """
        return 1

    def encoded_size(self) -> int:
        """Approximate wire/memory size in bytes of the launch descriptor.

        The quantity behind the paper's O(1) claim: a task id, the domain's
        *bounds* (not its points — dense domains serialize as two corner
        points regardless of volume), and one (partition id, functor id,
        privilege) triple per requirement.  Independent of ``|D|`` for dense
        domains; sparse (irregular) domains — e.g. DOM wavefronts — carry
        their point lists, which is why Legion prefers dense launch domains
        where possible.
        """
        header = 16  # task uid + launch id
        if self.domain.dense:
            domain = 16 * self.domain.dim  # lo + hi corner points
        else:
            domain = 8 * self.domain.dim * self.domain.volume
        reqs = 24 * len(self.requirements)
        args = 8 * len(self.args)
        return header + domain + reqs + args

    def point_task(self, point: Point) -> TaskLaunch:
        """Materialize the single task at ``point``."""
        point = coerce_point(point, self.domain.dim)
        reqs = [
            RegionRequirement(
                privilege=req.privilege,
                fields=req.fields,
                subregion=req.project(point),
            )
            for req in self.requirements
        ]
        extra = self.point_args.get(point) if self.point_args is not None else ()
        return TaskLaunch(
            task=self.task,
            requirements=reqs,
            args=self.args + extra,
            point=point,
            parent=self,
        )

    def expand(self, points: Optional[Iterable[Point]] = None) -> List[TaskLaunch]:
        """Materialize individual tasks for ``points`` (default: whole domain).

        The runtime calls this as late as possible — after distribution — so
        that no single node ever holds the full O(P) expansion (Section 5).
        """
        pts = self.domain if points is None else points
        return [self.point_task(p) for p in pts]

    def __repr__(self) -> str:
        return f"IndexLaunch({self.name}, #{self.launch_id})"
