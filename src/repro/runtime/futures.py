"""Futures: deferred task return values, with a first-class poisoned state.

In the functional backend execution is synchronous, so futures are filled
boxes — but the API matches deferred-execution semantics so programs written
against it would behave identically under an asynchronous executor.

A future is in exactly one of three states:

* **pending** — no value yet; :meth:`Future.get` raises
  :class:`FuturePendingError` (a labeled diagnostic, not a bare
  ``RuntimeError``).
* **filled** — holds its task's return value.
* **poisoned** — the producing task (or a task it depends on) was lost to
  an injected fault and the launch could not be recovered;
  :meth:`Future.get` raises the :class:`TaskPoisonedError` that records
  the originating task id, launch, and point.  Poison propagates through
  dependence edges (see ``Runtime._poison_launch``), so consumers fail
  with the *root cause*, not a downstream symptom.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.domain import Point
from repro.data.privileges import REDUCTION_OPS

__all__ = [
    "Future",
    "FutureMap",
    "FuturePendingError",
    "TaskPoisonedError",
]


class FuturePendingError(RuntimeError):
    """``get()`` before the producing task ran (or was even issued)."""


class TaskPoisonedError(RuntimeError):
    """The producing task was lost to a fault and could not be recovered.

    Attributes:
        task_id: id of the task whose failure originated the poison (may be
            ``None`` when the fault predated task-id assignment).
        launch: name of the launch the poison originated in.
        point: domain point of the originating task, when known.
        origin: the underlying cause (an ``InjectedFaultError`` or the
            upstream ``TaskPoisonedError`` this one propagated from).
    """

    def __init__(
        self,
        message: str,
        *,
        task_id: Optional[int] = None,
        launch: Optional[str] = None,
        point: Optional[tuple] = None,
        origin: Optional[BaseException] = None,
    ):
        super().__init__(message)
        self.task_id = task_id
        self.launch = launch
        self.point = point
        self.origin = origin


class Future:
    """The eventual return value of a single task."""

    __slots__ = ("_value", "_filled", "_error", "label")

    def __init__(self, label: Optional[str] = None):
        self._value = None
        self._filled = False
        self._error: Optional[TaskPoisonedError] = None
        self.label = label

    def set(self, value: Any) -> None:
        if self._error is not None:
            raise RuntimeError("cannot fill a poisoned future")
        if self._filled:
            raise RuntimeError("future already filled")
        self._value = value
        self._filled = True

    def poison(self, error: TaskPoisonedError) -> None:
        """Mark this future as lost to an unrecovered fault."""
        if self._filled:
            raise RuntimeError("cannot poison a filled future")
        self._error = error

    def get(self) -> Any:
        """Block (trivially) until the value is available and return it."""
        if self._error is not None:
            raise self._error
        if not self._filled:
            what = f"future of {self.label!r}" if self.label else "future"
            raise FuturePendingError(
                f"{what} is pending: its task has not produced a value "
                f"(was the task issued, and did it complete?)"
            )
        return self._value

    @property
    def done(self) -> bool:
        return self._filled

    @property
    def poisoned(self) -> bool:
        return self._error is not None

    def __repr__(self) -> str:
        if self._error is not None:
            return "Future(<poisoned>)"
        return f"Future({self._value!r})" if self._filled else "Future(<pending>)"


class FutureMap:
    """Per-point return values of an index launch.

    ``reduce(op_name)`` folds every point's value with a commutative
    operator, matching Legion's future-map reductions (used e.g. for
    residual norms in iterative solvers).  A poisoned map — the whole
    launch was lost — or a map with poisoned points refuses to produce
    values, raising the originating :class:`TaskPoisonedError`.
    """

    __slots__ = ("_values", "_point_errors", "_error", "label")

    def __init__(self, label: Optional[str] = None):
        self._values: Dict[Point, Any] = {}
        self._point_errors: Dict[Point, TaskPoisonedError] = {}
        self._error: Optional[TaskPoisonedError] = None
        self.label = label

    def set(self, point: Point, value: Any) -> None:
        if self._error is not None:
            raise RuntimeError("cannot fill a poisoned future map")
        if point in self._values or point in self._point_errors:
            raise RuntimeError(f"future map already holds a value for {point}")
        self._values[point] = value

    def fill(self, values: Dict[Point, Any]) -> None:
        """Fill a launch's points at once.  They are distinct by ``Domain``
        construction, so unlike :meth:`set` nothing is checked per point."""
        if self._error is not None:
            raise RuntimeError("cannot fill a poisoned future map")
        self._values.update(values)

    def poison(
        self, error: TaskPoisonedError, point: Optional[Point] = None
    ) -> None:
        """Poison the whole map (``point=None``) or one point's future."""
        if point is None:
            self._error = error
            return
        if point in self._values:
            raise RuntimeError(f"cannot poison filled point {point}")
        self._point_errors[point] = error

    @property
    def poisoned(self) -> bool:
        return self._error is not None or bool(self._point_errors)

    @property
    def poison_error(self) -> Optional[TaskPoisonedError]:
        """The map-level error, or the first point-level one."""
        if self._error is not None:
            return self._error
        for error in self._point_errors.values():
            return error
        return None

    def get(self, point) -> Any:
        from repro.core.domain import coerce_point

        pt = coerce_point(point)
        if self._error is not None:
            raise self._error
        error = self._point_errors.get(pt)
        if error is not None:
            raise error
        return self._values[pt]

    def reduce(self, op_name: str) -> Any:
        """Fold all point values with the named reduction operator."""
        if op_name not in REDUCTION_OPS:
            raise ValueError(f"unknown reduction {op_name!r}")
        error = self.poison_error
        if error is not None:
            n_bad = len(self._point_errors)
            detail = (
                f"{n_bad} of {n_bad + len(self._values)} point futures "
                f"poisoned" if self._error is None else "launch poisoned"
            )
            raise TaskPoisonedError(
                f"cannot reduce({op_name!r}) over "
                f"{self.label or 'future map'}: {detail} "
                f"(origin: {error})",
                task_id=error.task_id,
                launch=error.launch,
                point=error.point,
                origin=error,
            )
        if not self._values:
            what = f"future map of {self.label!r}" if self.label else \
                "an empty future map"
            raise ValueError(
                f"reduce({op_name!r}) over {what}: the launch produced no "
                f"point values (empty domain?) — there is nothing to fold"
            )
        op = REDUCTION_OPS[op_name]
        acc = None
        for value in self._values.values():
            acc = value if acc is None else op.apply(acc, value)
        return acc

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        if self._error is not None:
            return "FutureMap(<poisoned>)"
        if self._point_errors:
            return (
                f"FutureMap(<{len(self._values)} points, "
                f"{len(self._point_errors)} poisoned>)"
            )
        return f"FutureMap(<{len(self._values)} points>)"
