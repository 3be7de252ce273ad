"""The fault injector: arms a plan's specs against a concrete run.

The plan is immutable; the injector wraps it with mutable firing state
(per-spec remaining counts, the current launch ordinal, an event log).
Faults reach their targets by two routes:

* **Worker-side directives** — :meth:`FaultInjector.arm_shard` is called by
  the parallel backend while building each :class:`~repro.exec.plan.
  ShardPlan`, once per node of the worker's unit, in serial order;
  matching specs are consumed and embedded as plain-tuple
  directives the worker fires with real effects (``os._exit``, a bounded
  sleep, a garbled result blob).  Because consumption happens at arm time,
  a retried shard is re-armed against the *remaining* counts: a
  ``times=1`` kill fires once and the retry sails through, which is what
  makes recovery-then-byte-identical runs possible.
* **Inline firing** — :meth:`FaultInjector.fire_inline` is called on the
  serial execution path (the last rung before poisoning).  Shard- and
  point-scoped execution-phase specs raise :class:`InjectedFaultError`
  there; ``hang`` specs just sleep (a slow task is not an error).

Inline firing is gated on an active index launch (``begin_launch`` /
``end_launch``), so fills, copies, and other single tasks between launches
never trip launch-targeted faults.

A third route exists for the formal conformance harness: a
:class:`FaultSchedule` of :class:`ScheduledFault` entries keyed on *attempt
ordinals* rather than firing budgets.  Where a plan spec says "corrupt
shard 0's result, twice, whenever it next runs", a scheduled fault says
"corrupt shard 0's result on exactly its second submission of launch 3" —
precise enough to replay a model-checker counterexample trace against the
real executor, attempt for attempt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fault.plan import FAULT_KINDS, FaultPlan, FaultSpec, \
    InjectedFaultError

__all__ = [
    "FaultInjector",
    "FaultDirective",
    "FaultSchedule",
    "ScheduledFault",
]

#: What ships to a worker inside ``ShardPlan.faults``:
#: (kind, phase, point tuple | None, hang seconds).
FaultDirective = Tuple[str, str, Optional[tuple], float]


@dataclass(frozen=True)
class ScheduledFault:
    """One deterministically-placed fault, keyed by attempt ordinal.

    Attributes:
        node: the distribution node (shard) the fault targets; ``-1``
            matches any node (useful for inline serial-path faults, where
            the model does not distinguish shards).
        attempt: which submission of that shard fires the fault — 0 is the
            first attempt, 1 the first retry/respawn resubmission, and so
            on.  ``None`` fires on *every* attempt (the unrecoverable
            analogue of ``times=-1``).
        kind: ``kill`` / ``hang`` / ``corrupt``.
        phase: shard-pipeline phase for worker-side firing.
        hang_s: sleep length for ``hang`` faults.
        via: ``"worker"`` ships a directive with the shard submission;
            ``"inline"`` fires on the serial path (poison tier).
        launch: index-launch ordinal this entry applies to (``None`` = any).
    """

    node: int
    attempt: Optional[int]
    kind: str
    phase: str = "execution"
    hang_s: float = 0.25
    via: str = "worker"
    launch: Optional[int] = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.via not in ("worker", "inline"):
            raise ValueError(f"via must be 'worker' or 'inline', "
                             f"got {self.via!r}")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable sequence of :class:`ScheduledFault` entries."""

    entries: Tuple[ScheduledFault, ...] = ()

    def describe(self) -> str:
        if not self.entries:
            return "empty fault schedule"
        return "; ".join(
            f"{e.kind}@node {e.node} attempt "
            f"{'*' if e.attempt is None else e.attempt} via {e.via}"
            for e in self.entries
        )


class FaultInjector:
    """Mutable firing state for one run of one :class:`FaultPlan`.

    An optional :class:`FaultSchedule` rides along: schedule entries match
    on the per-``(launch, node)`` attempt counter the injector maintains,
    so the Nth resubmission of a shard can be faulted without touching the
    N-1 attempts before it.
    """

    def __init__(self, plan: FaultPlan,
                 schedule: Optional[FaultSchedule] = None):
        self.plan = plan
        self.schedule = schedule or FaultSchedule()
        self._remaining: List[int] = [spec.times for spec in plan.specs]
        #: attempt-specific schedule entries fire at most once.
        self._sched_fired: List[bool] = [False] * len(self.schedule.entries)
        #: arm ordinal per (launch ordinal, node): how many times this
        #: shard has been submitted within this launch.
        self._arm_counts: Dict[Tuple[Optional[int], int], int] = {}
        #: inline-query ordinal per (launch ordinal, node), counted
        #: separately because the serial path never arms shards.
        self._inline_counts: Dict[Tuple[Optional[int], int], int] = {}
        self.events: List[dict] = []
        self.current_launch: Optional[int] = None

    # ------------------------------------------------------------ lifecycle
    def begin_launch(self, ordinal: int) -> None:
        self.current_launch = ordinal

    def end_launch(self) -> None:
        self.current_launch = None

    @property
    def fired_count(self) -> int:
        return len(self.events)

    def exhausted(self) -> bool:
        return (
            all(r == 0 for r in self._remaining)
            and all(
                fired or entry.attempt is None
                for fired, entry in
                zip(self._sched_fired, self.schedule.entries)
            )
        )

    # ------------------------------------------------------------- matching
    def _live(self, i: int, spec: FaultSpec) -> bool:
        if self._remaining[i] == 0:
            return False
        if spec.launch is not None and spec.launch != self.current_launch:
            return False
        return True

    def _consume(self, i: int, spec: FaultSpec, via: str) -> None:
        if self._remaining[i] > 0:
            self._remaining[i] -= 1
        self.events.append(
            dict(
                kind=spec.kind,
                scope=spec.scope,
                target=spec.target,
                phase=spec.phase,
                launch=self.current_launch,
                via=via,
            )
        )

    # ------------------------------------------------------ schedule matching
    def _sched_matches(self, i: int, entry: ScheduledFault, via: str,
                       node: int, attempt: int) -> bool:
        if entry.via != via:
            return False
        if entry.attempt is not None and self._sched_fired[i]:
            return False
        if entry.launch is not None and entry.launch != self.current_launch:
            return False
        if entry.node != -1 and entry.node != node:
            return False
        if entry.attempt is not None and entry.attempt != attempt:
            return False
        return True

    def _sched_consume(self, i: int, entry: ScheduledFault, via: str,
                       node: int, attempt: int) -> None:
        self._sched_fired[i] = True
        self.events.append(
            dict(
                kind=entry.kind,
                scope="schedule",
                target=(node,),
                phase=entry.phase,
                launch=self.current_launch,
                attempt=attempt,
                via=via,
            )
        )

    # ------------------------------------------------------ worker directives
    def arm_shard(self, worker: int, node: int, points) -> List[FaultDirective]:
        """Directives for one node of a unit submission; consumes matched
        firings."""
        directives: List[FaultDirective] = []
        local = {tuple(p) for p in points}
        for i, spec in enumerate(self.plan.specs):
            if not self._live(i, spec):
                continue
            if spec.scope == "worker" and spec.target == (worker,):
                directives.append((spec.kind, spec.phase, None, spec.hang_s))
            elif spec.scope == "shard" and spec.target == (node,):
                directives.append((spec.kind, spec.phase, None, spec.hang_s))
            elif spec.scope == "point" and spec.target in local:
                directives.append(
                    (spec.kind, spec.phase, spec.target, spec.hang_s)
                )
            else:
                continue
            self._consume(i, spec, via="worker")
        key = (self.current_launch, node)
        attempt = self._arm_counts.get(key, 0)
        self._arm_counts[key] = attempt + 1
        for i, entry in enumerate(self.schedule.entries):
            if self._sched_matches(i, entry, "worker", node, attempt):
                directives.append(
                    (entry.kind, entry.phase, None, entry.hang_s)
                )
                self._sched_consume(i, entry, "worker", node, attempt)
        return directives

    # --------------------------------------------------------- inline firing
    def fire_inline(self, point, node: int) -> None:
        """Fire shard/point execution-phase faults on the serial path.

        ``hang`` sleeps and returns (a delayed task is still correct);
        ``kill``/``corrupt`` have no inline analogue short of failing, so
        both raise :class:`InjectedFaultError` — the caller converts that
        into a poisoned launch, never into a bare exception.
        """
        if self.current_launch is None or point is None:
            return
        pt = tuple(point)
        if self.schedule.entries:
            key = (self.current_launch, node)
            attempt = self._inline_counts.get(key, 0)
            self._inline_counts[key] = attempt + 1
            for i, entry in enumerate(self.schedule.entries):
                if not self._sched_matches(i, entry, "inline", node, attempt):
                    continue
                self._sched_consume(i, entry, "inline", node, attempt)
                if entry.kind == "hang":
                    time.sleep(entry.hang_s)
                    continue
                err = InjectedFaultError(
                    f"scheduled {entry.kind} fault fired inline at point "
                    f"{pt} (node {node}, attempt {attempt})",
                )
                err.point = pt
                raise err
        for i, spec in enumerate(self.plan.specs):
            if not self._live(i, spec) or spec.phase != "execution":
                continue
            if spec.scope == "point" and spec.target == pt:
                pass
            elif spec.scope == "shard" and spec.target == (node,):
                pass
            else:
                continue
            self._consume(i, spec, via="inline")
            if spec.kind == "hang":
                time.sleep(spec.hang_s)
                continue
            err = InjectedFaultError(
                f"injected {spec.kind} fault fired inline at point {pt} "
                f"(node {node}): {spec.describe()}",
                spec=spec,
            )
            err.point = pt
            raise err
