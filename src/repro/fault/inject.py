"""The fault injector: arms a plan's specs against a concrete run.

The plan is immutable; the injector wraps it with mutable firing state
(per-spec remaining counts, per-node submission ordinals, the current
launch ordinal, an event log).
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

Both routes read one per-``(launch, node)`` submission ordinal: a spec
with an ``attempt`` is live only on that ordinal.  Where a plain spec says
"corrupt shard 0's result, twice, whenever it next runs", an attempt-keyed
one says "corrupt shard 0's result on exactly its second submission of
launch 3" — precise enough to replay a model-checker counterexample trace
against the real executor, attempt for attempt (see
:mod:`repro.formal.conform`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.fault.plan import FaultPlan, FaultSpec, InjectedFaultError

__all__ = [
    "FaultInjector",
    "FaultDirective",
]

#: What ships to a worker inside ``ShardPlan.faults``:
#: (kind, phase, point tuple | None, hang seconds).
FaultDirective = Tuple[str, str, Optional[tuple], float]


class FaultInjector:
    """Mutable firing state for one run of one :class:`FaultPlan`.

    The injector counts worker submissions per ``(launch, node)``; an
    attempt-keyed spec matches on that ordinal, so the Nth resubmission of
    a shard can be faulted without touching the N-1 attempts before it.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._remaining: List[int] = [spec.times for spec in plan.specs]
        #: arm ordinal per (launch ordinal, node): how many times this
        #: shard has been submitted within this launch.
        self._arm_counts: Dict[Tuple[Optional[int], int], int] = {}
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
        return all(r == 0 for r in self._remaining)

    # ------------------------------------------------------------- matching
    def _live(self, i: int, spec: FaultSpec, attempt: int) -> bool:
        if self._remaining[i] == 0:
            return False
        if spec.launch is not None and spec.launch != self.current_launch:
            return False
        return spec.attempt is None or spec.attempt == attempt

    def _consume(self, i: int, spec: FaultSpec, via: str,
                 attempt: int) -> None:
        if self._remaining[i] > 0:
            self._remaining[i] -= 1
        event = dict(
            kind=spec.kind,
            scope=spec.scope,
            target=spec.target,
            phase=spec.phase,
            launch=self.current_launch,
            via=via,
        )
        if spec.attempt is not None:
            event["attempt"] = attempt
        self.events.append(event)

    # ------------------------------------------------------ worker directives
    def arm_shard(self, worker: int, node: int, points) -> List[FaultDirective]:
        """Directives for one node of a unit submission; consumes matched
        firings and counts the submission."""
        key = (self.current_launch, node)
        attempt = self._arm_counts.get(key, 0)
        self._arm_counts[key] = attempt + 1
        directives: List[FaultDirective] = []
        local = {tuple(p) for p in points}
        for i, spec in enumerate(self.plan.specs):
            if not self._live(i, spec, attempt):
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
            self._consume(i, spec, "worker", attempt)
        return directives

    # --------------------------------------------------------- inline firing
    def fire_inline(self, point, node: int) -> None:
        """Fire shard/point execution-phase faults on the serial path.

        The ordinal is the node's worker submissions so far in this launch.
        ``hang`` sleeps and returns (a delayed task is still correct);
        ``kill``/``corrupt`` have no inline analogue short of failing, so
        both raise :class:`InjectedFaultError` — the caller converts that
        into a poisoned launch, never into a bare exception.
        """
        if self.current_launch is None or point is None:
            return
        pt = tuple(point)
        attempt = self._arm_counts.get((self.current_launch, node), 0)
        for i, spec in enumerate(self.plan.specs):
            if not self._live(i, spec, attempt) or spec.phase != "execution":
                continue
            if spec.scope == "point" and spec.target == pt:
                pass
            elif spec.scope == "shard" and spec.target == (node,):
                pass
            else:
                continue
            self._consume(i, spec, "inline", attempt)
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
