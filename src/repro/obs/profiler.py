"""Structured spans for every pipeline phase of every operation.

A :class:`Span` is one named interval on one simulated node's timeline —
"the logical analysis of op 12 on node 3" — with free-form attributes
(cache-hit/replay/fallback annotations, representation counts, the machine
model's modeled cost for the phase).  Two clocks coexist:

* **wall** spans measure the Python implementation itself
  (``time.perf_counter``); the runtime emits one per pipeline phase per
  participating node.
* **simulated** spans come from the machine model
  (:class:`~repro.machine.simulator.MachineSimulator`): each scheduled
  activity becomes a span whose start/duration are simulated seconds, so
  the exported trace shows the *modeled* schedule on per-resource tracks.

The profiler must be zero-overhead when off: every entry point
early-returns on ``enabled`` (and the hot-path helpers :meth:`mark` /
:meth:`phase` return/accept ``None`` so instrumented code pays one
attribute test per phase and nothing else).  ``NULL_PROFILER`` is the
shared disabled instance the runtime uses when no profiler is configured.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "Profiler", "NULL_PROFILER"]


@dataclass
class Span:
    """One closed interval on one node's timeline."""

    name: str
    stage: str              # pipeline stage or component category
    node: int
    start: float            # seconds; wall clock unless ``sim``
    end: float
    sim: bool = False       # True: simulated-time span from the machine model
    track: Optional[str] = None  # sub-track (machine resource kind)
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Instant:
    """A point annotation (cache hit, replay, fallback, trace verdict)."""

    name: str
    stage: str
    node: int
    ts: float
    args: Dict[str, Any] = field(default_factory=dict)


class Profiler:
    """Collects spans, instants, and metrics from an instrumented run.

    Args:
        enabled: master switch; a disabled profiler records nothing and its
            methods are safe to call unconditionally.
        costmodel: optional :class:`~repro.machine.costmodel.CostModel`;
            when present, instrumented phases attach their *modeled* cost
            (``sim_cost_s``) as a span attribute, linking the functional
            run to the machine model's accounting.
        clock: wall-clock source (injectable for deterministic tests).
    """

    def __init__(self, enabled: bool = True, costmodel=None, clock=None):
        self.enabled = enabled
        self.costmodel = costmodel
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.metrics = MetricsRegistry()
        self._clock = clock if clock is not None else time.perf_counter

    # ------------------------------------------------------- wall-clock API
    def now(self) -> float:
        return self._clock()

    def mark(self) -> Optional[float]:
        """Phase start marker; ``None`` when disabled (making the matching
        :meth:`phase` call a single-test no-op)."""
        return self._clock() if self.enabled else None

    def phase(
        self,
        name: str,
        stage: str,
        start: Optional[float],
        node: int = 0,
        end: Optional[float] = None,
        **args: Any,
    ) -> None:
        """Close the phase opened at ``start`` (a :meth:`mark` value) on
        ``node``'s track, now or at the mark ``end``."""
        if start is None or not self.enabled:
            return
        if end is None:
            end = self._clock()
        self.spans.append(Span(name, stage, int(node), start, end, args=args))
        self.metrics.inc("spans", 1.0, stage=stage, name=name)
        self.metrics.observe("span_seconds", end - start, stage=stage,
                             name=name)

    @contextmanager
    def span(self, name: str, stage: str, node: int = 0, **args: Any):
        """Context-manager form of :meth:`mark`/:meth:`phase` for callers
        that do not need multi-node fan-out.  Yields the mutable attribute
        dict so the body can annotate the span."""
        if not self.enabled:
            yield None
            return
        start = self._clock()
        attrs = dict(args)
        try:
            yield attrs
        finally:
            end = self._clock()
            self.spans.append(Span(name, stage, node, start, end, args=attrs))
            self.metrics.inc("spans", 1.0, stage=stage, name=name)
            self.metrics.observe("span_seconds", end - start, stage=stage, name=name)

    def ingest_span(
        self,
        name: str,
        stage: str,
        node: int,
        start: float,
        end: float,
        **args: Any,
    ) -> None:
        """Record a span measured on *another* clock (a worker process).

        The caller rebases ``start``/``end`` onto this profiler's timeline
        (worker stamp + submit-mark offset); metrics are bumped exactly as
        :meth:`phase` would, so span accounting is backend-independent.
        """
        if not self.enabled:
            return
        self.spans.append(Span(name, stage, int(node), start, end, args=dict(args)))
        self.metrics.inc("spans", 1.0, stage=stage, name=name)
        self.metrics.observe("span_seconds", end - start, stage=stage, name=name)

    def instant(self, name: str, stage: str, node: int = 0, **args: Any) -> None:
        """Record a point annotation and bump its counter."""
        if not self.enabled:
            return
        self.instants.append(Instant(name, stage, node, self._clock(), dict(args)))
        self.metrics.inc(name, 1.0, stage=stage)

    def count(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Guarded counter increment (no-op when disabled)."""
        if self.enabled:
            self.metrics.inc(name, value, **labels)

    # --------------------------------------------------- simulated-time API
    def add_simulated(
        self,
        node: int,
        kind: str,
        label: str,
        start: float,
        duration: float,
        **args: Any,
    ) -> None:
        """Record one machine-model activity as a simulated-time span.

        ``start``/``duration`` are simulated seconds; ``kind`` is the
        resource ("control", "gpu", "nic_out", ...) and becomes the span's
        sub-track so the Perfetto view shows per-resource rows per node.
        """
        if not self.enabled:
            return
        self.spans.append(
            Span(
                label or kind,
                "simulated",
                node,
                start,
                start + duration,
                sim=True,
                track=kind,
                args=dict(args),
            )
        )
        self.metrics.inc("sim_activities", 1.0, kind=kind, node=node)
        self.metrics.observe("sim_activity_seconds", duration, kind=kind)

    # -------------------------------------------------------------- queries
    def wall_spans(self) -> List[Span]:
        return [s for s in self.spans if not s.sim]

    def sim_spans(self) -> List[Span]:
        return [s for s in self.spans if s.sim]

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self.metrics = MetricsRegistry()


#: Shared disabled profiler: the runtime's default, so instrumentation can
#: call through it unconditionally.  Never enable this instance — create a
#: fresh ``Profiler()`` instead.
NULL_PROFILER = Profiler(enabled=False)
