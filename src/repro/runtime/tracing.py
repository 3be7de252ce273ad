"""Legion-style tracing: memoization of repeated task-graph fragments [20].

Legion amortizes its dynamic dependence analysis by recording the analysis
of a repeated sequence of operations (a *trace*) and replaying it on
subsequent iterations.  Two properties matter for this paper:

1. Replayed iterations skip most of the logical/physical analysis cost —
   the machine model charges a much smaller per-task replay cost.
2. Tracing "works fundamentally at the level of individual tasks", so when
   DCR is disabled, tracing forces index launches to expand *before*
   distribution (the second column of Figure 3 never happens), undoing
   their asymptotic benefit — the effect demonstrated by Figures 5 vs 6.

The recorder below captures operation signatures between ``begin``/``end``
and reports whether an iteration is a replay of the recorded trace.

Iterations come in four kinds at ``end``:

* **first** — nothing recorded yet; the iteration becomes the trace.
* **replay** — the iteration equals the recorded trace exactly.
* **prefix** — the iteration is a *strict prefix* of the recorded trace:
  every operation it issued matched (and legitimately replayed its
  analysis), it just stopped early.  The recording is kept — a later full
  iteration still replays — and the iteration is counted in ``prefixes``,
  not ``broken``.  Classifying prefixes as broken (as a naive equality
  test would) contradicts ``observe``'s per-op replay reports and forces
  the runtime to discard physical dependence templates that were just
  validated.
* **broken** — the iteration diverged from the recording; it is re-recorded
  and counted in ``broken`` (Legion invalidates the trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["TraceRecorder", "OpSignature"]

# (task uid, domain hash, requirement signature) — enough to recognize the
# "same" operation recurring across iterations.
OpSignature = Tuple


@dataclass
class _Trace:
    recorded: Optional[List[OpSignature]] = None  # None until first end()
    current: List[OpSignature] = field(default_factory=list)
    replays: int = 0
    broken: int = 0
    prefixes: int = 0  # strict-prefix iterations (kept, not re-recorded)
    valid: bool = False  # whole prefix of the current iteration has matched


class TraceRecorder:
    """Records operation sequences per trace id and detects replays."""

    def __init__(self, profiler=None):
        self._traces: Dict[int, _Trace] = {}
        self._active: Optional[int] = None
        self._profiler = profiler

    def begin(self, trace_id: int) -> None:
        if self._active is not None:
            raise RuntimeError(f"trace {self._active} already active")
        self._active = trace_id
        trace = self._traces.setdefault(trace_id, _Trace())
        trace.current = []
        trace.valid = trace.recorded is not None
        prof = self._profiler
        if prof is not None and prof.enabled:
            prof.instant("trace.begin", "tracing", trace_id=trace_id,
                         recorded_len=len(trace.recorded or ()))

    def observe(self, signature: OpSignature) -> bool:
        """Record one operation; returns True when the *entire* iteration
        prefix (this operation included) matches the recorded trace — i.e.
        the analysis for it can be replayed.  Once an iteration diverges,
        every later operation of that iteration reports False too."""
        if self._active is None:
            return False
        trace = self._traces[self._active]
        trace.current.append(signature)
        if trace.recorded is None:
            return False
        idx = len(trace.current) - 1
        if not (idx < len(trace.recorded) and trace.recorded[idx] == signature):
            trace.valid = False
        return trace.valid

    def end(self, trace_id: int) -> bool:
        """Close the trace; returns True when the whole iteration replayed.

        A strict-prefix iteration (every op matched but the iteration ended
        early) is *not* a break: every ``observe`` legitimately reported
        replay=True for it, so the recording is kept and the iteration is
        tallied in :meth:`prefixes`.  Only a genuine divergence re-records
        the trace and counts as broken.
        """
        if self._active != trace_id:
            raise RuntimeError(f"trace {trace_id} is not active")
        self._active = None
        trace = self._traces[trace_id]
        if trace.recorded is None:
            trace.recorded = list(trace.current)
            self._note_end(trace_id, "recorded")
            return False
        if trace.recorded == trace.current:
            trace.replays += 1
            self._note_end(trace_id, "replayed")
            return True
        if trace.valid and len(trace.current) < len(trace.recorded):
            # Strict prefix: all observed ops matched the recording, so the
            # per-op replays already reported were sound.  Keep the longer
            # recording so a later full iteration still replays whole.
            trace.prefixes += 1
            self._note_end(trace_id, "prefix")
            return False
        # The iteration diverged: re-record (Legion invalidates the trace).
        trace.broken += 1
        trace.recorded = list(trace.current)
        self._note_end(trace_id, "broken")
        return False

    def _note_end(self, trace_id: int, verdict: str) -> None:
        prof = self._profiler
        if prof is not None and prof.enabled:
            prof.instant("trace.end", "tracing", trace_id=trace_id,
                         verdict=verdict)
            prof.count("trace.iterations", 1.0, verdict=verdict)

    def replays(self, trace_id: int) -> int:
        return self._traces[trace_id].replays if trace_id in self._traces else 0

    def broken(self, trace_id: int) -> int:
        return self._traces[trace_id].broken if trace_id in self._traces else 0

    def prefixes(self, trace_id: int) -> int:
        """Strict-prefix iterations observed for ``trace_id`` (see ``end``)."""
        return self._traces[trace_id].prefixes if trace_id in self._traces else 0
