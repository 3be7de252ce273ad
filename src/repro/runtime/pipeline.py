"""Pipeline bookkeeping: per-stage representation and work counters.

The runtime pipeline has four phases relevant to index launches — task
issuance, logical analysis, distribution, and physical analysis (Section 5,
Figures 2 and 3).  :class:`PipelineStats` records, for each stage and node,
how many representation units were materialized (an unexpanded index launch
is one unit regardless of |D|; each individual task is one unit), plus the
work counters the evaluation reasons about (users analyzed, overlap queries,
messages sent, dynamic-check evaluations).

These counters are what the Figure 2/3 reproduction prints.  The runtime
charges the representation from one place: each launch's stage records —
rows ``((stage, node), units, points)`` on its ``LaunchPlan`` — pass
through one sink, ``Runtime._charge``, as each stage finishes.  It adds
their units here and, when profiling, closes one span per row carrying the
``sim_cost_s`` that :meth:`~repro.machine.costmodel.CostModel.record_time`
prices the row at.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["Stage", "PipelineStats"]


class Stage:
    """The pipeline stages of Section 5 (string constants, not an enum, so
    stats keys stay trivially serializable)."""

    ISSUANCE = "issuance"
    LOGICAL = "logical"
    DISTRIBUTION = "distribution"
    PHYSICAL = "physical"
    EXECUTION = "execution"

    ALL = (ISSUANCE, LOGICAL, DISTRIBUTION, PHYSICAL, EXECUTION)


@dataclass
class PipelineStats:
    """Counters accumulated over a runtime's lifetime (or between resets)."""

    # (stage, node) -> representation units materialized at that stage
    representation: Dict[Tuple[str, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    ops_issued: int = 0                 # operations entering the pipeline
    index_launches: int = 0             # ... of which were index launches
    single_tasks: int = 0               # ... individual task launches
    tasks_executed: int = 0
    logical_users: int = 0              # region users processed logically
    logical_dependences: int = 0
    physical_dependences: int = 0
    overlap_queries: int = 0
    slice_messages: int = 0             # non-DCR broadcast-tree hops
    max_slice_depth: int = 0
    check_evaluations: int = 0          # dynamic projection-functor checks
    launches_verified_static: int = 0
    launches_verified_dynamic: int = 0
    launches_unverified: int = 0
    launches_fallback_serial: int = 0   # failed checks -> original task loop
    trace_replays: int = 0              # whole-trace replays (end_trace)
    trace_prefix_iterations: int = 0    # strict-prefix iterations (partial replay)
    launch_replays: int = 0             # per-launch trace-prefix matches
    analysis_cache_hits: int = 0        # launch-replay cache layer hits
    analysis_cache_invalidations: int = 0  # cache flushes/template drops
    launches_poisoned: int = 0          # ops lost to unrecovered faults
    poison_propagations: int = 0        # ... of which via dependence edges

    def add_representation(self, stage: str, node: int, units: int) -> None:
        if stage not in Stage.ALL:
            raise ValueError(f"unknown stage {stage!r}")
        self.representation[(stage, node)] += units

    def stage_total(self, stage: str) -> int:
        """Total representation units across nodes for one stage."""
        return sum(v for (s, _), v in self.representation.items() if s == stage)

    def node_total(self, node: int) -> int:
        """Total representation units across stages for one node."""
        return sum(v for (_, n), v in self.representation.items() if n == node)

    def max_units_any_node(self, stage: str) -> int:
        """Peak per-node representation at a stage — the quantity index
        launches keep O(1): no single node should hold the full expansion."""
        per_node = defaultdict(int)
        for (s, n), v in self.representation.items():
            if s == stage:
                per_node[n] += v
        return max(per_node.values(), default=0)

    def as_table(self) -> List[Tuple[str, int, int]]:
        """Rows of (stage, node, units), sorted for stable output."""
        return sorted(
            ((s, n, v) for (s, n), v in self.representation.items()),
            key=lambda row: (Stage.ALL.index(row[0]), row[1]),
        )

    #: scalar counters re-labeled by safety verdict when exported to metrics.
    _VERDICT_FIELDS = {
        "launches_verified_static": "static",
        "launches_verified_dynamic": "dynamic",
        "launches_unverified": "unverified",
        "launches_fallback_serial": "fallback",
    }

    def to_metrics(self, registry) -> None:
        """Load every counter into a metrics registry, values unchanged.

        The registry (duck-typed; see
        :class:`~repro.obs.metrics.MetricsRegistry`) subsumes the ad-hoc
        increments of this class: representation units become
        ``pipeline.representation_units{stage, node}``, the verdict
        counters become ``pipeline.launch_verdicts{verdict}``, and every
        other scalar becomes ``pipeline.<name>``.  Call on a fresh registry
        (or at end of run) — values are added, not assigned.
        """
        from dataclasses import fields

        for (stage, node), units in sorted(self.representation.items()):
            registry.inc(
                "pipeline.representation_units", units, stage=stage, node=node
            )
        for f in fields(self):
            if f.name == "representation":
                continue
            value = getattr(self, f.name)
            registry.inc(f"pipeline.{f.name}", value)
            verdict = self._VERDICT_FIELDS.get(f.name)
            if verdict is not None:
                registry.inc("pipeline.launch_verdicts", value, verdict=verdict)
