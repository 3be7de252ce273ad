"""Calibrated per-operation costs for the machine model.

Constants are loosely calibrated against published Legion overheads (a few
microseconds per task for traced replay, tens of microseconds for untraced
dynamic analysis) and the paper's own measurements (Tables 2-3 put the
dynamic check at ~1.3 ns/point in optimized C; "approximately the same as
the overhead of launching a task in Regent/Legion at these scales" for a
3 ms check at |D| = 1e6).

Everything is a plain field so ablation benchmarks can perturb individual
costs and observe the effect on scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Per-unit costs, in seconds, of runtime pipeline work.

    Grouped by pipeline stage.  ``*_task`` costs are paid once per
    individual task; ``*_launch`` costs once per index launch.
    """

    # --- task issuance -----------------------------------------------------
    t_issue_launch: float = 30e-6   # one index-launch descriptor (O(1))
    t_issue_task: float = 7e-6      # one individual task launch

    # --- logical analysis ---------------------------------------------------
    t_logical_launch_arg: float = 15e-6  # whole-partition reasoning per region arg
    t_logical_task: float = 18e-6        # per-task region-tree analysis (untraced)

    # --- tracing [20] -------------------------------------------------------
    t_trace_replay_task: float = 8.0e-6  # per-task cost of replaying a trace
    t_trace_record_task: float = 8e-6    # extra per-task cost while recording
    t_idx_expand_task: float = 10e-6     # expanding one point task from a launch
    # Launch-replay cache: one signature lookup + validation per launch
    # replay, replacing the memoized per-point work (sharding/slicing eval,
    # point-task expansion, safety re-verification).
    t_replay_cache_hit: float = 1.5e-6

    # --- distribution -------------------------------------------------------
    t_shard_point: float = 0.4e-6    # sharding functor eval per local point
    t_slice_process: float = 8e-6    # handle/forward one slice descriptor
    t_single_send: float = 45e-6     # map/serialize one individual remote task

    # --- physical analysis --------------------------------------------------
    t_physical_task: float = 10e-6       # per-task base cost
    t_physical_log_factor: float = 1.2e-6  # * log2(|P|) per task (BVH descent)

    # --- dynamic projection-functor checks (Section 4) ----------------------
    t_check_per_point: float = 2.5e-9  # per (domain point x argument) bitmask op
    t_check_bitmask_init: float = 0.4e-9  # per partition color (bitmask init)

    # --- network (Aries-like) ----------------------------------------------
    net_latency: float = 1.8e-6     # per message
    net_bandwidth: float = 9.0e9    # bytes/s
    # Large exchanges see growing interference at scale (adaptive routing,
    # shared links): an additive term of net_contention_log * log2(N),
    # scaled down proportionally for messages below contention_ref_bytes so
    # tiny control-sized payloads (e.g. DOM face fluxes) are unaffected.
    net_contention_log: float = 0.35e-3
    contention_ref_bytes: float = 2.0e3

    # --- node --------------------------------------------------------------
    gpus_per_node: int = 1

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy with selected fields replaced (ablation hook)."""
        return replace(self, **kwargs)

    def message_time(self, n_bytes: float) -> float:
        """Latency + serialization time for one message."""
        return self.net_latency + n_bytes / self.net_bandwidth

    def contention_time(self, n_nodes: int, n_bytes: float) -> float:
        """Scale-dependent interference for one exchange (see class doc)."""
        import math

        if n_nodes <= 1:
            return 0.0
        scale = min(1.0, n_bytes / self.contention_ref_bytes)
        return self.net_contention_log * math.log2(n_nodes) * scale

    def dynamic_check_time(self, n_points: int, n_args: int,
                           partition_size: int) -> float:
        """Cost of the Listing-3 check: O(n_args * |D| + |P|)."""
        return (
            n_args * n_points * self.t_check_per_point
            + partition_size * self.t_check_bitmask_init
        )

    def physical_task_time(self, partition_size: int) -> float:
        """Per-task physical analysis: O(log |P|) via the BVH."""
        import math

        log_p = math.log2(max(partition_size, 2))
        return self.t_physical_task + self.t_physical_log_factor * log_p

    def record_time(self, stage: str, units: int, points: int, *,
                    granular: bool, dcr: bool = True, remote: bool = True,
                    args: int = 1, colors: int = 1,
                    replayed: bool = False) -> float:
        """Modeled cost of one stage record: ``units`` representation
        units of ``stage`` on one node, covering ``points`` point tasks.
        ``granular`` units are index launches (or slices of one, without
        DCR), else individual tasks; without DCR, only a ``remote`` node's
        tasks are sent.  ``args`` counts the launch's region arguments,
        ``colors`` the partition physical analysis descends, and
        ``replayed`` marks re-stamped dependence templates.  Bodies
        (execution) are the application's, not priced here."""
        if stage == "issuance":
            return units * (self.t_issue_launch if granular
                            else self.t_issue_task)
        if stage == "logical":
            return units * (self.t_logical_launch_arg * args if granular
                            else self.t_logical_task)
        if stage == "distribution":
            if dcr:  # every node evaluates the sharding functor
                return points * self.t_shard_point
            if granular:
                return units * self.t_slice_process
            return units * self.t_single_send if remote else 0.0
        if stage == "physical":
            if replayed:
                return (self.t_replay_cache_hit
                        + points * self.t_trace_replay_task)
            return points * self.physical_task_time(colors)
        return 0.0
