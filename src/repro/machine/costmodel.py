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

    # --- host worker pool (wall-clock only; see repro.exec) -----------------
    # Overheads of the shard-parallel execution backend's process pool.
    # These describe the *host* running the reproduction, not the modeled
    # machine: they annotate profiler spans for dispatch accounting but are
    # NEVER charged to simulated time (never passed to ``add_simulated``) —
    # backends must not perturb the paper's timing model.
    t_worker_dispatch: float = 120e-6  # pickle + submit one unit plan
    t_worker_result: float = 90e-6     # receive + unpickle one unit result
    t_worker_respawn: float = 8e-3     # replace one dead worker process
    t_retry_backoff: float = 1e-3      # nominal pause before a resubmission

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
