"""Metric definitions: names, units, directions, bounds, and how each is
computed from what a round recorded.  ``BENCHMARK.json`` and the tables in
``README.md`` are written from these lists (``python -m perfbench spec``).
"""

from __future__ import annotations

import bisect
import statistics
from typing import List, Optional

from perfbench.hygiene import REFERENCE_SPIN_S

__all__ = ["END_TO_END", "PER_LAYER", "EXACT", "percentile", "speed_factors",
           "round_summary", "setup_seconds", "combine_rounds", "layer_metrics", "bound_for"]

#: (name, unit, better, bound): ``bound`` is the share of the baseline's
#: median by which the metric may worsen before a change is a regression.
#: Each is at least twice the widest run-to-run spread measured on any
#: workload in a noisy half hour, three times in a quiet one (README,
#: "Latest measured values"); the issue's 10 % does not survive this
#: machine.  ``fail_ratio`` is the sixth end-to-end
#: number; any increase regresses.
END_TO_END = [
    ("op_p50_us", "us", "lower", 0.25),
    ("op_tail_us", "us", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: tighter where one workload repeats better: the two single-process ones
_BOUND_OVERRIDES = {
    ("op_p50_us", "replay_steady"): 0.20,
    ("op_p50_us", "first_issue"): 0.15,
    ("ops_per_s", "first_issue"): 0.15,
}

#: setup_s may also move by this many seconds, whichever allowance is larger
SETUP_FLOOR_S = 0.2


def bound_for(metric: str, workload: str) -> float:
    override = _BOUND_OVERRIDES.get((metric, workload))
    if override is not None:
        return override
    return next(b for name, _, _, b in END_TO_END if name == metric)


#: (name, unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = [
    ("core.safety.self_us", "us", "lower", "op_p50_us", "first_issue"),
    ("core.safety.calls_per_op", "count", "lower", "op_p50_us", "first_issue"),
    ("core.checks.self_us", "us", "lower", "op_p50_us", "first_issue"),
    ("core.checks.evaluations_per_op", "count", "lower", "op_p50_us",
     "first_issue"),
    ("runtime.issue.self_us", "us", "lower", "op_p50_us",
     "replay_steady, first_issue"),
    ("runtime.tracing.self_us", "us", "lower", "op_p50_us, ops_per_s",
     "replay_steady, dispatch_fanout"),
    ("runtime.logical.self_us", "us", "lower", "op_p50_us", "replay_steady"),
    ("runtime.distribution.self_us", "us", "lower", "op_p50_us",
     "replay_steady"),
    ("runtime.physical.self_us", "us", "lower", "op_p50_us, op_tail_us",
     "first_issue (live), replay_steady (replay)"),
    ("runtime.physical.overlap_queries_per_op", "count", "lower",
     "op_p50_us", "first_issue"),
    ("runtime.replay.self_us", "us", "lower", "op_p50_us",
     "replay_steady, first_issue"),
    ("runtime.replay.hit_ratio", "ratio", "higher", "op_p50_us",
     "~1 on replay_steady, ~0 on first_issue"),
    ("runtime.replay.evictions_per_op", "count", "lower", "op_p50_us",
     "0 on replay_steady, >=1 on first_issue"),
    ("runtime.kernels.check_hit_ratio", "ratio", "higher", "op_p50_us",
     "first_issue"),
    ("runtime.kernels.check_misses_per_op", "count", "lower", "op_p50_us",
     "first_issue"),
    ("runtime.kernels.dependence_replays_per_op", "count", "higher",
     "op_p50_us", "replay_steady"),
    ("runtime.repr_units_per_op", "count", "lower", "none (invariant)",
     "all in-process workloads"),
    ("exec.backend.self_us", "us", "lower", "op_p50_us",
     "dispatch_fanout, stencil_compute; serial share on replay_steady"),
    ("exec.plan.dumps_us", "us", "lower", "op_p50_us", "dispatch_fanout"),
    ("exec.plan.loads_us", "us", "lower", "op_p50_us", "dispatch_fanout"),
    ("exec.plan.bytes_per_op", "B", "lower", "op_p50_us",
     "dispatch_fanout, stencil_compute"),
    ("exec.transport.submit_us", "us", "lower", "op_p50_us, ops_per_s",
     "dispatch_fanout"),
    ("exec.transport.wait_us", "us", "lower", "op_p50_us, ops_per_s",
     "dispatch_fanout (round trip), stencil_compute (body + copy)"),
    ("exec.transport.roundtrip_us", "us", "lower", "floor of op_p50_us",
     "dispatch_fanout"),
    ("exec.parallel.plan_memo_hit_ratio", "ratio", "higher", "op_p50_us",
     "dispatch_fanout"),
    ("exec.parallel.commit_ops_per_launch", "count", "lower", "op_p50_us",
     "dispatch_fanout"),
    ("exec.parallel.fallbacks_per_op", "count", "lower",
     "fail_ratio, op_tail_us", "all parallel workloads (expected 0)"),
    ("exec.parallel.shard_retries", "count", "lower",
     "fail_ratio, op_tail_us", "all parallel workloads (expected 0)"),
    ("exec.parallel.worker_respawns", "count", "lower",
     "fail_ratio, op_tail_us", "all parallel workloads (expected 0)"),
    ("exec.parallel.speedup_vs_serial", "ratio", "higher",
     "op_p50_us, ops_per_s", "stencil_compute, dispatch_fanout"),
    ("exec.shm.bytes_staged_per_op", "B", "lower", "op_p50_us, peak_rss_mb",
     "stencil_compute"),
    ("exec.shm.fallbacks_per_op", "count", "lower", "op_p50_us",
     "stencil_compute"),
    ("exec.shm.rewinds_per_op", "count", "lower", "op_p50_us",
     "stencil_compute"),
    ("exec.shm.segments", "count", "lower", "peak_rss_mb", "stencil_compute"),
    ("apps.body_us", "us", "lower", "op_p50_us",
     "stencil_compute (serial sub-run)"),
    ("data.partition.build_ms", "ms", "lower", "setup_s",
     "stencil_compute, first_issue"),
    ("serve.call_overhead_us", "us", "lower", "op_p50_us", "service_closed"),
    ("serve.noop_call_us", "us", "lower", "op_p50_us, op_tail_us",
     "service_closed"),
    ("serve.client.encode_us", "us", "lower", "op_p50_us", "service_closed"),
    ("serve.client.decode_us", "us", "lower", "op_p50_us", "service_closed"),
    ("serve.client.wait_us", "us", "lower", "op_p50_us", "service_closed"),
    ("serve.client.bytes_per_call", "B", "lower", "op_p50_us",
     "service_closed"),
    ("serve.busy_ratio", "ratio", "lower", "fail_ratio", "service_closed"),
    ("serve.memo_hit_ratio", "ratio", "higher", "op_p50_us",
     "service_closed"),
    ("serve.startup_s", "s", "lower", "setup_s", "service_closed"),
    ("serve.shutdown_s", "s", "lower", "setup_s", "service_closed"),
    ("trace_overhead_ratio", "ratio", "lower", "none (cost of tracing)",
     "all"),
]


#: per-layer metrics made only of counters read over the fixed count
#: window: they repeat exactly on one commit, whatever the machine does
EXACT = [
    "core.safety.calls_per_op",
    "core.checks.evaluations_per_op",
    "runtime.physical.overlap_queries_per_op",
    "runtime.replay.hit_ratio",
    "runtime.replay.evictions_per_op",
    "runtime.kernels.check_hit_ratio",
    "runtime.kernels.check_misses_per_op",
    "runtime.kernels.dependence_replays_per_op",
    "runtime.repr_units_per_op",
    "exec.parallel.plan_memo_hit_ratio",
    "exec.parallel.commit_ops_per_launch",
    "exec.parallel.fallbacks_per_op",
    "exec.parallel.shard_retries",
    "exec.parallel.worker_respawns",
    "exec.shm.bytes_staged_per_op",
    "exec.shm.fallbacks_per_op",
    "exec.shm.rewinds_per_op",
    "exec.shm.segments",
]


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1,
                int(round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[index]


def speed_factors(result: dict) -> List[float]:
    """Per op of one round: machine speed around the op / reference speed,
    from the calibration spins on either side of it.  A shared 2-CPU
    box runs the same code 40-60 % slower for ten seconds at a time
    (README, "noise"), and nothing in /proc says so; the spin does."""
    times = [when for when, _ in result["spins"]]
    spins = [took for _, took in result["spins"]]
    last = len(spins) - 1
    out = []
    for end in result["ends_s"]:
        after = bisect.bisect_right(times, end)
        around = (spins[max(after - 1, 0)] + spins[min(after, last)]) / 2
        out.append(REFERENCE_SPIN_S / around)
    return out


def round_summary(result: dict, tail_percentile: int) -> dict:
    """One round's latency and throughput at the reference machine speed:
    every latency times its op's speed factor, the wall time times the
    time-weighted mean factor."""
    factors = speed_factors(result)
    scaled = sorted(s * f for s, f in zip(result["samples_us"], factors))
    spans, weighted, previous = 0.0, 0.0, 0.0
    for end, factor in zip(result["ends_s"], factors):
        spans += end - previous
        weighted += (end - previous) * factor
        previous = end
    return {
        "samples": scaled,
        "op_p50_us": statistics.median(scaled),
        "op_tail_us": percentile(scaled, tail_percentile),
        "ops_per_s": len(scaled) / (result["wall_s"] * weighted / spans),
        "speed_factor": weighted / spans,
        "op_p50_raw_us": statistics.median(result["samples_us"]),
    }


def setup_seconds(result: dict) -> float:
    """Child start -> first timed op at the reference machine speed: each
    stretch between two set-up marks times reference spin / the spins at
    its ends (the stretch before the first mark: that mark's spin)."""
    total, previous_at, previous_spin = 0.0, 0.0, None
    for at, took in result["setup_marks"]:
        around = took if previous_spin is None else (previous_spin + took) / 2
        total += (at - previous_at) * REFERENCE_SPIN_S / around
        previous_at, previous_spin = at, took
    return total


def combine_rounds(results: List[dict], tail_percentile: int) -> dict:
    """One run's end-to-end numbers from its rounds: the median over
    rounds per metric, except the tail, which is read on the pooled samples
    of all rounds.  Each metric keeps its per-round values for ``compare``.
    A round that died before its timed loop has failures but no values."""
    timed = [r for r in results if r["samples_us"]]
    metrics, samples, beyond, factor = {}, 0, 0, None
    if timed:
        each = [round_summary(r, tail_percentile) for r in timed]
        pooled = sorted(s for summary in each for s in summary["samples"])
        samples = len(pooled)
        beyond = samples - 1 - int(
            round(tail_percentile / 100.0 * (samples - 1))
        )
        for name in ("op_p50_us", "op_tail_us", "ops_per_s",
                     "op_p50_raw_us"):
            rounds = [summary[name] for summary in each]
            metrics[name] = {"value": statistics.median(rounds),
                             "rounds": rounds}
        metrics["op_tail_us"]["value"] = percentile(pooled, tail_percentile)
        for name, rounds in (
            ("setup_s", [setup_seconds(r) for r in timed]),
            ("setup_raw_s", [r["setup_marks"][-1][0] for r in timed]),
            ("peak_rss_mb", [r["peak_rss_mb"] for r in timed]),
        ):
            metrics[name] = {"value": statistics.median(rounds),
                             "rounds": rounds}
        factor = statistics.median(s["speed_factor"] for s in each)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "metrics": metrics,
        "samples": samples,
        "speed_factor": factor,
        "tail_percentile": tail_percentile,
        "samples_beyond_tail": beyond,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / max(attempted, 1),
        "failures": [f for r in results for f in r["failures"]][:20],
    }


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_metrics(result: dict, trace_overhead_ratio: Optional[float]) -> dict:
    """Every per-layer metric of one traced child result; ``None`` where a
    metric has no meaning on the workload (or was refused, see
    ``exec.parallel.speedup_vs_serial``).  Times are as the traced round
    measured them, not speed-corrected: they are read against each other
    and against the same round's ``op`` span."""
    spans = result["spans"]             # name -> self_us / calls, per op
    win = result["window"] or {}        # exact-count deltas over the window
    n = result["count_ops"]
    aux = result["aux"]
    p50 = statistics.median(result["samples_us"])

    def per_op(*keys):
        """Sum of the window counters that exist, per op of the window."""
        present = [win[key] for key in keys if key in win]
        return sum(present) / n if present else None

    def self_us(name):
        """A boundary nobody crossed took no time."""
        return spans.get(name, {}).get("self_us", 0.0)

    out = {
        "core.safety.self_us": self_us("core.safety"),
        "core.safety.calls_per_op": per_op("calls:core.safety"),
        "core.checks.self_us": self_us("core.checks"),
        "core.checks.evaluations_per_op": per_op("check_evaluations"),
        "runtime.issue.self_us": self_us("runtime.issue"),
        "runtime.tracing.self_us": self_us("runtime.tracing"),
        "runtime.logical.self_us": self_us("runtime.logical"),
        "runtime.distribution.self_us": self_us("runtime.distribution"),
        "runtime.physical.self_us": self_us("runtime.physical"),
        "runtime.physical.overlap_queries_per_op": per_op("overlap_queries"),
        "runtime.replay.self_us": self_us("runtime.replay"),
        "runtime.replay.hit_ratio": _ratio(
            win.get("analysis_cache_hits", 0),
            win.get("calls:runtime.replay", 0)),
        "runtime.replay.evictions_per_op": per_op("replay_evictions"),
        "runtime.kernels.check_hit_ratio": _ratio(
            win.get("check_kernel_hits", 0),
            win.get("check_kernel_hits", 0)
            + win.get("check_kernel_misses", 0)),
        "runtime.kernels.check_misses_per_op": per_op("check_kernel_misses"),
        "runtime.kernels.dependence_replays_per_op":
            per_op("dependence_replays"),
        "runtime.repr_units_per_op": per_op("repr_units"),
        "exec.backend.self_us": self_us("exec.backend"),
        "exec.plan.dumps_us": self_us("exec.plan.dumps"),
        "exec.plan.loads_us": self_us("exec.plan.loads"),
        "exec.plan.bytes_per_op": per_op("bytes:exec.transport.submit",
                                         "bytes:exec.transport.wait"),
        "exec.transport.submit_us": self_us("exec.transport.submit"),
        "exec.transport.wait_us": self_us("exec.transport.wait"),
        "exec.transport.roundtrip_us": aux.get("roundtrip_us"),
        "exec.parallel.plan_memo_hit_ratio": _ratio(
            win.get("plan_memo_hits", 0), win.get("shards_dispatched", 0)),
        "exec.parallel.commit_ops_per_launch": _ratio(
            win.get("batched_commit_ops", 0),
            win.get("parallel_launches", 0)),
        "exec.parallel.fallbacks_per_op": per_op("fallbacks",
                                                 "serial_launches"),
        "exec.parallel.shard_retries": win.get("shard_retries"),
        "exec.parallel.worker_respawns": win.get("worker_respawns"),
        "exec.parallel.speedup_vs_serial":
            aux["serial_p50_us"] / p50 if "serial_p50_us" in aux else None,
        "exec.shm.bytes_staged_per_op": per_op("shm_bytes_staged"),
        "exec.shm.fallbacks_per_op": per_op("shm_fallbacks"),
        "exec.shm.rewinds_per_op": per_op("shm_rewinds"),
        "exec.shm.segments": aux.get("shm_segments"),
        "apps.body_us": aux.get("serial_body_us"),
        "data.partition.build_ms": aux.get("partition_build_ms"),
        "serve.call_overhead_us":
            p50 - aux["in_process_p50_us"]
            if "in_process_p50_us" in aux else None,
        "serve.noop_call_us": aux.get("noop_call_us"),
        "serve.client.encode_us": self_us("serve.client.encode"),
        "serve.client.decode_us": self_us("serve.client.decode"),
        "serve.client.wait_us": self_us("serve.client.wait"),
        "serve.client.bytes_per_call": aux.get("client_bytes_per_call"),
        "serve.busy_ratio": aux.get("busy_ratio"),
        "serve.memo_hit_ratio": aux.get("memo_hit_ratio"),
        "serve.startup_s": aux.get("startup_s"),
        "serve.shutdown_s": aux.get("shutdown_s"),
        "trace_overhead_ratio": trace_overhead_ratio,
    }
    assert set(out) == {row[0] for row in PER_LAYER}, "metric lists drifted"
    return out
