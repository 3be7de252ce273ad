"""``python3 -m perfbench selftest``: the benchmark checking itself.

One short traced round per workload (two seeds where the seed varies the
inputs), then: no failed ops; every span nests under one root per op;
every boundary in ``layers.BOUNDARIES`` is crossed where the table says it
must be and nowhere it must not; the cache and counter claims the README
makes hold; two seeds give different inputs and identical counts.
``test_perfbench.py`` runs the same checks under pytest.
"""

from __future__ import annotations

from typing import List

from perfbench import layers
from perfbench.metrics import EXACT, layer_metrics

ROUND_S = 1.0
AUX_S = 0.5
#: every workload but stencil_compute, whose input is PRK's fixed grid
SEEDED = ("replay_steady", "first_issue", "dispatch_fanout", "service_closed")


def check_workload(name: str, seeds=(11, 12)) -> List[str]:
    """Problems found on one workload (empty = sound)."""
    from perfbench.__main__ import spawn_round

    if name not in SEEDED:
        seeds = seeds[:1]
    rounds = [spawn_round(name, seed, ROUND_S, traced=1, aux_seconds=AUX_S)
              for seed in seeds]
    problems = []
    for seed, result in zip(seeds, rounds):
        problems += [f"seed {seed}: {line}" for line in result["failures"]]
        if "spans" not in result:
            return problems + [f"seed {seed}: no traced result"]
        problems += result["nesting_errors"]
    first = rounds[0]
    crossed = {n for n, row in first["spans"].items() if row["calls"] > 0}
    crossed.discard("op")
    for missing in sorted(layers.expected_on(name) - crossed):
        problems.append(f"boundary {missing} never crossed")
    allowed = layers.expected_on(name) | set(layers.MAY_APPEAR)
    for extra in sorted(crossed - allowed):
        problems.append(f"boundary {extra} crossed, none expected")

    found = layer_metrics(first, None)
    claims = {
        "replay_steady": [
            ("runtime.replay.hit_ratio", lambda v: v > 0.95),
            ("runtime.replay.evictions_per_op", lambda v: v == 0),
            ("runtime.kernels.dependence_replays_per_op", lambda v: v > 0),
            ("core.safety.self_us", lambda v: v == 0),
        ],
        "first_issue": [
            ("runtime.replay.hit_ratio", lambda v: v < 0.05),
            ("runtime.replay.evictions_per_op", lambda v: v >= 1),
            ("runtime.kernels.check_misses_per_op", lambda v: v > 0),
            ("runtime.kernels.check_hit_ratio", lambda v: 0 < v < 1),
            ("core.checks.evaluations_per_op", lambda v: v > 0),
        ],
        "dispatch_fanout": [
            ("exec.shm.bytes_staged_per_op", lambda v: v > 0),
            ("exec.parallel.plan_memo_hit_ratio", lambda v: v > 0),
            ("exec.parallel.fallbacks_per_op", lambda v: v == 0),
            ("exec.transport.roundtrip_us", lambda v: v > 0),
        ],
        "stencil_compute": [
            ("exec.shm.bytes_staged_per_op", lambda v: v > 1e6),
            ("exec.shm.rewinds_per_op", lambda v: v > 0),
            ("exec.shm.segments", lambda v: v > 0),
            ("exec.parallel.fallbacks_per_op", lambda v: v == 0),
            ("apps.body_us", lambda v: v > 0),
        ],
        "service_closed": [
            ("serve.noop_call_us", lambda v: v > 0),
            ("serve.client.bytes_per_call", lambda v: v > 0),
            ("serve.busy_ratio", lambda v: v == 0),
            ("serve.startup_s", lambda v: v > 0),
            ("serve.shutdown_s", lambda v: v > 0),
        ],
    }[name]
    for metric, holds in claims:
        if found[metric] is None or not holds(found[metric]):
            problems.append(f"{metric} = {found[metric]}")

    if len(rounds) == 2:
        second = rounds[1]
        if first["input_digest"] == second["input_digest"]:
            problems.append("two seeds generated the same inputs")
        if first["window"] != second["window"]:
            diff = {k: (v, second["window"].get(k))
                    for k, v in first["window"].items()
                    if second["window"].get(k) != v}
            problems.append(f"counts differ between seeds: {diff}")
        other = layer_metrics(second, None)
        for metric in EXACT:
            if found[metric] != other[metric]:
                problems.append(f"{metric} differs between seeds")
    return problems


def main() -> int:
    from perfbench.workloads import WORKLOADS

    bad = 0
    for name in WORKLOADS:
        problems = check_workload(name)
        print(f"{name:<16} {'ok' if not problems else 'FAILED'}")
        for line in problems:
            print(f"    {line}")
        bad += bool(problems)
    return 1 if bad else 0
