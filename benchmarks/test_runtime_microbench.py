"""Microbenchmarks of this library's own runtime operations.

Not a paper reproduction — these measure the Python implementation itself
(launch issuance, the hybrid analysis, dependence tracking) so regressions
in the hot paths show up.  Run with larger ``--benchmark-*`` options for
stable numbers.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.bench.reporting import results_dir
from repro.core.checks import dynamic_self_check
from repro.core.domain import Domain, Rect
from repro.core.projection import IdentityFunctor, ModularFunctor
from repro.data.partition import equal_partition
from repro.runtime import Runtime, RuntimeConfig, task


@task(privileges=["reads writes"])
def noop_rw(ctx, r):
    pass


@task(privileges=["reads"])
def noop_ro(ctx, r):
    pass


def fresh(pieces=64, validate=True, idx=True):
    rt = Runtime(RuntimeConfig(index_launches=idx, validate_safety=validate))
    region = rt.create_region("mb", pieces * 4, {"x": "f8"})
    part = equal_partition(f"mb{region.uid}", region, pieces)
    return rt, part


def test_bench_index_launch_static(benchmark):
    """One statically-verified 64-task index launch, full pipeline."""
    rt, part = fresh()
    benchmark(lambda: rt.index_launch(noop_rw, 64, part))


def test_bench_index_launch_dynamic_check(benchmark):
    """Same launch, but the rotation functor needs the dynamic check."""
    rt, part = fresh()
    f = ModularFunctor(64, 7)
    benchmark(lambda: rt.index_launch(noop_rw, 64, (part, f)))


def test_bench_index_launch_no_validation(benchmark):
    """Pipeline cost with the safety analysis disabled entirely."""
    rt, part = fresh(validate=False)
    benchmark(lambda: rt.index_launch(noop_rw, 64, part))


def test_bench_expanded_launch(benchmark):
    """The No-IDX path: 64 individual task launches per call."""
    rt, part = fresh(idx=False)
    benchmark(lambda: rt.index_launch(noop_rw, 64, part))


def test_bench_read_only_launch(benchmark):
    """Read-only launches skip all checks and never retire users."""
    rt, part = fresh()
    benchmark(lambda: rt.index_launch(noop_ro, 64, part))


def test_bench_self_check_64(benchmark):
    domain = Domain.range(64)
    bounds = Rect((0,), (63,))
    f = ModularFunctor(64, 7)
    result = benchmark(lambda: dynamic_self_check(domain, f, bounds))
    assert result.safe


def test_bench_self_check_4096(benchmark):
    domain = Domain.range(4096)
    bounds = Rect((0,), (4095,))
    f = ModularFunctor(4096, 17)
    result = benchmark(lambda: dynamic_self_check(domain, f, bounds))
    assert result.safe


def test_bench_sharding_memoized(benchmark):
    """Steady-state distribution: the sharding cache makes repeats cheap."""
    rt, part = fresh()
    rt.index_launch(noop_rw, 64, part)  # warm the cache
    hits_before = rt.sharding_cache.hits
    benchmark(lambda: rt.index_launch(noop_rw, 64, part))
    assert rt.sharding_cache.hits > hits_before


# --------------------------------------------------------------------------
# Iterated launches: the launch-replay cache's target workload.  A time loop
# reissues the *same* 64-task launch; the first traced iteration pays the
# full analysis pipeline, steady-state iterations replay from the cache.

PIECES = 64


def iterated(n_nodes=4, idx=True, cache=True):
    rt = Runtime(
        RuntimeConfig(
            n_nodes=n_nodes, dcr=True, tracing=True,
            index_launches=idx, analysis_cache=cache,
        )
    )
    region = rt.create_region("it", PIECES * 4, {"x": "f8"})
    part = equal_partition(f"it{region.uid}", region, PIECES)

    def one_iteration():
        rt.begin_trace(1)
        rt.index_launch(noop_rw, PIECES, part)
        rt.end_trace(1)

    return rt, one_iteration


def test_bench_iterated_first_issue(benchmark):
    """Cold traced issue of a 64-task launch: full analysis + recording."""

    def setup():
        rt, one_iteration = iterated()
        return (one_iteration,), {}

    benchmark.pedantic(lambda f: f(), setup=setup, rounds=10)


def test_bench_iterated_replay(benchmark):
    """Steady-state reissue: every analysis layer served from the cache."""
    rt, one_iteration = iterated()
    for _ in range(3):
        one_iteration()
    hits_before = rt.stats.analysis_cache_hits
    benchmark(one_iteration)
    assert rt.stats.analysis_cache_hits > hits_before


def test_bench_iterated_replay_cache_off(benchmark):
    """The same steady state with ``analysis_cache=False`` (the baseline)."""
    rt, one_iteration = iterated(cache=False)
    for _ in range(3):
        one_iteration()
    benchmark(one_iteration)
    assert rt.stats.analysis_cache_hits == 0


def test_bench_iterated_noidx(benchmark):
    """No-IDX contrast: eager expansion reissues 64 individual launches, so
    there is no launch signature to replay and no cache savings."""
    rt, one_iteration = iterated(idx=False)
    for _ in range(3):
        one_iteration()
    benchmark(one_iteration)


# --------------------------------------------------------------------------
# Shard-parallel execution: wall-clock of the worker-pool backend vs serial.
# Task bodies are latency-bound (they sleep, standing in for I/O- or
# kernel-bound work) so the speedup measures *overlap* across workers and is
# meaningful even on a single-core CI runner.

BODY_SLEEP_S = 4e-3
PAR_PIECES = 8
PAR_NODES = 4


@task(privileges=["reads writes"])
def slow_bump(ctx, r):
    time.sleep(BODY_SLEEP_S)
    r.write("x", r.read("x") + 1.0)


@task(privileges=["reads", "reduces +"])
def slow_accumulate(ctx, r, acc):
    time.sleep(BODY_SLEEP_S)
    acc.reduce("s", [float(r.read("x").sum())])


def _parallel_program(workers, transport=None):
    rt = Runtime(
        RuntimeConfig(n_nodes=PAR_NODES, dcr=True, tracing=True,
                      workers=workers, transport=transport)
    )
    region = rt.create_region("pb", PAR_PIECES * 4, {"x": "f8"})
    region.storage("x")[:] = np.arange(float(PAR_PIECES * 4))
    acc = rt.create_region("pa", PAR_PIECES, {"s": "f8"})
    part = equal_partition(f"pb{region.uid}", region, PAR_PIECES)
    pacc = equal_partition(f"pa{acc.uid}", acc, PAR_PIECES)

    def one_iteration():
        rt.begin_trace(2)
        rt.index_launch(slow_bump, PAR_PIECES, part)       # circuit-like RW
        rt.index_launch(slow_accumulate, PAR_PIECES, part, pacc)
        rt.end_trace(2)

    return rt, region, acc, one_iteration


def _cpu_count():
    """CPUs actually usable by this process (cgroup/affinity honest),
    not the machine-wide count ``os.cpu_count`` reports."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count()


def _time_parallel(workers, warm=2, timed=5, transport=None):
    rt, region, acc, one_iteration = _parallel_program(
        workers, transport=transport
    )
    for _ in range(warm):
        one_iteration()
    samples = []
    for _ in range(timed):
        start = time.perf_counter()
        one_iteration()
        samples.append(time.perf_counter() - start)
    digest = region.storage("x").tobytes() + acc.storage("s").tobytes()
    return sum(samples), samples, digest, rt


def test_bench_parallel_backend_speedup():
    """Serial vs 2- and 4-worker wall clock -> BENCH_parallel.json.

    Worker runs use the raw-pipe transport (persistent forked workers,
    one selector-driven collector, no executor wake per submit) — the
    configuration the CI gate measures.  Asserts a >= 2x floor at 4
    workers on latency-bound task bodies and that every worker count
    produces byte-identical regions; the tighter headline gate lives in
    CI against the emitted snapshot.
    """
    from repro.exec.pool import shutdown_pools

    try:
        results = {}
        latencies = {}
        digests = {}
        counters = {}
        for workers in (1, 2, 4):
            elapsed, samples, digest, rt = _time_parallel(
                workers, transport="pipe" if workers > 1 else None
            )
            results[workers] = elapsed
            arr = np.asarray(samples) * 1e3
            latencies[workers] = {
                "iter_p50_ms": round(float(np.percentile(arr, 50)), 3),
                "iter_p99_ms": round(float(np.percentile(arr, 99)), 3),
            }
            digests[workers] = digest
            if workers > 1:
                bstats = rt.backend.stats
                assert bstats.parallel_launches > 0
                assert bstats.fallbacks == 0
                pool = getattr(rt.backend, "_pool", None)
                counters[f"workers_{workers}"] = {
                    "batched_commit_ops": bstats.batched_commit_ops,
                    "batched_commit_tasks": bstats.batched_commit_tasks,
                    "shm": (
                        pool.arena.stats.as_dict() if pool is not None
                        else None
                    ),
                }
    finally:
        shutdown_pools()

    assert digests[2] == digests[1]
    assert digests[4] == digests[1]

    speedup_2 = results[1] / results[2]
    speedup_4 = results[1] / results[4]
    snapshot = {
        "n_tasks_per_launch": PAR_PIECES,
        "n_launches_per_iter": 2,
        "n_nodes": PAR_NODES,
        "body_sleep_s": BODY_SLEEP_S,
        "timed_iterations": 5,
        "cpu_count": _cpu_count(),
        "transport": "pipe",
        "serial_s": round(results[1], 4),
        "workers_2_s": round(results[2], 4),
        "workers_4_s": round(results[4], 4),
        "speedup_2": round(speedup_2, 2),
        "speedup_4": round(speedup_4, 2),
        "latency": {str(w): latencies[w] for w in sorted(latencies)},
        "counters": counters,
    }
    with open(os.path.join(results_dir(), "BENCH_parallel.json"), "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    print(f"\nBENCH_parallel: {json.dumps(snapshot)}")
    assert speedup_4 >= 2.0, snapshot


def _sample_us(fn, repeats):
    """Per-iteration latencies in microseconds: min, mean, p50, p99."""
    samples = np.empty(repeats)
    for i in range(repeats):
        start = time.perf_counter()
        fn()
        samples[i] = time.perf_counter() - start
    samples *= 1e6
    return {
        "min": float(samples.min()),
        "mean": float(samples.mean()),
        "p50": float(np.percentile(samples, 50)),
        "p99": float(np.percentile(samples, 99)),
    }


def test_bench_replay_snapshot():
    """First-issue vs steady-state replay snapshot -> BENCH_runtime.json.

    Times with ``time.perf_counter`` directly (not the ``benchmark``
    fixture) so the snapshot is produced even under ``--benchmark-disable``
    smoke runs, and asserts the issue's floor: steady-state replay of an
    identical 64-task launch at least 3x faster than its first issue.
    """
    # First issue: a fresh runtime per measurement (min-of-7).
    firsts = []
    for _ in range(7):
        rt, one_iteration = iterated()
        start = time.perf_counter()
        one_iteration()
        firsts.append(time.perf_counter() - start)
    first_us = min(firsts) * 1e6

    # Steady state: warm three iterations, then 100 timed replays so the
    # tail (p99) is meaningful, not just the best case.
    rt, one_iteration = iterated()
    for _ in range(3):
        one_iteration()
    replay = _sample_us(one_iteration, 100)
    replay_us = replay["min"]
    assert rt.stats.analysis_cache_hits > 0

    # Cache-off steady state and the No-IDX path, for contrast.
    rt_off, iter_off = iterated(cache=False)
    for _ in range(3):
        iter_off()
    cache_off_us = _sample_us(iter_off, 10)["min"]

    noidx_firsts = []
    for _ in range(3):
        rt_n, iter_noidx = iterated(idx=False)
        start = time.perf_counter()
        iter_noidx()
        noidx_firsts.append(time.perf_counter() - start)
    noidx_first_us = min(noidx_firsts) * 1e6
    rt_n, iter_noidx = iterated(idx=False)
    for _ in range(3):
        iter_noidx()
    noidx_steady_us = _sample_us(iter_noidx, 10)["min"]

    from repro.runtime.kernels import GLOBAL_CHECK_KERNELS

    speedup = first_us / replay_us
    snapshot = {
        "n_tasks": PIECES,
        "n_nodes": 4,
        "cpu_count": _cpu_count(),
        "idx": {
            "first_issue_us": round(first_us, 1),
            "steady_replay_us": round(replay_us, 1),
            "steady_replay_mean_us": round(replay["mean"], 1),
            "steady_replay_p50_us": round(replay["p50"], 1),
            "steady_replay_p99_us": round(replay["p99"], 1),
            "steady_cache_off_us": round(cache_off_us, 1),
            "replay_speedup": round(speedup, 2),
        },
        "noidx": {
            "first_issue_us": round(noidx_first_us, 1),
            "steady_us": round(noidx_steady_us, 1),
        },
        "counters": {
            "dependence_kernel_replays": rt.physical.kernel_replays,
            "check_kernel_hits": GLOBAL_CHECK_KERNELS.hits,
            "check_kernel_misses": GLOBAL_CHECK_KERNELS.misses,
            "check_kernel_affine_constants": (
                GLOBAL_CHECK_KERNELS.affine_constants
            ),
        },
    }
    with open(os.path.join(results_dir(), "BENCH_runtime.json"), "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    print(f"\nBENCH_runtime: {json.dumps(snapshot)}")
    assert speedup >= 3.0, snapshot
