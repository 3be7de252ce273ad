"""What every spawn strategy owes the engine: one suite, run per transport.

``pipe`` and ``socket`` differ only in how a worker is started and
whether it can map parent shm; the selector engine, the wire frames and
the worker's serve loop are shared.  So everything that is a property of
the *engine* is asserted here once, parametrised over
``sorted(TRANSPORTS)``:

* a parallel run is a pure execution strategy — region bytes, future
  values, dependence edges and every ``PipelineStats`` counter are
  byte-identical to the serial run, clean and while the recovery ladder
  climbs over injected kills / corrupts / an expansion-phase kill;
* the failure contract — a lost worker is ``WorkerLost`` (tier-2
  respawn), a discarded worker's pending results are ``ResultCancelled``
  (the free same-worker retry), a slow one is ``ResultTimeout``;
* the fault-free dispatch path never sleeps;
* nothing leaks across the lifecycle: fds, child processes and threads
  return to baseline after respawn cycles and after shutdown.

Strategy-specific cases (frame decoder units and sibling-fd EOF for
pipes; wire framing, the handshake, spawn failures and
``REPRO_SOCKET_HOSTS`` for sockets) live beside this file in
``test_pipe_transport.py`` and ``test_socket_transport.py``.
"""

import dataclasses
import gc
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import equal_partition
from repro.exec.plan import dumps, loads
from repro.exec.pool import WorkerPool, shutdown_pools
from repro.exec.transport import (
    TRANSPORTS,
    ResultCancelled,
    ResultTimeout,
    WorkerLost,
)
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import Runtime, RuntimeConfig

from tests.exec.test_parallel_equivalence import (
    bump,
    full_stats,
    program_strategy,
    run_program,
)

pytestmark = pytest.mark.parametrize("transport", sorted(TRANSPORTS))

FAST_RETRY = RetryPolicy(
    same_worker_retries=1,
    respawns=2,
    backoff_base_s=1e-4,
    backoff_cap_s=1e-3,
    shard_timeout_s=30.0,
)

FAULTS = [
    FaultSpec(kind="kill", scope="worker", target=(0,), phase="execution"),
    FaultSpec(kind="corrupt", scope="worker", target=(0,), phase="execution"),
    FaultSpec(kind="kill", scope="shard", target=(0,), phase="expansion"),
]


def _observables(ops, iters, cfg, workers, **extra):
    merged = dict(cfg)
    merged.update(extra)
    rt, x, y, futures, edges = run_program(
        ops, iters, None, merged, workers=workers
    )
    return rt, (x.tobytes(), y.tobytes(), futures, edges)


def children():
    """Pids whose parent is this process, zombies included."""
    me, out = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may contain spaces
                ppid = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # raced with an exit
        if ppid == me:
            out.add(int(entry))
    return out


def open_fds():
    # Collect first: an earlier test's unreachable sockets must not pick
    # the window between two counts to close themselves.  (The listing's
    # own directory fd is open while it runs, on both sides.)
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


# ------------------------------------------------------- byte identity
class TestIdentity:
    @settings(max_examples=5, deadline=None)
    @given(program=program_strategy)
    def test_byte_identical_to_serial(self, transport, program):
        ops, iters, _, cfg = program
        ref_rt, ref_out = _observables(ops, iters, cfg, 1)
        rt, out = _observables(ops, iters, cfg, 2, transport=transport)
        assert out == ref_out
        assert full_stats(rt) == full_stats(ref_rt)

    @settings(max_examples=4, deadline=None)
    @given(program=program_strategy, spec=st.sampled_from(FAULTS))
    def test_identical_under_faults(self, transport, program, spec):
        """Kill and corrupt plans ride the same recovery ladder on every
        transport: the recovered run must not differ in one observable."""
        ops, iters, _, cfg = program
        plan = FaultPlan(specs=(spec,))
        ref_rt, ref_out = _observables(ops, iters, cfg, 1)
        rt, out = _observables(
            ops, iters, cfg, 2,
            transport=transport, fault_plan=plan, retry=FAST_RETRY,
        )
        assert rt.fault_injector.fired_count >= 1
        assert rt.stats.launches_poisoned == 0
        assert out == ref_out
        assert full_stats(rt) == full_stats(ref_rt)


def _four_bumps(transport, workers, retry=FAST_RETRY, before=None, **cfg):
    """Four launches of ``bump`` over a 4-way partition; ``before(rt, i)``
    runs ahead of launch ``i``.  Nodes 0 and 2 share worker 0's unit."""
    rt = Runtime(RuntimeConfig(
        workers=workers, n_nodes=4, transport=transport, retry=retry, **cfg
    ))
    r = rt.create_region("tb", 16, {"x": "f8"})
    r.storage("x")[:] = np.arange(16.0)
    p = equal_partition(f"tbp{r.uid}", r, 4)
    for i in range(4):
        if before is not None:
            before(rt, i)
        rt.index_launch(bump, 4, p)
    return rt, r.storage("x").tobytes()


class TestLadder:
    def test_dropped_connection_respawns_and_stays_identical(self, transport):
        """Lose worker 0 between launches: the selector reads EOF on the
        next dispatch, the pending shard fails as ``WorkerLost``, the
        ladder climbs to the tier-2 respawn (a fresh fork / a fresh
        process reconnecting, caches re-shipped from scratch), and the
        run commits byte-identically to the serial reference."""
        def drop(rt, i):
            if i == 2:
                engine = rt.backend.pool().transport
                assert isinstance(engine, TRANSPORTS[transport])
                engine.drop_connection(0)

        ref_rt, ref_bytes = _four_bumps(None, 1)
        rt, out_bytes = _four_bumps(transport, 2, before=drop)
        assert rt.backend.stats.worker_respawns >= 1
        assert rt.stats.launches_poisoned == 0
        assert out_bytes == ref_bytes
        assert full_stats(rt) == full_stats(ref_rt)

    def test_timeout_respawns_the_whole_unit(self, transport):
        """Node 0 hangs past the shard timeout: ``ResultTimeout`` sends
        worker 0's unit — nodes 0 and 2 — to a tier-2 respawn, and the
        fresh worker runs both.  Node 2 was never queued apart on the old
        process, so there is no cancelled sibling and no retry."""
        plan = FaultPlan(specs=(FaultSpec(
            kind="hang", scope="shard", target=(0,), phase="execution",
            hang_s=5.0,
        ),))
        retry = RetryPolicy(
            same_worker_retries=0, respawns=1,
            backoff_base_s=1e-4, backoff_cap_s=1e-3, shard_timeout_s=0.3,
        )
        ref_rt, ref_bytes = _four_bumps(None, 1)
        rt, out_bytes = _four_bumps(
            transport, 2, retry=retry, fault_plan=plan
        )
        bstats = rt.backend.stats
        assert bstats.shard_timeouts == 1
        assert bstats.worker_respawns == 1
        assert bstats.shard_retries == 0
        assert bstats.fallbacks == 0
        assert rt.stats.launches_poisoned == 0
        assert out_bytes == ref_bytes
        assert full_stats(rt) == full_stats(ref_rt)

    @pytest.mark.parametrize("kind", ["kill", "hang", "corrupt"])
    def test_node_fault_inside_a_shared_unit(self, transport, kind):
        """A shard-scoped fault on node 2 — the second node of worker 0's
        unit — fires at the unit's phase boundary, so node 0's point goes
        down with it, and the whole unit climbs the ladder: once,
        byte-identically to serial.  A corrupt result lands both points'
        in-place writes first, and both are undone before the retry."""
        plan = FaultPlan(specs=(FaultSpec(
            kind=kind, scope="shard", target=(2,), phase="execution",
            hang_s=5.0,
        ),))
        retry = FAST_RETRY
        if kind == "hang":
            retry = dataclasses.replace(FAST_RETRY, shard_timeout_s=0.3)
        ref_rt, ref_bytes = _four_bumps(None, 1)
        shutdown_pools()        # a fresh arena counts this run's restores
        rt, out_bytes = _four_bumps(
            transport, 2, retry=retry, fault_plan=plan
        )
        bstats = rt.backend.stats
        assert rt.fault_injector.fired_count == 1
        assert (bstats.worker_respawns, bstats.shard_retries,
                bstats.shard_timeouts) == {
            "kill": (1, 0, 0), "hang": (1, 0, 1), "corrupt": (0, 1, 0),
        }[kind]
        if kind == "corrupt" and rt.backend.pool().arena.available:
            assert rt.backend.pool().arena.stats.undo_restores == 2
        assert bstats.fallbacks == 0
        assert rt.stats.launches_poisoned == 0
        assert out_bytes == ref_bytes
        assert full_stats(rt) == full_stats(ref_rt)

    @pytest.mark.parametrize("scope", ["worker", "shard"])
    @pytest.mark.parametrize("kind", ["kill", "corrupt", "hang"])
    def test_physical_phase_faults_recover(self, transport, kind, scope):
        """Workers analyse nothing, but ``physical`` is still a boundary of
        the unit they run — between expansion and the bodies — and a fault
        placed there climbs the same ladder to the same bytes."""
        plan = FaultPlan(specs=(FaultSpec(
            kind=kind, scope=scope, target=(0,), phase="physical", hang_s=5.0,
        ),))
        retry = FAST_RETRY
        if kind == "hang":
            retry = dataclasses.replace(FAST_RETRY, shard_timeout_s=0.3)
        ref_rt, ref_bytes = _four_bumps(None, 1)
        rt, out_bytes = _four_bumps(
            transport, 2, retry=retry, fault_plan=plan
        )
        bstats = rt.backend.stats
        assert rt.fault_injector.fired_count == 1
        assert {
            "kill": bstats.worker_respawns,
            "corrupt": bstats.shard_retries,
            "hang": bstats.shard_timeouts,
        }[kind] >= 1
        assert bstats.fallbacks == 0
        assert rt.stats.launches_poisoned == 0
        assert out_bytes == ref_bytes
        assert full_stats(rt) == full_stats(ref_rt)


# ------------------------------------------------------ engine contract
class Doubler:
    def apply_batch(self, points):
        return points * 2


class Sleeper:
    def __init__(self, seconds):
        self.seconds = seconds

    def apply_batch(self, points):
        time.sleep(self.seconds)
        return points


POINTS = np.arange(8, dtype=np.int64)


@pytest.fixture
def pool(transport):
    p = WorkerPool(2, transport)
    yield p
    p.shutdown()
    assert p.shutdown_errors == 0


def _double(pool, k):
    blob = dumps(Doubler())
    return loads(pool.transport.submit_batch(k, blob, POINTS).result())


class TestContract:
    def test_timeout_then_discard_cancels(self, pool):
        future = pool.transport.submit_batch(0, dumps(Sleeper(5.0)), POINTS)
        with pytest.raises(ResultTimeout):
            future.result(timeout=0.05)
        assert not future.done()        # a timeout settles nothing
        pool.reset_worker(0)
        with pytest.raises(ResultCancelled):
            future.result()
        # The slot respawns on the next submit: the retry's destination.
        np.testing.assert_array_equal(_double(pool, 0), POINTS * 2)

    def test_lost_worker_fails_pending_and_submits(self, pool):
        engine = pool.transport
        future = engine.submit_batch(0, dumps(Sleeper(5.0)), POINTS)
        engine.drop_connection(0)
        with pytest.raises(WorkerLost):
            future.result(timeout=10.0)
        # Never a transparent respawn: the pool must wipe its beliefs and
        # bump the generation first.
        with pytest.raises(WorkerLost):
            engine.submit_batch(0, dumps(Doubler()), POINTS)
        np.testing.assert_array_equal(_double(pool, 1), POINTS * 2)
        pool.reset_worker(0)
        np.testing.assert_array_equal(_double(pool, 0), POINTS * 2)

    def test_graceful_shutdown_returns_no_errors(self, transport):
        before = children()
        p = WorkerPool(2, transport)
        for k in range(2):
            np.testing.assert_array_equal(_double(p, k), POINTS * 2)
        assert len(children() - before) == 2
        assert p.transport.shutdown() == []
        assert children() == before     # exited on SHUTDOWN and reaped
        p.shutdown()


class TestEventDrivenWaits:
    def test_dispatch_never_polls_with_sleep(self, transport, monkeypatch):
        """Regression guard: every fault-free parent-side wait — spawn,
        handshake, shard collection, the selector loop, chunked batch
        evaluation — must be event-driven.  ``time.sleep`` in the hot
        path would put a latency floor under every launch, so a
        fault-free traced program must complete without a single
        parent-side sleep (backoff and reap sleeps are reserved for the
        recovery ladder and teardown)."""

        def no_sleep(_s):
            raise AssertionError(
                "time.sleep called on the fault-free dispatch path"
            )

        monkeypatch.setattr(time, "sleep", no_sleep)
        # "shifted" exercises the dynamic-check path, whose large functor
        # sweeps are chunk-evaluated on the pool; "reduce"/"total" force
        # result collection every iteration.
        ops = ("bump8", "shifted", "copy", "total", "reduce")
        rt, out = _observables(ops, 3, dict(n_nodes=4), 2, transport=transport)
        ref_rt, ref_out = _observables(ops, 3, dict(n_nodes=4), 1)
        assert out == ref_out
        assert full_stats(rt) == full_stats(ref_rt)


# ------------------------------------------------------------ lifecycle
class TestNoLeaks:
    def test_fds_children_threads_return_to_baseline(self, transport):
        """20 respawn cycles hold fds / children / threads level, and a
        shutdown gives all of them back — including a socket worker's
        dup'd write fd, and proving no helper thread exists to survive."""
        from repro.exec.pool import get_pool

        def snapshot():
            return open_fds(), children(), threading.active_count()

        def lifecycle(cycles):
            pool = get_pool(2, transport)
            for k in range(2):
                _double(pool, k)
            live = snapshot()
            for _ in range(cycles):
                pool.reset_worker(0)
                _double(pool, 0)
            fds, kids, threads = snapshot()
            assert (fds, len(kids), threads) == (
                live[0], len(live[1]), live[2]
            )
            del pool
            shutdown_pools()

        shutdown_pools()
        lifecycle(0)        # once-per-process singletons come up here
        base = snapshot()
        lifecycle(20)
        assert snapshot() == base
