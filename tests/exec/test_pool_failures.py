"""Pool-failure handling in ``WorkerPool.apply_batch_chunked``.

Infrastructure failures (dead worker process, unpicklable functor,
corrupted result transport) must fall back to exact inline evaluation,
cancel outstanding chunk futures, and be counted in ``pool_failures`` +
profiler metrics.  Application errors — the functor itself raising — must
propagate unchanged, NOT be silently swallowed by the fallback.
"""

import os
import pickle

import numpy as np
import pytest

from repro.exec.pool import CHECK_CHUNK_MIN, WorkerPool
from repro.machine.costmodel import CostModel
from repro.obs import Profiler


class Doubler:
    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return points * 2


class KillOnWorker:
    """Doubles inline, but murders any *worker* process it runs in."""

    def __init__(self):
        self.parent_pid = os.getpid()

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        if os.getpid() != self.parent_pid:
            os._exit(17)
        return points * 2


class RaisesEverywhere:
    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        raise ValueError("bad functor math")


class Unpicklable:
    def __reduce__(self):
        raise TypeError("cannot pickle a live file handle")

    def apply_batch(self, points: np.ndarray) -> np.ndarray:
        return points + 1


@pytest.fixture
def pool():
    p = WorkerPool(2)
    prof = Profiler(costmodel=CostModel())
    p.profiler = prof
    yield p
    p.shutdown()


BIG = np.arange(CHECK_CHUNK_MIN + 1000, dtype=np.int64)


def _failure_reasons(pool):
    return {
        dict(key).get("reason")
        for name, key, value in pool.profiler.metrics.counters()
        if name == "pool.failures"
    }


class TestInfrastructureFallback:
    def test_dead_workers_fall_back_inline(self, pool):
        result = pool.apply_batch_chunked(KillOnWorker(), BIG)
        np.testing.assert_array_equal(result, BIG * 2)
        assert pool.pool_failures == 1
        assert _failure_reasons(pool) == {"broken_pool"}
        # Every worker was reset: generations bumped, caches cleared.
        assert all(pool.generation(k) >= 1 for k in range(pool.n))
        assert all(not pool.caches[k].tasks for k in range(pool.n))

    def test_pool_recovers_after_worker_death(self, pool):
        pool.apply_batch_chunked(KillOnWorker(), BIG)
        result = pool.apply_batch_chunked(Doubler(), BIG)
        np.testing.assert_array_equal(result, BIG * 2)
        assert pool.pool_failures == 1  # no new failures on the clean run

    def test_unpicklable_functor_stays_inline(self, pool):
        result = pool.apply_batch_chunked(Unpicklable(), BIG)
        np.testing.assert_array_equal(result, BIG + 1)
        assert pool.pool_failures == 1
        assert _failure_reasons(pool) == {"functor_unpicklable"}
        # No worker ever had to start for an inline evaluation.
        assert pool.transport._handles == [None, None]

    def test_corrupt_result_transport_falls_back(self, pool, monkeypatch):
        monkeypatch.setattr(
            "repro.exec.pool.loads",
            lambda blob: (_ for _ in ()).throw(
                pickle.UnpicklingError("injected corrupt blob")
            ),
        )
        result = pool.apply_batch_chunked(Doubler(), BIG)
        np.testing.assert_array_equal(result, BIG * 2)
        assert pool.pool_failures == 1
        assert _failure_reasons(pool) == {"transport"}

    def test_failure_instants_reach_the_profiler(self, pool):
        pool.apply_batch_chunked(KillOnWorker(), BIG)
        names = [i.name for i in pool.profiler.instants]
        assert "pool.failure" in names


class TestApplicationErrors:
    def test_raising_functor_propagates_not_swallowed(self, pool):
        """The old bare ``except Exception`` fallback would have 'recovered'
        from this and silently returned the inline result of a *second*
        raise; the fallback is for infrastructure only."""
        with pytest.raises(ValueError, match="bad functor math"):
            pool.apply_batch_chunked(RaisesEverywhere(), BIG)
        assert pool.pool_failures == 0
        assert _failure_reasons(pool) == set()


class TestInlinePaths:
    def test_small_inputs_never_touch_workers(self, pool):
        small = np.arange(16, dtype=np.int64)
        result = pool.apply_batch_chunked(Doubler(), small)
        np.testing.assert_array_equal(result, small * 2)
        assert pool.transport._handles == [None, None]
        assert pool.pool_failures == 0

    def test_closed_pool_evaluates_inline(self, pool):
        pool.shutdown()
        result = pool.apply_batch_chunked(Doubler(), BIG)
        np.testing.assert_array_equal(result, BIG * 2)
        assert pool.pool_failures == 0

    def test_chunked_path_matches_inline_exactly(self, pool):
        chunked = pool.apply_batch_chunked(Doubler(), BIG)
        assert chunked.tobytes() == (BIG * 2).tobytes()
        assert pool.pool_failures == 0


def _counter_kinds(pool, name):
    return {
        dict(key).get("kind")
        for cname, key, value in pool.profiler.metrics.counters()
        if cname == name
    }


class TestTeardownErrorCounting:
    """Teardown failures were historically ``except Exception: pass``;
    they must now be counted and surfaced as obs instants."""

    def test_executor_shutdown_failure_is_counted(self, pool, monkeypatch):
        """The graceful SHUTDOWN write to a live worker fails: the worker
        is still killed and reaped, and the swallowed error is counted,
        never silent."""
        worker = pool.transport._handle(0)

        def stalled(_worker, _data, deadline_s=2.0):
            raise TimeoutError("worker shutdown write stalled")

        monkeypatch.setattr(pool.transport, "_write_deadline", stalled)
        pool.shutdown()
        with pytest.raises(ChildProcessError):
            os.waitpid(worker.pid, os.WNOHANG)
        assert pool.shutdown_errors == 1
        assert "TimeoutError" in _counter_kinds(pool, "pool.shutdown_errors")
        assert "pool.shutdown_error" in [i.name for i in pool.profiler.instants]

    def test_clean_shutdown_counts_nothing(self, pool):
        pool.transport._handle(0)
        pool.shutdown()
        assert pool.shutdown_errors == 0
        assert _counter_kinds(pool, "pool.shutdown_errors") == set()

    def test_shm_unlink_failure_is_counted(self, pool):
        arena = pool.arena
        if not arena.available:
            pytest.skip("shared memory unavailable on this platform")
        seg = arena.segment(0, 0, 64)
        assert seg is not None
        # Unlink out from under the arena so retirement's own unlink fails
        # the way a racing external cleanup would make it fail.
        os.unlink(f"/dev/shm/{seg.name}")
        arena._drop_worker(0)
        assert arena.stats.teardown_errors == 1
        assert "FileNotFoundError" in _counter_kinds(pool, "shm.teardown_errors")
        assert "shm.teardown_error" in [i.name for i in pool.profiler.instants]

    def test_teardown_errors_ride_the_stats_dict(self, pool):
        assert "teardown_errors" in pool.arena.stats.as_dict()
