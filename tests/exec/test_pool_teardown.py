"""Pool teardown errors are counted, never swallowed.

A failed SHUTDOWN write or a failed segment unlink used to vanish in a
bare ``except: pass``; each now bumps a counter and emits an obs instant.
"""

import os

import pytest

from repro.exec.pool import WorkerPool
from repro.machine.costmodel import CostModel
from repro.obs import Profiler


@pytest.fixture
def pool():
    p = WorkerPool(2)
    prof = Profiler(costmodel=CostModel())
    p.profiler = prof
    yield p
    p.shutdown()


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
