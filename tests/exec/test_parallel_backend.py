"""Unit tests for the parallel execution backend's machinery.

The equivalence property test (``test_parallel_equivalence.py``) covers
end-to-end byte-identity; this file pins the individual mechanisms: worker
count resolution, eligibility gating, fallback/poisoning on worker
failure, and pool lifecycle.
"""

import threading

import numpy as np
import pytest

from repro.data.partition import equal_partition
from repro.exec import ParallelBackend, SerialBackend, parallel
from repro.exec.pool import (
    WorkerPool,
    active_pool_count,
    get_pool,
    resolve_workers,
    shutdown_pools,
)
from repro.exec.transport import WorkerLost
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.obs import Profiler
from repro.runtime import Runtime, RuntimeConfig, task


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


@task(privileges=["reads writes"])
def bump_by(ctx, r, by):
    r.write("x", r.read("x") + 1.0)


def _refuse():
    raise ValueError("this value cannot be unpickled")


class Unloadable:
    """Pickles anywhere; unpickling it raises."""

    def __reduce__(self):
        return _refuse, ()


@task(privileges=["reads writes"])
def returns_unloadable(ctx, r):
    r.write("x", r.read("x") + 1.0)
    return Unloadable()


_LOCK = threading.Lock()


def _locked_task():
    @task(privileges=["reads writes"])
    def locked(ctx, r):
        with _LOCK_HELD[0]:
            r.write("x", r.read("x") + 1.0)

    _LOCK_HELD = [_LOCK]
    return locked


@task(privileges=["reads", "reduces +"])
def read_and_reduce_same(ctx, r, acc):
    acc.reduce("x", [float(r.read("x").sum())])


@task(privileges=["reads writes"])
def explode_on_two(ctx, r):
    if int(ctx.point[0]) == 2:
        raise RuntimeError("boom at point 2")
    r.write("x", r.read("x") + 1.0)


def make_rt(**cfg):
    cfg.setdefault("n_nodes", 4)
    cfg.setdefault("workers", 2)
    return Runtime(RuntimeConfig(**cfg))


def setup_region(rt, n=16, parts=8):
    rx = rt.create_region("rx", n, {"x": "f8"})
    rx.storage("x")[:] = np.arange(float(n))
    return rx, equal_partition(f"p{rx.uid}", rx, parts)


class TestResolveWorkers:
    def test_explicit_config_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)

    def test_backend_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert isinstance(Runtime(RuntimeConfig()).backend, SerialBackend)
        assert isinstance(make_rt().backend, ParallelBackend)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert isinstance(
            Runtime(RuntimeConfig(n_nodes=2)).backend, ParallelBackend
        )


class TestEligibility:
    def test_trusted_launches_run_serial(self):
        """With safety validation off nothing is *verified*, so every
        launch must take the serial path."""
        rt = make_rt(validate_safety=False)
        _, p = setup_region(rt)
        rt.index_launch(bump, 8, p)
        assert rt.backend.stats.serial_launches == 1
        assert rt.backend.stats.parallel_launches == 0

    def test_reduce_read_overlap_ineligible(self):
        """A REDUCE requirement sharing a region+field with a non-REDUCE
        requirement is ineligible: the bodies would observe half-applied
        reductions under replay.  The safety analysis already rejects such
        launches today, so exercise the backend's defense-in-depth gate
        directly."""
        from repro.core.domain import Domain
        from repro.core.launch import IndexLaunch

        rt = make_rt()
        rx, p = setup_region(rt, parts=4)
        assignment = {0: [(0,)], 1: [(1,)], 2: [(2,)], 3: [(3,)]}

        same = IndexLaunch(
            task=read_and_reduce_same,
            domain=Domain.range(4),
            requirements=rt._build_requirements(read_and_reduce_same, (p, p)),
        )
        assert not rt.backend._eligible(same, assignment, True)

        ry = rt.create_region("ry", 16, {"x": "f8"})
        py = equal_partition(f"py{ry.uid}", ry, 4)
        disjoint = IndexLaunch(
            task=read_and_reduce_same,
            domain=Domain.range(4),
            requirements=rt._build_requirements(read_and_reduce_same, (p, py)),
        )
        assert rt.backend._eligible(disjoint, assignment, True)

    def test_single_node_runs_serial(self):
        rt = make_rt(n_nodes=1)
        _, p = setup_region(rt)
        rt.index_launch(bump, 8, p)
        assert rt.backend.stats.serial_launches == 1

    def test_verified_launch_goes_parallel(self):
        rt = make_rt()
        _, p = setup_region(rt)
        rt.index_launch(bump, 8, p)
        assert rt.backend.stats.parallel_launches == 1
        assert rt.backend.stats.fallbacks == 0
        assert rt.backend.stats.shards_dispatched >= 2
        assert rt.backend.stats.tasks_shipped == 8


class TestFailureParity:
    def test_worker_exception_falls_back_and_matches_serial(self):
        """A task body that raises must produce the same exception, the
        same partial region effects and the same execution counters as
        serial — every task up to and including the one that raised — with
        and without intra-launch shuffling, and poison the task so later
        launches skip the doomed dispatch."""
        for shuffle in (True, False):
            runs = []
            for workers in (1, 2):
                rt = make_rt(
                    workers=workers, shuffle_intra_launch=shuffle, seed=5
                )
                rx, p = setup_region(rt)
                with pytest.raises(RuntimeError, match="boom at point 2"):
                    rt.index_launch(explode_on_two, 8, p)
                runs.append((
                    rx.storage("x").tobytes(), rt.stats.tasks_executed,
                    dict(rt.stats.representation),
                ))
            assert runs[0] == runs[1]
        # From here on: the unshuffled workers=2 run, in plan order.
        _, executed, representation = runs[1]
        assert executed == 3
        assert representation[("execution", 0)] == 2
        assert representation[("execution", 1)] == 1
        assert ("execution", 2) not in representation
        assert rt.backend.stats.fallbacks == 1
        assert explode_on_two.uid in rt.backend._poisoned_tasks

        # Poisoned: the next launch of the same task is delegated outright.
        with pytest.raises(RuntimeError, match="boom at point 2"):
            rt.index_launch(explode_on_two, 8, p)
        assert rt.backend.stats.fallbacks == 1
        assert rt.backend.stats.serial_launches == 1

    def test_shuffle_parity_with_seed(self):
        """Shuffled execution consumes the parent RNG identically in both
        backends, so the same seed gives the same bytes."""
        outs = []
        for workers in (1, 2):
            rt = make_rt(workers=workers, shuffle_intra_launch=True, seed=13)
            rx, p = setup_region(rt)
            for _ in range(3):
                rt.index_launch(bump, 8, p)
            outs.append(rx.storage("x").tobytes())
        assert outs[0] == outs[1]


def _force(code, rt, p, monkeypatch):
    """Issue one launch that bails with ``code``."""
    backend = rt.backend
    if code == "task_unpicklable":
        rt.index_launch(_locked_task(), 8, p)
    elif code == "plan_unpicklable":
        rt.index_launch(bump_by, 8, p, args=(_LOCK,))
    elif code in ("submit_broken", "submit_failed"):
        error = WorkerLost("gone") if code == "submit_broken" else \
            RuntimeError("refused")

        def refuse(k, items):
            raise error

        monkeypatch.setattr(backend.pool(), "submit_shards", refuse)
        rt.index_launch(bump, 8, p)
        monkeypatch.undo()
    elif code == "no_undo_shm":
        if not backend.pool().arena.available:
            pytest.skip("no shared memory on this platform")
        monkeypatch.setattr(backend.pool().arena, "segment",
                            lambda k, gen, nbytes: None)
        rt.index_launch(bump, 8, p)
        monkeypatch.undo()
    elif code == "worker_error":
        with pytest.raises(RuntimeError, match="boom at point 2"):
            rt.index_launch(explode_on_two, 8, p)
    elif code == "ladder_exhausted":
        rt.index_launch(bump, 8, p)      # the runtime's fault plan fires
    elif code == "result_inconsistent":
        real = parallel.loads

        def short(blob):
            out = real(blob)
            return out[:-1] if isinstance(out, list) else out

        monkeypatch.setattr(parallel, "loads", short)
        rt.index_launch(bump, 8, p)
        monkeypatch.undo()
    elif code == "value_unpicklable":
        fmap = rt.index_launch(returns_unloadable, 8, p)
        assert isinstance(fmap.get((0,)), Unloadable)


class TestFallbackReasons:
    """Every fallback is counted under one constant code."""

    @pytest.mark.parametrize("code", parallel.FALLBACK_REASONS)
    def test_each_reachable_code_is_counted(self, code, monkeypatch):
        cfg = dict(
            transport="pipe", profiler=Profiler(),
            retry=RetryPolicy(same_worker_retries=1, respawns=1,
                              backoff_base_s=1e-4, backoff_cap_s=1e-3),
        )
        if code == "ladder_exhausted":
            # Every attempt garbles its result; the serial re-run is clean.
            cfg["fault_plan"] = FaultPlan(specs=(FaultSpec(
                kind="corrupt", scope="worker", target=(0,),
                phase="physical", launch=1, times=-1,
            ),))
        runs = []
        for workers in (1, 2):
            rt = make_rt(workers=workers, **cfg)
            rx, p = setup_region(rt)
            rt.index_launch(bump, 8, p)
            if workers == 2:
                _force(code, rt, p, monkeypatch)
            else:
                rt.index_launch(bump, 8, p)
            runs.append(rx.storage("x").tobytes())
        stats = rt.backend.stats
        assert stats.fallback_reasons == {code: 1}
        assert sum(stats.fallback_reasons.values()) == stats.fallbacks
        instants = [i for i in rt.profiler.instants
                    if i.name == "parallel.fallback"]
        assert [i.args["code"] for i in instants] == [code]
        if code not in ("worker_error", "value_unpicklable"):
            assert runs[0] == runs[1]


class TestPoolLifecycle:
    def test_registry_reuse_and_shutdown(self):
        shutdown_pools()
        pool = get_pool(2)
        assert get_pool(2) is pool
        assert active_pool_count() == 1
        assert shutdown_pools() == 1
        assert active_pool_count() == 0
        assert pool.closed
        fresh = get_pool(2)
        assert fresh is not pool and not fresh.closed
        shutdown_pools()

    def test_closed_pool_refuses_submissions(self):
        pool = WorkerPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit_shards(0, [])

    def test_backend_survives_external_shutdown(self):
        """A mid-run ``shutdown_pools()`` (e.g. another runtime tearing
        down) must not wedge the backend: it re-acquires a fresh pool."""
        rt = make_rt()
        _, p = setup_region(rt)
        rt.index_launch(bump, 8, p)
        shutdown_pools()
        rt.index_launch(bump, 8, p)
        assert rt.backend.stats.parallel_launches == 2
