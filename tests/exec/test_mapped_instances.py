"""Region storage mapped into pipe workers (exec/shm.py).

Bodies read and write the parent's region instance in place; the one copy
left is each worker's undo gather before a point's body, and recovery
scatters those slots back.  The bodies here are non-idempotent ``+=``
launches with several points per shard, so a missing or misplaced restore
shows up as a double-applied write: every ladder rung must stay
byte-identical to the serial backend.  The segments themselves must never
outlive the runtime, the pool, or the process.
"""

import dataclasses
import errno
import gc
import glob
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.stencil import (
    StencilConfig,
    build_stencil,
    star_weights,
    stencil_step,
)
from repro.core.domain import Domain
from repro.data.partition import equal_partition
from repro.exec import shm
from repro.exec.pool import shutdown_pools
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import Runtime, RuntimeConfig, task

from tests.exec.test_parallel_equivalence import (
    full_stats,
    program_strategy,
    run_program,
)

#: pipe workers, whatever the environment picks for the suite
MAPPED = dict(workers=2, transport="pipe")

RETRY = RetryPolicy(same_worker_retries=1, respawns=2, backoff_base_s=1e-4,
                    backoff_cap_s=1e-3, shard_timeout_s=30.0)


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


@task(privileges=["reads writes"])
def bump_fails_at_5(ctx, r):
    r.write("x", r.read("x") + 1.0)
    if tuple(ctx.point) == (5,):
        raise RuntimeError("boom at point 5")


def _mapped_rt(**cfg):
    shutdown_pools()
    rt = Runtime(RuntimeConfig(n_nodes=2, **{**MAPPED, **cfg}))
    if not rt.backend.pool().arena.available:
        pytest.skip("no shared memory on this platform")
    return rt


def _bumps(rt, body=bump, launches=3):
    """``launches`` of ``body`` over 8 points on 2 nodes: two shards of
    four points each, one per worker."""
    r = rt.create_region("mx", 32, {"x": "f8"})
    r.storage("x")[:] = np.arange(32.0)
    p = equal_partition(f"mxp{r.uid}", r, 8)
    for _ in range(launches):
        rt.index_launch(body, 8, p)
    return r


def _serial_bytes(body=bump, launches=3):
    rt = Runtime(RuntimeConfig(n_nodes=2, workers=1))
    return rt, _bumps(rt, body, launches).storage("x").tobytes()


def _files(kind="p"):
    """This process's segments linked in /dev/shm (``pr``: instances)."""
    return glob.glob(f"/dev/shm/reproshm-{os.getpid()}{kind}*")


class TestLadderOnTheMappedPath:
    @pytest.mark.parametrize("name, spec, timeout", [
        # points 0 and 1 landed in place before the worker died at point 2
        ("kill-later-point", FaultSpec(kind="kill", scope="point",
                                       target=(2,), phase="execution"), 30.0),
        # points 0 and 1 landed; the hung process is killed and reaped
        # before they are put back
        ("hang-timeout", FaultSpec(kind="hang", scope="point", target=(2,),
                                   phase="execution", hang_s=5.0), 0.3),
        # the whole shard landed, then the result came back garbled: a
        # retry without the restore would add 1 twice
        ("corrupt", FaultSpec(kind="corrupt", scope="worker", target=(0,),
                              phase="execution"), 30.0),
    ])
    def test_recovered_run_is_byte_identical(self, name, spec, timeout):
        ref_rt, ref = _serial_bytes()
        rt = _mapped_rt(fault_plan=FaultPlan(specs=(spec,)),
                        retry=dataclasses.replace(RETRY,
                                                  shard_timeout_s=timeout))
        r = _bumps(rt)
        assert r.instance is not None
        assert rt.fault_injector.fired_count == 1
        assert rt.stats.launches_poisoned == 0
        assert rt.backend.stats.fallbacks == 0
        assert r.storage("x").tobytes() == ref
        assert full_stats(rt) == full_stats(ref_rt)
        # the landed writes really were put back before the retry
        assert rt.backend.pool().arena.stats.undo_restores >= 2

    def test_application_error_reruns_serially(self):
        """Worker 1 raises at point 5 after point 4 landed, while worker 0
        may still be writing points 0-3: the fallback waits for it, undoes
        both shards, and the serial re-run leaves serial's partial
        effects."""
        runs = []
        for cfg in (dict(workers=1), MAPPED):
            shutdown_pools()
            rt = Runtime(RuntimeConfig(n_nodes=2, **cfg))
            with pytest.raises(RuntimeError, match="boom at point 5"):
                _bumps(rt, bump_fails_at_5, launches=1)
            r = rt._regions[-1]
            runs.append((r.storage("x").tobytes(), rt.stats.tasks_executed))
        assert runs[0] == runs[1]
        assert rt.backend.stats.fallbacks == 1
        assert rt.backend.pool().arena.stats.undo_restores >= 5


def _program(program, workers, **extra):
    ops, iters, _, cfg = program
    rt, x, y, futures, edges = run_program(ops, iters, None,
                                           {**cfg, **extra}, workers=workers)
    return rt, (x.tobytes(), y.tobytes(), futures, edges)


FAULTS = [
    FaultSpec(kind="kill", scope="worker", target=(0,), phase="execution"),
    FaultSpec(kind="corrupt", scope="worker", target=(0,), phase="execution"),
    FaultSpec(kind="kill", scope="shard", target=(0,), phase="expansion"),
    # defeats every respawn: the serial fallback undoes the whole dispatch
    FaultSpec(kind="kill", scope="worker", target=(0,), times=-1),
]


class TestProgramIdentity:
    """Iterated programs of mixed launches over mapped regions."""

    @settings(max_examples=4, deadline=None)
    @given(program=program_strategy)
    def test_mapped_is_byte_identical_to_serial(self, program):
        ref_rt, ref = _program(program, 1)
        shutdown_pools()
        rt, out = _program(program, 2, transport="pipe")
        assert out == ref
        assert full_stats(rt) == full_stats(ref_rt)

    @settings(max_examples=4, deadline=None)
    @given(program=program_strategy, spec=st.sampled_from(FAULTS))
    def test_mapped_identical_under_faults(self, program, spec):
        ref_rt, ref = _program(program, 1)
        shutdown_pools()
        rt, out = _program(program, 2, transport="pipe",
                           fault_plan=FaultPlan(specs=(spec,)), retry=RETRY)
        assert rt.fault_injector.fired_count >= 1
        assert rt.stats.launches_poisoned == 0
        assert out == ref
        assert full_stats(rt) == full_stats(ref_rt)


class TestCounts:
    def test_stencil_launch_stages_nothing_and_slots_its_writes(self):
        """Reads come from the instance; the slots hold exactly the
        'output' boxes the launch writes, one undo copy of each."""
        rt = _mapped_rt()
        config = StencilConfig(n=24, blocks=(4, 2), radius=2)
        grid = build_stencil(rt, config)
        domain = Domain.rect((0, 0), (3, 1))
        args = (config.n, config.radius, star_weights(config.radius))
        rt.index_launch(stencil_step, domain, grid.halo, grid.interior,
                        args=args)   # first issue ships the skeletons
        stats = rt.backend.pool().arena.stats
        before = stats.as_dict()
        rt.index_launch(stencil_step, domain, grid.halo, grid.interior,
                        args=args)
        delta = {k: v - before[k] for k, v in stats.as_dict().items()}
        written = sum(grid.interior[c].volume for c in domain) * 8
        assert delta["bytes_staged"] == delta["read_fallbacks"] == 0
        assert delta["write_fallbacks"] == 0
        assert delta["bytes_slotted"] == written
        assert delta["write_slots"] == domain.volume
        assert rt.backend.stats.batched_commit_ops == 0   # nothing to scatter


class TestSegmentLifecycle:
    def test_shutdown_unlinks_and_storage_stays_readable(self):
        rt = _mapped_rt()
        r = _bumps(rt)
        assert f"/dev/shm/{r.instance.name}" in _files("pr")
        shutdown_pools()
        assert _files() == []
        assert r.instance is None
        np.testing.assert_array_equal(r.storage("x"), np.arange(32.0) + 3)
        # Released regions take the pickled path on the next pool.
        rt.index_launch(bump, 8, r.partitions[0])
        np.testing.assert_array_equal(r.storage("x"), np.arange(32.0) + 4)
        assert rt.backend.pool().arena.stats.bytes_staged > 0
        shutdown_pools()
        assert _files() == []

    def test_backend_shutdown_releases_only_its_runtime(self):
        rt, other = _mapped_rt(), Runtime(RuntimeConfig(n_nodes=2, **MAPPED))
        r, kept = _bumps(rt), _bumps(other, launches=1)
        rt.backend.shutdown()
        assert r.instance is None
        assert _files("pr") == [f"/dev/shm/{kept.instance.name}"]
        np.testing.assert_array_equal(r.storage("x"), np.arange(32.0) + 3)
        shutdown_pools()
        assert _files() == []

    def test_respawned_worker_maps_the_same_instance(self):
        _, ref = _serial_bytes()
        spec = FaultSpec(kind="kill", scope="worker", target=(0,),
                         phase="install")
        rt = _mapped_rt(fault_plan=FaultPlan(specs=(spec,)), retry=RETRY)
        r = _bumps(rt)
        assert rt.backend.stats.worker_respawns >= 1
        assert r.storage("x").tobytes() == ref
        shutdown_pools()
        assert _files() == []

    def test_hundred_short_lived_runtimes(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_TRANSPORT", "pipe")
        shutdown_pools()

        def short_lived():
            rt = Runtime(RuntimeConfig(n_nodes=2))
            r = rt.create_region("short", 16, {"x": "f8"})
            assert r.instance is not None
            rt.index_launch(bump, 4, equal_partition(f"sp{r.uid}", r, 4))
            assert r.storage("x").sum() == 16.0

        short_lived()               # the shared pool comes up here
        gc.collect()
        fds = len(os.listdir("/proc/self/fd"))
        for _ in range(99):
            short_lived()
        gc.collect()
        # a collected region unlinks its segment and closes its mapping
        assert _files("pr") == []
        assert len(os.listdir("/proc/self/fd")) == fds
        shutdown_pools()
        assert _files() == []

    def test_exit_unlinks_without_an_explicit_shutdown(self, tmp_path):
        script = (
            "import os\n"
            "from repro.data.partition import equal_partition\n"
            "from repro.runtime import Runtime, RuntimeConfig\n"
            "from tests.exec.test_mapped_instances import bump\n"
            "rt = Runtime(RuntimeConfig(n_nodes=2, workers=2,"
            " transport='pipe'))\n"
            "r = rt.create_region('x', 16, {'x': 'f8'})\n"
            "assert r.instance is not None\n"
            "rt.index_launch(bump, 4, equal_partition('p', r, 4))\n"
            "print(os.getpid())\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([os.path.join(root, "src"),
                                               root]))
        out = subprocess.run([sys.executable, "-c", script], cwd=root,
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        pid = int(out.stdout.split()[-1])
        assert glob.glob(f"/dev/shm/reproshm-{pid}p*") == []

    def test_full_dev_shm_falls_back_to_the_pickled_path(self, monkeypatch):
        rt = _mapped_rt()
        real_open = shm._open_segment

        def full(name, size=0):
            # Creation fails; attaching (in workers forked meanwhile) works.
            if size:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(name)

        monkeypatch.setattr(shm, "_open_segment", full)
        _, ref = _serial_bytes()
        r = _bumps(rt)
        stats = rt.backend.pool().arena.stats
        assert r.instance is None
        assert stats.instance_fallbacks == 1
        assert stats.bytes_staged > 0 and stats.write_slots == 0
        assert r.storage("x").tobytes() == ref
        assert _files("pr") == []
        shutdown_pools()

    def test_full_dev_shm_for_undo_slots_falls_back_to_serial(
            self, monkeypatch):
        """An arena segment reserves its pages when it is created, so a
        ``/dev/shm`` that cannot back the undo slots fails there, with
        ENOSPC, and never with SIGBUS at the first write: every launch on
        the regions already mapped falls back to serial, byte-identical,
        and no arena file is left behind."""
        rt = _mapped_rt()
        r = rt.create_region("fx", 32, {"x": "f8"})
        r.storage("x")[:] = np.arange(32.0)
        p = equal_partition(f"fxp{r.uid}", r, 8)
        assert r.instance is not None
        real_open = shm._open_segment

        def full(name, size=0):
            # Arena segments cannot be created; region instances still map.
            if size and re.search(r"reproshm-\d+p\d+w", name):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(name, size)

        monkeypatch.setattr(shm, "_open_segment", full)
        for _ in range(3):
            rt.index_launch(bump, 8, p)
        ref_rt, ref = _serial_bytes()
        assert r.storage("x").tobytes() == ref
        assert full_stats(rt) == full_stats(ref_rt)
        assert rt.backend.stats.fallbacks == 3
        assert rt.backend.stats.parallel_launches == 0
        assert _files("p*w") == []
        shutdown_pools()

    @pytest.mark.parametrize("cfg, fields", [
        (dict(transport="socket"), {"x": "f8"}),
        (dict(transport="pipe"), {"o": object}),     # nothing shm-able
    ], ids=["cfg0", "cfg1"])
    def test_pickled_legs_map_nothing(self, cfg, fields):
        rt = Runtime(RuntimeConfig(n_nodes=2, workers=2, **cfg))
        assert rt.create_region("u", 16, fields).instance is None
