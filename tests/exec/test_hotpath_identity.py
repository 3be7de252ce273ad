"""The hot-path engine is a pure performance lever (docs/hot-path.md).

Mapped region instances, batched commit and the plan memo are the only
path the parallel backend has; precompiled check/dependence kernels keep
a ``RuntimeConfig`` switch whose ``False`` is the uncached reference.
Every setting must leave each functional observable byte-identical to
the serial backend: region contents, future values, dependence edges,
and every ``PipelineStats`` counter (the engine charges its savings
virtually).  The shm layer must additionally unlink every segment it
creates on every exit path: steady-state commit, fault recovery, the
tier-3 serial fallback, and pool teardown.
"""

import glob
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exec.pool import shutdown_pools
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.runtime.physical import _LaunchUser

from tests.exec.test_parallel_equivalence import (
    full_stats,
    program_strategy,
    run_program,
)

#: The parallel backend's settings, each compared with the serial backend:
#: the default, and the kernels' reference setting.
SETTINGS = ({}, {"kernels": False})

FAST_RETRY = RetryPolicy(
    same_worker_retries=1,
    respawns=2,
    backoff_base_s=1e-4,
    backoff_cap_s=1e-3,
    shard_timeout_s=30.0,
)

#: Worker-killing and result-corrupting plans: the engine must stay
#: invisible even while the recovery ladder is climbing.
FAULTS = [
    FaultSpec(kind="kill", scope="worker", target=(0,), phase="execution"),
    FaultSpec(kind="corrupt", scope="worker", target=(0,), phase="execution"),
]


#: perfbench's ``replay_steady`` shape — identity then rotation, ``reads
#: writes``, one partition — long enough to settle on launch users (see
#: ``DependenceKernel``): always part of the identity runs below.
STEADY_REPLAY = (
    ["bump8", "shifted"], 6, None, dict(n_nodes=4, dcr=True, tracing=True)
)


def _same_stats(rt, ref_rt, setting):
    """``full_stats`` equality with the serial default.  The performed
    count ``overlap_tests`` belongs to the analysis path, not to the
    backend: with kernels a first issue of the aligned shape is analysed
    by colour and runs no exact test, and ``kernels=False`` runs one per
    task, so it is compared only when the kernel setting is the same."""
    ours, ref = full_stats(rt), full_stats(ref_rt)
    if setting.get("kernels", True) is False:
        del ours["physical.overlap_tests"], ref["physical.overlap_tests"]
    assert ours == ref


def _observables(ops, iters, cfg, workers, **extra):
    merged = dict(cfg)
    merged.update(extra)
    rt, x, y, futures, edges = run_program(
        ops, iters, None, merged, workers=workers
    )
    return rt, (x.tobytes(), y.tobytes(), futures, edges)


def _shm_files() -> list:
    """This process's shared-memory segments still linked in /dev/shm."""
    return glob.glob(f"/dev/shm/reproshm-{os.getpid()}p*")


def _linked(rt) -> set:
    """What ``rt`` should hold linked: its pool's arena segments and the
    instances mapped for its regions."""
    return set(rt.backend._pool.arena.live_segments()) | {
        r.instance.name for r in rt._regions if r.instance is not None
    }


class TestKnobIdentity:
    @settings(max_examples=6, deadline=None)
    @given(program=program_strategy, setting=st.sampled_from(SETTINGS))
    @example(program=STEADY_REPLAY, setting=SETTINGS[0])
    @example(program=STEADY_REPLAY, setting=SETTINGS[1])
    def test_each_knob_off_is_byte_identical(self, program, setting):
        ops, iters, _, cfg = program
        ref_rt, ref_out = _observables(ops, iters, cfg, 1)
        rt, out = _observables(ops, iters, cfg, 2, **setting)
        assert out == ref_out
        _same_stats(rt, ref_rt, setting)

    @settings(max_examples=4, deadline=None)
    @given(
        program=program_strategy,
        setting=st.sampled_from(SETTINGS),
        spec=st.sampled_from(FAULTS),
    )
    @example(program=STEADY_REPLAY, setting=SETTINGS[1], spec=FAULTS[0])
    @example(program=STEADY_REPLAY, setting=SETTINGS[0], spec=FAULTS[1])
    def test_knob_off_identical_under_faults(self, program, setting, spec):
        ops, iters, _, cfg = program
        plan = FaultPlan(specs=(spec,))
        ref_rt, ref_out = _observables(ops, iters, cfg, 1)
        rt, out = _observables(
            ops, iters, cfg, 2,
            fault_plan=plan, retry=FAST_RETRY, **setting,
        )
        assert rt.fault_injector.fired_count >= 1
        assert rt.stats.launches_poisoned == 0
        assert out == ref_out
        _same_stats(rt, ref_rt, setting)

    def test_steady_replay_program_reaches_launch_users_on_workers(self):
        """Anti-vacuity for the ``STEADY_REPLAY`` examples above."""
        ops, iters, _, cfg = STEADY_REPLAY
        rt, _ = _observables(ops, iters, cfg, 2)
        assert rt.backend.stats.parallel_launches > 0
        assert [type(b) for b in rt.physical._users.values()] == [_LaunchUser]

    def test_kernels_off_serial_is_byte_identical(self):
        """The kernel layer also serves the serial replay path.

        A single repeated launch per trace iteration: interleaving other
        launches mutates the region's user buckets between replays, which
        (correctly) keeps the dependence kernel from ever validating.
        """
        ops = ("bump8",)
        cfg = dict(n_nodes=4, dcr=True, tracing=True)
        ref_rt, ref_out = _observables(ops, 4, cfg, 1)
        rt, out = _observables(ops, 4, cfg, 1, kernels=False)
        assert rt.physical.kernel_replays == 0
        assert ref_rt.physical.kernel_replays > 0
        assert out == ref_out
        _same_stats(rt, ref_rt, {"kernels": False})


class TestShmLeaks:
    def test_teardown_unlinks_all_segments(self):
        shutdown_pools()
        rt, _ = _observables(
            ("bump8", "copy", "reduce"), 2, dict(n_nodes=4), 2
        )
        pool = rt.backend._pool
        assert pool is not None
        # Steady state holds exactly the warm segments and the region
        # instances, nothing retired.
        assert {f"/dev/shm/{n}" for n in _linked(rt)} == set(_shm_files())
        shutdown_pools()
        assert pool.arena.live_segments() == []
        assert _shm_files() == []

    def test_recovery_ladder_leaves_no_segments(self):
        shutdown_pools()
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", scope="worker", target=(0,),
                      phase="execution", times=2),
        ))
        rt, _ = _observables(
            ("bump8", "copy"), 2, dict(n_nodes=4), 2,
            fault_plan=plan, retry=FAST_RETRY,
        )
        assert rt.backend.stats.worker_respawns >= 1
        # Respawned generations' segments were retired (unlinked) at reset.
        assert {os.path.basename(p) for p in _shm_files()} == _linked(rt)
        shutdown_pools()
        assert _shm_files() == []

    def test_serial_fallback_abandons_and_unlinks(self):
        shutdown_pools()
        # Every attempt dies and the ladder is capped at zero: the
        # dispatch bails to the tier-3 serial fallback immediately.
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", scope="worker", target=(0,),
                      phase="execution", times=100),
        ))
        no_ladder = RetryPolicy(
            same_worker_retries=0, respawns=0,
            backoff_base_s=1e-4, backoff_cap_s=1e-3,
            shard_timeout_s=30.0,
        )
        ref_rt, ref_out = _observables(("bump8", "copy"), 2,
                                       dict(n_nodes=4), 1)
        rt, out = _observables(
            ("bump8", "copy"), 2, dict(n_nodes=4), 2,
            fault_plan=plan, retry=no_ladder,
        )
        assert rt.backend.stats.fallbacks >= 1
        assert out == ref_out
        # The abandoned dispatch's segments are already unlinked; only
        # currently-live arena segments (if any) and the region instances
        # remain in /dev/shm.
        assert {os.path.basename(p) for p in _shm_files()} == _linked(rt)
        shutdown_pools()
        assert _shm_files() == []
