"""Dependence kernels must survive *disjoint* interleaved launch sets.

Regression tests for the per-bucket validity guard
(:class:`~repro.runtime.kernels.DependenceKernel`).  The old guard pinned
one version expectation per region bucket and compiled only at the
all-buckets fixed point, so two launch sets sharing a region — even over
completely disjoint subsets — permuted the shared bucket every commit and
the kernel never fired.  The per-bucket guard keeps those buckets on a
key-revalidation path instead: disjoint interleavings replay through the
kernel, while interleavings that genuinely change the bucket between
applications still bail to the validating overlay.
"""

import numpy as np

from repro.data.partition import explicit_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.physical import _LaunchUser

CFG = dict(n_nodes=4, dcr=True, tracing=True)


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


def _make_rt(**extra):
    cfg = dict(CFG)
    cfg.update(extra)
    rt = Runtime(RuntimeConfig(**cfg))
    region = rt.create_region("r", 32, {"x": "f8"})
    region.storage("x")[:] = np.arange(32.0)
    return rt, region


class TestDisjointInterleave:
    def _run(self, iters=8, **extra):
        rt, region = _make_rt(**extra)
        pA = explicit_partition("pA", region,
                                {0: range(0, 8), 1: range(8, 16)})
        pB = explicit_partition("pB", region,
                                {0: range(16, 24), 1: range(24, 32)})
        for _ in range(iters):
            rt.begin_trace(1)
            rt.index_launch(bump, 2, pA)
            rt.index_launch(bump, 2, pB)
            rt.end_trace(1)
        return rt, region.storage("x").copy()

    def test_kernel_fires_across_disjoint_interleaving(self):
        """Each launch permutes the shared bucket, but the *keys* recur:
        the revalidation path must keep both templates' kernels live."""
        rt, out = self._run()
        assert rt.physical.kernel_replays > 0
        assert np.array_equal(out, np.arange(32.0) + 8.0)

    def test_interleaved_results_identical_with_kernels_off(self):
        rt_on, out_on = self._run()
        rt_off, out_off = self._run(kernels=False)
        assert rt_off.physical.kernel_replays == 0
        assert out_on.tobytes() == out_off.tobytes()
        assert rt_on.stats == rt_off.stats

    def test_single_launch_fast_path_still_fires(self):
        """The fixed-point version fast path (no interleaving) is intact."""
        rt, region = _make_rt()
        pA = explicit_partition("pA", region,
                                {0: range(0, 16), 1: range(16, 32)})
        for _ in range(8):
            rt.begin_trace(1)
            rt.index_launch(bump, 2, pA)
            rt.end_trace(1)
        assert rt.physical.kernel_replays > 0
        assert np.array_equal(region.storage("x"),
                              np.arange(32.0) + 8.0)


class TestOverlappingInterleave:
    def test_varying_overlap_bails_to_overlay(self):
        """An untraced interloper whose overlapping footprint alternates
        leaves the bucket genuinely different at every apply: the kernel
        must bail (keys mismatch) and the overlay/live path must still
        produce the exact reference answer."""

        def run(kernels):
            rt, region = _make_rt(kernels=kernels)
            pA = explicit_partition("pA", region,
                                    {0: range(0, 8), 1: range(8, 16)})
            pB1 = explicit_partition("pB1", region,
                                     {0: range(4, 20), 1: range(20, 32)})
            pB2 = explicit_partition("pB2", region,
                                     {0: range(4, 12), 1: range(12, 32)})
            for i in range(8):
                rt.begin_trace(1)
                rt.index_launch(bump, 2, pA)
                rt.end_trace(1)
                rt.index_launch(bump, 2, pB1 if i % 2 == 0 else pB2)
            return rt, region.storage("x").copy()

        rt, out = run(True)
        rt_ref, out_ref = run(False)
        assert rt.physical.kernel_replays == 0
        assert out.tobytes() == out_ref.tobytes()
        assert rt.stats == rt_ref.stats

    def test_stable_overlap_is_sound_through_the_kernel(self):
        """Two *overlapping* launch sets whose retire-and-recreate cycle
        reproduces the same entry keys every iteration may keep the kernel
        live — soundness is byte-identity against the kernels-off run."""

        def run(kernels):
            rt, region = _make_rt(kernels=kernels)
            pC = explicit_partition("pC", region,
                                    {0: range(0, 16), 1: range(16, 32)})
            pD = explicit_partition(
                "pD", region,
                {0: range(8, 24),
                 1: list(range(0, 8)) + list(range(24, 32))})
            for _ in range(8):
                rt.begin_trace(1)
                rt.index_launch(bump, 2, pC)
                rt.index_launch(bump, 2, pD)
                rt.end_trace(1)
            return rt, region.storage("x").copy()

        rt, out = run(True)
        rt_ref, out_ref = run(False)
        assert rt_ref.physical.kernel_replays == 0
        assert out.tobytes() == out_ref.tobytes()
        assert rt.stats == rt_ref.stats

    def test_overlapping_sibling_between_aligned_replays_expands(self):
        """A steady aligned launch holds its bucket as one launch user.  An
        untraced sibling over an overlapping subset must see the per-point
        users (expansion), and what it leaves must send the next replay
        past the kernel and the overlay to the live path — after which the
        launch settles on launch users again."""
        seen = {}

        def run(kernels):
            rt, region = _make_rt(kernels=kernels)
            pA = explicit_partition("pA", region,
                                    {0: range(0, 16), 1: range(16, 32)})
            pB = explicit_partition("pB", region,
                                    {0: range(4, 12), 1: range(20, 28)})
            for i in range(13):
                rt.begin_trace(1)
                rt.index_launch(bump, 2, pA)
                rt.end_trace(1)
                if i == 6:
                    held = rt.physical._users[region.uid]
                    restamped = rt.physical.users_restamped
                    replays = rt.physical.kernel_replays
                    rt.index_launch(bump, 2, pB)
                    if kernels:
                        seen["before"] = type(held)
                        seen["expanded"] = (
                            rt.physical.users_restamped - restamped
                        )
                if i == 7 and kernels:
                    seen["bailed"] = rt.physical.kernel_replays == replays
            seen[kernels] = type(rt.physical._users[region.uid])
            return rt, region.storage("x").copy()

        rt, out = run(True)
        rt_ref, out_ref = run(False)
        assert seen["before"] is seen[True] is _LaunchUser
        assert seen[False] is list
        assert seen["expanded"] == 2 and seen["bailed"]
        assert rt.physical.kernel_replays > 0
        assert out.tobytes() == out_ref.tobytes()
        assert rt.stats == rt_ref.stats
        assert rt.stats.analysis_cache_invalidations > 0
