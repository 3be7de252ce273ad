"""LRU budgets on the analysis caches (the unbounded-growth bugfix).

A long-running process churns distinct launch signatures without bound;
before the budgets landed, ``LaunchReplayCache`` and ``DynamicCheckMemo``
grew monotonically with them.  These tests churn distinct signatures and
assert (a) the tracked-entry count and byte estimate stay bounded,
(b) evictions actually happen (anti-vacuity), and (c) a budgeted run is
byte-identical to running with the analysis cache off entirely — the
eviction-equals-cold-miss contract.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.projection import ModularFunctor
from repro.core.domain import Rect
from repro.data.partition import equal_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.replay import DynamicCheckMemo, estimate_bytes


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


def churn_program(cfg_kwargs, partitions=12, iters=2):
    """Launch over ``partitions`` distinct partitions (distinct launch
    signatures), ``iters`` times each, inside traces so the replay path
    engages.  Returns (runtime, final region bytes)."""
    rt = Runtime(RuntimeConfig(n_nodes=4, validate_safety=True,
                               **cfg_kwargs))
    region = rt.create_region("churn_rx", 48, {"x": "f8"})
    region.storage("x")[:] = np.arange(48.0)
    parts = [
        equal_partition(f"churn_p{n}", region, n)
        for n in range(2, 2 + partitions)
    ]
    for it in range(iters):
        rt.begin_trace(9)
        for part in parts:
            rt.index_launch(bump, part.n_colors, part)
        rt.end_trace(9)
    rt.drain()
    return rt, region.storage("x").tobytes()


class TestDynamicCheckMemoBudget:
    def _run_keys(self, memo, n):
        results = []
        for i in range(n):
            domain = Domain.range(4 + i)
            args = ((ModularFunctor(4 + i, 1), "write"),)
            bounds = Rect((0,), (3 + i,))
            results.append(memo.run(domain, args, bounds))
        return results

    def test_entry_budget_bounds_and_evicts(self):
        memo = DynamicCheckMemo(entry_budget=4)
        self._run_keys(memo, 10)
        assert len(memo) <= 4
        assert memo.evictions >= 6
        assert memo.bytes_estimate > 0

    def test_byte_budget_bounds(self):
        probe = DynamicCheckMemo()
        self._run_keys(probe, 1)
        one_entry = probe.bytes_estimate
        memo = DynamicCheckMemo(byte_budget=3 * one_entry)
        self._run_keys(memo, 10)
        assert memo.bytes_estimate <= 4 * one_entry  # MRU always kept
        assert memo.evictions > 0

    def test_evicted_key_recomputes_identically(self):
        bounded = DynamicCheckMemo(entry_budget=2)
        unbounded = DynamicCheckMemo()
        first = self._run_keys(bounded, 6)
        again = self._run_keys(bounded, 6)  # all 6 evicted in between
        reference = self._run_keys(unbounded, 6)
        for a, b, ref in zip(first, again, reference):
            assert a == ref
            assert b == ref
        assert bounded.evictions > 0

    def test_budget_of_one_still_serves_current_launch(self):
        memo = DynamicCheckMemo(entry_budget=1)
        results = self._run_keys(memo, 5)
        assert len(memo) == 1
        assert all(r is not None for r in results)


class TestLaunchReplayCacheBudget:
    def test_unbudgeted_growth_is_the_bug(self):
        # Unbounded runs skip LRU tracking entirely (hot path), so growth
        # shows in the layer dicts: one signature per distinct partition.
        rt, _ = churn_program({})
        assert len(rt.replay_cache.store.layer("expansion")) >= 10

    def test_entry_budget_bounds_signatures(self):
        rt, _ = churn_program({"cache_entry_budget": 4})
        cache = rt.replay_cache
        assert len(cache) <= 4
        assert cache.evictions > 0
        assert len(cache.store.layer("physical")) <= 4
        assert len(cache.store.layer("expansion")) <= 4

    def test_byte_budget_bounds_estimate(self):
        probe, _ = churn_program({"cache_entry_budget": None})
        # Pick a budget around a third of the unbounded footprint so
        # eviction must fire whatever the estimator says exactly.
        budget = max(
            1, estimate_bytes(probe.replay_cache.store.layer("physical")) // 3
        )
        rt, _ = churn_program({"cache_byte_budget": budget})
        cache = rt.replay_cache
        assert cache.evictions > 0
        assert (len(cache.store.layer("expansion"))
                < len(probe.replay_cache.store.layer("expansion")))

    def test_budgeted_run_byte_identical_to_cache_off(self):
        _, with_budget = churn_program({"cache_entry_budget": 3})
        _, without_cache = churn_program({"analysis_cache": False})
        _, unbounded = churn_program({})
        assert with_budget == without_cache
        assert with_budget == unbounded

    @pytest.mark.parametrize("workers", [2])
    def test_budgeted_run_byte_identical_parallel(self, workers):
        _, with_budget = churn_program(
            {"cache_entry_budget": 3, "workers": workers}
        )
        _, without_cache = churn_program(
            {"analysis_cache": False, "workers": workers}
        )
        _, serial = churn_program({})
        assert with_budget == without_cache
        assert with_budget == serial

    def test_env_knob_budgets(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_ENTRIES", "2")
        rt, _ = churn_program({})
        assert len(rt.replay_cache) <= 2
        assert rt.replay_cache.evictions > 0

    def test_env_knob_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_ENTRIES", "zero")
        with pytest.raises(ValueError):
            Runtime(RuntimeConfig())

    def test_config_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            RuntimeConfig(cache_entry_budget=0)
        with pytest.raises(ValueError):
            RuntimeConfig(cache_byte_budget=-5)


def diverging_trace(iters, budget):
    """A traced loop of two launches over three signatures whose second
    launch switches functor every other iteration: each switch breaks
    the trace, dropping every physical template, and the next iteration
    records them again.  Returns the runtime and ``bytes_estimate`` after
    each iteration."""
    rt = Runtime(RuntimeConfig(n_nodes=2, tracing=True,
                               cache_byte_budget=budget))
    region = rt.create_region("drift_rx", 32, {"x": "f8"})
    part = equal_partition("drift_p", region, 8)
    second = [ModularFunctor(8, 1), ModularFunctor(8, 3)]
    estimates = []
    for it in range(iters):
        rt.begin_trace(4)
        rt.index_launch(bump, 8, part)
        rt.index_launch(bump, 8, (part, second[(it // 2) % 2]))
        rt.end_trace(4)
        estimates.append(rt.replay_cache.bytes_estimate)
    return rt, estimates


class TestDroppedLayersLeaveTheBudget:
    def test_estimate_stays_flat_across_trace_breaks(self):
        rt, estimates = diverging_trace(60, budget=1 << 30)
        # Every even iteration from the third on diverged and dropped the
        # physical templates recorded since the last break: the same
        # state each time, so the same charge.
        after_breaks = estimates[2::2]
        assert len(set(after_breaks)) == 1, after_breaks
        cache = rt.replay_cache
        live = sum(
            estimate_bytes(entry)
            for name in ("verdict", "expansion", "physical")
            for entry in cache.store.layer(name).values()
        )
        assert abs(cache.bytes_estimate - live) <= live // 4

    def test_a_budget_the_live_layers_fit_evicts_nothing(self):
        rt, _ = diverging_trace(200, budget=60000)
        assert rt.replay_cache.evictions == 0
