"""Every analysis store stays bounded over a long run.

A long-lived process — a service, a nightly batch — issues launches
without end.  Each memo of a pure analysis is an LRU under the runtime's
budgets, or the process tier's finite one, so its entry count stops
growing once the program's steady set is in: the same after N cycles and
after 10N.  The program is the shape of perfbench's ``first_issue``: 8
regions × 8 ``ModularFunctor`` columns over 32 points under a 16-entry
budget, one column not injective with an offset that moves every cycle,
so every cycle brings 8 check keys the process has never seen.
"""

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.projection import ModularFunctor
from repro.data.partition import equal_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.store import (
    PROCESS_BYTE_BUDGET, PROCESS_ENTRY_BUDGET, PROCESS_STORE, AnalysisStore,
    estimate_bytes,
)

REGIONS, FUNCTORS, POINTS, BUDGET = 8, 8, 32, 16
#: a process-tier budget the 57 steady groups (56 check keys and one
#: domain) fit under, reached in two cycles
PROCESS_BUDGET = 64


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


class FirstIssueShape:
    """``first_issue``'s program on one runtime, a cycle at a time."""

    def __init__(self, seed=3):
        rng = np.random.default_rng(seed)
        self.rt = Runtime(RuntimeConfig(n_nodes=4, tracing=False,
                                        cache_entry_budget=BUDGET))
        self.parts = []
        for i in range(REGIONS):
            region = self.rt.create_region(f"bs{i}", POINTS * 4, {"x": "f8"})
            self.parts.append(equal_partition(f"bs_p{i}", region, POINTS))
        n_sigs = REGIONS * FUNCTORS
        self.offsets = [int(x) for x in rng.choice(
            np.arange(1, 1 << 12), n_sigs, replace=False)]
        self.bad = int(rng.integers(FUNCTORS))
        self.order = [int(x) for x in rng.permutation(n_sigs)]
        self.cycles = 0

    def cycle(self):
        for sig in self.order:
            i, j = divmod(sig, FUNCTORS)
            if j == self.bad:
                half = POINTS // 2
                functor = ModularFunctor(half, self.offsets[sig]
                                         + half * self.cycles)
            else:
                functor = ModularFunctor(POINTS, self.offsets[sig])
            self.rt.index_launch(bump, POINTS, (self.parts[i], functor))
        self.cycles += 1


def entry_counts(rt):
    """Entries held, per store (and per layer of the process tier)."""
    return {
        "process check tier": len(PROCESS_STORE.layer("check")),
        "points": len(PROCESS_STORE.layer("points")),
        "sharding": len(rt.sharding_cache.store.layer("sharding")),
        "slicing": len(rt.slicing_cache.store.layer("slicing")),
        "replay cache": len(rt.replay_cache),
        "check memo": len(rt.replay_cache.check_memo),
    }


def counts_at(monkeypatch, n, ten_n):
    monkeypatch.setattr(PROCESS_STORE, "entry_budget", PROCESS_BUDGET)
    program = FirstIssueShape()
    while program.cycles < n:
        program.cycle()
    short = entry_counts(program.rt)
    while program.cycles < ten_n:
        program.cycle()
    return program.rt, short, entry_counts(program.rt)


def test_the_process_tier_default_is_finite_and_above_the_steady_set():
    assert PROCESS_STORE.entry_budget == PROCESS_ENTRY_BUDGET
    assert PROCESS_STORE.byte_budget == PROCESS_BYTE_BUDGET
    assert 4 * 57 < PROCESS_ENTRY_BUDGET < float("inf")
    assert PROCESS_STORE.value_keys_only


def test_first_issue_shape_holds_the_same_entries_at_n_and_10n(monkeypatch):
    rt, short, long = counts_at(monkeypatch, 2, 20)
    assert long == short
    assert short["replay cache"] == short["check memo"] == BUDGET
    assert short["process check tier"] + short["points"] == PROCESS_BUDGET
    assert short["sharding"] == 1
    assert rt.replay_cache.evictions > 0
    assert rt.replay_cache.check_memo.evictions > 0


@pytest.mark.long
def test_first_issue_shape_over_1000_cycles(monkeypatch):
    _, short, long = counts_at(monkeypatch, 100, 1000)
    assert long == short


@pytest.mark.parametrize("dcr,layer", [(True, "sharding"), (False, "slicing")])
def test_distinct_domains_stay_inside_the_entry_budget(dcr, layer):
    rt = Runtime(RuntimeConfig(n_nodes=4, dcr=dcr, tracing=False,
                               cache_entry_budget=4))
    region = rt.create_region("churn", 64, {"x": "f8"})
    part = equal_partition("churn_p", region, 32)
    for n in range(1, 33):
        rt.index_launch(bump, Domain.range(n), part)
    store = rt.sharding_cache.store
    assert rt.slicing_cache.store is store
    assert len(store.layer(layer)) <= 4
    assert store.groups_evicted >= 28
    expected = np.repeat(np.arange(32, 0, -1, dtype=float), 2)
    assert np.array_equal(region.storage("x"), expected)


# ------------------------------------------------- the store's own rules
def test_a_group_alone_over_the_byte_budget_is_kept():
    """The group just stored is never evicted, even when it alone exceeds
    the byte budget: evicting it would make the put a silent no-op and
    every later lookup a miss.  Older groups go first."""
    big = np.zeros(64)
    store = AnalysisStore(byte_budget=estimate_bytes(big) - 1)
    store.put("check", "small", np.zeros(1))
    store.put("check", "big", big)
    assert store.get("check", "big") is big
    assert store.get("check", "small") is None
    assert len(store) == 1 and store.groups_evicted == 1
    assert store.bytes_estimate == estimate_bytes(big)


def test_evictions_count_the_layers_an_evicted_group_held():
    """Evicting a group counts one eviction in each layer that held it,
    and none in a layer that did not."""
    store = AnalysisStore(entry_budget=2)
    store.put("verdict", "g1", 1)
    store.put("expansion", "g1", 2)
    store.put("physical", "g2", 3)
    store.put("verdict", "g3", 4)              # evicts g1, the oldest
    assert store.groups_evicted == 1
    assert (store.evictions["verdict"], store.evictions["expansion"],
            store.evictions["physical"]) == (1, 1, 0)
    assert store.get("verdict", "g1") is store.get("expansion", "g1") is None
    assert store.get("physical", "g2") == 3
