"""Steady dispatch without rebuilding (exec/parallel.py, exec/worker.py).

A replayed launch on the pipe pool should cost O(1) Python per shard on
both sides of the pipe: the parent retakes each shard's recorded undo-slot
set (``ShmArena.retake``) and ships the memoized blob as it is, and the
worker runs the bytes it has seen before from its plan memo, without
unpickling, installing or expanding them.  These tests hold that by count,
check the fault ladder on the warm fast paths, and check that a worker's
plan memo dies with the state its expansions point into.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.core.domain import Point
from repro.core.projection import IdentityFunctor, ModularFunctor
from repro.data.partition import equal_partition
from repro.data.privileges import Privilege, PrivilegeSpec
from repro.exec import worker
from repro.exec.plan import (
    PartitionEntry,
    ReqTemplate,
    ShardPlan,
    dumps,
    loads,
    priv_token,
)
from repro.exec.pool import shutdown_pools
from repro.fault import RetryPolicy
from repro.runtime import Runtime, RuntimeConfig, task

from tests.exec.test_parallel_equivalence import full_stats

#: pipe workers with shm on, whatever the environment picks for the suite
MAPPED = dict(workers=2, transport="pipe", shm=True)
GROUPS = 4


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)
    return int(ctx.point[0])


def _runtime(**cfg):
    shutdown_pools()
    rt = Runtime(RuntimeConfig(n_nodes=4, dcr=True, **cfg))
    if cfg.get("workers", 1) > 1 and not rt.backend.pool().arena.available:
        pytest.skip("no shared memory on this platform")
    return rt


class _Fanout:
    """``dispatch_fanout``'s shape: four regions of 8 cells per point, each
    launched over ``pieces`` points per op, identity and rotation
    alternating, the four launches in one trace."""

    def __init__(self, rt, pieces):
        self.rt, self.pieces = rt, pieces
        self.regions, self.reqs = [], []
        for g in range(GROUPS):
            region = rt.create_region(f"sd{g}", pieces * 8, {"x": "f8"})
            region.storage("x")[:] = np.arange(pieces * 8.0) * (g + 1)
            part = equal_partition(f"sd_p{g}_{region.uid}", region, pieces)
            self.regions.append(region)
            self.reqs.append(
                part if g % 2 == 0 else (part, ModularFunctor(pieces, g))
            )

    def op(self, after_launch=None):
        self.rt.begin_trace(7)
        for req in self.reqs:
            self.rt.index_launch(bump, self.pieces, req)
            if after_launch is not None:
                after_launch()
        self.rt.end_trace(7)

    def storage(self):
        return [region.storage("x").tobytes() for region in self.regions]


def _counters(rt):
    backend, arena = rt.backend, rt.backend.pool().arena
    return dict(
        allocations=arena.allocations,
        write_slots=arena.stats.write_slots,
        bytes_slotted=arena.stats.bytes_slotted,
        rewinds=arena.stats.rewinds,
        worker_plan_hits=backend.stats.worker_plan_hits,
        shards=backend.stats.shards_dispatched,
    )


def _steady(pieces, warmup=3, steady=3, **cfg):
    """Run the fan-out loop; per steady launch, the counter deltas."""
    rt = _runtime(**cfg)
    loop = _Fanout(rt, pieces)
    for _ in range(warmup):
        loop.op()
    deltas = []
    last = [_counters(rt)]

    def note():
        now = _counters(rt)
        deltas.append({k: v - last[0][k] for k, v in now.items()})
        last[0] = now

    for _ in range(steady):
        loop.op(note)
    return rt, loop, deltas


class TestSteadyLaunchCounts:
    @pytest.mark.parametrize("pieces", [8, 64])
    def test_a_steady_launch_allocates_and_unpickles_nothing(self, pieces):
        ref_rt = _runtime(workers=1)
        ref = _Fanout(ref_rt, pieces)
        for _ in range(6):
            ref.op()
        off_rt, off, off_deltas = _steady(pieces, plan_memo=False, **MAPPED)
        off_bytes = off.storage()
        rt, loop, deltas = _steady(pieces, **MAPPED)

        assert len(deltas) == 3 * GROUPS
        for d in deltas:
            assert d["shards"] == 4                      # every launch fans out
            assert d["allocations"] == 0                 # the slots are retaken
            assert d["worker_plan_hits"] == d["shards"]  # and never unpickled
            assert d["write_slots"] == pieces            # one slot per point
        # Retaking charges exactly what allocating did.
        keys = ("write_slots", "bytes_slotted", "rewinds")
        assert [{k: d[k] for k in keys} for d in deltas] == [
            {k: d[k] for k in keys} for d in off_deltas
        ]
        assert all(d["allocations"] > 0 for d in off_deltas)
        assert rt.backend.stats.fallbacks == 0
        assert full_stats(rt) == full_stats(off_rt) == full_stats(ref_rt)
        assert loop.storage() == off_bytes == ref.storage()


def test_future_map_keys_match_serial():
    """The commit fills the FutureMap with the dispatch's own points: the
    same keys, in the same order, as the serial backend's."""
    maps = []
    for cfg in (dict(workers=1), MAPPED):
        rt = _runtime(**cfg)
        region = rt.create_region("fk", 64, {"x": "f8"})
        part = equal_partition(f"fk_p{region.uid}", region, 8)
        fmaps = [rt.index_launch(bump, 8, (part, ModularFunctor(8, 3)))
                 for _ in range(3)]
        maps.append([list(f._values.items()) for f in fmaps])
        if cfg is MAPPED:
            assert rt.backend.stats.parallel_launches == 3
    assert maps[0] == maps[1]
    assert all(type(key) is Point for fmap in maps[1] for key, _ in fmap)


def test_profile_bench_summary_prints_worker_plan_hits(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.delenv("REPRO_SHM", raising=False)
    shutdown_pools()
    assert main(["profile", "stencil", "--steps", "4", "--workers", "2",
                 "--transport", "pipe", "--bench-summary"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    (hits,) = [row[3] for row in rows if row[:3] == ["worker", "plan", "hits"]]
    assert int(hits) > 0


# ------------------------------------------------------- ladder, warm memo
RETRY = RetryPolicy(same_worker_retries=1, respawns=2, backoff_base_s=1e-4,
                    backoff_cap_s=1e-3, shard_timeout_s=30.0)


@task(privileges=["reads writes"])
def bump_faulting(ctx, r, kind, marker):
    """``+= 1``; on a worker, in the 4th launch (the cells now hold 4), at
    point 1 — the later of shard 0's two points — ``kind`` fires once (the
    first process to create ``marker``).  No fault injector is armed, so
    the plan memos stay on."""
    x = r.read("x") + 1.0
    r.write("x", x)
    if ctx.runtime is not None or tuple(ctx.point) != (1,) or x[0] != 4.0:
        return
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return
    if kind == "kill":
        os._exit(13)
    if kind == "hang":
        time.sleep(5.0)
    if kind == "corrupt":
        # What an injected ``corrupt`` does once the shard has run: every
        # write landed, and the result blob will not unpickle.
        raise worker._CorruptResult()


def _slot_spy(pool):
    """Every undo slot or progress counter an attempt names that another
    attempt of the same dispatch already named: offsets grow across a
    dispatch, retries included (exec/shm.py), so the list stays empty."""
    seen, twice = set(), []
    submit = pool.submit_shards

    def spy(k, items):
        epoch = pool.arena.stats.rewinds + pool.arena.stats.abandons
        for _, plan in items:
            named = [plan.undo_done] + [
                slot for point in plan.undo_slots or () for slot in point
            ]
            for slot in filter(None, named):
                key = (epoch, slot[0], slot[1])
                if key in seen:
                    twice.append(key[1:])
                seen.add(key)
        return submit(k, items)

    pool.submit_shards = spy
    return twice


class TestLadderOnAWarmMemo:
    """Kill, hang and corrupt in the 4th launch of a steady ``+=`` loop,
    once the parent memo, the slot retake and the worker memo are warm.
    Shard 2 shares worker 0 with shard 0 and is queued behind it: a kill
    or hang in shard 0 means shard 2 never ran, so its retaken progress
    counter must read 0 when it is restored."""

    @pytest.mark.parametrize("kind, timeout", [
        ("kill", 30.0), ("hang", 0.3), ("corrupt", 30.0),
    ])
    def test_recovered_run_is_byte_identical(self, kind, timeout, tmp_path):
        marker = str(tmp_path / "fired")
        ref_rt = _runtime(workers=1)
        runs = []
        for rt in (ref_rt, _runtime(
                retry=dataclasses.replace(RETRY, shard_timeout_s=timeout),
                **MAPPED)):
            region = rt.create_region("wm", 32, {"x": "f8"})
            part = equal_partition(f"wm_p{region.uid}", region, 8)
            for n in range(6):
                if rt is not ref_rt and n == 2:
                    twice = _slot_spy(rt.backend.pool())
                    warm = _counters(rt)
                rt.index_launch(bump_faulting, 8, part, args=(kind, marker))
                if rt is not ref_rt and n == 2:
                    # The 3rd launch ran on all three fast paths.
                    now = _counters(rt)
                    assert now["allocations"] == warm["allocations"]
                    assert now["worker_plan_hits"] == warm[
                        "worker_plan_hits"] + 4
                    assert rt.backend.stats.plan_memo_blob_reuse == 4
            runs.append(region.storage("x").tobytes())
        assert os.path.exists(marker)
        assert twice == []
        assert runs[0] == runs[1] == np.full(32, 6.0).tobytes()
        stats = rt.backend.stats
        assert stats.fallbacks == 0
        assert stats.shard_retries + stats.worker_respawns >= 1
        assert rt.backend.pool().arena.stats.undo_restores >= 2
        assert full_stats(rt) == full_stats(ref_rt)


# -------------------------------------------------- worker memo lifetime
@task(privileges=["reads writes"])
def name_of(ctx, r):
    r.write("x", r.read("x") + 1.0)
    return r.subregion.region.name


def test_reset_state_clears_the_worker_plan_memo():
    """A ``socket_worker --listen`` process serves a second parent whose
    uids can collide with the first's, and whose bare plans can repeat the
    first's bytes exactly: after ``reset_state`` those bytes must run
    against the region installed under the uid now, not the expansion
    memoized for the old one."""
    uid, part_uid, subset_uid = 10**9, 10**9 + 1, 10**9 + 2

    def plan(**delta):
        bare = dict(task_blob=None, regions=[], partitions=[])
        return ShardPlan(
            node=0, points=[(0,)], ordinals=[0], task_uid=name_of.uid,
            args=(), point_extra_args=None,
            reqs=[ReqTemplate(
                priv=priv_token(PrivilegeSpec(Privilege.READ_WRITE)),
                fields=("x",), resolved_fields=("x",),
                partition_uid=part_uid, region_uid=uid,
                functor=IdentityFunctor(),
            )],
            read_data=[], profile=False, **{**bare, **delta},
        )

    def install(name):
        return dumps(plan(
            task_blob=dumps(name_of),
            regions=[(uid, name, (0,), (7,), (("x", "<f8"),), None)],
            partitions=[PartitionEntry(
                uid=part_uid, region_uid=uid,
                colors=[((0,), ("rect", (0,), (7,), subset_uid))],
            )],
        ))

    def run(blob):
        status, result = loads(worker.run_shard_bytes(blob))
        assert status == "ok", result
        return result.plan_hit, loads(result.tasks[0].value_blob)

    bare = dumps(plan())
    try:
        worker.reset_state()
        assert run(install("A")) == (False, "A")
        assert run(bare) == (False, "A")
        assert run(bare) == (True, "A")          # memoized by its bytes
        region_a = worker._REGIONS[uid]
        worker.reset_state()
        assert run(install("B")) == (False, "B")
        assert run(bare) == (False, "B")
        assert worker._REGIONS[uid].storage("x")[0] == 2.0
        assert region_a.storage("x")[0] == 3.0   # A was not written again
    finally:
        worker.reset_state()
