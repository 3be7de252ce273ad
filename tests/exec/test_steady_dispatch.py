"""Steady dispatch without rebuilding (exec/parallel.py, exec/worker.py).

The dispatch unit is a worker's slice of a launch, so a replayed launch
costs O(workers) frames and objects on each side of the pipe however many
nodes it spans, and O(1) Python per unit: each unit's undo slots sit at
fixed offsets in its worker's one segment, so the parent names the same
slots again and ships the memoized blob as it is, and the worker runs the
bytes it has seen before from its plan memo, without unpickling,
installing or expanding them.  These tests hold that by count, check the
fault ladder on the warm fast paths, and check that a worker's plan memo
dies with the state its expansions point into.
"""

import dataclasses
import os
import sys
import time

import numpy as np
import pytest

from repro.core.domain import Point
from repro.core.projection import IdentityFunctor, ModularFunctor
from repro.data.partition import equal_partition
from repro.data.privileges import Privilege, PrivilegeSpec
from repro.exec import parallel, wire, worker
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

#: pipe workers, whatever the environment picks for the suite
MAPPED = dict(workers=2, transport="pipe")
GROUPS = 4
#: n_nodes=4 over workers=2: two nodes, one unit, per worker
UNITS = 2


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)
    return int(ctx.point[0])


def _runtime(**cfg):
    shutdown_pools()
    rt = Runtime(RuntimeConfig(n_nodes=4, dcr=True, **cfg))
    if cfg.get("transport") == "pipe" and not rt.backend.pool().arena.available:
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


class _Wire:
    """Parent-side counts: SHARD frames packed, RESULT frames decoded,
    and unit results unpickled by the backend's ``loads``."""

    def __init__(self, monkeypatch):
        self.shards = self.results = self.result_loads = 0
        pack, decode, load = wire.pack_frame, wire.FrameDecoder.next, \
            parallel.loads

        def counting_pack(msg, *args, **kwargs):
            self.shards += msg == wire.SHARD
            return pack(msg, *args, **kwargs)

        def counting_next(decoder):
            frame = decode(decoder)
            self.results += frame is not None and frame.msg == wire.RESULT
            return frame

        def counting_loads(blob):
            out = load(blob)
            self.result_loads += isinstance(out, tuple)
            return out

        monkeypatch.setattr(wire, "pack_frame", counting_pack)
        monkeypatch.setattr(wire.FrameDecoder, "next", counting_next)
        monkeypatch.setattr(parallel, "loads", counting_loads)


def _counters(rt, spy=None):
    backend, arena = rt.backend, rt.backend.pool().arena
    out = dict(
        segments=arena.stats.segments_created,
        write_slots=arena.stats.write_slots,
        bytes_slotted=arena.stats.bytes_slotted,
        rewinds=arena.stats.rewinds,
        worker_plan_hits=backend.stats.worker_plan_hits,
        shards=backend.stats.shards_dispatched,
        memo_hits=backend.stats.plan_memo_hits,
    )
    if spy is not None:
        out.update(shards_frames=spy.shards, result_frames=spy.results,
                   result_loads=spy.result_loads)
    return out


def _steady(pieces, warmup=3, steady=3, forget=False, spy=None, **cfg):
    """Run the fan-out loop; per steady launch, the counter deltas.
    ``forget`` drops the parent's plan memo before every steady launch, so
    each one builds its units, plans and undo sets afresh."""
    rt = _runtime(**cfg)
    loop = _Fanout(rt, pieces)
    for _ in range(warmup):
        loop.op()
    deltas = []
    last = [_counters(rt, spy)]

    def note():
        now = _counters(rt, spy)
        deltas.append({k: v - last[0][k] for k, v in now.items()})
        last[0] = now
        if forget:
            rt.backend._plan_memo.clear()

    if forget:
        rt.backend._plan_memo.clear()

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
        off_rt, off, off_deltas = _steady(pieces, forget=True, **MAPPED)
        off_bytes = off.storage()
        rt, loop, deltas = _steady(pieces, **MAPPED)

        assert len(deltas) == 3 * GROUPS
        for d in deltas:
            assert d["shards"] == UNITS                  # every launch fans out
            assert d["segments"] == 0                    # the slots are reused
            assert d["worker_plan_hits"] == d["shards"]  # and never unpickled
            assert d["write_slots"] == pieces            # one slot per point
        # Reusing a unit's slots charges exactly what laying them out did.
        keys = ("write_slots", "bytes_slotted", "rewinds", "segments")
        assert [{k: d[k] for k in keys} for d in deltas] == [
            {k: d[k] for k in keys} for d in off_deltas
        ]
        assert all(d["memo_hits"] == 0 for d in off_deltas)
        assert rt.backend.stats.fallbacks == 0
        assert full_stats(rt) == full_stats(off_rt) == full_stats(ref_rt)
        assert loop.storage() == off_bytes == ref.storage()

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    @pytest.mark.parametrize("pieces", [8, 64])
    def test_one_frame_each_way_per_worker(self, pieces, transport,
                                           monkeypatch):
        """Four nodes on two workers: a steady launch is two units — two
        SHARD frames out, two RESULT frames in, two results unpickled —
        where one per node used to be four of each."""
        ref_rt = _runtime(workers=1)
        ref = _Fanout(ref_rt, pieces)
        for _ in range(6):
            ref.op()
        spy = _Wire(monkeypatch)
        rt, loop, deltas = _steady(pieces, spy=spy, workers=2,
                                   transport=transport)

        mapped = rt.backend.pool().arena.available
        assert len(deltas) == 3 * GROUPS
        for d in deltas:
            assert d["shards_frames"] == d["result_frames"] == UNITS
            assert d["result_loads"] == UNITS
            assert d["shards"] == d["memo_hits"] == UNITS
            assert d["segments"] == 0
            # Socket plans carry their read footprints, so no two are the
            # same bytes and the worker memo never holds one.
            assert d["worker_plan_hits"] == (d["shards"] if mapped else 0)
        assert mapped == (transport == "pipe")
        assert rt.backend.stats.fallbacks == 0
        assert full_stats(rt) == full_stats(ref_rt)
        assert loop.storage() == ref.storage()


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


def test_profile_bench_summary_prints_worker_plan_hits(capsys):
    from repro.cli import main

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
    point 1 — the later of node 0's two points, ahead of node 2's in worker
    0's unit — ``kind`` fires once (the first process to create
    ``marker``); ``lost`` never fires here.  No fault injector is armed, so
    the plan memos stay on."""
    x = r.read("x") + 1.0
    r.write("x", x)
    if ctx.runtime is not None or tuple(ctx.point) != (1,) or x[0] != 4.0 \
            or kind == "lost":
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
    worker's attempt of the same dispatch already named: each worker has a
    segment of its own (exec/shm.py), so the list stays empty.  A retry on
    the same worker names its own slots again by design."""
    owner, shared = {}, []
    submit = pool.submit_shards

    def spy(k, items):
        epoch = pool.arena.stats.rewinds + pool.arena.stats.abandons
        for _, plan in items:
            named = [plan.undo_done] + [
                slot for point in plan.undo_slots or () for slot in point
            ]
            for slot in filter(None, named):
                key = (epoch, slot[0], slot[1])
                if owner.setdefault(key, k) != k:
                    shared.append(key[1:])
        return submit(k, items)

    pool.submit_shards = spy
    return shared


class TestLadderOnAWarmMemo:
    """Kill, hang and corrupt in the 4th launch of a steady ``+=`` loop,
    once the parent memo, the reused undo slots and the worker memo are
    warm — and ``lost``: worker 0 dies between the 3rd and the 4th launch.
    Node 2 shares worker 0's unit with node 0 and follows it: a kill or
    hang at point 1 means node 2's points never ran.  A lost worker runs
    none of its unit, so the unit's reused progress counter must read 0 —
    not the last launch's 4 — when it is restored.  The corrupt retry
    reuses its own slots, which no other worker may name."""

    @pytest.mark.parametrize("kind, timeout", [
        ("kill", 30.0), ("hang", 0.3), ("corrupt", 30.0), ("lost", 30.0),
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
                    shared = _slot_spy(rt.backend.pool())
                    warm = _counters(rt)
                if rt is not ref_rt and n == 3 and kind == "lost":
                    rt.backend.pool().transport.drop_connection(0)
                rt.index_launch(bump_faulting, 8, part, args=(kind, marker))
                if rt is not ref_rt and n == 2:
                    # The 3rd launch ran on all three fast paths.
                    now = _counters(rt)
                    assert now["segments"] == warm["segments"]
                    assert now["worker_plan_hits"] == warm[
                        "worker_plan_hits"] + UNITS
                    assert rt.backend.stats.plan_memo_blob_reuse == UNITS
            runs.append(region.storage("x").tobytes())
        assert os.path.exists(marker) == (kind != "lost")
        assert shared == []
        assert runs[0] == runs[1] == np.full(32, 6.0).tobytes()
        stats = rt.backend.stats
        assert stats.fallbacks == 0
        assert stats.shard_retries + stats.worker_respawns >= 1
        if kind != "lost":
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
            nodes=[0], points=[(0,)], ordinals=[0], task_uid=name_of.uid,
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
        return result.plan_hit, loads(result.values)[0]

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


# ---------------------------------------------- a memo hit builds nothing
@task(privileges=["reads writes"])
def bump_id(ctx, r):
    r.write("x", r.read("x") + 1.0)
    return id(ctx)


def test_a_memo_hit_builds_no_per_point_object(monkeypatch):
    """A unit's second run from the worker's plan memo builds no accessor,
    context or undo-slot view: its expansion holds each point's context,
    accessors and argument tuple, and each slot's view is kept beside the
    segment's mapping.  Counted on one four-point unit run twice in
    process, with real undo slots in a real arena segment."""
    from repro.exec.shm import _create_segment, _unlink_segment
    from repro.runtime.task import PhysicalRegion, TaskContext

    uid, part_uid = 10**9 + 10, 10**9 + 11
    points = [(0,), (1,), (2,), (3,)]
    name, mm = _create_segment(f"reproshm-{os.getpid()}memotest", 4096)
    slots = [[(name, 64 + 16 * i, 2, "<f8")] for i in range(len(points))]
    req = ReqTemplate(
        priv=priv_token(PrivilegeSpec(Privilege.READ_WRITE)),
        fields=("x",), resolved_fields=("x",),
        partition_uid=part_uid, region_uid=uid, functor=IdentityFunctor(),
    )
    common = dict(
        nodes=[0, 0, 1, 1], points=points, ordinals=[0, 1, 2, 3],
        task_uid=bump_id.uid, args=(), point_extra_args=None, reqs=[req],
        read_data=[], profile=False, undo_slots=slots,
        undo_done=(name, 0, 1, "<i8"),
    )
    install = dumps(ShardPlan(
        task_blob=dumps(bump_id),
        regions=[(uid, "memo", (0,), (7,), (("x", "<f8"),), None)],
        partitions=[PartitionEntry(
            uid=part_uid, region_uid=uid,
            colors=[((c,), ("rect", (2 * c,), (2 * c + 1,), 10**9 + 12 + c))
                    for c in range(4)],
        )],
        **common,
    ))
    bare = dumps(ShardPlan(task_blob=None, regions=[], partitions=[],
                           **common))
    built = {code: 0 for code in (PhysicalRegion.__init__.__code__,
                                  TaskContext.__init__.__code__)}
    views = []
    shm_view = worker._shm_view

    def spy_view(slot):
        views.append(shm_view(slot))
        return views[-1]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in built:
            built[frame.f_code] += 1

    def run(blob):
        views.clear()
        for code in built:
            built[code] = 0
        sys.setprofile(profile)
        try:
            status, result = loads(worker.run_shard_bytes(blob))
        finally:
            sys.setprofile(None)
        assert status == "ok", result
        return result.plan_hit, loads(result.values), list(views), \
            sorted(built.values())

    monkeypatch.setattr(worker, "_shm_view", spy_view)
    try:
        worker.reset_state()
        run(install)
        hit0, ctxs0, views0, built0 = run(bare)    # expands and memoizes
        hit1, ctxs1, views1, built1 = run(bare)    # the memo hit
        assert (hit0, hit1) == (False, True)
        assert built0 == [4, 4] and built1 == [0, 0]
        assert ctxs1 == ctxs0                     # the same contexts
        assert len(views1) == len(views0) == 1 + len(points)
        assert all(a is b for a, b in zip(views1, views0))
        assert list(worker._REGIONS[uid].storage("x")) == [3.0] * 8
        # the undo slots hold what the last run found there
        assert list(np.frombuffer(mm, "<f8", 8, 64)) == [2.0] * 8
    finally:
        worker.reset_state()
        _unlink_segment(os.getpid(), name)
