"""Dense footprints cross the process boundary as boxes, not index arrays.

On the pickled path the parallel backend moves a rectangular footprint as
``(lo, hi)`` plus one strided slice copy at each of its copy sites (parent
gather, worker install, worker gather-back, parent commit); on mapped
regions the one copy left is the worker's undo gather.  Everything
observable must stay byte-identical to the serial backend on every
transport, clean and while the recovery ladder climbs — in particular for
a 2-D halo stencil with several points per shard, where one shard's read
set holds halo boxes that genuinely overlap — and sparse (Circuit)
footprints must keep travelling in the index form.
"""

import gc
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.apps.circuit import CircuitConfig, build_circuit, run_circuit
from repro.apps.stencil import (
    StencilConfig,
    build_stencil,
    reference_stencil,
    run_stencil,
)
from repro.core.projection import ModularFunctor
from repro.data.partition import equal_partition
from repro.exec.parallel import _unit_footprints
from repro.exec.pool import shutdown_pools
from repro.exec.transport import TRANSPORTS
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import Runtime, RuntimeConfig, task

STENCIL = StencilConfig(n=24, blocks=(4, 2), radius=2, steps=3)

#: the transports, and pipe workers over regions left unmapped, as the
#: instance fallback of a full ``/dev/shm`` leaves them: every footprint
#: pickled.
LEGS = {
    "pipe": dict(transport="pipe"),
    "socket": dict(transport="socket"),
    "pipe-noshm": dict(transport="pipe", mapped=False),
}

FAST_RETRY = RetryPolicy(
    same_worker_retries=1, respawns=2, backoff_base_s=1e-4,
    backoff_cap_s=1e-3, shard_timeout_s=30.0,
)

FAULTS = {
    "kill": FaultSpec(kind="kill", scope="worker", target=(0,),
                      phase="execution"),
    "corrupt": FaultSpec(kind="corrupt", scope="worker", target=(0,),
                         phase="execution"),
    "kill-install": FaultSpec(kind="kill", scope="shard", target=(0,),
                              phase="install"),
}


def _maps(leg: dict) -> bool:
    """Whether the leg's regions are mapped into the workers."""
    return leg.get("mapped", True) and TRANSPORTS[leg["transport"]].local_shm


def _leg_runtime(workers, mapped=True, **cfg):
    """A runtime whose regions get no segment unless ``mapped``."""
    rt = Runtime(RuntimeConfig(n_nodes=2, workers=workers, **cfg))
    if not mapped:
        rt.backend.map_region = lambda region: None
    return rt


def _stencil(workers, **cfg):
    rt = _leg_runtime(workers, **cfg)
    grid = build_stencil(rt, STENCIL)
    out = run_stencil(rt, grid)
    return rt, out.tobytes(), grid.grid.storage("input").tobytes()


@pytest.fixture(scope="module")
def serial_stencil():
    _, out, inp = _stencil(1)
    assert out == reference_stencil(STENCIL).tobytes()
    return out, inp


class TestHaloStencil:
    def test_one_shard_holds_overlapping_halo_boxes(self):
        """The shape this file is about: 8 points on 2 nodes, so a shard's
        'input' read set is four halo boxes that overlap pairwise and
        cannot be coalesced, while its 'output' blocks tile one box."""
        rt = Runtime(RuntimeConfig(n_nodes=2, workers=1))  # unmapped storage
        grid = build_stencil(rt, STENCIL)
        colors = [(i, j) for i in range(2) for j in range(2)]
        projs = [[grid.halo[c], grid.interior[c]] for c in colors]

        @task(privileges=["reads", "reads writes"],
              fields=[("input",), ("output",)])
        def body(ctx, halo, out):
            pass

        launch_reqs = rt._build_requirements(body, [grid.halo, grid.interior])
        fps = _unit_footprints(launch_reqs, projs)
        reads = {}
        for fp in fps.reads:                      # one entry per field
            assert fp.head[0] == "box"            # corners, no index arrays
            assert fp.where.size == 4 * len(fp.parts)
            reads[fp.fname] = [sub.subset.rect for sub, _, _ in fp.parts]
        assert len(reads["input"]) == 4
        assert any(a.overlaps(b) for a in reads["input"]
                   for b in reads["input"] if a is not b)
        assert len(reads["output"]) == 1          # 2x2 blocks coalesced
        assert [len(point) for point in fps.writes] == [1, 1, 1, 1]

    @pytest.mark.parametrize("leg", sorted(LEGS))
    def test_parallel_equals_serial(self, leg, serial_stencil):
        shutdown_pools()
        rt, out, inp = _stencil(2, **LEGS[leg])
        assert (out, inp) == serial_stencil
        bstats = rt.backend.stats
        assert bstats.parallel_launches == 2 * STENCIL.steps
        assert bstats.fallbacks == 0
        shm = rt.backend.pool().arena.stats
        if _maps(LEGS[leg]):
            # bodies work on the mapped instance: only undo slots move
            assert shm.bytes_staged == shm.read_fallbacks == 0
            assert shm.write_fallbacks == 0 and shm.write_slots > 0
            # one reservation per worker per dispatch, nothing retired
            assert shm.segments_created == 2
            assert shm.segments_unlinked == 0
        else:
            assert shm.write_slots == shm.bytes_slotted == 0

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("leg", sorted(LEGS))
    def test_identical_under_the_fault_ladder(self, leg, fault,
                                              serial_stencil):
        plan = FaultPlan(specs=(FAULTS[fault],))
        rt, out, inp = _stencil(
            2, fault_plan=plan, retry=FAST_RETRY, **LEGS[leg]
        )
        assert rt.fault_injector.fired_count >= 1
        assert rt.stats.launches_poisoned == 0
        bstats = rt.backend.stats
        assert bstats.shard_retries + bstats.worker_respawns >= 1
        assert (out, inp) == serial_stencil

    def test_batched_commit_is_one_op_per_region_field(self, serial_stencil):
        # pickled write-backs: mapped fields have nothing to commit
        rt, out, _ = _stencil(2, **LEGS["pipe-noshm"])
        # each launch writes one (region, field), as 8 boxes
        assert rt.backend.stats.batched_commit_ops == 2 * STENCIL.steps


class TestCircuitKeepsTheIndexForm:
    CONFIG = CircuitConfig(n_pieces=4, nodes_per_piece=12,
                           wires_per_piece=20, steps=3)

    def _run(self, workers, **cfg):
        rt = _leg_runtime(workers, **cfg)
        graph = build_circuit(rt, self.CONFIG)
        voltages = run_circuit(rt, graph)
        return rt, voltages.tobytes(), graph.nodes.storage("charge").tobytes()

    @pytest.mark.parametrize("tracing", [True, False])
    @pytest.mark.parametrize("leg", sorted(LEGS))
    def test_parallel_equals_serial(self, leg, tracing):
        shutdown_pools()
        _, *serial = self._run(1, tracing=tracing)
        rt, *parallel = self._run(2, tracing=tracing, **LEGS[leg])
        assert parallel == serial
        assert rt.backend.stats.parallel_launches > 0
        assert rt.backend.stats.fallbacks == 0
        shm = rt.backend.pool().arena.stats
        if _maps(LEGS[leg]):
            # sparse footprints are undone through their index arrays
            assert shm.bytes_staged == 0 and shm.write_slots > 0

    def test_identical_under_a_worker_kill(self):
        _, *serial = self._run(1)
        plan = FaultPlan(specs=(FAULTS["kill"],))
        rt, *parallel = self._run(
            2, transport="pipe", fault_plan=plan, retry=FAST_RETRY
        )
        assert rt.fault_injector.fired_count >= 1
        assert parallel == serial


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


def arena_mappings() -> int:
    """How many arena segments this process has mapped right now (region
    instances, ``reproshm-<pid>pr<uid>``, are not arena ones)."""
    with open("/proc/self/maps") as fh:
        # field 6 is the path; a retired segment reads "... (deleted)"
        return len({line.split()[5] for line in fh
                    if re.search(r"reproshm-\d+p\d+w", line)})


@task(privileges=["reads writes"])
def mapped_segments(ctx, r):
    """:func:`arena_mappings`, in the worker running this point."""
    return arena_mappings()


def children(pid: int) -> list:
    """Live child processes of ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            out.append(int(entry))
    return sorted(out)


def _shm_runtime(**cfg):
    """A runtime on fresh pipe workers with the arena on, whatever the
    environment selects for the rest of the suite.  Earlier tests'
    runtimes are collected first: their plan memos still view segments of
    their pools, and workers forked now would inherit those mappings."""
    shutdown_pools()
    gc.collect()
    rt =Runtime(RuntimeConfig(workers=2, transport="pipe", **cfg))
    if not rt.backend.pool().arena.available:
        pytest.skip("no shared memory on this platform")
    return rt


class TestArena:
    def test_blob_reuse_equals_memo_hits_in_steady_state(self):
        """perfbench's dispatch_fanout launch stream: four 8-piece regions
        of 8-double footprints, identity and rotated projections
        alternating, one trace per op.  The arena rewinds to the same
        offsets, so every memo hit resends its pickled blob."""
        rt = _shm_runtime(n_nodes=4, tracing=True)
        regions, reqs = [], []
        for g in range(4):
            region = rt.create_region(f"df{g}", 64, {"x": "f8"})
            region.storage("x")[:] = np.arange(64.0) + g
            part = equal_partition(f"df_p{g}", region, 8)
            regions.append(region)
            reqs.append(part if g % 2 == 0 else (part, ModularFunctor(8, 3)))

        def op():
            rt.begin_trace(2)
            for req in reqs:
                rt.index_launch(bump, 8, req)
            rt.end_trace(2)
            rt.drain()

        for _ in range(4):
            op()
        stats = rt.backend.stats
        hits, reuse = stats.plan_memo_hits, stats.plan_memo_blob_reuse
        for _ in range(6):
            op()
        assert stats.plan_memo_hits - hits == 6 * 4 * 2   # every unit
        assert stats.plan_memo_blob_reuse - reuse == stats.plan_memo_hits - hits
        assert stats.fallbacks == 0
        for g, region in enumerate(regions):
            assert np.array_equal(region.storage("x"),
                                  np.arange(64.0) + g + 10.0)
        shm = rt.backend.pool().arena.stats
        assert shm.bytes_staged == 0 and shm.write_slots > 0

    def test_workers_release_retired_segments(self):
        """Every cycle the parent abandons its segments and the next
        dispatch grows fresh ones; a worker that cached every attachment
        would end with 50+ dead mappings kept resident."""
        rt = _shm_runtime(n_nodes=4)
        region = rt.create_region("leak", 4096, {"x": "f8"})
        part = equal_partition("leak_p", region, 8)
        arena = rt.backend.pool().arena
        worst = 0
        for cycle in range(60):
            fmap = rt.index_launch(mapped_segments, 8, part)
            worst = max(worst, *(fmap.get((i,)) for i in range(8)))
            arena.abandon_all()
        assert rt.backend.stats.parallel_launches == 60
        assert arena.stats.segments_created >= 60
        # the live segment and the one just retired, plus the parent's own
        # mappings of the first dispatch's two segments: workers are forked
        # at first submit and inherit what the parent had mapped by then
        assert worst <= 4
        assert arena.stats.worker_releases >= 100

    def test_fallbacks_do_not_pin_arena_mappings(self):
        """Corrupt on every attempt with a ladder of zero rungs: each of 40
        launches over a 512 KiB region falls back to serial and retires
        both workers' segments.  A retired segment unmaps with its last
        view, so the parent maps no more of them after the 40th fallback
        than after the first."""
        plan = FaultPlan(specs=(FaultSpec(
            kind="corrupt", scope="worker", target=(0,), phase="execution",
            times=-1,
        ),))
        no_ladder = RetryPolicy(same_worker_retries=0, respawns=0,
                                backoff_base_s=1e-4, backoff_cap_s=1e-3,
                                shard_timeout_s=30.0)
        rt = _shm_runtime(n_nodes=2, fault_plan=plan, retry=no_ladder)
        region = rt.create_region("pin", 1 << 16, {"x": "f8"})
        part = equal_partition("pin_p", region, 4)
        mapped = []
        for _ in range(40):
            rt.index_launch(bump, 4, part)
            mapped.append(arena_mappings())
        assert rt.backend.stats.fallbacks == 40
        assert rt.backend.pool().arena.stats.segments_created >= 80
        assert np.array_equal(region.storage("x"), np.full(1 << 16, 40.0))
        assert mapped[-1] <= mapped[0]

    def test_pipe_process_tree_is_the_workers(self, tmp_path):
        """A pipe run forks its workers and nothing else: no bookkeeping
        process rides along beside them."""
        script = (
            "from repro.data.partition import equal_partition\n"
            "from repro.runtime import Runtime, RuntimeConfig\n"
            "from tests.exec.test_box_footprints import bump, children\n"
            "import os\n"
            "rt = Runtime(RuntimeConfig(n_nodes=2, workers=2,"
            " transport='pipe'))\n"
            "r = rt.create_region('t', 4096, {'x': 'f8'})\n"
            "rt.index_launch(bump, 4, equal_partition('p', r, 4))\n"
            "assert r.instance is not None\n"
            "assert rt.backend.stats.parallel_launches == 1\n"
            "transport = rt.backend.pool().transport\n"
            "print(sorted(transport._handle(k).pid for k in range(2)))\n"
            "print(children(os.getpid()))\n"
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
        workers, kids = out.stdout.splitlines()[-2:]
        assert kids == workers
