"""The five workloads.  Names are permanent; ``README.md`` says why each
exists and which optimisation each bypasses.

A workload is built from a seed (the program sees the generated inputs,
never the seed), warmed for a fixed number of ops, driven in a closed loop
for a fixed time, then checked against an oracle that does not go through
the configuration under test.  Importing this module starts nothing: the
service subprocess and the pipe workers import it to unpickle the task
bodies below.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.stencil import (
    StencilConfig,
    build_stencil,
    increment,
    reference_stencil,
    star_weights,
    stencil_step,
)
from repro.core.domain import Domain
from repro.core.projection import ModularFunctor
from repro.data.partition import equal_partition
from repro.exec.plan import dumps
from repro.exec.pool import shutdown_pools
from repro.runtime.kernels import GLOBAL_CHECK_KERNELS
from repro.runtime.runtime import Runtime, RuntimeConfig
from repro.runtime.task import task

from perfbench import OUT, ROOT, SRC
from perfbench.hygiene import cpus, spin

__all__ = ["WORKLOADS", "Workload", "RoundResult"]

#: a calibration spin between ops this often (see metrics.py)
SPIN_EVERY_S = 0.05
#: a client that waits this long for its peer at a calibration pause gives up
PAUSE_TIMEOUT_S = 60.0

#: what the parallel workloads give the system under test (nproc is 2 here)
WORKERS = 2
TRANSPORT = "pipe"
NODES = 4


def _noop_fn(ctx, r):
    pass


def _bump_fn(ctx, r):
    r.write("x", r.read("x") + 1.0)


# Wrapped under a second name so the functions pickle by reference into the
# workers and the service (a Task shadowing its own function cannot).
NOOP = task(privileges=["reads writes"])(_noop_fn)
BUMP = task(privileges=["reads writes"])(_bump_fn)


@dataclass
class RoundResult:
    """What one timed closed loop produced."""

    #: per op, in completion order: (end, seconds on the loop's clock),
    #: (latency, seconds)
    samples: List[Tuple[float, float]] = field(default_factory=list)
    #: calibration spins taken between ops: (when, seconds it took)
    spins: List[Tuple[float, float]] = field(default_factory=list)
    wall: float = 0.0
    failures: List[str] = field(default_factory=list)   # one line per failed op
    window: Optional[Dict[str, int]] = None             # exact-count deltas


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


class Workload:
    name = ""
    why = ""
    #: the op_tail_us percentile: the highest of 99/95/90 that leaves at
    #: least ten samples beyond it in a 12 s run *and* repeats from run to
    #: run on this box (README, "noise": beyond it the neighbours' bursts
    #: set the value, not the program).
    tail_percentile = 99
    warmup_ops = 16
    #: ops in the exact-count window that opens the timed loop; counters
    #: are read before op 0 and after op ``count_ops - 1``, so count metrics
    #: do not depend on how many ops the machine fits into a round.
    count_ops = 32
    #: must run on the worker pool: a serial fallback is a failed op.
    parallel = False
    #: the tasks whose bodies the ops run (timed in the serial sub-run)
    tasks: tuple = ()

    def __init__(self, seed: int, workers: int = 1, tracer=None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workers = workers
        #: the traced pass's span recorder (None on the untraced pass)
        self.tracer = tracer
        self.ops_done = 0

    def wrap_op(self, fn: Callable) -> Callable:
        """``fn`` as one op: a root span when traced, itself otherwise."""
        return self.tracer.root(fn) if self.tracer else fn

    # -- the five steps of a round, in order
    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(self.warmup_ops):
            self.op()

    def run(self, seconds: float) -> RoundResult:
        """Single-threaded closed loop: the next op starts when the
        previous one has returned.  Every ``SPIN_EVERY_S`` the loop stops
        for one calibration spin — nothing of the program is in flight
        then — and the loop's clock skips it."""
        out = RoundResult()
        op = self.wrap_op(self.op)
        clock = time.perf_counter
        before = self.counters()
        start = clock()     # moved forward past every calibration spin
        now, next_spin = 0.0, 0.0
        while True:
            if now >= next_spin:
                t_spin = clock()
                out.spins.append((now, spin()))
                start += clock() - t_spin
                next_spin = now + SPIN_EVERY_S
                if now >= seconds:
                    break
            t0 = clock()
            try:
                op()
            except Exception as exc:  # a failed op is counted, not fatal
                out.failures.append(f"{type(exc).__name__}: {exc}")
            t1 = clock()
            now = t1 - start
            out.samples.append((now, t1 - t0))
            if len(out.samples) == self.count_ops:
                out.window = _delta(before, self.counters())
                self.on_window()
            if now >= seconds:
                next_spin = now     # one last spin closes the loop
        out.wall = now
        return out

    def check(self) -> List[str]:
        """Oracle: one line per wrong output (empty = correct)."""
        raise NotImplementedError

    def close(self) -> None:
        shutdown_pools()

    def input_digest(self) -> str:
        """Hash of everything ``build`` generated from the seed."""
        digest = hashlib.sha1()
        for item in self.inputs():
            digest.update(np.asarray(item).tobytes())
        return digest.hexdigest()

    # -- hooks
    def op(self) -> None:
        raise NotImplementedError

    def inputs(self) -> list:
        return []

    def on_window(self) -> None:
        pass

    def counters(self) -> Dict[str, int]:
        out = _runtime_counters(self.rt)
        if self.tracer:
            out.update(self.tracer.counts())
        return out

    def pool(self):
        """The worker pool under test (None on serial workloads)."""
        backend = self.rt.backend
        return backend.pool() if hasattr(backend, "pool") else None

    # -- what only the traced pass measures
    def traced_extras(self) -> Dict[str, float]:
        """Measured after the timed loop, with the workload still up."""
        pool = self.pool()
        if pool is None:
            return {}
        return {"roundtrip_us": _roundtrip_us(pool),
                "shm_segments": pool.arena.stats.segments_created}

    def comparison_run(self, seconds: float) -> dict:
        """Measured after ``close``: the same problem on ``workers=1`` —
        the base of ``exec.parallel.speedup_vs_serial``, and the only place
        task bodies run where the tracer can see them."""
        if not (self.parallel and self.workers > 1):
            return {}
        if cpus() < 2:
            return {"speedup_refused":
                    "fewer than 2 CPUs: wall-clock scaling not reported"}
        serial = type(self)(self.seed, workers=1, tracer=self.tracer)
        serial.build()
        serial.warm_up()
        bodies = [(task, task.fn) for task in serial.tasks]
        for task, body in bodies:
            task.fn = self.tracer.wrap("apps.body", body)
        try:
            self.tracer.enabled = True
            res = serial.run(seconds)
        finally:
            self.tracer.enabled = False
            for task, body in bodies:
                task.fn = body
        spans = self.tracer.per_op(self.tracer.take(), len(res.samples))
        failures = res.failures + serial.check()
        serial.close()
        return {
            "serial_p50_us": float(np.median([s for _, s in res.samples])) * 1e6,
            "serial_body_us": spans.get("apps.body", {}).get("self_us", 0.0),
            "failures": failures,
        }

    def _config(self, **kwargs) -> RuntimeConfig:
        return RuntimeConfig(
            n_nodes=NODES, dcr=True, workers=self.workers,
            transport=TRANSPORT if self.workers > 1 else None, **kwargs
        )

    def _fallback_failures(self) -> List[str]:
        """A parallel workload that quietly ran serially did not run."""
        if not (self.parallel and self.workers > 1):
            return []
        stats = self.rt.backend.stats
        bad = []
        if stats.fallbacks:
            bad.append(f"{stats.fallbacks} dispatches fell back to serial")
        if stats.serial_launches:
            bad.append(f"{stats.serial_launches} launches never reached "
                       f"the pool")
        return bad


def _runtime_counters(rt) -> Dict[str, int]:
    """Every monotone public counter of one in-process runtime."""
    stats = rt.stats
    memo = rt.replay_cache.check_memo
    out = {
        "repr_units": sum(stats.representation.values()),
        "check_evaluations": stats.check_evaluations,
        "analysis_cache_hits": stats.analysis_cache_hits,
        "launch_replays": stats.launch_replays,
        "fallback_serial": stats.launches_fallback_serial,
        "overlap_queries": stats.overlap_queries,
        "tasks_executed": stats.tasks_executed,
        "replay_evictions": rt.replay_cache.evictions,
        "check_memo_hits": memo.hits,
        "check_memo_misses": memo.misses,
        "check_kernel_hits": GLOBAL_CHECK_KERNELS.hits,
        "check_kernel_misses": GLOBAL_CHECK_KERNELS.misses,
        "dependence_replays": rt.physical.kernel_replays,
    }
    bstats = getattr(rt.backend, "stats", None)
    if bstats is not None:
        for key in ("parallel_launches", "serial_launches", "fallbacks",
                    "shards_dispatched", "shard_retries", "worker_respawns",
                    "batched_commit_ops", "plan_memo_hits"):
            out[key] = getattr(bstats, key)
        arena = rt.backend.pool().arena.stats
        out["shm_bytes_staged"] = arena.bytes_staged + arena.bytes_slotted
        out["shm_fallbacks"] = arena.read_fallbacks + arena.write_fallbacks
        out["shm_rewinds"] = arena.rewinds
        out["shm_segments"] = arena.segments_created
    return out


def _roundtrip_us(pool, n: int = 200) -> float:
    """p50 of a BATCH round trip on the idle pool: the floor under any op
    that waits for a worker."""
    blob = dumps(ModularFunctor(8, 1))
    points = np.arange(8, dtype=np.int64).reshape(8, 1)
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        pool.transport.submit_batch(0, blob, points).result()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e6


def _seeded_field(rng: random.Random, n: int) -> np.ndarray:
    """Seeded values on a 1/64 grid: adding 1.0 any number of times stays
    exact, so ``initial + ops`` is a byte-for-byte oracle."""
    return np.array([rng.randrange(-4096, 4096) / 64.0 for _ in range(n)])


# ------------------------------------------------------------ replay_steady
class ReplaySteady(Workload):
    name = "replay_steady"
    why = ("steady-state traced replay from hot caches: the paper's O(1) "
           "issuance claim; runtime layers do almost all the work")
    pieces = 64
    tail_percentile = 90

    def build(self):
        self.rt = Runtime(self._config(tracing=True))
        region = self.rt.create_region("rs", self.pieces * 4, {"x": "f8"})
        self.initial = _seeded_field(self.rng, self.pieces * 4)
        region.storage("x")[:] = self.initial
        self.region = region
        self.part = equal_partition("rs_p", region, self.pieces)
        # identity -> static verdict; rotation -> dynamic verdict
        self.rotation = ModularFunctor(
            self.pieces, self.rng.randrange(1, self.pieces)
        )

    def inputs(self):
        return [self.initial, self.rotation.k]

    def op(self):
        rt = self.rt
        rt.begin_trace(1)
        rt.index_launch(NOOP, self.pieces, self.part)
        rt.index_launch(NOOP, self.pieces, (self.part, self.rotation))
        rt.end_trace(1)
        self.ops_done += 1

    def check(self):
        stats, n = self.rt.stats, self.ops_done
        bad = []
        if not np.array_equal(self.region.storage("x"), self.initial):
            bad.append("no-op launches changed the region")
        if (stats.launches_verified_static, stats.launches_verified_dynamic,
                stats.tasks_executed) != (n, n, 2 * self.pieces * n):
            bad.append(
                f"{n} ops but verified static/dynamic/tasks = "
                f"{stats.launches_verified_static}/"
                f"{stats.launches_verified_dynamic}/{stats.tasks_executed}"
            )
        if stats.launches_fallback_serial or stats.launches_unverified:
            bad.append("a launch was not verified")
        return bad


# -------------------------------------------------------------- first_issue
class FirstIssue(Workload):
    name = "first_issue"
    why = ("every launch signature misses a 16-entry cache budget: the "
           "write/miss path of the layers replay_steady reads, so work "
           "moved to first issue shows")
    n_regions = 8
    n_functors = 8
    points = 32
    budget = 16
    tail_percentile = 95
    warmup_ops = 64         # one full cycle: every fixed check kernel exists
    count_ops = 64          # exactly one cycle

    def build(self):
        rng = self.rng
        self.rt = Runtime(self._config(
            tracing=False, cache_entry_budget=self.budget
        ))
        self.initial, self.regions, self.parts = [], [], []
        for i in range(self.n_regions):
            region = self.rt.create_region(
                f"fi{i}", self.points * 4, {"x": "f8"}
            )
            init = _seeded_field(rng, self.points * 4)
            region.storage("x")[:] = init
            self.initial.append(init)
            self.regions.append(region)
            self.parts.append(equal_partition(f"fi_p{i}", region, self.points))
        n_sigs = self.n_regions * self.n_functors
        # 64 distinct offsets: 64 signatures and 64 distinct check keys, so
        # neither the replay cache nor the check memo (16 entries each) ever
        # holds the one being issued.
        self.offsets = rng.sample(range(1, 1 << 12), n_sigs)
        #: one functor column is deliberately not injective (modulus 16
        #: under 32 points): reported unsafe, runs as the fallback loop.
        #: Its offset moves every cycle, so those eight issues per cycle
        #: are new to the process-wide check kernels too.
        self.bad = rng.randrange(self.n_functors)
        self.order = list(range(n_sigs))
        rng.shuffle(self.order)
        self.window_snapshot = None

    def inputs(self):
        return self.initial + [self.offsets, self.bad, self.order]

    def _launch_args(self, n: int):
        """(region index, functor) of the ``n``-th op ever issued."""
        cycle, slot = divmod(n, len(self.order))
        sig = self.order[slot]
        i, j = divmod(sig, self.n_functors)
        if j == self.bad:
            half = self.points // 2
            return i, ModularFunctor(half, self.offsets[sig] + half * cycle)
        return i, ModularFunctor(self.points, self.offsets[sig])

    def _issue(self, rt, parts, n):
        i, functor = self._launch_args(n)
        rt.index_launch(BUMP, self.points, (parts[i], functor))

    def op(self):
        self._issue(self.rt, self.parts, self.ops_done)
        self.ops_done += 1

    def on_window(self):
        self.window_snapshot = (
            self.ops_done, [r.storage("x").copy() for r in self.regions]
        )

    def _closed_form(self, n_ops):
        """Expected fields after ``n_ops`` ops, by counting color hits."""
        hits = np.zeros((self.n_regions, self.points))
        n_bad = 0
        for n in range(n_ops):
            i, functor = self._launch_args(n)
            np.add.at(hits[i], (np.arange(self.points) + functor.k)
                      % functor.n, 1.0)
            n_bad += functor.n < self.points
        return [init + np.repeat(hits[i], 4)
                for i, init in enumerate(self.initial)], n_bad

    def check(self):
        bad = []
        expected, n_bad = self._closed_form(self.ops_done)
        for i, region in enumerate(self.regions):
            if not np.array_equal(region.storage("x"), expected[i]):
                bad.append(f"region {i} differs from the closed form")
        stats = self.rt.stats
        if stats.launches_fallback_serial != n_bad:
            bad.append(
                f"{n_bad} non-injective issues but "
                f"{stats.launches_fallback_serial} fallback loops"
            )
        unsafe = sum(1 for v in self.rt.safety_log if not v.safe)
        if unsafe != n_bad:
            bad.append(f"{unsafe} unsafe verdicts for {n_bad} bad issues")
        if self.window_snapshot is not None:
            bad.extend(self._check_against_reference(*self.window_snapshot))
        return bad

    def _check_against_reference(self, n_ops, snapshot):
        """Warm-up plus the count window again, on the serial backend with
        every cache and kernel off."""
        ref = Runtime(RuntimeConfig(
            n_nodes=NODES, tracing=False, workers=1, analysis_cache=False,
            kernels=False,
        ))
        regions, parts = [], []
        for i, init in enumerate(self.initial):
            region = ref.create_region(f"ref{i}", len(init), {"x": "f8"})
            region.storage("x")[:] = init
            regions.append(region)
            parts.append(equal_partition(f"ref_p{i}", region, self.points))
        for n in range(n_ops):
            self._issue(ref, parts, n)
        return [
            f"region {i} differs from the uncached serial replay"
            for i, region in enumerate(regions)
            if not np.array_equal(region.storage("x"), snapshot[i])
        ]


# ---------------------------------------------------------- dispatch_fanout
class DispatchFanout(Workload):
    name = "dispatch_fanout"
    why = ("tiny bodies on the worker pool: the fixed per-launch cost of "
           "exec (plan, dumps, submit, round trip, collect, commit)")
    parallel = True
    tasks = (BUMP,)
    tail_percentile = 95
    groups = 4
    pieces = 8

    def build(self):
        self.rt = Runtime(self._config(tracing=True))
        self.initial, self.regions, self.reqs = [], [], []
        for g in range(self.groups):
            region = self.rt.create_region(
                f"df{g}", self.pieces * 8, {"x": "f8"}
            )
            init = _seeded_field(self.rng, self.pieces * 8)
            region.storage("x")[:] = init
            self.initial.append(init)
            self.regions.append(region)
            part = equal_partition(f"df_p{g}", region, self.pieces)
            # alternate static (identity) and dynamic (rotation) verdicts
            self.reqs.append(part if g % 2 == 0 else (part, ModularFunctor(
                self.pieces, self.rng.randrange(1, self.pieces)
            )))

    def inputs(self):
        return self.initial + [
            req[1].k for req in self.reqs if isinstance(req, tuple)
        ]

    def op(self):
        rt = self.rt
        rt.begin_trace(2)
        for req in self.reqs:
            rt.index_launch(BUMP, self.pieces, req)
        rt.end_trace(2)
        rt.drain()
        self.ops_done += 1

    def check(self):
        bad = self._fallback_failures()
        for g, region in enumerate(self.regions):
            if not np.array_equal(
                region.storage("x"), self.initial[g] + float(self.ops_done)
            ):
                bad.append(f"region {g} is not initial + {self.ops_done}")
        return bad


# ---------------------------------------------------------- stencil_compute
class StencilCompute(Workload):
    name = "stencil_compute"
    why = ("real numpy bodies on a 16 MB region: the exec layer used for "
           "bandwidth (shm footprints, batched commit), not latency")
    parallel = True
    tasks = (stencil_step, increment)
    tail_percentile = 90
    warmup_ops = 4
    count_ops = 8
    config = StencilConfig(n=1024, blocks=(2, 2), radius=2)

    def build(self):
        # The input is PRK's fixed initial condition, which is what
        # reference_stencil checks against; the seed has nothing to vary.
        self.rt = Runtime(self._config(tracing=True))
        self.grid = build_stencil(self.rt, self.config)
        blocks = self.config.blocks
        self.domain = Domain.rect((0, 0), (blocks[0] - 1, blocks[1] - 1))
        self.args = (self.config.n, self.config.radius,
                     star_weights(self.config.radius))

    def op(self):
        rt, grid = self.rt, self.grid
        rt.begin_trace(2001)
        rt.index_launch(stencil_step, self.domain, grid.halo, grid.interior,
                        args=self.args)
        rt.index_launch(increment, self.domain, grid.interior)
        rt.end_trace(2001)
        rt.drain()
        self.ops_done += 1

    def check(self):
        bad = self._fallback_failures()
        expected = reference_stencil(self.config, steps=self.ops_done)
        if not np.array_equal(self.grid.grid.field_nd("output"), expected):
            bad.append(
                f"output differs from reference_stencil after "
                f"{self.ops_done} steps"
            )
        return bad


# ----------------------------------------------------------- service_closed
class ServiceClosed(Workload):
    name = "service_closed"
    why = ("two closed-loop sessions against a real `repro serve` process: "
           "the only workload where serve and TCP framing carry the latency")
    parallel = True
    clients = 2
    shards = 8
    elems = 64
    #: op = one index_launch CALL; an iteration is two of them in a trace
    warmup_ops = 16
    count_ops = 32

    def build(self):
        from repro.serve.client import ServiceClient

        self.persist_dir = os.path.join(OUT, f"persist-{os.getpid()}")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
        t0 = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--transport", TRANSPORT,
             "--persist-dir", self.persist_dir],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        line = self.server.stdout.readline()
        self.startup_s = time.perf_counter() - t0
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.shutdown_s = None
        self.sessions = []
        for c in range(self.clients):
            cli = ServiceClient("127.0.0.1", self.port, tenant=f"tenant{c}")
            init = _seeded_field(self.rng, self.elems)
            region = cli.create_region("sc", self.elems, {"x": "f8"})
            cli.write_field(region, "x", init)
            self.sessions.append({
                "cli": cli, "init": init, "region": region,
                "part": cli.equal_partition("sc_p", region, self.shards),
                "task": cli.define_task(BUMP),
                "rotation": ModularFunctor(
                    self.shards, self.rng.randrange(1, self.shards)
                ),
                "launches": 0, "busy": 0, "calls": 0,
            })

    def inputs(self):
        return [item for s in self.sessions
                for item in (s["init"], s["rotation"].k)]

    def _iteration(self, session, launch, samples, failures, origin=0.0):
        """One traced iteration: a static and a dynamic launch, each timed
        as one op (``origin`` is when the timed loop started)."""
        from repro.serve.client import ServiceBusy

        cli = session["cli"]
        cli.begin_trace(7)
        for functor in (None, session["rotation"]):
            t0 = time.perf_counter()
            try:
                launch(session, functor)
                session["launches"] += 1
            except ServiceBusy:
                session["busy"] += 1
                failures.append("BUSY")
            except Exception as exc:
                failures.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            samples.append((t1 - origin, t1 - t0))
        cli.end_trace(7)
        session["calls"] += 4

    @staticmethod
    def _launch(session, functor):
        session["cli"].index_launch(
            session["task"], ServiceClosed.shards, session["part"],
            functor=functor,
        )

    def warm_up(self):
        for session in self.sessions:
            for _ in range(self.warmup_ops // 2):
                self._iteration(session, self._launch, [], [])
            session["cli"].drain()

    def run(self, seconds):
        """Two closed loops, one per client thread.  For a calibration spin
        both clients stop between iterations — no call is in flight — and
        client 0 spins; each thread's clock skips the pause.  The loops end
        together, at the first pause past ``seconds``."""
        out = RoundResult()
        launch = self.wrap_op(self._launch)
        pause = threading.Barrier(self.clients)
        done = threading.Event()
        results = [None] * self.clients
        errors = []

        def client(index):
            session = self.sessions[index]
            samples, failures, window = [], [], None
            before = session["cli"].stats()
            origin = time.perf_counter()
            now, next_pause = 0.0, 0.0
            while True:
                if now >= next_pause:
                    t_pause = time.perf_counter()
                    pause.wait(timeout=PAUSE_TIMEOUT_S)
                    if index == 0:
                        out.spins.append((now, spin()))
                        if now >= seconds:
                            done.set()
                    pause.wait(timeout=PAUSE_TIMEOUT_S)
                    if done.is_set():
                        break
                    origin += time.perf_counter() - t_pause
                    next_pause = now + SPIN_EVERY_S
                self._iteration(session, launch, samples, failures, origin)
                if len(samples) == self.count_ops:
                    window = _delta(
                        _ints(before), _ints(session["cli"].stats())
                    )
                now = time.perf_counter() - origin
            t_drain = time.perf_counter()
            session["cli"].drain()   # acknowledged *and* executed
            results[index] = (samples, failures, window,
                              now + time.perf_counter() - t_drain)

        def guarded(index):
            try:
                client(index)
            except Exception as exc:   # incl. a barrier broken by the peer
                errors.append(f"client {index}: {type(exc).__name__}: {exc}")
                pause.abort()

        threads = [threading.Thread(target=guarded, args=(c,))
                   for c in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError("; ".join(errors))
        out.window = {}
        for samples, failures, window, _ in results:
            out.samples.extend(samples)
            out.failures.extend(failures)
            for key, value in (window or {}).items():
                out.window[key] = out.window.get(key, 0) + value
        if any(r[2] is None for r in results):
            out.window = None
        out.samples.sort()
        out.wall = max(r[3] for r in results)
        return out

    def counters(self):
        return {}

    def pool(self):
        return None

    def check(self):
        bad = []
        for c, session in enumerate(self.sessions):
            got = session["cli"].read_field(session["region"], "x")
            if not np.array_equal(
                got, session["init"] + float(session["launches"])
            ):
                bad.append(
                    f"client {c}: field is not initial + "
                    f"{session['launches']} launches"
                )
        return bad

    def traced_extras(self):
        counts = self.tracer.counts()
        stats = [s["cli"].stats() for s in self.sessions]
        hits = sum(s["check_memo_hits"] for s in stats)
        misses = sum(s["check_memo_misses"] for s in stats)
        calls = sum(s["calls"] for s in self.sessions)
        return {
            "startup_s": self.startup_s,
            "busy_ratio": sum(s["busy"] for s in self.sessions)
            / max(calls, 1),
            # over the whole session: 0 on a cold service (each tenant's one
            # lookup misses), 1 after a warm restart from --persist-dir
            "memo_hit_ratio": hits / max(hits + misses, 1),
            "noop_call_us": self._noop_call_us(),
            "client_bytes_per_call": (
                counts.get("bytes:serve.client.encode", 0)
                + counts.get("bytes:serve.client.decode", 0)
            ) / max(counts.get("calls:serve.client.encode", 0), 1),
        }

    def _noop_call_us(self, n: int = 200) -> float:
        """p50 of ``stats`` CALLs on the otherwise idle service: front door,
        queue, sweep and reply, with no runtime work behind them."""
        cli = self.sessions[0]["cli"]
        samples = []
        for _ in range(n):
            t0 = time.perf_counter()
            cli.stats()
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples)) * 1e6

    def comparison_run(self, seconds):
        """The same launch stream with no service in front of it."""
        return {
            "shutdown_s": self.shutdown_s,
            "in_process_p50_us": service_stream_in_process(self.seed, seconds),
        }

    def close(self):
        for session in self.sessions:
            try:
                session["cli"].close()
            except OSError:
                pass
        t0 = time.perf_counter()
        self.server.send_signal(signal.SIGTERM)
        try:
            tail = self.server.communicate(timeout=20)[0]
        except subprocess.TimeoutExpired:
            self.server.kill()
            tail = self.server.communicate()[0]
        self.shutdown_s = time.perf_counter() - t0
        shutil.rmtree(self.persist_dir, ignore_errors=True)
        if self.server.returncode != 0 or "shut down cleanly" not in tail:
            raise RuntimeError(
                f"repro serve exited {self.server.returncode} without a "
                f"clean shutdown"
            )


def _ints(stats: dict) -> Dict[str, int]:
    return {k: v for k, v in stats.items() if isinstance(v, int)
            and k != "session"}


def service_stream_in_process(seed: int, seconds: float) -> float:
    """p50 (µs) of the service workload's launch stream issued on an
    in-process runtime with the service's configuration — what
    ``service_closed`` would cost with no service in front."""
    rng = random.Random(seed)
    rt = Runtime(RuntimeConfig(validate_safety=True, n_nodes=NODES,
                               workers=WORKERS, transport=TRANSPORT))
    region = rt.create_region("sc", ServiceClosed.elems, {"x": "f8"})
    region.storage("x")[:] = _seeded_field(rng, ServiceClosed.elems)
    part = equal_partition("sc_p", region, ServiceClosed.shards)
    reqs = (part, (part, ModularFunctor(
        ServiceClosed.shards, rng.randrange(1, ServiceClosed.shards)
    )))
    samples = []
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        rt.begin_trace(7)
        for req in reqs:
            t0 = time.perf_counter()
            rt.index_launch(BUMP, ServiceClosed.shards, req)
            t1 = time.perf_counter()
            if n >= ServiceClosed.warmup_ops:
                samples.append(t1 - t0)
            n += 1
        rt.end_trace(7)
        if t1 >= deadline and samples:
            break
    rt.drain()
    shutdown_pools()
    return float(np.median(samples)) * 1e6


WORKLOADS = {
    cls.name: cls
    for cls in (ReplaySteady, FirstIssue, DispatchFanout, StencilCompute,
                ServiceClosed)
}
