"""The runtime facade: issue tasks and index launches through the pipeline.

This is the functional (in-process) backend: task bodies really execute on
numpy-backed regions, in program order, with intra-launch order free (and
optionally shuffled, to empirically validate non-interference).  The full
pipeline of Section 5 runs for every operation — issuance, logical
analysis, distribution, physical analysis — updating
:class:`~repro.runtime.pipeline.PipelineStats` so that tests and the
Figure 2/3 reproduction can observe representation sizes and work counts at
every stage under all four {DCR, No DCR} x {IDX, No IDX} configurations.

Timing is *not* measured here; the machine model (:mod:`repro.machine`)
replays the same pipeline against calibrated costs for the scaling studies.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.domain import Domain, Rect
from repro.obs.profiler import NULL_PROFILER
from repro.core.launch import ArgumentMap, IndexLaunch, RegionRequirement, TaskLaunch
from repro.core.projection import IdentityFunctor, ProjectionFunctor
from repro.core.safety import SafetyMethod, SafetyVerdict, analyze_launch_safety
from repro.data.collection import Region, Subregion
from repro.data.fields import FieldSpace
from repro.data.partition import Partition
from repro.data.privileges import Privilege
from repro.fault.inject import FaultInjector
from repro.fault.plan import InjectedFaultError, RetryPolicy
from repro.runtime.distribution import SlicingCache, build_slices, shard_points
from repro.runtime.futures import Future, FutureMap, TaskPoisonedError
from repro.runtime.logical import LogicalAnalyzer
from repro.runtime.mapper import (
    DefaultMapper, Mapper, ShardingCache, shard_nodes,
)
from repro.exec.backend import resolve_backend
from repro.exec.pool import resolve_workers
from repro.runtime.physical import PhysicalAnalyzer
from repro.runtime.pipeline import PipelineStats, Stage
from repro.runtime.replay import LaunchReplayCache, PointPlan, point_plans
from repro.runtime.task import Task
from repro.runtime.tracing import TraceRecorder

__all__ = ["Runtime", "RuntimeConfig"]

# A requirement argument to index_launch: a Partition (identity functor) or
# a (Partition, ProjectionFunctor) pair.
ReqSpec = Union[Partition, Tuple[Partition, ProjectionFunctor]]


def _resolve_budget(configured: Optional[int], env: str) -> Optional[int]:
    """Effective cache budget: explicit config wins, else the env knob;
    ``None``/unset/empty means unbounded (the batch-mode default)."""
    if configured is not None:
        return int(configured)
    import os

    raw = os.environ.get(env, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{env} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{env} must be >= 1, got {value}")
    return value


@dataclass
class RuntimeConfig:
    """The evaluation's configuration axes plus testing knobs.

    Attributes:
        n_nodes: simulated node count (data placement; functional results
            are node-count independent).
        dcr: dynamic control replication [6] — replicated issuance and
            sharding-functor distribution vs centralized control with
            slicing/broadcast distribution.
        index_launches: the paper's optimization; when False, every forall
            is eagerly expanded into individual task launches at issuance
            (the No IDX configurations).
        tracing: Legion's trace memoization [20]; with tracing on and DCR
            off, index launches are expanded *before* distribution
            (Section 6.2.1's interference effect).
        bulk_tracing: the paper's stated future work — tracing that
            "works with bulk task launches".  When True, traces record
            launch-level signatures, so index launches stay unexpanded
            through distribution even without DCR, removing the
            interference of Section 6.2.1 while keeping trace replay.
        dynamic_checks: run the Listing-3 checks for statically-undecided
            launches.  Disabling them corresponds to the paper's "no check"
            configuration: undecided launches are assumed valid.
        analysis_cache: the launch-replay cache — memoize safety verdicts,
            dynamic-check results, expansion templates, and (on validated
            trace replays) physical dependence templates across repeated
            issues of an identical launch.  Semantics-preserving; off
            recomputes everything per issue.
        validate_safety: run the safety analysis at all (both static and
            dynamic).  Off means every launch is trusted.
        shuffle_intra_launch: execute the point tasks of verified launches
            in random order — a testing feature that empirically exercises
            the non-interference guarantee.
        seed: RNG seed for the shuffle.
        workers: per-node pipeline worker processes.  ``None`` (default)
            reads env ``REPRO_WORKERS``; 1 selects the serial backend;
            >= 2 fans the per-node tail of verified index launches across
            a persistent process pool (see :mod:`repro.exec`), with every
            observable byte-identical to serial.
        profiler: optional :class:`~repro.obs.profiler.Profiler`.  When
            set (and enabled), every pipeline phase of every operation
            emits structured spans and metrics (see
            :mod:`repro.obs`); when ``None`` (the default) the runtime
            uses the shared no-op profiler and pays nothing.  Purely
            observational: results and :class:`PipelineStats` are
            identical either way.
        fault_plan: optional :class:`~repro.fault.FaultPlan` — seeded,
            deterministic fault injection (kill/hang/corrupt a worker,
            shard, or point task at a chosen phase, optionally on one
            submission attempt — how the formal conformance harness
            replays model-checker traces against the real executor).
            Recovered faults are byte-invisible; unrecovered ones poison
            the launch (see
            :class:`~repro.runtime.futures.TaskPoisonedError` and
            ``docs/fault-tolerance.md``).
        retry: optional :class:`~repro.fault.RetryPolicy` capping the
            parallel backend's recovery ladder (same-worker retries,
            worker respawns, backoff, shard timeout); ``None`` uses the
            defaults.
        kernels: hot-path engine layer 3 (see ``docs/hot-path.md``) —
            compile steady-state dependence replays into slot programs and
            dynamic checks into constant-verdict kernels.  Purely an
            execution strategy: results, stats, and traces are
            byte-identical either way; ``False`` is the uncached
            reference setting.
        transport: how the parallel backend spawns the workers its one
            selector-driven engine talks to.  ``"pipe"`` forks persistent
            workers wired over raw ``os.pipe`` pairs and backs every
            region this runtime creates by a shared-memory segment the
            workers write in place (see :mod:`repro.exec.shm`);
            ``"socket"`` runs standalone worker processes over loopback
            sockets standing in for cluster nodes, and footprints travel
            as wire payloads (see ``docs/distributed-transport.md``).
            Both speak the framed wire protocol.  ``None`` (default)
            reads env ``REPRO_TRANSPORT`` (default ``pipe``).
            Byte-identical results on either.
        cache_entry_budget: LRU entry budget for the launch-replay cache
            and the dynamic-check memo (each counted separately): at most
            this many distinct launch signatures / check keys stay
            memoized, least-recently-used evicted first.  ``None``
            (default) reads env ``REPRO_CACHE_ENTRIES`` (unset =
            unbounded, the batch-mode behavior).  Eviction is
            semantics-free: an evicted signature behaves exactly like a
            cold miss (byte-identical results).
        cache_byte_budget: like ``cache_entry_budget`` but as an estimated
            resident-byte cap (see ``replay.estimate_bytes``); ``None``
            reads env ``REPRO_CACHE_BYTES``.  The two budgets compose
            (either going over triggers eviction).
    """

    n_nodes: int = 1
    dcr: bool = True
    index_launches: bool = True
    tracing: bool = True
    bulk_tracing: bool = False
    dynamic_checks: bool = True
    analysis_cache: bool = True
    validate_safety: bool = True
    shuffle_intra_launch: bool = False
    seed: int = 0
    workers: Optional[int] = None
    profiler: Optional[Any] = None
    fault_plan: Optional[Any] = None
    retry: Optional[Any] = None
    kernels: bool = True
    transport: Optional[str] = None
    cache_entry_budget: Optional[int] = None
    cache_byte_budget: Optional[int] = None

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        for name in ("cache_entry_budget", "cache_byte_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def label(self) -> str:
        """The figure-legend label, e.g. ``"DCR, IDX"``."""
        return (
            f"{'DCR' if self.dcr else 'No DCR'}, "
            f"{'IDX' if self.index_launches else 'No IDX'}"
        )


class Runtime:
    """A single-process Legion-like runtime instance."""

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        mapper: Optional[Mapper] = None,
    ):
        self.config = config or RuntimeConfig()
        self._mapper = mapper or DefaultMapper()
        self.profiler = (
            self.config.profiler
            if self.config.profiler is not None
            else NULL_PROFILER
        )
        self.stats = PipelineStats()
        self.logical = LogicalAnalyzer(profiler=self.profiler)
        self.physical = PhysicalAnalyzer(
            profiler=self.profiler, kernels=self.config.kernels
        )
        self.tracer = TraceRecorder(profiler=self.profiler)
        self.sharding_cache = ShardingCache()
        self.slicing_cache = SlicingCache(profiler=self.profiler)
        self.replay_cache = LaunchReplayCache(
            profiler=self.profiler,
            entry_budget=_resolve_budget(
                self.config.cache_entry_budget, "REPRO_CACHE_ENTRIES"
            ),
            byte_budget=_resolve_budget(
                self.config.cache_byte_budget, "REPRO_CACHE_BYTES"
            ),
        )
        self._op_counter = itertools.count()
        self._task_counter = itertools.count()
        self._rng = random.Random(self.config.seed)
        self._regions: List[Region] = []
        self.safety_log: List[SafetyVerdict] = []
        #: optional repro.tools.graph.GraphRecorder capturing the task graph
        self.graph_recorder = None
        #: fault injection (None = no plan): per-run firing state over the
        #: config's immutable FaultPlan.
        plan = self.config.fault_plan
        self.fault_injector = (
            FaultInjector(plan) if plan is not None and plan.specs else None
        )
        self._fault_ordinal = itertools.count()
        self.retry_policy: RetryPolicy = self.config.retry or RetryPolicy()
        #: every TaskPoisonedError this runtime minted, in order.
        self.poison_log: List[TaskPoisonedError] = []
        if self.config.kernels:
            from repro.runtime.kernels import GLOBAL_CHECK_KERNELS

            self.replay_cache.check_memo.kernels = GLOBAL_CHECK_KERNELS
        self.workers = resolve_workers(self.config.workers)
        self.backend = resolve_backend(self, self.workers)

    # --------------------------------------------------------------- mapper
    @property
    def mapper(self) -> Mapper:
        return self._mapper

    @mapper.setter
    def mapper(self, mapper: Mapper) -> None:
        """Swapping mappers invalidates every cached mapping decision."""
        self._mapper = mapper
        self.invalidate_analysis_cache()

    def invalidate_analysis_cache(self) -> int:
        """Flush all memoized analysis products (launch-replay cache plus
        the sharding/slicing memos).  Called automatically on mapper
        changes; call it manually after any out-of-band change that affects
        mapping or partitioning decisions.  Returns entries dropped."""
        dropped = (
            self.replay_cache.clear()
            + self.slicing_cache.clear()
            + self.sharding_cache.clear()
        )
        if dropped:
            self.stats.analysis_cache_invalidations += dropped
        return dropped

    def drain(self) -> None:
        """A barrier in the Legion sense: on return, all previously issued
        launches have executed and their results are visible in region
        storage, futures, and stats.  Every backend commits a launch before
        ``index_launch`` returns, so there is never anything to wait for;
        the call stays the one clients (and the service's ``drain``
        command) make at a quiescent point."""

    # ------------------------------------------------------------ resources
    def create_region(
        self,
        name: str,
        shape: Union[int, Sequence[int], Rect],
        fields: Union[FieldSpace, Dict],
    ) -> Region:
        """Create a top-level collection.

        ``shape`` may be an element count (1-D), an extents tuple (N-D), or
        an explicit :class:`Rect`.
        """
        if isinstance(shape, Rect):
            bounds = shape
        elif isinstance(shape, int):
            bounds = Rect((0,), (shape - 1,))
        else:
            bounds = Rect([0] * len(shape), [int(e) - 1 for e in shape])
        region = Region(name, bounds, fields)
        self.backend.map_region(region)
        self._regions.append(region)
        return region

    # ----------------------------------------------------- fill/copy sugar
    def fill(self, target: Union[Region, Subregion], fname: str,
             value) -> Future:
        """Fill one field of a (sub)region, as a pipeline operation.

        Fills are ordinary write operations in Legion: they participate in
        dependence analysis like any task, so a fill between two launches
        correctly orders against both.
        """
        return self.execute_task(_fill_task, target, args=(fname, value))

    def copy_field(
        self,
        src: Union[Region, Subregion],
        dst: Union[Region, Subregion],
        src_field: str,
        dst_field: Optional[str] = None,
    ) -> Future:
        """Copy a field between equally-sized (sub)regions via the pipeline."""
        return self.execute_task(
            _copy_task, src, dst, args=(src_field, dst_field or src_field)
        )

    # -------------------------------------------------------------- tracing
    def begin_trace(self, trace_id: int) -> None:
        """Mark the start of a traced (repeated) operation sequence."""
        if self.config.tracing:
            self.tracer.begin(trace_id)

    def end_trace(self, trace_id: int) -> None:
        """Mark the end of a traced sequence; counts whole-trace replays.

        Strict-prefix iterations (the trace ended early but every issued op
        matched the recording) are counted in
        ``stats.trace_prefix_iterations`` and do *not* break the trace:
        their per-op replays were sound, and physical dependence templates
        stay valid — self-validation bails them to the live path if the
        shortened iteration left the analyzer in an unexpected state.
        """
        if self.config.tracing:
            broken_before = self.tracer.broken(trace_id)
            prefix_before = self.tracer.prefixes(trace_id)
            if self.tracer.end(trace_id):
                self.stats.trace_replays += 1
            elif self.tracer.prefixes(trace_id) > prefix_before:
                self.stats.trace_prefix_iterations += 1
            elif self.tracer.broken(trace_id) > broken_before:
                # The iteration diverged from the recorded trace: physical
                # dependence templates were recorded against a context that
                # no longer recurs, so drop them (the context-free layers —
                # verdicts, checks, expansion, sharding — remain valid).
                dropped = self.replay_cache.drop_physical()
                if dropped:
                    self.stats.analysis_cache_invalidations += dropped

    # ------------------------------------------------------- single launches
    def execute_task(
        self,
        task: Task,
        *region_args: Union[Region, Subregion],
        args: tuple = (),
        node: Optional[int] = None,
    ) -> Future:
        """Launch one task on concrete (sub)regions; returns its Future."""
        subregions = [
            r.root_subregion() if isinstance(r, Region) else r for r in region_args
        ]
        if len(subregions) != task.n_region_params:
            raise ValueError(
                f"task {task.name!r} declares {task.n_region_params} region "
                f"parameters, got {len(subregions)}"
            )
        requirements = [
            RegionRequirement(
                privilege=task.privileges[i],
                fields=task.fields[i] or (),
                subregion=subregions[i],
            )
            for i in range(len(subregions))
        ]
        launch = TaskLaunch(task=task, requirements=requirements, args=args)
        self.stats.ops_issued += 1
        self.stats.single_tasks += 1
        poison = self.physical.poison_for(
            [req.region.uid for req in requirements]
        )
        if poison is not None:
            # A region this task touches was tainted by an unrecovered
            # fault: the task never runs, its future carries the root cause.
            return self._poison_single(launch, poison)
        if self.config.tracing:
            self.tracer.observe(("single", task.uid))
        target = node if node is not None else self.mapper.select_node(
            launch, self.config.n_nodes
        )
        plan = PointPlan.of(launch)
        task_id = self._pipeline_single(plan, target)
        future = Future()
        future.set(
            self.backend.execute(task.fn, [(task_id, (target, plan))])[None]
        )
        return future

    def _pipeline_single(self, plan: PointPlan, node: int) -> int:
        """One single task through issuance, logical analysis,
        distribution and physical analysis: counters charged, graph
        recorded, profiler phases closed.  Returns its task id."""
        cfg = self.config
        prof = self.profiler
        stats = self.stats
        t0 = prof.mark()
        launch = plan.task_launch
        issuers = range(cfg.n_nodes) if cfg.dcr else (0,)
        for n in issuers:
            stats.add_representation(Stage.ISSUANCE, n, 1)
            stats.add_representation(Stage.LOGICAL, n, 1)
        op_id = next(self._op_counter)
        deps = self.logical.analyze_operation(op_id, _logical_accesses(launch))
        stats.logical_dependences += len(deps)
        stats.add_representation(Stage.DISTRIBUTION, node, 1)
        if not cfg.dcr and node != 0:
            stats.slice_messages += 1  # point-to-point, no tree
        task_id = next(self._task_counter)
        tdeps = self.physical.record_task(task_id, plan.accesses)
        stats.physical_dependences += len(tdeps)
        stats.add_representation(Stage.PHYSICAL, node, 1)
        if self.graph_recorder is not None:
            self.graph_recorder.record_op(op_id, launch.name, "task")
            self.graph_recorder.record_logical_edges(deps)
            self.graph_recorder.record_task(task_id, launch.name, op_id, node)
            self.graph_recorder.record_physical_edges(tdeps)
        stats.logical_users = self.logical.users_processed
        stats.overlap_queries = self.physical.overlap_queries
        if prof.enabled:
            self._close_task_phases(t0, issuers, (node,), True,
                                    task=launch.name, op=op_id,
                                    aggregate=True)
        return task_id

    def _close_task_phases(self, t0, issuers, nodes, issued, **attrs) -> None:
        """Close the aggregate stage phases of task-granular work opened
        at ``t0``: issuance (unless the tasks were not ``issued`` here)
        and logical on the issuers, distribution and physical on
        ``nodes``."""
        prof = self.profiler
        if issued:
            prof.phase("issuance", Stage.ISSUANCE, t0,
                       nodes=tuple(issuers), **attrs)
        prof.phase("logical", Stage.LOGICAL, t0, nodes=tuple(issuers), **attrs)
        prof.phase("distribution", Stage.DISTRIBUTION, t0, nodes=nodes,
                   **attrs)
        prof.phase("physical", Stage.PHYSICAL, t0, nodes=nodes, **attrs)

    # -------------------------------------------------------- index launches
    def index_launch(
        self,
        task: Task,
        domain: Union[Domain, int],
        *reqs: ReqSpec,
        args: tuple = (),
        point_args: Optional[ArgumentMap] = None,
        reduce: Optional[str] = None,
    ) -> Union[FutureMap, Future]:
        """Launch ``task`` over every point of ``domain`` — ``forall`` (§3).

        Each entry of ``reqs`` is a partition (identity projection) or a
        ``(partition, functor)`` pair, positionally matching the task's
        declared privileges.  Returns a :class:`FutureMap`, or a single
        :class:`Future` when ``reduce`` names a reduction operator.

        Under ``config.index_launches=False`` the same API runs as an
        eagerly-expanded loop of individual task launches (identical
        results, O(P) representation) — the paper's No-IDX baseline.
        """
        if isinstance(domain, int):
            domain = Domain.range(domain)
        requirements = self._build_requirements(task, reqs)
        launch = IndexLaunch(
            task=task,
            domain=domain,
            requirements=requirements,
            args=args,
            point_args=point_args,
        )
        poison = self.physical.poison_for(
            [req.region.uid for req in requirements]
        )
        if poison is not None:
            # Dependence-edge propagation: a region this launch touches was
            # tainted by an earlier unrecovered fault, so the launch is
            # lost too — with the *originating* failure as its diagnosis.
            fmap = self._poison_launch(launch, poison, propagated=True)
        else:
            inj = self.fault_injector
            if inj is not None:
                inj.begin_launch(next(self._fault_ordinal))
            try:
                fmap = (
                    self._issue_index_launch(launch)
                    if self.config.index_launches
                    else self._issue_expanded(launch)
                )
            except InjectedFaultError as exc:
                # Tier 4 of the recovery ladder: every cheaper tier failed
                # (or never applied); convert the injected fault into a
                # poisoned launch instead of a bare exception.  Genuine
                # application errors never take this path.
                fmap = self._poison_launch(launch, exc, propagated=False)
            finally:
                if inj is not None:
                    inj.end_launch()
        if reduce is not None:
            future = Future(label=f"{launch.name}.reduce({reduce!r})")
            if fmap.poisoned:
                try:
                    fmap.reduce(reduce)  # raises the enriched diagnostic
                except TaskPoisonedError as exc:
                    future.poison(exc)
            else:
                future.set(fmap.reduce(reduce))
            return future
        return fmap

    # Regent-style alias: ``forall(D, T, <P, f>, ...)``.
    forall = index_launch

    def _build_requirements(
        self, task: Task, reqs: Sequence[ReqSpec]
    ) -> List[RegionRequirement]:
        if len(reqs) != task.n_region_params:
            raise ValueError(
                f"task {task.name!r} declares {task.n_region_params} region "
                f"parameters, got {len(reqs)} launch arguments"
            )
        out = []
        for i, spec in enumerate(reqs):
            if isinstance(spec, Partition):
                partition, functor = spec, IdentityFunctor()
            else:
                partition, functor = spec
            out.append(
                RegionRequirement(
                    privilege=task.privileges[i],
                    fields=task.fields[i] or (),
                    partition=partition,
                    functor=functor,
                )
            )
        return out

    def _launch_signature(self, launch: IndexLaunch) -> tuple:
        return (
            launch.task.uid,
            launch.domain,
            tuple(
                (req.partition.uid, req.functor.key, req.privilege)
                for req in launch.requirements
            ),
        )

    def _issue_index_launch(self, launch: IndexLaunch) -> FutureMap:
        cfg = self.config
        prof = self.profiler
        cost = prof.costmodel if prof.enabled else None
        t_issue = prof.mark()
        self.stats.ops_issued += 1
        self.stats.index_launches += 1
        sig = self._launch_signature(launch)
        cache = self.replay_cache if cfg.analysis_cache else None
        replay = False
        if cfg.tracing:
            replay = self.tracer.observe(sig)
            if replay:
                self.stats.launch_replays += 1
                if prof.enabled:
                    prof.instant("trace.launch_replay", Stage.ISSUANCE,
                                 launch=launch.name)

        # --- safety: the hybrid analysis gates index-launch execution.
        # Verdicts are pure in the launch signature, so replays reuse the
        # memoized verdict (flagged ``cached``, same counters charged — a
        # replayed launch is still a verified launch, not a skipped one).
        safe_order_free = True
        t_safety = prof.mark()
        if cfg.validate_safety:
            verdict = (
                cache.replayed_verdict(sig, cfg.dynamic_checks)
                if cache is not None
                else None
            )
            if verdict is not None:
                self.stats.analysis_cache_hits += 1
            else:
                memo = cache.check_memo if cache is not None else None
                memo_hits = memo.hits if memo is not None else 0
                verdict = analyze_launch_safety(
                    launch, run_dynamic=cfg.dynamic_checks, check_memo=memo
                )
                if memo is not None:
                    self.stats.analysis_cache_hits += memo.hits - memo_hits
                if cache is not None:
                    cache.put_verdict(sig, cfg.dynamic_checks, verdict)
            self.safety_log.append(verdict)
            self.stats.check_evaluations += verdict.check_evaluations
            if verdict.method is SafetyMethod.STATIC:
                self.stats.launches_verified_static += 1
            elif verdict.method is SafetyMethod.HYBRID:
                self.stats.launches_verified_dynamic += 1
            elif verdict.method is SafetyMethod.UNVERIFIED:
                self.stats.launches_unverified += 1
            if prof.enabled:
                prof.phase(
                    "safety", "safety", t_safety,
                    launch=launch.name,
                    method=verdict.method.name,
                    cached=verdict.cached,
                    safe=verdict.safe,
                    check_evaluations=verdict.check_evaluations,
                )
                if verdict.cached:
                    prof.instant("cache.verdict_hit", "safety",
                                 launch=launch.name)
            if not verdict.safe:
                # Listing 3's else-branch: fall back to the original task loop.
                self.stats.launches_fallback_serial += 1
                if prof.enabled:
                    prof.instant("safety.fallback_serial", "safety",
                                 launch=launch.name)
                    prof.phase("issuance", Stage.ISSUANCE, t_issue,
                               launch=launch.name, fallback=True)
                return self._run_expanded(
                    launch, order_free=False, op_kind="fallback_loop"
                )
            safe_order_free = verdict.method is not SafetyMethod.UNVERIFIED

        # --- issuance: one O(1) descriptor per issuing node.
        issuers = range(cfg.n_nodes) if cfg.dcr else (0,)
        for n in issuers:
            self.stats.add_representation(Stage.ISSUANCE, n, 1)
        if prof.enabled:
            attrs = dict(launch=launch.name, domain=launch.domain.volume,
                         replay=replay)
            if cost is not None:
                attrs["sim_cost_s"] = cost.t_issue_launch
            prof.phase("issuance", Stage.ISSUANCE, t_issue,
                       nodes=tuple(issuers), **attrs)

        # Tracing without DCR forces expansion before distribution
        # (Section 6.2.1): the launch degrades to per-task processing from
        # the logical stage onward.  Bulk tracing — the paper's future-work
        # extension — records traces at launch granularity instead, so the
        # O(1) representation survives distribution.
        if cfg.tracing and not cfg.dcr and not cfg.bulk_tracing:
            if prof.enabled:
                prof.instant("trace.early_expansion", Stage.ISSUANCE,
                             launch=launch.name)
            return self._run_expanded(
                launch, order_free=safe_order_free, skip_issuance=True
            )

        # --- logical analysis: whole-partition reasoning, one user per arg.
        t_logical = prof.mark()
        op_id = next(self._op_counter)
        deps = self.logical.analyze_operation(op_id, _logical_accesses(launch))
        self.stats.logical_users = self.logical.users_processed
        self.stats.logical_dependences += len(deps)
        for n in issuers:
            self.stats.add_representation(Stage.LOGICAL, n, 1)
        if prof.enabled:
            attrs = dict(op=op_id, launch=launch.name, dependences=len(deps))
            if cost is not None:
                attrs["sim_cost_s"] = (
                    cost.t_logical_launch_arg * len(launch.requirements)
                )
            prof.phase("logical", Stage.LOGICAL, t_logical,
                       nodes=tuple(issuers), **attrs)
        if self.graph_recorder is not None:
            self.graph_recorder.record_op(op_id, launch.name, "index_launch")
            self.graph_recorder.record_logical_edges(deps)

        # --- distribution: sharding (DCR) or slicing (broadcast tree).
        # Both functors are pure, so both paths are memoized (sharding was
        # always; slicing joins it under the analysis-cache knob).
        t_dist = prof.mark()
        dist_attrs: Dict[str, Any] = {}
        if cfg.dcr:
            assignment = self.sharding_cache.shard_map(
                self.mapper, launch.domain, cfg.n_nodes
            )
            for node in assignment:
                self.stats.add_representation(Stage.DISTRIBUTION, node, 1)
            dist_attrs["mode"] = "shard"
        else:
            if cache is not None:
                slicing = self.slicing_cache.slice(
                    self.mapper, launch.domain, cfg.n_nodes
                )
            else:
                slicing = build_slices(self.mapper, launch.domain, cfg.n_nodes)
            self.stats.slice_messages += slicing.n_messages
            self.stats.max_slice_depth = max(
                self.stats.max_slice_depth, slicing.max_depth
            )
            assignment = {}
            for slc in slicing.slices:
                assignment.setdefault(slc.node, []).extend(slc.points)
                self.stats.add_representation(Stage.DISTRIBUTION, slc.node, 1)
            dist_attrs.update(
                mode="slice",
                messages=slicing.n_messages,
                max_depth=slicing.max_depth,
            )
        if prof.enabled:
            for node in sorted(assignment):
                local = len(assignment[node])
                attrs = dict(dist_attrs, launch=launch.name, points=local)
                if cost is not None:
                    attrs["sim_cost_s"] = (
                        cost.t_shard_point * local if cfg.dcr
                        else cost.t_slice_process * (dist_attrs["max_depth"] + 1)
                    )
                prof.phase("distribution", Stage.DISTRIBUTION, t_dist,
                           node=node, **attrs)

        # --- expansion, physical analysis, and execution are per-node work:
        # the execution backend owns them (serially in-process by default;
        # fanned out across the worker pool when ``workers > 1``).
        return self.backend.finish_launch(
            launch,
            sig,
            op_id,
            assignment,
            replay,
            safe_order_free,
            cache,
        )

    def _issue_expanded(self, launch: IndexLaunch) -> FutureMap:
        """No-IDX path: the forall is a loop of individual task launches."""
        self.stats.ops_issued += 1
        return self._run_expanded(launch, order_free=False)

    def _run_expanded(
        self,
        launch: IndexLaunch,
        order_free: bool,
        skip_issuance: bool = False,
        op_kind: str = "task",
    ) -> FutureMap:
        """Run ``launch`` as the original task loop: No-IDX, early
        expansion (tracing without DCR), or Listing 3's else-branch.

        Each point is an op and a task, charged as one: the O(|D|) of the
        paper's No-IDX baseline.  What the points share is done once per
        launch: one batched projection per requirement (``point_plans``),
        one ``shard_batch`` placement, one charge per (stage, node), and
        one logical analysis of the |D| ops, which share one access list
        (``analyze_run``).  Per point remain the ids, physical analysis
        and the body.  Physical analysis stays per task: the points'
        footprints differ, and where two points of an unsafe launch touch
        one piece the later really depends on the earlier.
        """
        cfg = self.config
        prof = self.profiler
        stats = self.stats
        t0 = prof.mark()
        issuers = range(cfg.n_nodes) if cfg.dcr else (0,)
        domain = launch.domain
        points = list(domain)
        count = len(points)
        plans = point_plans(launch, points)
        nodes = shard_nodes(self.mapper, domain, cfg.n_nodes)
        per_node = Counter(nodes)
        op_ids = list(itertools.islice(self._op_counter, count))
        task_ids = list(itertools.islice(self._task_counter, count))
        if count:  # an empty launch adds no representation rows
            for n in issuers:
                if not skip_issuance:
                    stats.add_representation(Stage.ISSUANCE, n, count)
                stats.add_representation(Stage.LOGICAL, n, count)
            for node, local in per_node.items():
                stats.add_representation(Stage.DISTRIBUTION, node, local)
                stats.add_representation(Stage.PHYSICAL, node, local)
        stats.single_tasks += count
        if not cfg.dcr:
            stats.slice_messages += count - per_node[0]  # point-to-point
        deps = self.logical.analyze_run(op_ids, _logical_accesses(launch))
        stats.logical_dependences += sum(map(len, deps))
        record = self.physical.record_task
        tdeps = [record(t, plan.accesses) for t, plan in zip(task_ids, plans)]
        stats.physical_dependences += sum(map(len, tdeps))
        recorder = self.graph_recorder
        if recorder is not None:
            names = [f"{launch.task.name}{tuple(p)}" for p in points]
            for op_id, name, edges in zip(op_ids, names, deps):
                recorder.record_op(op_id, name, op_kind)
                recorder.record_logical_edges(edges)
            for task_id, op_id, name, node, edges in zip(
                task_ids, op_ids, names, nodes, tdeps
            ):
                recorder.record_task(task_id, name, op_id, node)
                recorder.record_physical_edges(edges)
        stats.logical_users = self.logical.users_processed
        stats.overlap_queries = self.physical.overlap_queries
        if prof.enabled:
            self._close_task_phases(
                t0, issuers, tuple(sorted(per_node)), not skip_issuance,
                aggregate=True, kind=op_kind, launch=launch.name,
                tasks=count,
            )
        executed = list(zip(task_ids, zip(nodes, plans)))
        if cfg.shuffle_intra_launch and order_free:
            self._rng.shuffle(executed)
        fmap = FutureMap(label=launch.name)
        fmap.fill(self.backend.execute(launch.task.fn, executed))
        return fmap

    # ------------------------------------------------------- fault poisoning
    def _mint_poison(self, launch_name: str, cause) -> TaskPoisonedError:
        """Build (and log) the TaskPoisonedError for one lost operation."""
        if isinstance(cause, TaskPoisonedError):
            # Propagation: keep the root task/launch/point attribution.
            err = TaskPoisonedError(
                f"launch {launch_name!r} poisoned by dependence on "
                f"poisoned state (origin: {cause})",
                task_id=cause.task_id,
                launch=cause.launch,
                point=cause.point,
                origin=cause,
            )
        else:
            err = TaskPoisonedError(
                f"launch {launch_name!r} poisoned: {cause}",
                task_id=getattr(cause, "task_id", None),
                launch=launch_name,
                point=getattr(cause, "point", None),
                origin=cause,
            )
        self.poison_log.append(err)
        return err

    def _taint_written(self, launch, err: TaskPoisonedError) -> None:
        """Taint every region the lost operation could have written, so
        later operations observe the poison instead of silently-stale
        bytes.  First writer wins: re-poisoning keeps the root cause."""
        written = [
            req.region.uid
            for req in launch.requirements
            if req.privilege.privilege in (
                Privilege.WRITE, Privilege.READ_WRITE, Privilege.REDUCE
            )
        ]
        self.physical.poison_regions(written, err)

    def _poison_launch(
        self, launch: IndexLaunch, cause, propagated: bool
    ) -> FutureMap:
        """Tier 4: the launch is lost.  Poison its FutureMap, taint its
        write footprint, and flush cached analysis for its signature (a
        half-executed launch invalidates what was memoized against it)."""
        cfg = self.config
        prof = self.profiler
        if propagated:
            # The launch never reached issuance; account for it so the
            # op tables still show the program's shape.
            self.stats.ops_issued += 1
            if cfg.index_launches:
                self.stats.index_launches += 1
            self.stats.poison_propagations += 1
        self.stats.launches_poisoned += 1
        err = self._mint_poison(launch.name, cause)
        if err.launch is None:
            err.launch = launch.name
        self._taint_written(launch, err)
        if cfg.analysis_cache:
            dropped = self.replay_cache.poison_signature(
                self._launch_signature(launch)
            )
            # Physical templates of *other* launches were recorded against
            # analyzer state this launch has now perturbed mid-flight.
            dropped += self.replay_cache.drop_physical()
            if dropped:
                self.stats.analysis_cache_invalidations += dropped
        if prof.enabled:
            prof.instant(
                "fault.poison_propagated" if propagated else "fault.poisoned",
                Stage.EXECUTION,
                launch=launch.name,
                cause=str(cause),
            )
            prof.count("fault.poisoned_launches", 1.0, propagated=propagated)
        fmap = FutureMap(label=launch.name)
        fmap.poison(err)
        return fmap

    def _poison_single(self, launch: TaskLaunch, cause) -> Future:
        """Propagated poison for a single-task launch (fill/copy included)."""
        self.stats.launches_poisoned += 1
        self.stats.poison_propagations += 1
        err = self._mint_poison(launch.name, cause)
        self._taint_written(launch, err)
        if self.profiler.enabled:
            self.profiler.instant(
                "fault.poison_propagated", Stage.EXECUTION,
                launch=launch.name, cause=str(cause),
            )
            self.profiler.count(
                "fault.poisoned_launches", 1.0, propagated=True
            )
        future = Future(label=launch.name)
        future.poison(err)
        return future


def _logical_accesses(launch) -> list:
    """A launch's ``(region uid, fields, privilege)`` per requirement: what
    logical analysis registers for it, or for each of its point tasks."""
    return [
        (req.region.uid, req.resolved_fields(), req.privilege)
        for req in launch.requirements
    ]


# ------------------------------------------------ built-in fill/copy tasks

def _fill_body(ctx, target, fname, value):
    target.fill(fname, value)


def _copy_body(ctx, src, dst, src_field, dst_field):
    dst.write(dst_field, src.read(src_field))


_fill_task = Task(_fill_body, privileges=["writes"], name="fill")
_copy_task = Task(_copy_body, privileges=["reads", "writes"], name="copy")
