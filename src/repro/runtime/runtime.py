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
from repro.runtime.distribution import SlicingCache, build_slices
from repro.runtime.futures import Future, FutureMap, TaskPoisonedError
from repro.runtime.logical import LogicalAnalyzer
from repro.runtime.mapper import (
    DefaultMapper, Mapper, ShardingCache, shard_nodes,
)
from repro.exec.backend import resolve_backend
from repro.exec.pool import resolve_workers
from repro.runtime.physical import PhysicalAnalyzer
from repro.runtime.pipeline import PipelineStats, Stage
from repro.runtime.store import AnalysisStore
from repro.runtime.replay import (
    ExpansionTemplate, LaunchReplayCache, PointPlan, point_plans,
)
from repro.runtime.task import Task
from repro.runtime.tracing import TraceRecorder

__all__ = ["LaunchPlan", "Runtime", "RuntimeConfig"]

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


@dataclass(eq=False, slots=True)
class LaunchPlan:
    """One launch as data: everything its user code decided, before the
    runtime acts on it.

    :meth:`Runtime._plan` builds it and changes no runtime state;
    :meth:`Runtime._commit` acts on it.  A plan with an ``assignment`` is
    committed at launch granularity (one op, then the backend); any other
    — No-IDX, early expansion, Listing 3's fallback, a single task — as
    the task loop (an op and a task per point).
    """

    launch: Any                      # an IndexLaunch, or a single TaskLaunch
    sig: Optional[tuple]             # tracer (and replay-cache) key, if traced
    index: bool = False              # an index launch under IDX
    kind: str = "task"               # a task loop's op kind in the graph
    early: bool = False              # expanded after issuance (§6.2.1)
    order_free: bool = True          # verified: bodies may run in any order
    verdict: Optional[SafetyVerdict] = None
    #: a first expansion, for the commit to store in the replay cache
    new_template: Optional[ExpansionTemplate] = None
    cache_hits: int = 0              # analysis-cache hits planning found
    #: ((stage, node), units), in the order the rows are charged
    charges: list = field(default_factory=list)
    slicing: Any = None              # the SlicingResult, without DCR
    assignment: Optional[Dict[int, list]] = None   # node -> its points
    per_node: Optional[Dict[int, int]] = None      # node -> its task count
    plans: Optional[list] = None     # [(node, PointPlan)], serial plan order
    replay: bool = False             # set at commit: the tracer matched
    # profiler marks (None when it is off): issue, verdict, distribution,
    # expansion, end of planning
    t_issue: Optional[float] = None
    t_issued: Optional[float] = None
    t_dist: Optional[float] = None
    t_expand: Optional[float] = None
    t_planned: Optional[float] = None


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
        budgets = (
            _resolve_budget(self.config.cache_entry_budget,
                            "REPRO_CACHE_ENTRIES"),
            _resolve_budget(self.config.cache_byte_budget,
                            "REPRO_CACHE_BYTES"),
        )
        distribution = AnalysisStore(*budgets, profiler=self.profiler)
        self.sharding_cache = ShardingCache(distribution)
        self.slicing_cache = SlicingCache(distribution)
        self.replay_cache = LaunchReplayCache(self.profiler, *budgets)
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

    def analysis_stores(self) -> Dict[str, AnalysisStore]:
        """This runtime's analysis stores by name; the check memo's is a
        service tenant's when shared, and the process tier is not here."""
        return {
            "replay": self.replay_cache.store,
            "check": self.replay_cache.check_memo.store,
            "distribution": self.sharding_cache.store,
        }

    def invalidate_analysis_cache(self) -> int:
        """Flush all memoized analysis products: every layer of every
        store of :meth:`analysis_stores`.  Called automatically on mapper
        changes; call it manually after any out-of-band change that affects
        mapping or partitioning decisions.  Returns entries dropped."""
        stores = self.analysis_stores().values()
        dropped = sum(store.drop() for store in stores)
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
                dropped = self.replay_cache.store.drop("physical")
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
        poison = self.physical.poison_for(
            [req.region.uid for req in requirements]
        )
        if poison is not None:
            # A region this task touches was tainted by an unrecovered
            # fault: the task never runs, its future carries the root cause.
            return self._poison_single(launch, poison)
        future = Future()
        future.set(self._commit(self._plan(launch, node)))
        return future

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
            plan = self._plan(launch)
            inj = self.fault_injector
            if inj is not None:
                inj.begin_launch(next(self._fault_ordinal))
            try:
                fmap = self._commit(plan)
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

    def _issuers(self):
        """The nodes that issue and logically analyse every operation: all
        of them under DCR (replicated control), node 0 without."""
        return range(self.config.n_nodes) if self.config.dcr else (0,)

    # -------------------------------------------------------------- planning
    def _plan(self, launch, node: Optional[int] = None) -> LaunchPlan:
        """Run all of ``launch``'s user code and return what it decided.

        ``launch`` is an :class:`IndexLaunch`, or a single
        :class:`TaskLaunch` placed on ``node`` (else by ``select_node``).
        The verdict (static analysis, then the dynamic check), the
        placement and the point plans are computed here, so a raise leaves
        the runtime as it was: no op or task id, stat, trace, log, analysis
        or graph entry.  Only pure memo fills happen — the check memo, the
        sharding and slicing caches, an expansion template's plan list.
        """
        cfg = self.config
        mark = self.profiler.mark
        t_issue = mark()
        if isinstance(launch, TaskLaunch):
            if node is None:
                node = self.mapper.select_node(launch, cfg.n_nodes)
            if not 0 <= node < max(cfg.n_nodes, 1):
                raise ValueError(f"mapper sent task {launch.task.name!r} "
                                 f"to node {node} of {cfg.n_nodes}")
            plan = LaunchPlan(launch, ("single", launch.task.uid),
                              t_issue=t_issue, t_issued=t_issue)
            return self._plan_tasks(plan, [node], [PointPlan.of(launch)])
        if not cfg.index_launches:
            return self._plan_tasks(LaunchPlan(
                launch, None, order_free=False, t_issue=t_issue,
                t_issued=t_issue,
            ))
        plan = LaunchPlan(launch, self._launch_signature(launch), index=True,
                          t_issue=t_issue)
        cache = self.replay_cache if cfg.analysis_cache else None
        if cfg.validate_safety:
            # The hybrid analysis gates index-launch execution.  Verdicts
            # are pure in the signature, so a reissue reuses the memoized
            # one (flagged ``cached``; the same counters are charged).
            plan.verdict = (
                cache.replayed_verdict(plan.sig, cfg.dynamic_checks)
                if cache is not None else None
            )
            if plan.verdict is not None:
                plan.cache_hits = 1
            else:
                memo = cache.check_memo if cache is not None else None
                hits = memo.hits if memo is not None else 0
                plan.verdict = analyze_launch_safety(
                    launch, run_dynamic=cfg.dynamic_checks, check_memo=memo
                )
                if memo is not None:
                    plan.cache_hits = memo.hits - hits
            plan.order_free = (
                plan.verdict.method is not SafetyMethod.UNVERIFIED
            )
        plan.t_issued = mark()
        if plan.verdict is not None and not plan.verdict.safe:
            # Listing 3's else-branch: fall back to the original task loop.
            plan.kind, plan.order_free = "fallback_loop", False
            return self._plan_tasks(plan)
        issuers = self._issuers()
        plan.charges = [((Stage.ISSUANCE, n), 1) for n in issuers]
        if cfg.tracing and not cfg.dcr and not cfg.bulk_tracing:
            # Tracing without DCR forces expansion before distribution
            # (Section 6.2.1): the launch degrades to per-task processing
            # from the logical stage on.  Bulk tracing — the paper's
            # future-work extension — records traces at launch granularity
            # instead, so the O(1) representation survives distribution.
            plan.early = True
            return self._plan_tasks(plan)
        plan.charges += [((Stage.LOGICAL, n), 1) for n in issuers]
        return self._plan_launch(plan, cache)

    def _plan_launch(self, plan: LaunchPlan, cache) -> LaunchPlan:
        """Distribution and expansion of a launch-granular plan.

        Distribution is the sharding map (DCR) or the slicing (the
        broadcast tree); both functors are pure, so both are memoized.
        Expansion reuses the signature's template, or expands the launch
        once: one batched projection per requirement, one plan per point.
        """
        cfg = self.config
        mark = self.profiler.mark
        launch = plan.launch
        plan.t_dist = mark()
        if cfg.dcr:
            assignment = self.sharding_cache.shard_map(
                self.mapper, launch.domain, cfg.n_nodes
            )
            plan.charges += [((Stage.DISTRIBUTION, n), 1) for n in assignment]
        else:
            plan.slicing = (
                self.slicing_cache.slice(self.mapper, launch.domain,
                                         cfg.n_nodes)
                if cache is not None
                else build_slices(self.mapper, launch.domain, cfg.n_nodes)
            )
            assignment = plan.slicing.assignment
            plan.charges += [((Stage.DISTRIBUTION, slc.node), 1)
                             for slc in plan.slicing.slices]
        plan.assignment = assignment
        plan.per_node = {
            node: len(assignment[node])
            for node in sorted(assignment) if assignment[node]
        }
        plan.charges += [
            ((Stage.PHYSICAL, node), local)
            for node, local in plan.per_node.items()
        ]
        plan.t_expand = mark()
        template = cache.get_expansion(plan.sig) if cache is not None else None
        if template is None:
            template = ExpansionTemplate(
                base_args=launch.args,
                had_point_args=launch.point_args is not None,
            )
            plan.plans = template.expand(launch, assignment)
            if cache is not None:
                plan.new_template = template
        else:
            plan.cache_hits += 1
            plan.plans = template.reissue(launch, assignment)
        plan.t_planned = mark()
        return plan

    def _plan_tasks(self, plan: LaunchPlan, nodes=None,
                    point_list=None) -> LaunchPlan:
        """The task loop's plan: No-IDX, early expansion, Listing 3's
        fallback, or a single task (its ``nodes`` and ``point_list``
        given).  What the points share is planned once: one batched
        projection per requirement (``point_plans``), one ``shard_batch``
        placement and one charge per (stage, node), so the O(|D|) of the
        paper's No-IDX baseline is the ids, analyses and bodies the commit
        runs per point."""
        if nodes is None:
            launch = plan.launch
            point_list = point_plans(launch, list(launch.domain))
            nodes = shard_nodes(self.mapper, launch.domain,
                                self.config.n_nodes)
        plan.plans = list(zip(nodes, point_list))
        plan.per_node = per_node = Counter(nodes)
        count = len(nodes)
        if count:  # an empty launch adds no representation rows
            for n in self._issuers():
                if not plan.early:
                    plan.charges.append(((Stage.ISSUANCE, n), count))
                plan.charges.append(((Stage.LOGICAL, n), count))
            for node, local in per_node.items():
                plan.charges += [((Stage.DISTRIBUTION, node), local),
                                 ((Stage.PHYSICAL, node), local)]
        return plan

    # ---------------------------------------------------------------- commit
    def _commit(self, plan: LaunchPlan):
        """Act on ``plan``: the counters, the tracer, the verdict, logical
        and physical analysis, the graph recorder, and the bodies — a
        launch-granular plan through the backend, any other as the task
        loop.  Only a runtime bug or a task body raises here, never the
        plan's user code.  Returns the launch's FutureMap, or a single
        task's value."""
        stats = self.stats
        stats.ops_issued += 1
        if self.config.tracing and plan.sig is not None:
            plan.replay = self.tracer.observe(plan.sig)
        if plan.index:
            self._commit_issuance(plan)
        stats.analysis_cache_hits += plan.cache_hits
        representation = stats.representation
        for key, units in plan.charges:
            representation[key] += units
        if plan.assignment is not None:
            return self._commit_launch(plan)
        values = self._commit_tasks(plan)
        if isinstance(plan.launch, TaskLaunch):
            return values[None]
        fmap = FutureMap(label=plan.launch.name)
        fmap.fill(values)
        return fmap

    def _commit_issuance(self, plan: LaunchPlan) -> None:
        """An index launch's issuance: its counters, its verdict in the
        safety log and the replay cache, and the issuance phases."""
        cfg, stats, prof = self.config, self.stats, self.profiler
        verdict = plan.verdict
        name = plan.launch.name if prof.enabled else None
        stats.index_launches += 1
        if plan.replay:
            stats.launch_replays += 1
            if prof.enabled:
                prof.instant("trace.launch_replay", Stage.ISSUANCE,
                             launch=name)
        if verdict is not None:
            if cfg.analysis_cache and not verdict.cached:
                self.replay_cache.put_verdict(plan.sig, cfg.dynamic_checks,
                                              verdict)
            self.safety_log.append(verdict)
            stats.check_evaluations += verdict.check_evaluations
            if verdict.method is SafetyMethod.STATIC:
                stats.launches_verified_static += 1
            elif verdict.method is SafetyMethod.HYBRID:
                stats.launches_verified_dynamic += 1
            elif verdict.method is SafetyMethod.UNVERIFIED:
                stats.launches_unverified += 1
            if prof.enabled:
                prof.phase(
                    "safety", "safety", plan.t_issue, end=plan.t_issued,
                    launch=name, method=verdict.method.name,
                    cached=verdict.cached, safe=verdict.safe,
                    check_evaluations=verdict.check_evaluations,
                )
                if verdict.cached:
                    prof.instant("cache.verdict_hit", "safety", launch=name)
            if not verdict.safe:
                stats.launches_fallback_serial += 1
                if prof.enabled:
                    prof.instant("safety.fallback_serial", "safety",
                                 launch=name)
                    prof.phase("issuance", Stage.ISSUANCE, plan.t_issue,
                               end=plan.t_issued, launch=name, fallback=True)
                return
        if prof.enabled:
            attrs = dict(launch=name, domain=plan.launch.domain.volume,
                         replay=plan.replay)
            if prof.costmodel is not None:
                attrs["sim_cost_s"] = prof.costmodel.t_issue_launch
            prof.phase("issuance", Stage.ISSUANCE, plan.t_issue,
                       end=plan.t_issued, nodes=tuple(self._issuers()),
                       **attrs)
            if plan.early:
                prof.instant("trace.early_expansion", Stage.ISSUANCE,
                             launch=name)

    def _commit_launch(self, plan: LaunchPlan) -> FutureMap:
        """The launch-granular commit: one op through logical analysis
        (whole-partition reasoning, one user per requirement), then the
        backend runs physical analysis and the bodies — the per-node work,
        serially in-process or fanned out across the worker pool."""
        stats, prof = self.stats, self.profiler
        launch = plan.launch
        t_logical = prof.mark()
        op_id = next(self._op_counter)
        deps = self.logical.analyze_operation(op_id, _logical_accesses(launch))
        stats.logical_users = self.logical.users_processed
        stats.logical_dependences += len(deps)
        if plan.slicing is not None:
            stats.slice_messages += plan.slicing.n_messages
            stats.max_slice_depth = max(stats.max_slice_depth,
                                        plan.slicing.max_depth)
        if plan.new_template is not None:
            self.replay_cache.put_expansion(plan.sig, plan.new_template)
        if self.graph_recorder is not None:
            self.graph_recorder.record_op(op_id, launch.name, "index_launch")
            self.graph_recorder.record_logical_edges(deps)
        if prof.enabled:
            self._profile_launch(plan, op_id, len(deps), t_logical)
        return self.backend.finish_launch(plan, op_id)

    def _profile_launch(self, plan, op_id, n_deps, t_logical) -> None:
        """The logical phase of a launch-granular commit, then the
        distribution and expansion phases its plan timed."""
        prof = self.profiler
        cost = prof.costmodel
        name, slicing = plan.launch.name, plan.slicing
        attrs = dict(op=op_id, launch=name, dependences=n_deps)
        if cost is not None:
            attrs["sim_cost_s"] = (
                cost.t_logical_launch_arg * len(plan.launch.requirements)
            )
        prof.phase("logical", Stage.LOGICAL, t_logical,
                   nodes=tuple(self._issuers()), **attrs)
        mode = dict(mode="shard") if slicing is None else dict(
            mode="slice", messages=slicing.n_messages,
            max_depth=slicing.max_depth,
        )
        for node in sorted(plan.assignment):
            local = len(plan.assignment[node])
            attrs = dict(mode, launch=name, points=local)
            if cost is not None:
                attrs["sim_cost_s"] = (
                    cost.t_shard_point * local if slicing is None
                    else cost.t_slice_process * (slicing.max_depth + 1)
                )
            prof.phase("distribution", Stage.DISTRIBUTION, plan.t_dist,
                       end=plan.t_expand, node=node, **attrs)
        cached = self.config.analysis_cache and plan.new_template is None
        prof.phase("expansion", "expansion", plan.t_expand,
                   end=plan.t_planned, launch=name, cached=cached,
                   points=len(plan.plans))
        if cached:
            prof.instant("cache.expansion_hit", "expansion", launch=name)

    def _commit_tasks(self, plan: LaunchPlan) -> dict:
        """The task-loop commit: each point is an op and a task, charged as
        one.  The |D| ops share one access list, so logical analysis runs
        once for all of them (``analyze_run``); physical analysis stays
        per task, because the points' footprints differ, and where two
        points of an unsafe launch touch one piece the later really
        depends on the earlier.  Returns the values by point."""
        cfg, stats, prof = self.config, self.stats, self.profiler
        launch, plans = plan.launch, plan.plans
        count = len(plans)
        op_ids = list(itertools.islice(self._op_counter, count))
        task_ids = list(itertools.islice(self._task_counter, count))
        stats.single_tasks += count
        if not cfg.dcr:  # point-to-point, no tree
            stats.slice_messages += count - plan.per_node.get(0, 0)
        deps = self.logical.analyze_run(op_ids, _logical_accesses(launch))
        stats.logical_dependences += sum(map(len, deps))
        record = self.physical.record_task
        tdeps = [record(t, pp.accesses) for t, (_, pp) in zip(task_ids, plans)]
        stats.physical_dependences += sum(map(len, tdeps))
        recorder = self.graph_recorder
        if recorder is not None:
            names = [
                launch.task.name + ("" if pp.point is None
                                    else str(tuple(pp.point)))
                for _, pp in plans
            ]
            for op_id, name, edges in zip(op_ids, names, deps):
                recorder.record_op(op_id, name, plan.kind)
                recorder.record_logical_edges(edges)
            for task_id, op_id, name, (node, _), edges in zip(
                task_ids, op_ids, names, plans, tdeps
            ):
                recorder.record_task(task_id, name, op_id, node)
                recorder.record_physical_edges(edges)
        stats.logical_users = self.logical.users_processed
        stats.overlap_queries = self.physical.overlap_queries
        if prof.enabled:
            attrs = dict(aggregate=True, kind=plan.kind, launch=launch.name,
                         tasks=count)
            issuers = tuple(self._issuers())
            nodes = tuple(sorted(plan.per_node))
            if not plan.early:
                prof.phase("issuance", Stage.ISSUANCE, plan.t_issued,
                           nodes=issuers, **attrs)
            prof.phase("logical", Stage.LOGICAL, plan.t_issued,
                       nodes=issuers, **attrs)
            prof.phase("distribution", Stage.DISTRIBUTION, plan.t_issued,
                       nodes=nodes, **attrs)
            prof.phase("physical", Stage.PHYSICAL, plan.t_issued,
                       nodes=nodes, **attrs)
        return self.backend.execute(plan, task_ids)

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
            store = self.replay_cache.store
            dropped = store.drop_group(self._launch_signature(launch))
            # Physical templates of *other* launches were recorded against
            # analyzer state this launch has now perturbed mid-flight.
            dropped += store.drop("physical")
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
        self.stats.ops_issued += 1
        self.stats.single_tasks += 1
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
