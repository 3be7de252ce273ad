"""Launch-replay cache: memoized per-launch analysis (ROADMAP hot path).

Iterative workloads reissue the *same* index launch every timestep, and the
Section-5 pipeline work for it is amortizable.  This module groups the
memoization layers, all keyed by the runtime's ``_launch_signature`` —
(task uid, domain, per-requirement (partition uid, functor, privilege)):

1. **Safety verdicts** (:meth:`LaunchReplayCache.replayed_verdict`): the full
   hybrid static/dynamic :class:`~repro.core.safety.SafetyVerdict` of §3–§4
   is a pure function of the signature, so repeated issues reuse it whole.
2. **Dynamic check results** (:class:`DynamicCheckMemo`): the Listing-3
   bitmask checks are pure in (domain, functors+modes, color bounds) — a
   strictly *coarser* key than the launch signature — so even distinct
   launches sharing a functor/domain pair skip re-evaluation.
3. **Expansion templates** (:class:`ExpansionTemplate`): the per-point
   concrete requirements, dependence-analysis access triples, and
   :class:`~repro.runtime.task.PhysicalRegion` views produced by
   ``launch.point_task(point)`` — the object churn happens once per
   distinct launch, not once per issue.
4. **Physical dependence templates**
   (:class:`~repro.runtime.physical.DependenceTemplate`): recorded on a
   trace-validated replay and re-stamped with fresh task ids on later
   replays; dropped whenever a trace breaks or anything invalidates.

Layers 1–3 are context-free (valid whenever the signature matches); layer 4
depends on the analyzer's state and is therefore both gated on trace
validation and self-validating (see :mod:`repro.runtime.physical`).

The sharding/slicing memos live with their subsystems
(:class:`~repro.runtime.mapper.ShardingCache`,
:class:`~repro.runtime.distribution.SlicingCache`); the runtime's
``invalidate_analysis_cache`` clears all of them together.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.checks import CheckResult, dynamic_cross_check
from repro.core.launch import IndexLaunch, RegionRequirement, TaskLaunch
from repro.core.safety import SafetyVerdict
from repro.runtime.physical import DependenceTemplate
from repro.runtime.task import PhysicalRegion

__all__ = [
    "DynamicCheckMemo",
    "PointPlan",
    "ExpansionTemplate",
    "LaunchReplayCache",
    "estimate_bytes",
]


def estimate_bytes(obj, depth: int = 3) -> int:
    """Best-effort recursive size estimate for cache budgeting.

    Deliberately an *estimate*: shared substructure is double-counted and
    recursion is depth-capped, so the number bounds growth rather than
    reports exact RSS.  numpy buffers (the dominant payloads — check masks,
    sparse indices) are counted exactly via ``nbytes``.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96
    try:
        size = sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic objects without sizeof
        size = 64
    if depth <= 0:
        return size
    if isinstance(obj, dict):
        for k, v in obj.items():
            size += estimate_bytes(k, depth - 1)
            size += estimate_bytes(v, depth - 1)
        return size
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += estimate_bytes(item, depth - 1)
        return size
    inner = getattr(obj, "__dict__", None)
    if inner:
        size += estimate_bytes(inner, depth - 1)
    return size


class DynamicCheckMemo:
    """Memoizes :func:`~repro.core.checks.dynamic_cross_check` results.

    Keyed by (domain, ((functor description, mode), ...), color bounds):
    everything the check's outcome depends on, and nothing tied to a
    particular launch.  The memoized :class:`CheckResult` carries the
    evaluation count the original run paid, so verdicts assembled from
    memoized checks report the same ``check_evaluations`` as fresh ones.

    Service-grade bounding: ``entry_budget`` / ``byte_budget`` cap the memo
    with LRU eviction (both ``None`` by default = unbounded, the batch-mode
    behavior).  An evicted key behaves exactly like a cold miss — the check
    is pure in its key, so the re-evaluated result is byte-identical.
    """

    def __init__(self, entry_budget: Optional[int] = None,
                 byte_budget: Optional[int] = None):
        self._cache: "OrderedDict[tuple, CheckResult]" = OrderedDict()
        self._sizes: Dict[tuple, int] = {}
        self._bytes = 0
        self.entry_budget = entry_budget
        self.byte_budget = byte_budget
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: optional (functor, points) -> values evaluator replacing
        #: ``functor.apply_batch`` — exact-preserving by contract (the
        #: parallel backend installs its chunked worker-pool sweep here).
        self.batch_evaluator = None
        #: optional :class:`~repro.runtime.kernels.CheckKernelCache`
        #: delegated to on memo misses (``RuntimeConfig.kernels``): a
        #: process-wide store of compiled check verdicts that outlives this
        #: memo's clears and serves affine constant verdicts without a
        #: sweep.  None runs the plain vectorized check.
        self.kernels = None

    def clear(self) -> int:
        n = len(self._cache)
        self._cache.clear()
        self._sizes.clear()
        self._bytes = 0
        return n

    @property
    def bytes_estimate(self) -> int:
        """Estimated resident bytes of the memoized results."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._cache)

    def _over_budget(self) -> bool:
        if self.entry_budget is not None and len(self._cache) > self.entry_budget:
            return True
        return self.byte_budget is not None and self._bytes > self.byte_budget

    def _store(self, key: tuple, result: CheckResult) -> None:
        est = estimate_bytes(key) + estimate_bytes(result)
        self._cache[key] = result
        self._bytes += est - self._sizes.get(key, 0)
        self._sizes[key] = est
        # Never evict the entry just stored (it is the MRU end), so a
        # budget of 1 still serves the launch being issued.
        while self._over_budget() and len(self._cache) > 1:
            old_key, _ = self._cache.popitem(last=False)
            self._bytes -= self._sizes.pop(old_key, 0)
            self.evictions += 1

    def export_entries(self) -> List[tuple]:
        """The memo contents as a picklable ``[(key, result), ...]`` list,
        oldest first (so ingesting preserves recency order)."""
        return list(self._cache.items())

    def ingest_entries(self, entries) -> int:
        """Install persisted (key, result) pairs, oldest first, without
        counting hits/misses; returns how many were installed.  Existing
        entries win (they are fresher than the snapshot)."""
        n = 0
        for key, result in entries:
            if key not in self._cache:
                self._store(key, result)
                n += 1
        return n

    def run(self, domain, args, bounds, use_numpy: bool = True) -> CheckResult:
        """Drop-in for ``dynamic_cross_check`` (see ``check_memo`` in
        :func:`~repro.core.safety.analyze_launch_safety`)."""
        key = (
            domain,
            tuple((functor.describe(), mode) for functor, mode in args),
            bounds,
            use_numpy,
        )
        found = self._cache.get(key)
        if found is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return found
        self.misses += 1
        if self.kernels is not None:
            result = self.kernels.run(
                domain, args, bounds, use_numpy=use_numpy,
                apply_batch=self.batch_evaluator,
            )
        else:
            result = dynamic_cross_check(
                domain, args, bounds, use_numpy=use_numpy,
                apply_batch=self.batch_evaluator,
            )
        self._store(key, result)
        return result


@dataclass
class PointPlan:
    """Everything reusable about one point task of a cached launch."""

    task_launch: TaskLaunch
    requirements: List[RegionRequirement]
    accesses: List[tuple]  # (subregion, privilege, fields) for the analyzer
    regions: List[PhysicalRegion]

    @classmethod
    def of(cls, task_launch: TaskLaunch) -> "PointPlan":
        """The plan of a task launch with concrete requirements."""
        reqs = task_launch.requirements
        triples = [(r.subregion, r.privilege, r.resolved_fields()) for r in reqs]
        return cls(task_launch, list(reqs), triples,
                   [PhysicalRegion(*t) for t in triples])


@dataclass
class ExpansionTemplate:
    """Memoized ``launch.point_task`` expansion for one launch signature.

    The concrete requirements depend only on the signature (partition,
    functor, domain).  The cached :class:`TaskLaunch` objects additionally
    bake in the broadcast ``args``, so they are reused only while the
    reissued launch carries identical args and no per-point argument map;
    otherwise fresh ``TaskLaunch`` objects are built from the cached
    requirements (still skipping every ``req.project`` call).
    """

    plans: Dict[tuple, PointPlan] = field(default_factory=dict)
    base_args: tuple = ()
    had_point_args: bool = False
    #: one-slot ordered plan-list arena (hot-path engine, layer 3): the
    #: (node, plan) list for one distribution assignment, reusable across
    #: replays while the template itself is reusable and the assignment
    #: object is the same (the sharding cache returns a stable dict per
    #: (mapper, domain, nodes), so identity is the validity token).
    plan_list_key: Optional[object] = field(default=None, repr=False)
    plan_list: Optional[list] = field(default=None, repr=False)

    def reusable_for(self, launch: IndexLaunch) -> bool:
        return (
            not self.had_point_args
            and launch.point_args is None
            and launch.args == self.base_args
        )

    def ordered_plans(self, launch: IndexLaunch, assignment) -> Optional[list]:
        """The cached [(node, PointPlan)] list for ``assignment``, or None.

        Only valid when the baked-in TaskLaunch objects are reusable as-is;
        callers build (and may :meth:`store_plans`) otherwise.
        """
        if self.plan_list_key is assignment and self.reusable_for(launch):
            return self.plan_list
        return None

    def store_plans(self, launch: IndexLaunch, assignment, plans: list) -> None:
        if self.reusable_for(launch):
            self.plan_list_key = assignment
            self.plan_list = plans

    def add_point(self, launch: IndexLaunch, point) -> PointPlan:
        """Expand ``point`` for the first time and keep its plan."""
        plan = self.plans[tuple(point)] = PointPlan.of(launch.point_task(point))
        return plan

    def point_plan(self, launch: IndexLaunch, point) -> PointPlan:
        """The plan for ``point``, rebuilding the TaskLaunch if args moved."""
        plan = self.plans[tuple(point)]
        if self.reusable_for(launch):
            return plan
        extra = (
            launch.point_args.get(plan.task_launch.point)
            if launch.point_args is not None
            else ()
        )
        fresh = TaskLaunch(
            task=launch.task,
            requirements=plan.requirements,
            args=launch.args + extra,
            point=plan.task_launch.point,
            parent=launch,
        )
        return PointPlan(fresh, plan.requirements, plan.accesses, plan.regions)


class LaunchReplayCache:
    """The per-runtime store for all launch-keyed memoization layers.

    Service-grade bounding (``entry_budget`` / ``byte_budget``): one LRU
    over launch *signatures* — touching any layer of a signature refreshes
    it; storing into any layer accounts it; going over budget evicts the
    least-recently-used signature *whole* (verdicts, expansion, physical
    template together).  Eviction is mechanically ``poison_signature`` but
    semantically a cold miss: every layer's absence already falls back to
    recomputation, and each layer is pure in the signature (the physical
    template additionally self-validates), so a reissued evicted launch is
    byte-identical to a never-cached one.  Both budgets default to ``None``
    = unbounded, the original batch-mode behavior.
    """

    def __init__(self, profiler=None, entry_budget: Optional[int] = None,
                 byte_budget: Optional[int] = None):
        self._verdicts: Dict[tuple, SafetyVerdict] = {}
        self._replayed: Dict[tuple, SafetyVerdict] = {}
        self._expansions: Dict[tuple, ExpansionTemplate] = {}
        self._physical: Dict[tuple, DependenceTemplate] = {}
        self.check_memo = DynamicCheckMemo(
            entry_budget=entry_budget, byte_budget=byte_budget
        )
        self._profiler = profiler
        self.entry_budget = entry_budget
        self.byte_budget = byte_budget
        self._lru: "OrderedDict[tuple, int]" = OrderedDict()  # sig -> est bytes
        self._bytes = 0
        self.evictions = 0

    def _note(self, layer: str, outcome: str) -> None:
        prof = self._profiler
        if prof is not None and prof.enabled:
            prof.count("cache.lookups", 1.0, layer=layer, outcome=outcome)

    # ------------------------------------------------------------ budgeting
    @property
    def bytes_estimate(self) -> int:
        """Estimated resident bytes across the signature-keyed layers."""
        return self._bytes

    def __len__(self) -> int:
        """Distinct signatures currently tracked by the LRU."""
        return len(self._lru)

    def _touch(self, sig: tuple) -> None:
        if sig in self._lru:
            self._lru.move_to_end(sig)

    def _account(self, sig: tuple, obj) -> None:
        """Charge ``obj``'s estimated size to ``sig`` and enforce budgets."""
        if self.entry_budget is None and self.byte_budget is None:
            return  # unbounded: skip the estimator entirely (hot path)
        est = estimate_bytes(obj)
        if sig in self._lru:
            self._lru[sig] += est
            self._lru.move_to_end(sig)
        else:
            self._lru[sig] = est
        self._bytes += est
        while self._over_budget() and len(self._lru) > 1:
            # The signature just stored sits at the MRU end, so the LRU
            # head is always a *different* signature: the launch being
            # issued keeps its own layers even under a budget of 1.
            old_sig, old_est = self._lru.popitem(last=False)
            self._bytes -= old_est
            self._evict(old_sig)

    def _over_budget(self) -> bool:
        if self.entry_budget is not None and len(self._lru) > self.entry_budget:
            return True
        return self.byte_budget is not None and self._bytes > self.byte_budget

    def _evict(self, sig: tuple) -> None:
        """Drop every layer of one signature (LRU eviction = cold miss)."""
        for run_dynamic in (True, False):
            self._verdicts.pop((sig, run_dynamic), None)
            self._replayed.pop((sig, run_dynamic), None)
        self._expansions.pop(sig, None)
        self._physical.pop(sig, None)
        self.evictions += 1
        self._note("evict", "dropped")

    def _forget(self, sig: tuple) -> None:
        """Stop tracking a signature whose layers were dropped elsewhere."""
        est = self._lru.pop(sig, None)
        if est is not None:
            self._bytes -= est

    # ------------------------------------------------------------- verdicts
    def replayed_verdict(
        self, sig: tuple, run_dynamic: bool
    ) -> Optional[SafetyVerdict]:
        """The memoized ``cached=True`` variant of a stored verdict.

        Steady-state replays append one verdict per launch to the safety
        log; building the flagged copy once (instead of a fresh
        ``dataclasses.replace`` per replay) keeps the log's growth to one
        shared pointer per launch.
        """
        key = (sig, run_dynamic)
        found = self._replayed.get(key)
        if found is None:
            base = self._verdicts.get(key)
            self._note("verdict", "hit" if base is not None else "miss")
            if base is None:
                return None
            found = replace(base, cached=True)
            self._replayed[key] = found
            self._touch(sig)
        else:
            self._note("verdict", "hit")
            self._touch(sig)
        return found

    def put_verdict(self, sig: tuple, run_dynamic: bool, verdict: SafetyVerdict):
        self._verdicts[(sig, run_dynamic)] = verdict
        self._account(sig, verdict)
        self._note("verdict", "stored")

    # ------------------------------------------------------------ expansion
    def get_expansion(self, sig: tuple) -> Optional[ExpansionTemplate]:
        found = self._expansions.get(sig)
        self._note("expansion", "hit" if found is not None else "miss")
        if found is not None:
            self._touch(sig)
        return found

    def put_expansion(self, sig: tuple, template: ExpansionTemplate):
        self._expansions[sig] = template
        self._account(sig, template)
        self._note("expansion", "stored")

    # ------------------------------------------------------------- physical
    def get_physical(self, sig: tuple) -> Optional[DependenceTemplate]:
        found = self._physical.get(sig)
        self._note("physical", "hit" if found is not None else "miss")
        if found is not None:
            self._touch(sig)
        return found

    def put_physical(self, sig: tuple, template: DependenceTemplate):
        self._physical[sig] = template
        self._account(sig, template)
        self._note("physical", "stored")

    def drop_physical_for(self, sig: tuple) -> bool:
        dropped = self._physical.pop(sig, None) is not None
        if dropped:
            self._note("physical", "dropped")
        return dropped

    def drop_physical(self) -> int:
        """Drop every physical template (trace break); returns the count."""
        n = len(self._physical)
        self._physical.clear()
        return n

    # ---------------------------------------------------------------- poison
    def poison_signature(self, sig: tuple) -> int:
        """Drop every memoized layer for one signature (poisoned launch).

        A launch that was abandoned mid-flight may have left partial
        effects, so nothing recorded under its signature — verdicts,
        expansion, dependence template — can be trusted for a reissue.
        Returns how many entries were dropped.
        """
        n = 0
        for run_dynamic in (True, False):
            if self._verdicts.pop((sig, run_dynamic), None) is not None:
                n += 1
            self._replayed.pop((sig, run_dynamic), None)
        if self._expansions.pop(sig, None) is not None:
            n += 1
        if self._physical.pop(sig, None) is not None:
            n += 1
        self._forget(sig)
        if n:
            self._note("poison", "dropped")
        return n

    # ----------------------------------------------------------- wholesale
    def clear(self) -> int:
        """Drop everything; returns how many entries were dropped."""
        n = (
            len(self._verdicts)
            + len(self._expansions)
            + len(self._physical)
            + self.check_memo.clear()
        )
        self._verdicts.clear()
        self._replayed.clear()
        self._expansions.clear()
        self._physical.clear()
        self._lru.clear()
        self._bytes = 0
        return n
