"""Launch-replay cache: memoized per-launch analysis (ROADMAP hot path).

Iterative workloads reissue the *same* index launch every timestep, and the
Section-5 pipeline work for it is amortizable.  This module groups the
memoization layers, all keyed by the runtime's ``_launch_signature`` —
(task uid, domain, per-requirement (partition uid, functor key, privilege)):

1. **Safety verdicts** (:meth:`LaunchReplayCache.replayed_verdict`): the full
   hybrid static/dynamic :class:`~repro.core.safety.SafetyVerdict` of §3–§4
   is a pure function of the signature, so repeated issues reuse it whole.
2. **Dynamic check results** (:class:`DynamicCheckMemo`): the Listing-3
   bitmask checks are pure in (domain, functors+modes, color bounds) — a
   strictly *coarser* key than the launch signature — so even distinct
   launches sharing a functor/domain pair skip re-evaluation.
3. **Expansion templates** (:class:`ExpansionTemplate`): per point, a
   :class:`PointPlan` of args, dependence-analysis access triples and
   :class:`~repro.runtime.task.PhysicalRegion` views, built from one
   batched projection per requirement
   (:meth:`~repro.core.launch.RegionRequirement.project_all`) — once per
   distinct launch, not once per issue.  No ``TaskLaunch`` is built for
   a point unless a caller asks for one.
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
from itertools import starmap
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.checks import CheckResult, dynamic_cross_check
from repro.core.launch import IndexLaunch, RegionRequirement, TaskLaunch
from repro.core.safety import SafetyVerdict
from repro.runtime.physical import DependenceTemplate
from repro.runtime.task import PhysicalRegion

__all__ = [
    "DynamicCheckMemo",
    "PointPlan",
    "point_plans",
    "ExpansionTemplate",
    "LaunchReplayCache",
    "estimate_bytes",
]


def estimate_bytes(obj, depth: int = 3) -> int:
    """Best-effort recursive size estimate for cache budgeting.

    Deliberately an *estimate*: shared substructure is double-counted and
    recursion is depth-capped, so the number bounds growth rather than
    reports exact RSS.  numpy buffers (the dominant payloads — check masks,
    sparse indices) are counted exactly via ``nbytes``, and attributes
    whether in ``__dict__`` or ``__slots__``.
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
    for name in getattr(type(obj), "__slots__", ()):
        size += estimate_bytes(getattr(obj, name, None), depth - 1)
    return size


class DynamicCheckMemo:
    """Memoizes :func:`~repro.core.checks.dynamic_cross_check` results.

    Keyed by (domain, ((functor key, mode), ...), color bounds): everything
    the check's outcome depends on, and nothing tied to a particular
    launch.  The memoized :class:`CheckResult` carries the
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
        """Estimated resident bytes of the memoized results: charged as
        they are stored under a byte budget, summed when read otherwise."""
        if self.byte_budget is not None:
            return self._bytes
        return sum(estimate_bytes(k) + estimate_bytes(v)
                   for k, v in self._cache.items())

    def __len__(self) -> int:
        return len(self._cache)

    def _over_budget(self) -> bool:
        if self.entry_budget is not None and len(self._cache) > self.entry_budget:
            return True
        return self.byte_budget is not None and self._bytes > self.byte_budget

    def _store(self, key: tuple, result: CheckResult) -> None:
        self._cache[key] = result
        if self.byte_budget is not None:
            est = estimate_bytes(key) + estimate_bytes(result)
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
            tuple((functor.key, mode) for functor, mode in args),
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
            result = self.kernels.run(key, domain, args, bounds, use_numpy)
        else:
            result = dynamic_cross_check(domain, args, bounds,
                                         use_numpy=use_numpy)
        self._store(key, result)
        return result


@dataclass(slots=True)
class PointPlan:
    """Everything reusable about one point task: its point and args, the
    accesses the analyzer reads and the :class:`PhysicalRegion` views its
    body gets.  A single task hands in its :class:`TaskLaunch`
    (:meth:`of`); an index launch's plans (:func:`point_plans`) build one
    from ``parent`` only when asked (a profiler span name).
    """

    point: Optional[tuple]
    args: tuple
    accesses: Sequence[tuple]  # (subregion, privilege, fields) triples
    regions: Sequence[PhysicalRegion]
    parent: Optional[IndexLaunch] = None
    _task_launch: Optional[TaskLaunch] = None

    @classmethod
    def of(cls, task_launch: TaskLaunch) -> "PointPlan":
        """The plan of a task launch with concrete requirements."""
        triples = [(r.subregion, r.privilege, r.resolved_fields())
                   for r in task_launch.requirements]
        return cls(task_launch.point, task_launch.args, triples,
                   [PhysicalRegion(*t) for t in triples],
                   task_launch.parent, task_launch)

    @property
    def task_launch(self) -> TaskLaunch:
        """The point task, with concrete requirements (built once)."""
        if self._task_launch is None:
            launch = self.parent
            reqs = [RegionRequirement(r.privilege, r.fields, subregion=acc[0])
                    for r, acc in zip(launch.requirements, self.accesses)]
            self._task_launch = TaskLaunch(launch.task, reqs, self.args,
                                           self.point, parent=launch)
        return self._task_launch


def point_plans(launch: IndexLaunch, points: Sequence) -> List[PointPlan]:
    """One :class:`PointPlan` per point of ``launch``, in order, from one
    batched projection per requirement
    (:meth:`~repro.core.launch.RegionRequirement.project_all`)."""
    columns = [
        [(sub, req.privilege, fields) for sub in req.project_all(points)]
        for req in launch.requirements
        for fields in (req.resolved_fields(),)
    ]
    rows = zip(*columns) if columns else [()] * len(points)
    args, extra = launch.args, launch.point_args
    return [
        PointPlan(point, args if extra is None else args + extra.get(point),
                  acc, list(starmap(PhysicalRegion, acc)), launch)
        for point, acc in zip(points, rows)
    ]


@dataclass
class ExpansionTemplate:
    """The memoized expansion of one launch signature: one
    :class:`PointPlan` per point, built once by :meth:`expand`.

    The accesses and region views depend only on the signature
    (partition, functor, domain).  A plan's args also bake in the
    broadcast ``args`` and any per-point :class:`ArgumentMap` extra, so a
    reissue whose args moved gets fresh plans that share the cached
    accesses and views (:meth:`point_plan`).  Neither path builds a
    :class:`TaskLaunch`, and only :meth:`expand` projects: once per
    requirement.
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
        """Whether the baked-in args serve ``launch``: args that cannot be
        compared with ``==`` (numpy arrays) are not the same args."""
        if self.had_point_args or launch.point_args is not None:
            return False
        try:
            return launch.args == self.base_args
        except Exception:
            return False

    def expand(self, launch: IndexLaunch, assignment) -> list:
        """The first expansion of ``launch``: the [(node, PointPlan)] list
        in serial plan order (sorted node, then the node's points), each
        plan kept under its point."""
        flat = [(node, point)
                for node in sorted(assignment) for point in assignment[node]]
        plans = []
        for (node, point), plan in zip(
            flat, point_plans(launch, [point for _, point in flat])
        ):
            self.plans[tuple(point)] = plan
            plans.append((node, plan))
        self._keep(launch, assignment, plans)
        return plans

    def reissue(self, launch: IndexLaunch, assignment) -> list:
        """The [(node, PointPlan)] list of a reissue: the kept list while
        its assignment object and args still hold, else one rebuilt from
        the cached plans (:meth:`point_plan`) and kept."""
        if self.plan_list_key is assignment and self.reusable_for(launch):
            return self.plan_list
        plans = [
            (node, self.point_plan(launch, point))
            for node in sorted(assignment) for point in assignment[node]
        ]
        self._keep(launch, assignment, plans)
        return plans

    def _keep(self, launch: IndexLaunch, assignment, plans: list) -> None:
        if self.reusable_for(launch):
            self.plan_list_key = assignment
            self.plan_list = plans

    def point_plan(self, launch: IndexLaunch, point) -> PointPlan:
        """The plan for ``point``; if args moved, a fresh plan carrying
        them that shares the cached accesses and views."""
        plan = self.plans[tuple(point)]
        if self.reusable_for(launch):
            return plan
        extra = launch.point_args
        args = launch.args + (() if extra is None else extra.get(plan.point))
        return PointPlan(plan.point, args, plan.accesses, plan.regions, launch)


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
    byte-identical to a never-cached one.  A byte budget charges each
    signature per layer, so a layer dropped on its own (a physical template
    on a trace break or a failed validation) stops being charged.  Both
    budgets default to ``None`` = unbounded, the original batch-mode
    behavior.
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
        #: sig -> {layer: estimated bytes} (estimates under a byte budget)
        self._lru: "OrderedDict[tuple, Dict[object, int]]" = OrderedDict()
        self._bytes = 0
        self.evictions = 0

    def _note(self, layer: str, outcome: str) -> None:
        prof = self._profiler
        if prof is not None and prof.enabled:
            prof.count("cache.lookups", 1.0, layer=layer, outcome=outcome)

    # ------------------------------------------------------------ budgeting
    @property
    def bytes_estimate(self) -> int:
        """Estimated resident bytes across the signature-keyed layers:
        charged per layer as stored under a byte budget, summed over the
        live entries when read otherwise."""
        if self.byte_budget is not None:
            return self._bytes
        layers = (self._verdicts, self._expansions, self._physical)
        return sum(estimate_bytes(v) for d in layers for v in d.values())

    def __len__(self) -> int:
        """Distinct signatures currently tracked by the LRU."""
        return len(self._lru)

    def _touch(self, sig: tuple) -> None:
        if sig in self._lru:
            self._lru.move_to_end(sig)

    def _account(self, sig: tuple, layer, obj) -> None:
        """Make ``sig`` the most recent signature and enforce budgets.

        Only a byte budget estimates ``obj``: its size replaces whatever
        ``layer`` of ``sig`` was charged before (an entry budget counts
        signatures, and an unbounded cache tracks nothing).
        """
        if self.entry_budget is None and self.byte_budget is None:
            return  # unbounded: nothing to track (hot path)
        charges = self._lru.setdefault(sig, {})
        self._lru.move_to_end(sig)
        if self.byte_budget is not None:
            est = estimate_bytes(obj)
            self._bytes += est - charges.get(layer, 0)
            charges[layer] = est
        while self._over_budget() and len(self._lru) > 1:
            # The signature just stored sits at the MRU end, so the LRU
            # head is always a *different* signature: the launch being
            # issued keeps its own layers even under a budget of 1.
            old_sig, old = self._lru.popitem(last=False)
            self._bytes -= sum(old.values())
            self._evict(old_sig)

    def _discharge(self, sig: tuple, layer) -> None:
        """Stop charging one dropped layer of a signature."""
        self._bytes -= self._lru.get(sig, {}).pop(layer, 0)

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
        self._bytes -= sum(self._lru.pop(sig, {}).values())

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
        self._account(sig, ("verdict", run_dynamic), verdict)
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
        self._account(sig, "expansion", template)
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
        self._account(sig, "physical", template)
        self._note("physical", "stored")

    def drop_physical_for(self, sig: tuple) -> bool:
        dropped = self._physical.pop(sig, None) is not None
        if dropped:
            self._discharge(sig, "physical")
            self._note("physical", "dropped")
        return dropped

    def drop_physical(self) -> int:
        """Drop every physical template (trace break); returns the count."""
        for sig in self._physical:
            self._discharge(sig, "physical")
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
