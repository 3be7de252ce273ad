"""Launch-replay cache: memoized per-launch analysis (ROADMAP hot path).

Iterative workloads reissue the *same* index launch every timestep, and the
Section-5 pipeline work for it is amortizable.  This module holds the
front-ends of the memo layers keyed by the runtime's ``_launch_signature``
— (task uid, domain, per-requirement (partition uid, functor key,
privilege)) — and of the dynamic-check memo.  Each keeps only its miss
computation; keys, budgets, eviction, counters and invalidation are the
:class:`~repro.runtime.store.AnalysisStore`'s:

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
   a point.  A plan list that is reissued also keeps its prepared body
   calls (:func:`prepared_calls`), so a steady replay's execution loop
   builds no object per point.
4. **Physical dependence templates**
   (:class:`~repro.runtime.physical.DependenceTemplate`): recorded on a
   trace-validated replay and re-stamped with fresh task ids on later
   replays; dropped (``store.drop("physical")``) whenever a trace breaks.

Layers 1–3 are context-free (valid whenever the signature matches); layer 4
depends on the analyzer's state and is therefore both gated on trace
validation and self-validating (see :mod:`repro.runtime.physical`).

The sharding/slicing memos are front-ends over the runtime's distribution
store (:class:`~repro.runtime.mapper.ShardingCache`,
:class:`~repro.runtime.distribution.SlicingCache`); the runtime's
``invalidate_analysis_cache`` drops every layer of every store it owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import starmap
from typing import Dict, List, Optional, Sequence

from repro.core.checks import CheckResult, dynamic_cross_check
from repro.core.launch import IndexLaunch, TaskLaunch
from repro.core.safety import SafetyVerdict
from repro.runtime.physical import DependenceTemplate
from repro.runtime.store import AnalysisStore, estimate_bytes
from repro.runtime.task import PhysicalRegion, TaskContext

__all__ = [
    "DynamicCheckMemo",
    "PointPlan",
    "point_plans",
    "prepared_calls",
    "ExpansionTemplate",
    "LaunchReplayCache",
    "estimate_bytes",
]


class DynamicCheckMemo:
    """Memoizes :func:`~repro.core.checks.dynamic_cross_check` results in
    the ``check`` layer of its own store, under the budgets given.

    Keyed by (domain, ((functor key, mode), ...), color bounds): everything
    the check's outcome depends on, and nothing tied to a particular
    launch.  The memoized :class:`CheckResult` carries the
    evaluation count the original run paid, so verdicts assembled from
    memoized checks report the same ``check_evaluations`` as fresh ones.
    """

    def __init__(self, entry_budget: Optional[int] = None,
                 byte_budget: Optional[int] = None):
        self.store = AnalysisStore(entry_budget, byte_budget)
        #: optional :class:`~repro.runtime.kernels.CheckKernelCache`
        #: delegated to on memo misses (``RuntimeConfig.kernels``): the
        #: process tier's check verdicts, which outlive this memo's
        #: invalidations.  None runs the plain vectorized check.
        self.kernels = None

    hits = property(lambda self: self.store.hits["check"])
    misses = property(lambda self: self.store.misses["check"])
    evictions = property(lambda self: self.store.groups_evicted)
    bytes_estimate = property(lambda self: self.store.bytes_estimate)

    def __len__(self) -> int:
        return len(self.store)

    def export_entries(self) -> List[tuple]:
        """The memo as ``[(key, result), ...]``, least recent first."""
        return self.store.export("check")

    def ingest_entries(self, entries) -> int:
        """Install persisted (key, result) pairs; returns how many."""
        return self.store.ingest("check", entries)

    def run(self, domain, args, bounds, use_numpy: bool = True) -> CheckResult:
        """Drop-in for ``dynamic_cross_check`` (see ``check_memo`` in
        :func:`~repro.core.safety.analyze_launch_safety`)."""
        key = (
            domain,
            tuple((functor.key, mode) for functor, mode in args),
            bounds,
            use_numpy,
        )
        found = self.store.get("check", key)
        if found is None:
            if self.kernels is not None:
                found = self.kernels.run(key, domain, args, bounds, use_numpy)
            else:
                found = dynamic_cross_check(domain, args, bounds,
                                            use_numpy=use_numpy)
            self.store.put("check", key, found)
        return found


@dataclass(slots=True)
class PointPlan:
    """Everything reusable about one point task: its point and args, the
    accesses the analyzer reads and the :class:`PhysicalRegion` views its
    body gets.  A single task's comes from its :class:`TaskLaunch`
    (:meth:`of`); an index launch's from :func:`point_plans`.
    """

    point: Optional[tuple]
    args: tuple
    accesses: Sequence[tuple]  # (subregion, privilege, fields) triples
    regions: Sequence[PhysicalRegion]

    @classmethod
    def of(cls, task_launch: TaskLaunch) -> "PointPlan":
        """The plan of a task launch with concrete requirements."""
        triples = [(r.subregion, r.privilege, r.resolved_fields())
                   for r in task_launch.requirements]
        return cls(task_launch.point, task_launch.args, triples,
                   [PhysicalRegion(*t) for t in triples])


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
                  acc, list(starmap(PhysicalRegion, acc)))
        for point, acc in zip(points, rows)
    ]


def prepared_calls(plans: list, runtime) -> list:
    """The body call of each ``(node, PointPlan)`` of ``plans``, in order,
    as ``(point, context, (*regions, *args))``: what the execution loop
    (:meth:`~repro.exec.backend.ExecutionBackend.execute`) runs."""
    return [
        (pp.point, TaskContext(pp.point, node, runtime),
         (*pp.regions, *pp.args))
        for node, pp in plans
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
    #: object is the same (the sharding and slicing memos hand out one
    #: assignment per (mapper key, domain, nodes), so identity is the
    #: validity token).
    plan_list_key: Optional[object] = field(default=None, repr=False)
    plan_list: Optional[list] = field(default=None, repr=False)
    #: the launch's stage records for one assignment
    #: (``Runtime._launch_rows``): the same identity token, whatever the
    #: args
    rows_key: Optional[object] = field(default=None, repr=False)
    rows: Optional[dict] = field(default=None, repr=False)
    #: the kept plan list's :func:`prepared_calls`, built on its first
    #: reissue: a first expansion is often the only one (``first_issue``
    #: cycles past its cache budget), so it builds nothing it might not
    #: reuse.  Contexts are immutable, so every replay shares them.
    calls: Optional[list] = field(default=None, repr=False)

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

    def reissue(self, launch: IndexLaunch, assignment, runtime) -> tuple:
        """The [(node, PointPlan)] list of a reissue and its prepared calls
        (None: the loop prepares them): the kept list and its calls while
        its assignment object and args still hold, else a list rebuilt
        from the cached plans (:meth:`point_plan`) and kept."""
        if self.plan_list_key is assignment and self.reusable_for(launch):
            if self.calls is None:
                self.calls = prepared_calls(self.plan_list, runtime)
            return self.plan_list, self.calls
        plans = [
            (node, self.point_plan(launch, point))
            for node in sorted(assignment) for point in assignment[node]
        ]
        self._keep(launch, assignment, plans)
        return plans, None

    def _keep(self, launch: IndexLaunch, assignment, plans: list) -> None:
        if self.reusable_for(launch):
            self.plan_list_key = assignment
            self.plan_list = plans
            self.calls = None

    def point_plan(self, launch: IndexLaunch, point) -> PointPlan:
        """The plan for ``point``; if args moved, a fresh plan carrying
        them that shares the cached accesses and views."""
        plan = self.plans[tuple(point)]
        if self.reusable_for(launch):
            return plan
        extra = launch.point_args
        args = launch.args + (() if extra is None else extra.get(plan.point))
        return PointPlan(plan.point, args, plan.accesses, plan.regions)


#: the verdict layer's name, by ``run_dynamic``
_VERDICT = ("verdict/static", "verdict")


class LaunchReplayCache:
    """The launch-signature layers of the per-runtime analysis store.

    One :class:`~repro.runtime.store.AnalysisStore` group per signature
    holds its verdict, expansion template and physical template; the
    runtime's budgets bound it, and evicting a signature drops its layers
    together — a cold miss, since every layer is pure in the signature
    (the physical template additionally self-validates).  The dynamic
    checks have their own store (:attr:`check_memo`), whose key is coarser
    than a signature.
    """

    def __init__(self, profiler=None, entry_budget: Optional[int] = None,
                 byte_budget: Optional[int] = None):
        self.store = AnalysisStore(entry_budget, byte_budget, profiler)
        self.check_memo = DynamicCheckMemo(entry_budget, byte_budget)

    evictions = property(lambda self: self.store.groups_evicted)
    bytes_estimate = property(lambda self: self.store.bytes_estimate)

    def __len__(self) -> int:
        """Distinct signatures held."""
        return len(self.store)

    def replayed_verdict(
        self, sig: tuple, run_dynamic: bool
    ) -> Optional[SafetyVerdict]:
        """The stored verdict, flagged ``cached=True``.

        The first replay swaps the stored verdict for its flagged copy, so
        steady-state replays append one shared object per launch to the
        safety log instead of a fresh ``dataclasses.replace`` each.
        """
        layer = _VERDICT[run_dynamic]
        found = self.store.get(layer, sig)
        if found is not None and not found.cached:
            found = replace(found, cached=True)
            self.store.put(layer, sig, found)
        return found

    def put_verdict(self, sig: tuple, run_dynamic: bool, verdict: SafetyVerdict):
        self.store.put(_VERDICT[run_dynamic], sig, verdict)

    def get_expansion(self, sig: tuple) -> Optional[ExpansionTemplate]:
        return self.store.get("expansion", sig)

    def put_expansion(self, sig: tuple, template: ExpansionTemplate):
        self.store.put("expansion", sig, template)

    def get_physical(self, sig: tuple) -> Optional[DependenceTemplate]:
        return self.store.get("physical", sig)

    def put_physical(self, sig: tuple, template: DependenceTemplate):
        self.store.put("physical", sig, template)
