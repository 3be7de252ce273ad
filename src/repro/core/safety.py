"""Launch safety analysis: the hybrid static/dynamic decision procedure (§3–§4).

An index launch is *valid* when its tasks are pairwise non-interfering.  The
paper factors this into:

**Self-checks** — for each argument <P_i, f_i>: the privilege is read (or a
reduction), OR ``P_i`` is disjoint and ``f_i`` injective over the launch
domain.

**Cross-checks** — for each pair <P_i, f_i>, <P_j, f_j>: both privileges are
read (or same-operator reductions), OR the arguments name partitions of
distinct collections, OR they share one disjoint partition and the functor
images over the domain are disjoint.

The procedure here first applies the static analysis
(:mod:`repro.core.static_analysis`); whatever remains undecided is resolved
with the dynamic checks of :mod:`repro.core.checks` — unless the caller
disables them (``run_dynamic=False``), in which case undecided launches are
reported as unverified, matching the paper's "checks can be disabled for
production runs" behaviour (correctness of a valid program never depends on
the check).

Cross-checks on a shared partition are batched: all arguments naming the
same partition are verified with a *single* shared bitmask, writes before
reads, which is the linear-time algorithm of Section 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.checks import CheckResult, dynamic_cross_check
from repro.core.domain import Domain
from repro.core.launch import IndexLaunch, RegionRequirement
from repro.core.static_analysis import (
    StaticVerdict,
    analyze_static,
    images_disjoint_static,
)
from repro.data.privileges import Privilege

__all__ = ["SafetyMethod", "SafetyVerdict", "analyze_launch_safety"]


class SafetyMethod(enum.Enum):
    """How (or whether) safety was established."""

    STATIC = "static"           # proven entirely at compile time
    HYBRID = "hybrid"           # static plus one or more dynamic checks
    UNVERIFIED = "unverified"   # dynamic checks were disabled; assumed valid
    UNSAFE = "unsafe"           # proven or detected interference


@dataclass
class SafetyVerdict:
    """Outcome of analyzing one index launch.

    Attributes:
        safe: False only when interference was positively established
            (statically, or by a failed dynamic check).
        method: how the conclusion was reached.
        reasons: human-readable audit trail, one entry per decision.
        dynamic_results: raw results of any dynamic checks that ran.
        check_evaluations: total projection-functor evaluations spent in
            dynamic checks — the O(|D|) cost the paper measures in
            Tables 2 and 3 (zero when everything was static).
        cached: True when this verdict was served from the launch-replay
            cache rather than computed afresh (check_evaluations then
            reports the cost the *original* analysis paid).
    """

    safe: bool
    method: SafetyMethod
    reasons: List[str] = field(default_factory=list)
    dynamic_results: List[CheckResult] = field(default_factory=list)
    check_evaluations: int = 0
    cached: bool = False


def _mode(req: RegionRequirement) -> str:
    """Collapse a privilege to the dynamic checks' read/write dichotomy.

    Reductions count as writes for the purposes of the bitmask checks, as in
    Section 4 ("for simplicity, we consider reductions to be writes").
    """
    return "read" if req.privilege.privilege is Privilege.READ else "write"


def analyze_launch_safety(
    launch: IndexLaunch,
    run_dynamic: bool = True,
    use_numpy: bool = True,
    check_memo=None,
) -> SafetyVerdict:
    """Apply the full Section-3 procedure to ``launch``.

    Args:
        launch: the candidate index launch.
        run_dynamic: emit/execute dynamic checks for statically undecided
            requirements.  When False, undecided launches come back with
            ``method=UNVERIFIED`` (and ``safe=True``, since the check is
            advisory).
        use_numpy: choose the vectorized check implementation.
        check_memo: optional memo with a ``run(domain, args, bounds,
            use_numpy)`` method (see
            :class:`repro.runtime.replay.DynamicCheckMemo`) substituted for
            :func:`dynamic_cross_check` — dynamic checks are pure in
            (domain, functors, bounds), so their results can be shared even
            across distinct launches.
    """
    run_check = dynamic_cross_check if check_memo is None else check_memo.run
    domain = launch.domain
    reasons: List[str] = []
    dynamic_results: List[CheckResult] = []
    needs_dynamic_self: List[int] = []

    # ------------------------------------------------------------ self-checks
    for idx, req in enumerate(launch.requirements):
        priv = req.privilege.privilege
        if priv is Privilege.READ:
            reasons.append(f"arg{idx}: read-only, self-check trivially passes")
            continue
        if priv is Privilege.REDUCE:
            reasons.append(f"arg{idx}: reduction, self-check trivially passes")
            continue
        if not req.partition.disjoint:
            reasons.append(
                f"arg{idx}: write privilege on aliased partition "
                f"{req.partition.name!r} — unsafe"
            )
            return SafetyVerdict(False, SafetyMethod.UNSAFE, reasons)
        verdict = analyze_static(domain, req.functor)
        if verdict is StaticVerdict.SAFE:
            reasons.append(
                f"arg{idx}: functor {req.functor.describe()} statically injective"
            )
        elif verdict is StaticVerdict.UNSAFE:
            reasons.append(
                f"arg{idx}: functor {req.functor.describe()} statically "
                f"non-injective over |D|={domain.volume} — unsafe"
            )
            return SafetyVerdict(False, SafetyMethod.UNSAFE, reasons)
        else:
            reasons.append(
                f"arg{idx}: functor {req.functor.describe()} undecided, "
                f"deferring to dynamic check"
            )
            needs_dynamic_self.append(idx)

    # ----------------------------------------------------------- cross-checks
    # Group by partition: pairs on distinct regions are disjoint collections
    # (rule 2); pairs on the same *partition* use the shared-bitmask check
    # (rule 3); pairs on different partitions of the same region cannot be
    # proven by whole-partition reasoning.
    cross_groups: Dict[int, List[int]] = {}
    n = len(launch.requirements)
    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = launch.requirements[i], launch.requirements[j]
            if ri.privilege.compatible_with(rj.privilege):
                continue  # both read, or same-op reductions
            if ri.region.uid != rj.region.uid:
                continue  # partitions of distinct (disjoint) collections
            if not set(ri.resolved_fields()) & set(rj.resolved_fields()):
                reasons.append(
                    f"args {i},{j}: disjoint field sets, no interference"
                )
                continue  # per-field privileges never alias
            if ri.partition.uid != rj.partition.uid:
                # Region-tree reasoning: partitions descending from
                # different colors of a common disjoint ancestor are
                # partitions of disjoint collections (cross-check rule 2,
                # generalized to nested partitions).
                if ri.partition.disjoint_from(rj.partition):
                    reasons.append(
                        f"args {i},{j}: partitions of disjoint sub-collections "
                        f"(region-tree ancestors differ)"
                    )
                    continue
                reasons.append(
                    f"args {i},{j}: conflicting privileges on different partitions "
                    f"({ri.partition.name!r} vs {rj.partition.name!r}) of region "
                    f"{ri.region.name!r} — whole-partition reasoning cannot prove "
                    f"independence; unsafe"
                )
                return SafetyVerdict(False, SafetyMethod.UNSAFE, reasons)
            if not ri.partition.disjoint:
                reasons.append(
                    f"args {i},{j}: conflicting privileges on aliased partition "
                    f"{ri.partition.name!r} — unsafe"
                )
                return SafetyVerdict(False, SafetyMethod.UNSAFE, reasons)
            static = images_disjoint_static(domain, ri.functor, rj.functor)
            if static is True:
                reasons.append(f"args {i},{j}: images statically disjoint")
                continue
            if static is False:
                reasons.append(
                    f"args {i},{j}: images statically overlap with conflicting "
                    f"privileges — unsafe"
                )
                return SafetyVerdict(False, SafetyMethod.UNSAFE, reasons)
            cross_groups.setdefault(ri.partition.uid, [])
            for k in (i, j):
                if k not in cross_groups[ri.partition.uid]:
                    cross_groups[ri.partition.uid].append(k)

    # Self-checks subsumed by a cross-check group need no separate pass: the
    # group check concatenates every write image, catching intra-argument
    # duplicates too.
    pending_self = [
        idx
        for idx in needs_dynamic_self
        if not any(idx in grp for grp in cross_groups.values())
    ]

    if not pending_self and not cross_groups:
        return SafetyVerdict(True, SafetyMethod.STATIC, reasons)

    if not run_dynamic:
        reasons.append(
            "dynamic checks disabled: launch assumed valid (checks are advisory)"
        )
        return SafetyVerdict(True, SafetyMethod.UNVERIFIED, reasons)

    evaluations = 0
    for idx in pending_self:
        req = launch.requirements[idx]
        result = run_check(
            domain,
            [(req.functor, "write")],
            req.partition.color_bounds,
            use_numpy=use_numpy,
        )
        dynamic_results.append(result)
        evaluations += result.evaluations
        if not result.safe:
            reasons.append(
                f"arg{idx}: dynamic self-check found duplicate at domain point "
                f"{result.conflict_point} — unsafe"
            )
            return SafetyVerdict(
                False, SafetyMethod.UNSAFE, reasons, dynamic_results, evaluations
            )
        reasons.append(f"arg{idx}: dynamic self-check passed")

    for part_uid, arg_indices in cross_groups.items():
        reqs = [(launch.requirements[k].functor, _mode(launch.requirements[k]))
                for k in arg_indices]
        bounds = launch.requirements[arg_indices[0]].partition.color_bounds
        result = run_check(domain, reqs, bounds, use_numpy=use_numpy)
        dynamic_results.append(result)
        evaluations += result.evaluations
        if not result.safe:
            bad = arg_indices[result.conflict_arg]
            reasons.append(
                f"args {arg_indices}: dynamic cross-check conflict via arg{bad} "
                f"at domain point {result.conflict_point} — unsafe"
            )
            return SafetyVerdict(
                False, SafetyMethod.UNSAFE, reasons, dynamic_results, evaluations
            )
        reasons.append(f"args {arg_indices}: dynamic cross-check passed")

    return SafetyVerdict(
        True, SafetyMethod.HYBRID, reasons, dynamic_results, evaluations
    )
