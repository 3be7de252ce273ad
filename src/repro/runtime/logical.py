"""Logical dependence analysis (Section 5, stage 2).

The logical phase identifies *bulk* dependencies between operations using
whole-partition reasoning: an index launch on partition P and one on
partition Q are independent when P and Q partition distinct collections.
It does not attempt to identify which tasks in a launch depend on which
tasks in another — that refinement is the physical phase's job.

The analysis is epoch-based, per region: compatible accesses (all reads, or
all same-operator reductions) coalesce into a group; an incompatible access
depends on every member of the current group (or on the previous exclusive
user when the group is empty) and opens a new epoch.

With index launches enabled, each launch is a single user of each region it
touches, so the per-launch cost is O(#args).  With them disabled, every
point task registers individually — the O(P) issuance/analysis cost the
paper's No-IDX configurations pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.data.privileges import Privilege, PrivilegeSpec

__all__ = ["LogicalDependence", "LogicalAnalyzer"]

FieldKey = Tuple[int, str]  # (region uid, field name)


@dataclass(frozen=True)
class LogicalDependence:
    """A bulk (launch-level) ordering edge discovered by the logical phase."""

    earlier_op: int
    later_op: int
    region_uid: int


def _epoch_mode(spec: PrivilegeSpec) -> Tuple[str, Optional[str]]:
    """Epoch signature: compatible accesses share a signature."""
    if spec.privilege is Privilege.READ:
        return ("read", None)
    if spec.privilege is Privilege.REDUCE:
        return ("reduce", spec.redop.name)
    return ("exclusive", None)


@dataclass
class _RegionState:
    exclusive: List[int] = field(default_factory=list)  # previous epoch's ops
    group_mode: Optional[Tuple[str, Optional[str]]] = None
    group: List[int] = field(default_factory=list)
    group_members: set = field(default_factory=set)  # O(1) membership


class LogicalAnalyzer:
    """Tracks per-region epochs and yields launch-level dependencies.

    Operations are identified by integer ids (the runtime's op sequence
    numbers); the analyzer is oblivious to whether an op is an index launch
    or an individual task — the *caller* chooses the granularity, which is
    exactly the IDX / No-IDX distinction.
    """

    def __init__(self, profiler=None):
        self._regions: Dict[FieldKey, _RegionState] = {}
        self.users_processed = 0  # one per (op, region-arg) registration
        self._profiler = profiler

    def record_field_access(
        self, op_id: int, region_uid: int, fname: str, privilege: PrivilegeSpec
    ) -> List[LogicalDependence]:
        """Register an access of ``op_id`` to one field of one region.

        Privileges are per-field (as in Legion): accesses to disjoint field
        sets of the same region never interfere, which is how a stencil's
        halo read of ``input`` coexists with block writes of ``output``."""
        state = self._regions.setdefault((region_uid, fname), _RegionState())
        mode = _epoch_mode(privilege)
        deps: List[LogicalDependence] = []

        if mode == ("exclusive", None):
            predecessors = state.group if state.group else state.exclusive
            deps = [
                LogicalDependence(prev, op_id, region_uid)
                for prev in predecessors
                if prev != op_id
            ]
            state.exclusive = [op_id]
            state.group = []
            state.group_members = set()
            state.group_mode = None
            return deps

        if state.group_mode == mode:
            # Joins the current epoch: depends only on the exclusive set.
            deps = [
                LogicalDependence(prev, op_id, region_uid)
                for prev in state.exclusive
                if prev != op_id
            ]
            if op_id not in state.group_members:
                state.group.append(op_id)
                state.group_members.add(op_id)
            return deps

        # Incompatible with the current group: the group becomes the new
        # exclusive set and this op starts a fresh epoch.
        predecessors = state.group if state.group else state.exclusive
        deps = [
            LogicalDependence(prev, op_id, region_uid)
            for prev in predecessors
            if prev != op_id
        ]
        if state.group:
            state.exclusive = list(state.group)
        state.group_mode = mode
        state.group = [op_id]
        state.group_members = {op_id}
        return deps

    def analyze_operation(
        self,
        op_id: int,
        accesses: List[Tuple[int, Tuple[str, ...], PrivilegeSpec]],
    ) -> List[LogicalDependence]:
        """Register all of an operation's region accesses, deduplicating edges.

        ``accesses`` is a list of ``(region_uid, fields, privilege)`` triples
        — for an index launch, one per region requirement (whole-partition
        reasoning); for an individual task, the same but registered per task.
        """
        out = self._register(op_id, accesses)
        self._count(len(accesses), len(out))
        return out

    def analyze_run(
        self,
        op_ids: Sequence[int],
        accesses: List[Tuple[int, Tuple[str, ...], PrivilegeSpec]],
        edges: bool = True,
    ) -> Union[List[List[LogicalDependence]], int]:
        """Register consecutive ops that share one access list — the point
        tasks of an expanded launch — as ``[self.analyze_operation(op,
        accesses) for op in op_ids]`` would, in one call.  ``op_ids`` are
        consecutive and above every id registered before.  With ``edges``
        off, only the number of dependences is returned, and those of the
        derived ops below are never built.

        Ops are registered one by one only until the run settles.  Every
        field an op touches is then either *joining* (all of the op's
        accesses to it share one read or reduce epoch, so each op joins
        that epoch, depends on its fixed exclusive set and grows its
        group) or *moving* (its state after the op is its state before the
        op with every run id shifted by one).  The analysis compares op ids
        only for equality, so from there on each op repeats the last one
        shifted by one: its dependences are the last registered op's with
        run ids shifted, and the end state is written directly.
        """
        out: List[List[LogicalDependence]] = []
        if not op_ids:
            return out if edges else 0
        first, count = op_ids[0], len(op_ids)
        touched: Dict[FieldKey, set] = {}
        for region_uid, fields, privilege in accesses:
            for fname in fields:
                touched.setdefault((region_uid, fname), set()).add(
                    _epoch_mode(privilege)
                )
        joining, moving = [], []
        for key, modes in touched.items():
            single = len(modes) == 1 and next(iter(modes))[0] != "exclusive"
            (joining if single else moving).append(key)

        def shift(ids, by):
            return [i + by if i >= first else i for i in ids]

        out.append(self._register(first, accesses))
        states = [self._regions[key] for key in moving]
        done = 1
        while done < count:
            before = [(st.exclusive[:], st.group_mode, st.group[:])
                      for st in states]
            out.append(self._register(first + done, accesses))
            done += 1
            if all(
                (shift(ex, 1), mode, shift(group, 1))
                == (st.exclusive, st.group_mode, st.group)
                for (ex, mode, group), st in zip(before, states)
            ):
                break
        rest = count - done
        n_deps = sum(map(len, out))
        if rest:
            last = first + done - 1
            derived = range(last + 1, first + count)
            pattern = [(d.earlier_op, d.region_uid) for d in out[-1]]
            n_deps += rest * len(pattern)
            for later in derived if edges else ():
                by = later - last
                out.append([
                    LogicalDependence(e + by if e >= first else e, later, r)
                    for e, r in pattern
                ])
            for st in states:
                st.exclusive = shift(st.exclusive, rest)
                st.group = shift(st.group, rest)
                st.group_members = set(st.group)
            for key in joining:
                st = self._regions[key]
                st.group.extend(derived)
                st.group_members.update(derived)
            self.users_processed += rest * len(accesses)
        self._count(count * len(accesses), n_deps)
        return out if edges else n_deps

    def _register(self, op_id, accesses) -> List[LogicalDependence]:
        seen = set()
        out: List[LogicalDependence] = []
        for region_uid, fields, privilege in accesses:
            self.users_processed += 1
            for fname in fields:
                for dep in self.record_field_access(
                    op_id, region_uid, fname, privilege
                ):
                    key = (dep.earlier_op, dep.later_op)
                    if key not in seen:
                        seen.add(key)
                        out.append(dep)
        return out

    def _count(self, users: int, dependences: int) -> None:
        prof = self._profiler
        if prof is not None and prof.enabled:
            prof.count("logical.users", float(users))
            prof.count("logical.dependences", float(dependences))
