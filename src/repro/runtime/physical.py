"""Physical dependence analysis (Section 5, stage 4).

After distribution, dependencies are refined to *specific tasks*: the
runtime tracks the last tasks to have read, written, or reduced each
sub-collection, and a new task depends on the precise prior tasks whose
footprints overlap its own.  Legion performs this with a distributed
bounding volume hierarchy in O(|D|_local * log |P|).  Here each region's
active users are an ordered list (the *bucket*), and the live path finds
the users one access can touch through a geometric candidate index over
that bucket (:class:`_BucketIndex`, a multi-level grid of bounding boxes):
an access costs O(levels + candidates), not O(|P|), so a launch over a
disjoint partition runs at most |D| exact overlap tests whatever |P| is —
counted at |P| = 32 … 1 024 by ``TestLiveWorkByCount`` in
``tests/runtime/test_launch_users.py``.

A bucket has a second form.  When a launch retires every user of a bucket
and leaves one of its own per task — a write through an injective functor
over a disjoint partition — what it leaves is a function of the launch
alone, and it is installed as a single :class:`_LaunchUser` (key tuple,
creations, the launch's task-id list) instead of |D| :class:`_User`
objects.  Two installers: a replayed launch's dependence kernel, in O(1),
which also replays against a launch user by id arithmetic
(:mod:`repro.runtime.kernels`); and :meth:`PhysicalAnalyzer.record_launch`
on a first issue, which checks that shape per region from the launch's
accesses and the bucket (:meth:`PhysicalAnalyzer._aligned_region`) and
then analyses the launch by colour: no candidate index, no exact test, no
footprint hashed.  The ordered ``List[_User]`` stays the representation of
record for everything else: :meth:`PhysicalAnalyzer._bucket`, the one
accessor in front of ``_users``, expands a launch user in place — same
users, order, task ids and keys the per-point path would hold — the first
time the per-point path, a key snapshot, the validating overlay or a
kernel of any other shape looks at the bucket.  With ``kernels=False`` no
launch user is ever installed.

Retirement has two rules.  Per access, a writing access retires every
prior user whose footprint and field set it covers on its own.  Per index
launch, once its last task is recorded (:meth:`PhysicalAnalyzer.
record_launch`), the launch's WRITE/READ_WRITE footprints retire *jointly*
every prior user that holds no task of the launch and whose footprint their
union covers — counting, for each user, only the writers whose field set is
a superset of its own: a halo reader is superseded by the blocks written
around it, though no single block covers it.  This is sound because any
later access that overlaps the retired user on one of its fields overlaps
one of those writers on it, and each writer already depends on the user.
Only the users a writing access overlapped without retiring are
candidates, so a launch with no partial overlap does no extra work.
No-IDX and the unsafe-launch fallback loop record task by task and keep
the per-access rule alone.

Five counters keep charged and performed work apart.  ``overlap_queries``
is the *charged* scan length — ``len(bucket)`` per access, what a linear
scan would have asked and what template replay, dependence kernels and a
launch analysed by colour charge without performing; it feeds
``PipelineStats`` and the machine model.  ``overlap_tests`` counts the
exact footprint tests the per-point path actually ran.
``users_restamped`` counts the per-point users a replay or an expansion
built or appended to: |D| per launch on the per-point paths, 0 while
launch users hold.  ``launch_retired`` counts the users a launch's union
retired, on the live path and the validating overlay (a dependence
kernel's committed order already leaves them out).  ``launch_aligned``
counts the launches :meth:`PhysicalAnalyzer.record_launch` analysed by
colour.  All but the first legitimately differ between ``kernels=True``
and ``kernels=False``, so none of them is part of ``PipelineStats``.

Replay support (tracing [20]): when an identical launch is reissued inside
a validated trace, its dependence structure is the same *shape* — only the
task ids differ.  :meth:`PhysicalAnalyzer.record_launch` can therefore
capture a :class:`DependenceTemplate` describing each access symbolically
(which footprints it depended on, retired, coalesced into, or created) plus
the footprints the launch retired jointly, and
:meth:`PhysicalAnalyzer.replay_tasks` re-stamps that template with fresh
task ids without re-running overlap queries.  Footprints are addressed by a
*key* — (partition uid, color, subset uid-or-rect, fields, privilege token)
— rather than by object reference, so a template survives the record/retire
churn of iterative write-read patterns; every key component is a plain
value, never an object identity.  Replay is validated (ordered per-region
key snapshots must match, every referenced key must resolve uniquely) and
bails to the live path on any mismatch.  A user built by a replay is handed
the key its template already holds, so only the live path and the first
validated replay of a template ever hash a footprint.
"""

from __future__ import annotations

import collections.abc
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.collection import RectSubset, Subregion
from repro.data.privileges import Privilege, PrivilegeSpec

__all__ = [
    "TaskDependence",
    "LaunchDependences",
    "PhysicalAnalyzer",
    "AccessOp",
    "DependenceTemplate",
    "make_template",
]


#: one region requirement of one task: (subregion, privilege, fields).
_Access = Tuple[Subregion, PrivilegeSpec, Tuple[str, ...]]


@dataclass(frozen=True)
class TaskDependence:
    """A task-level ordering edge: ``earlier_task`` must finish first."""

    earlier_task: int
    later_task: int
    region_uid: int


def _conflicts(a: PrivilegeSpec, b: PrivilegeSpec) -> bool:
    return not a.compatible_with(b)


def _same_subset(a, b) -> bool:
    """Cheap identical-footprint test: construction identity (partition
    subregions reuse one subset object; a worker-side reconstruction keeps
    the shipped uid) or equal rectangles (fresh root subregions)."""
    if a is b or a.uid == b.uid:
        return True
    return (
        isinstance(a, RectSubset)
        and isinstance(b, RectSubset)
        and a.rect == b.rect
    )


def _covers_alone(task_id: int, subregion, fieldset: frozenset, user) -> bool:
    """Whether a writing access that overlaps ``user`` retires it on its
    own: it covers the user's footprint and field set (the data is
    superseded for dependence purposes; partial overlap must keep the old
    user alive for later readers of the uncovered remainder)."""
    return (
        task_id not in user.task_ids
        and user.fields <= fieldset
        and subregion.subset.covers(
            user.subregion.subset, subregion.region.bounds
        )
    )


def _identical(subregion, privilege, fieldset: frozenset, user) -> bool:
    """Whether an access coalesces into ``user``: an identical footprint
    and field set under a compatible privilege."""
    return (
        user.privilege.compatible_with(privilege)
        and user.fields == fieldset
        and _same_subset(user.subregion.subset, subregion.subset)
    )


def _note_partial(writes: dict, seq: int, user, subregion, fieldset) -> None:
    """Record, for the launch's joint retirement, that a writer overlapped
    ``user`` without covering it: region uid -> ``id(user)`` -> ``(index
    seq, user, [(writer subregion, writer fields), ...])``."""
    overlapped = writes.setdefault(subregion.region.uid, {})
    held = overlapped.get(id(user))
    if held is None:
        held = overlapped[id(user)] = (seq, user, [])
    held[2].append((subregion, fieldset))


def _priv_token(privilege: PrivilegeSpec) -> tuple:
    """Process-portable encoding of a privilege.

    ``PrivilegeSpec`` compares by its ``redop`` callable, and the built-in
    reduction lambdas do not survive pickling with identity intact — a
    worker's unpickled copy would compare unequal.  Keys therefore encode
    the privilege as value strings."""
    redop = privilege.redop.name if privilege.redop is not None else None
    return (privilege.privilege.value, redop)


def _footprint_key(
    subregion: Subregion, privilege: PrivilegeSpec, fields: frozenset
):
    """Identity-free, process-portable address of a user footprint.

    Sparse subsets are addressed by their construction ``uid`` — never by
    ``id()``, which can alias once the collector reuses an address across
    iterations and means nothing in another process.  Root subregions wrap
    a *fresh* RectSubset per call, so rectangles are addressed by bounds
    value instead of uid.
    """
    part = subregion.partition.uid if subregion.partition is not None else None
    subset = subregion.subset
    if isinstance(subset, RectSubset):
        ident = ("rect", tuple(subset.rect.lo), tuple(subset.rect.hi))
    else:
        ident = ("uid", subset.uid)
    color = tuple(subregion.color) if subregion.color is not None else None
    return (part, color, ident, fields, _priv_token(privilege))


@dataclass
class _User:
    """One active footprint; ``task_ids`` holds every task sharing it, in
    the order they were recorded (task ids rise with issue order).

    Compatible accesses with an identical footprint (same partition color,
    same fields, mutually compatible privileges — e.g. the readers of one
    subregion across many iterations) coalesce into a single user, bounding
    the analyzer's state by the number of *distinct* footprints rather than
    the number of tasks (Legion's epoch lists play the same role).  That
    does not bound per-access work: ``task_ids`` keeps growing until a
    writer retires the user, and every conflicting access depends on each
    of them — which is why a launch's writers also retire jointly (see the
    module docstring)."""

    task_ids: List[int]
    subregion: Subregion
    privilege: PrivilegeSpec
    fields: frozenset
    #: memoised :meth:`footprint_key` — pure in the three fields above,
    #: which nothing reassigns after construction.  A replay passes the key
    #: its template already holds, so replayed users are never re-hashed.
    _key: Optional[tuple] = field(default=None, repr=False, compare=False)

    def footprint_key(self):
        key = self._key
        if key is None:
            key = self._key = _footprint_key(
                self.subregion, self.privilege, self.fields
            )
        return key


class _LaunchUser:
    """A whole region bucket held as one entry: the users one launch left.

    Stands for the per-point list ``[_User([task_ids[i]], *creations[i],
    keys[i]) for i in range(n)]`` — what a launch leaves in a bucket when
    every task retires one entry user and creates one.  Two installers:
    an *aligned* :class:`~repro.runtime.kernels.DependenceKernel`, whose
    ``keys`` and ``creations`` are fixed at compile and shared by every
    launch user it installs, and :meth:`PhysicalAnalyzer.record_launch`'s
    aligned path, which passes no keys: they are hashed the first time
    something reads :attr:`keys`.  ``task_ids`` is the launch's own id
    list.  :meth:`PhysicalAnalyzer._bucket` swaps in the per-point list the
    first time anything but an aligned launch looks at the bucket.
    """

    __slots__ = ("_keys", "creations", "task_ids")

    def __init__(
        self,
        keys: Optional[Tuple[tuple, ...]],
        creations: Sequence[Tuple[Subregion, PrivilegeSpec, frozenset]],
        task_ids: Sequence[int],
    ):
        self._keys = keys
        self.creations = creations
        self.task_ids = task_ids

    @property
    def keys(self) -> Tuple[tuple, ...]:
        keys = self._keys
        if keys is None:
            keys = self._keys = tuple(
                _footprint_key(*creation) for creation in self.creations
            )
        return keys

    def __len__(self) -> int:
        return len(self.task_ids)

    def expand(self) -> List[_User]:
        keys = self._keys or itertools.repeat(None)     # users hash on use
        return [
            _User([tid], subregion, privilege, fields, key)
            for tid, (subregion, privilege, fields), key in zip(
                self.task_ids, self.creations, keys
            )
        ]


class LaunchDependences(collections.abc.Sequence):
    """Per-task dependence lists of an aligned kernel replay, built only
    when someone iterates them.

    ``sources`` holds, per region bucket in requirement order, ``(region
    uid, the entry launch user's task ids, perm)``: task *i* depends on
    ``ids[perm[i]]`` through that region.  The lists are element for
    element what the slot program builds; replayed task ids are fresh, so
    no dependence is ever a task on itself.
    """

    __slots__ = ("task_ids", "sources", "_lists")

    def __init__(
        self,
        task_ids: Sequence[int],
        sources: List[Tuple[int, Sequence[int], Sequence[int]]],
    ):
        self.task_ids = task_ids
        self.sources = sources
        self._lists: Optional[List[List[TaskDependence]]] = None

    def _materialise(self) -> List[List[TaskDependence]]:
        lists = self._lists
        if lists is None:
            lists = self._lists = []
            for i, tid in enumerate(self.task_ids):
                seen = set()
                out: List[TaskDependence] = []
                for uid, ids, perm in self.sources:
                    earlier = ids[perm[i]]
                    if earlier not in seen:
                        seen.add(earlier)
                        out.append(TaskDependence(earlier, tid, uid))
                lists.append(out)
        return lists

    def __len__(self) -> int:
        return len(self.task_ids)

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())

    @property
    def n_edges(self) -> int:
        """Total dependence count; one region means one edge per task,
        known without building any."""
        if len(self.sources) == 1:
            return len(self.task_ids)
        return sum(len(deps) for deps in self._materialise())


@dataclass
class AccessOp:
    """Symbolic record of what one region access did to the user state."""

    region_uid: int
    n_scanned: int
    dep_keys: List[tuple] = field(default_factory=list)
    retire_keys: List[tuple] = field(default_factory=list)
    coalesce_key: Optional[tuple] = None
    create: Optional[Tuple[Subregion, PrivilegeSpec, frozenset]] = None
    ambiguous: bool = False  # two live users shared a key: not replayable


@dataclass
class DependenceTemplate:
    """Replayable dependence structure of one whole launch.

    ``task_ops`` holds the per-task access ops in expansion order;
    ``entry_keys`` is the ordered footprint-key snapshot of every touched
    region at the moment recording started — replay requires an exact match
    so that foreign mutations of the region state force a live re-analysis.
    ``launch_retire`` lists the ``(region uid, key)`` of every user the
    launch's writes retired jointly, applied after the last task.
    ``kernel`` caches the compiled slot program of the last successful
    validated replay (see :mod:`repro.runtime.kernels`); it is advisory
    state and never shipped across processes.
    """

    task_ops: List[List[AccessOp]]
    entry_keys: Dict[int, Tuple[tuple, ...]]
    n_queries: int
    launch_retire: List[Tuple[int, tuple]] = field(default_factory=list)
    kernel: Optional[object] = None

    def __getstate__(self):
        return (self.task_ops, self.entry_keys, self.n_queries,
                self.launch_retire)

    def __setstate__(self, state):
        (self.task_ops, self.entry_keys, self.n_queries,
         self.launch_retire) = state
        self.kernel = None


def make_template(
    task_ops: List[List[AccessOp]],
    entry_keys: Dict[int, Tuple[tuple, ...]],
    launch_retire: Sequence[Tuple[int, tuple]] = (),
) -> Optional[DependenceTemplate]:
    """Assemble a template from captured ops; None when not replayable."""
    n_queries = 0
    for ops in task_ops:
        for op in ops:
            if op.ambiguous:
                return None
            n_queries += op.n_scanned
    if any(len(set(keys)) != len(keys) for keys in entry_keys.values()):
        return None
    return DependenceTemplate(
        task_ops, entry_keys, n_queries, list(launch_retire)
    )


class _OverlayEntry:
    """One user slot during a replay dry-run: a live user or a pending one.

    ``src`` is the kernel-compilation tag: the entry's index in the initial
    bucket for live users, ``-1 - j`` for the j-th entry created during the
    replay (see :class:`~repro.runtime.kernels.DependenceKernel`).
    """

    __slots__ = ("key", "user", "pending", "spec", "src")

    def __init__(self, key, user=None, spec=None, src=0):
        self.key = key
        self.user = user  # live _User for pre-existing entries
        self.pending: List[int] = []  # fresh task ids appended this replay
        self.spec = spec  # (subregion, privilege, fields) for created entries
        self.src = src

    def all_ids(self) -> List[int]:
        base = self.user.task_ids if self.user is not None else []
        return base + self.pending


def _box_minus(
    lo: tuple, hi: tuple, cut_lo: tuple, cut_hi: tuple
) -> List[Tuple[tuple, tuple]]:
    """The inclusive box ``(lo, hi)`` minus ``(cut_lo, cut_hi)``, as at
    most two disjoint boxes per axis."""
    for a, b, c, d in zip(lo, hi, cut_lo, cut_hi):
        if d < a or b < c:
            return [(lo, hi)]
    out = []
    lo, hi = list(lo), list(hi)
    for axis, (c, d) in enumerate(zip(cut_lo, cut_hi)):
        if lo[axis] < c:
            out.append((tuple(lo), tuple(hi[:axis] + [c - 1] + hi[axis + 1:])))
            lo[axis] = c
        if d < hi[axis]:
            out.append((tuple(lo[:axis] + [d + 1] + lo[axis + 1:]), tuple(hi)))
            hi[axis] = d
    return out


def _union_covers(target: Subregion, pieces: List[Subregion]) -> bool:
    """Whether every point of ``target`` lies in some subregion of
    ``pieces`` (all of its region): box subtraction when every subset is a
    rect, index membership otherwise."""
    if isinstance(target.subset, RectSubset) and all(
        isinstance(piece.subset, RectSubset) for piece in pieces
    ):
        box = target.bounding_box()
        if box is None:
            return True
        left = [box]
        for piece in pieces:
            cut = piece.bounding_box()
            if cut is not None:
                left = [rest for l in left for rest in _box_minus(*l, *cut)]
                if not left:
                    return True
        return False
    bounds = target.region.bounds
    held = np.concatenate(
        [piece.subset.linear_indices(bounds) for piece in pieces]
    )
    return bool(np.isin(target.subset.linear_indices(bounds), held).all())


def _cell_spans(lo: tuple, hi: tuple, shifts: tuple) -> List[range]:
    """Per axis, the grid coordinates a box touches at one level (cell side
    ``2**shift``); their product is the cells it touches."""
    return [range(l >> s, (h >> s) + 1) for l, h, s in zip(lo, hi, shifts)]


class _BucketIndex:
    """Geometric candidate index over one region bucket.

    Derived from the ordered ``List[_User]`` and private to the analyzer:
    the list stays the representation of record that kernels read.  An
    index describes exactly one (list object, bucket version) pair —
    ``users`` / ``version`` — and the analyzer rebuilds it when either
    differs, so a bucket installed from outside (template replay, a
    dependence kernel) costs nothing until the next live access to that
    region.

    The structure is a multi-level grid over the users' bounding boxes
    (:meth:`Subregion.bounding_box`).  A user lives at the level whose
    power-of-two cell side is the smallest not below its box's extent, per
    axis, so it touches at most two cells per axis; a query probes, per
    level in use, the cells its own box touches — or that level's users
    directly when there are fewer of them.  Over a disjoint partition that
    is a handful of dict probes, whatever |P|.  Users are named by a
    sequence number that rises with bucket position (``seqs`` parallels
    the list), which survives the position shifts of a retire.

    :meth:`key_counts` counts footprint keys, and ``dup_keys`` the keys
    held by two or more users (``AccessOp.ambiguous``), without rescanning
    the bucket — from the first time a template capture or the joint
    retirement asks: until then no insert or discard hashes a key.
    """

    __slots__ = (
        "users", "version", "seqs", "levels", "empties", "_key_counts",
        "dup_keys",
    )

    def __init__(self, users: List["_User"], version: int):
        self.users = users
        self.version = version
        self.seqs = list(range(len(users)))
        #: per-axis shifts -> (seq -> entry, cell -> seq -> entry), an entry
        #: being (user, box lo, box hi).
        self.levels: Dict[tuple, Tuple[dict, dict]] = {}
        #: seq -> user for footprints with no points: no box to file them
        #: under, and an empty access may still coalesce with one.
        self.empties: Dict[int, _User] = {}
        self._key_counts: Optional[Dict[tuple, int]] = None
        self.dup_keys = 0
        for seq, user in enumerate(users):
            self._insert(seq, user)

    def key_counts(self) -> Dict[tuple, int]:
        """Footprint key -> users holding it; ``dup_keys`` is current once
        this has been called."""
        counts = self._key_counts
        if counts is None:
            counts = self._key_counts = {}
            for user in self.users:
                self._count(user.footprint_key(), 1)
        return counts

    def _count(self, key: tuple, delta: int) -> None:
        counts = self._key_counts
        held = counts.get(key, 0)
        if held + delta:
            counts[key] = held + delta
        else:
            del counts[key]
        if held + (held + delta) == 3:      # between one holder and two
            self.dup_keys += delta

    def _insert(self, seq: int, user: "_User") -> None:
        if self._key_counts is not None:
            self._count(user.footprint_key(), 1)
        box = user.subregion.bounding_box()
        if box is None:
            self.empties[seq] = user
            return
        lo, hi = box
        shifts = tuple((h - l).bit_length() for l, h in zip(lo, hi))
        level = self.levels.get(shifts)
        if level is None:
            level = self.levels[shifts] = ({}, {})
        members, cells = level
        members[seq] = entry = (user, lo, hi)
        for cell in itertools.product(*_cell_spans(lo, hi, shifts)):
            cells.setdefault(cell, {})[seq] = entry

    def _discard(self, seq: int, user: "_User") -> None:
        if self._key_counts is not None:
            self._count(user.footprint_key(), -1)
        box = user.subregion.bounding_box()
        if box is None:
            del self.empties[seq]
            return
        lo, hi = box
        shifts = tuple((h - l).bit_length() for l, h in zip(lo, hi))
        members, cells = self.levels[shifts]
        del members[seq]
        if not members:
            del self.levels[shifts]     # its cells go with it
            return
        for cell in itertools.product(*_cell_spans(lo, hi, shifts)):
            group = cells[cell]
            del group[seq]
            if not group:
                del cells[cell]

    def candidates(
        self, box: Optional[Tuple[tuple, tuple]]
    ) -> List[Tuple[int, "_User"]]:
        """``(seq, user)`` in bucket order for every user an access with
        bounding box ``box`` can depend on, retire or coalesce into: those
        whose own box meets it, plus every empty footprint."""
        found = dict(self.empties)
        if box is not None:
            qlo, qhi = box
            for shifts, (members, cells) in self.levels.items():
                spans = _cell_spans(qlo, qhi, shifts)
                n_cells = 1
                for span in spans:
                    n_cells *= len(span)
                if n_cells < len(members):
                    groups = [
                        cells[cell]
                        for cell in itertools.product(*spans)
                        if cell in cells
                    ]
                else:
                    groups = [members]
                for group in groups:
                    for seq, (user, lo, hi) in group.items():
                        for a, b, c, d in zip(lo, hi, qlo, qhi):
                            if d < a or b < c:
                                break
                        else:
                            found[seq] = user
        return sorted(found.items())

    def advance(
        self, retired: List[int], created: Optional["_User"]
    ) -> List["_User"]:
        """Apply one access — drop the ``retired`` seqs, append ``created``
        — and return the bucket that results, as a fresh list (a caller
        may still hold the old one)."""
        users = self.users[:]
        seqs = self.seqs
        for seq in retired:
            pos = bisect_left(seqs, seq)
            self._discard(seq, users[pos])
            del seqs[pos], users[pos]
        if created is not None:
            seq = seqs[-1] + 1 if seqs else 0
            self._insert(seq, created)
            seqs.append(seq)
            users.append(created)
        self.users = users
        return users


class PhysicalAnalyzer:
    """Per-subregion last-user tracking.

    For each region we keep the set of *active* users: tasks whose footprint
    is not yet fully superseded by later writers.  A new access depends on
    every active conflicting user it overlaps; a writing access then retires
    the users its footprint covers, and an index launch the users its
    writes cover together.
    """

    def __init__(self, profiler=None, kernels: bool = True):
        #: region uid -> bucket: the ordered per-point user list, or the one
        #: launch user standing for it.  Read it through :meth:`_bucket`.
        self._users: Dict[int, Union[List[_User], _LaunchUser]] = {}
        #: per-region bucket version, bumped on every mutation; dependence
        #: kernels compare versions instead of re-snapshotting keys.
        self._versions: Dict[int, int] = {}
        self._indexes: Dict[int, _BucketIndex] = {}
        #: charged scan length: ``len(bucket)`` per access, performed or not.
        self.overlap_queries = 0
        #: exact footprint tests the live path actually ran.
        self.overlap_tests = 0
        #: per-point ``_User`` objects a replay or an expansion built or
        #: appended to — the replay work performed, beside the charged
        #: ``overlap_queries``; 0 per launch while launch users hold.
        self.users_restamped = 0
        #: users a launch's writes retired jointly (:meth:`record_launch`,
        #: the validating overlay replay).
        self.launch_retired = 0
        #: launches :meth:`record_launch` analysed by colour, installing
        #: launch users, instead of point by point.
        self.launch_aligned = 0
        self.kernels_enabled = kernels
        self.kernel_replays = 0
        self._profiler = profiler
        #: region uid -> the TaskPoisonedError that tainted it.  A poisoned
        #: launch taints every region it could have written; any later
        #: operation touching a tainted region is short-circuited to a
        #: poisoned future *before* analysis (see Runtime._poison_launch).
        self.poisoned: Dict[int, Any] = {}

    def _bucket(self, region_uid: int) -> List[_User]:
        """The region's ordered per-point users, expanding a launch user
        into them first.  The version does not move: the list is what the
        launch user stood for, so whatever a kernel's version guard
        concluded about the bucket still holds."""
        users = self._users.get(region_uid)
        if users is None:
            return []
        if type(users) is _LaunchUser:
            users = self._users[region_uid] = users.expand()
            self.users_restamped += len(users)
        return users

    def _index(self, region_uid: int) -> _BucketIndex:
        """The candidate index of the region's current bucket, rebuilt when
        anything but the live path installed it."""
        users = self._bucket(region_uid)
        version = self._versions.get(region_uid, 0)
        index = self._indexes.get(region_uid)
        if index is None or index.users is not users or index.version != version:
            index = self._indexes[region_uid] = _BucketIndex(users, version)
        return index

    def record_task_access(
        self,
        task_id: int,
        subregion: Subregion,
        privilege: PrivilegeSpec,
        fields: Tuple[str, ...],
        _capture: Optional[List[AccessOp]] = None,
        _writes: Optional[dict] = None,
    ) -> List[TaskDependence]:
        """Register one region requirement of an individual task.

        Requirements interfere only when their *field sets* intersect (as in
        Legion, privileges are per-field), their privileges conflict, and
        their footprints overlap.  With ``_capture`` a symbolic
        :class:`AccessOp` describing the state transition is appended.
        ``_writes`` collects, for :meth:`record_launch`, every user a
        writing access overlaps without retiring (:func:`_note_partial`)."""
        region_uid = subregion.region.uid
        fieldset = frozenset(fields)
        writing = privilege.privilege in (Privilege.WRITE, Privilege.READ_WRITE)
        index = self._index(region_uid)
        users = index.users
        self.overlap_queries += len(users)
        op: Optional[AccessOp] = None
        if _capture is not None:
            index.key_counts()
            op = AccessOp(
                region_uid=region_uid,
                n_scanned=len(users),
                ambiguous=index.dup_keys > 0,
            )
            _capture.append(op)
        deps: List[TaskDependence] = []
        retired: List[int] = []
        coalesced = False
        # Users the index does not return survive in place: a footprint
        # with points whose box misses this one neither overlaps it nor
        # is the same subset.
        for seq, user in index.candidates(subregion.bounding_box()):
            if not (user.fields & fieldset):
                continue
            self.overlap_tests += 1
            overlapping = user.subregion.overlaps(subregion)
            if overlapping and _conflicts(user.privilege, privilege):
                for tid in user.task_ids:
                    if tid != task_id:
                        deps.append(TaskDependence(tid, task_id, region_uid))
                if op is not None:
                    op.dep_keys.append(user.footprint_key())
            if overlapping and writing:
                if _covers_alone(task_id, subregion, fieldset, user):
                    if op is not None:
                        op.retire_keys.append(user.footprint_key())
                    retired.append(seq)
                    continue
                if _writes is not None:
                    _note_partial(_writes, seq, user, subregion, fieldset)
            if not coalesced and _identical(
                subregion, privilege, fieldset, user
            ):
                user.task_ids.append(task_id)
                coalesced = True
                if op is not None:
                    op.coalesce_key = user.footprint_key()
        created: Optional[_User] = None
        if not coalesced:
            created = _User([task_id], subregion, privilege, fieldset)
            if op is not None:
                op.create = (subregion, privilege, fieldset)
        index.version = self.install_bucket(
            region_uid, index.advance(retired, created)
        )
        return deps

    def record_task(
        self,
        task_id: int,
        accesses: List[Tuple[Subregion, PrivilegeSpec, Tuple[str, ...]]],
        _capture: Optional[List[List[AccessOp]]] = None,
        _writes: Optional[dict] = None,
    ) -> List[TaskDependence]:
        """Register all requirements of one task, deduplicating edges."""
        ops: Optional[List[AccessOp]] = [] if _capture is not None else None
        seen = set()
        out: List[TaskDependence] = []
        for subregion, privilege, fields in accesses:
            for dep in self.record_task_access(
                task_id, subregion, privilege, fields, _capture=ops,
                _writes=_writes,
            ):
                key = (dep.earlier_task, dep.later_task)
                if key not in seen:
                    seen.add(key)
                    out.append(dep)
        if _capture is not None:
            _capture.append(ops)
        return out

    def record_launch(
        self,
        task_ids: Sequence[int],
        access_lists: Iterable[
            List[Tuple[Subregion, PrivilegeSpec, Tuple[str, ...]]]
        ],
        template_regions: Optional[Iterable[int]] = None,
    ) -> Tuple[Sequence[List[TaskDependence]], Optional[DependenceTemplate]]:
        """Register every task of one index launch in order, then retire
        what the launch's writes cover jointly (see the module docstring).

        Returns the per-task dependence lists and, when ``template_regions``
        names the regions to snapshot, the launch captured as a
        :class:`DependenceTemplate` (None when it is not replayable).  A
        launch of the aligned shape that captures nothing is analysed by
        colour (:meth:`_record_aligned`) unless kernels are off."""
        if template_regions is None and self.kernels_enabled:
            access_lists = list(access_lists)
            aligned = self._record_aligned(task_ids, access_lists)
            if aligned is not None:
                return aligned, None
        capture = entry_keys = None
        if template_regions is not None:
            entry_keys = self.snapshot_keys(template_regions)
            capture = []
        writes: dict = {}
        deps = [
            self.record_task(tid, accesses, _capture=capture, _writes=writes)
            for tid, accesses in zip(task_ids, access_lists)
        ]
        retired = self._retire_jointly(writes, task_ids[0]) if writes else []
        if capture is None or retired is None:
            return deps, None
        return deps, make_template(capture, entry_keys, retired)

    def _record_aligned(
        self,
        task_ids: Sequence[int],
        access_lists: List[List[_Access]],
    ) -> Optional[LaunchDependences]:
        """The whole launch by colour, when every region it touches has the
        aligned shape (:meth:`_aligned_region`); None, with nothing changed,
        when one does not.

        The per-point outcome is then forced: each access's one overlapping
        candidate is the same-colour prior user, which it depends on and
        retires, and nothing coalesces — so the launch leaves one launch
        user per region, its dependences are the lazy form an aligned
        kernel replay returns, and ``overlap_queries`` is charged what the
        per-point path would have charged."""
        if not task_ids or not access_lists[0]:
            return None
        width = len(access_lists[0])
        if any(len(accesses) != width for accesses in access_lists):
            return None
        shapes = []
        for column in range(width):
            shape = self._aligned_region(
                [accesses[column] for accesses in access_lists], task_ids[0]
            )
            if shape is None:
                return None
            shapes.append(shape)
        if len({shape[0] for shape in shapes}) != width:
            return None             # a task accesses one region twice
        sources = []
        for uid, ids, perm, creations, charge in shapes:
            self.overlap_queries += charge
            if ids is not None:
                sources.append((uid, ids, perm))
            self.install_launch_user(uid, None, creations, task_ids)
        self.launch_aligned += 1
        return LaunchDependences(task_ids, sources)

    def _aligned_region(
        self,
        accesses: List[_Access],
        first_task: int,
    ) -> Optional[tuple]:
        """One region's part of an aligned launch, from the launch's
        accesses to it (one per task) and the region's bucket alone.

        The accesses go through one disjoint partition P with one privilege
        and one field set, to distinct non-empty pieces.  The bucket is
        empty, or holds one user per access, each holding one task that
        predates the launch, each a piece of P the launch hits once, on a
        non-empty field set the launch writes all of (a write conflicts
        with every privilege).  Returns ``(region uid, the prior users'
        task ids or None when the bucket is empty, perm, creations, charged
        queries)``: task *i* depends on ``ids[perm[i]]``."""
        subregion, privilege, fields = accesses[0]
        part = subregion.partition
        if part is None or not part.disjoint:
            return None
        colours: Dict[Any, int] = {}
        for i, (sub, priv, f) in enumerate(accesses):
            if (
                sub.partition is not part
                or priv != privilege
                or f != fields
                or sub.bounding_box() is None
                or colours.setdefault(sub.color, i) != i
            ):
                return None
        n = len(accesses)
        uid = subregion.region.uid
        fieldset = frozenset(fields)
        creations = [(sub, privilege, fieldset) for sub, _, _ in accesses]
        bucket = self._users.get(uid)
        if not bucket:
            return uid, None, None, creations, n * (n - 1) // 2
        if len(bucket) != n or privilege.privilege not in (
            Privilege.WRITE, Privilege.READ_WRITE
        ):
            return None
        if type(bucket) is _LaunchUser:
            ids, priors = bucket.task_ids, bucket.creations
        else:
            if any(len(user.task_ids) != 1 for user in bucket):
                return None
            ids = [user.task_ids[0] for user in bucket]
            priors = [(u.subregion, u.privilege, u.fields) for u in bucket]
        perm = [-1] * n
        for j, (sub, _, f) in enumerate(priors):
            i = colours.get(sub.color, -1) if sub.partition is part else -1
            if (
                i < 0 or perm[i] >= 0 or ids[j] >= first_task
                or not f or not f <= fieldset
            ):
                return None
            perm[i] = j
        return uid, ids, perm, creations, n * n

    def _retire_jointly(
        self, writes: dict, first_task: int
    ) -> Optional[List[Tuple[int, tuple]]]:
        """The launch-level step over the users ``writes`` collected.

        A user still in its bucket is retired when it holds no task of the
        launch — its newest task id predates ``first_task`` — and the
        writers that overlapped it on a superset of its fields cover its
        footprint together.  Returns the retired ``(region uid, key)``
        pairs, or None when a retired key is held twice in its bucket, so
        no template could name the one to drop."""
        retired: List[Tuple[int, tuple]] = []
        ambiguous = False
        for region_uid, overlapped in writes.items():
            index = self._index(region_uid)
            seqs = index.seqs
            gone = []
            for seq, user, writers in overlapped.values():
                pos = bisect_left(seqs, seq)
                if (
                    pos == len(seqs)
                    or index.users[pos] is not user     # retired since
                    or user.task_ids[-1] >= first_task
                ):
                    continue
                pieces = [sub for sub, fields in writers if user.fields <= fields]
                if pieces and _union_covers(user.subregion, pieces):
                    key = user.footprint_key()
                    ambiguous = ambiguous or index.key_counts()[key] > 1
                    retired.append((region_uid, key))
                    gone.append(seq)
            if gone:
                index.version = self.install_bucket(
                    region_uid, index.advance(gone, None)
                )
        self.launch_retired += len(retired)
        return None if ambiguous else retired

    def snapshot_keys(
        self, region_uids: Iterable[int]
    ) -> Dict[int, Tuple[tuple, ...]]:
        """Ordered footprint-key snapshot of the given region buckets."""
        return {
            uid: tuple(u.footprint_key() for u in self._bucket(uid))
            for uid in region_uids
        }

    def replay_tasks(
        self, task_ids: Sequence[int], template: DependenceTemplate
    ) -> Optional[Sequence[List[TaskDependence]]]:
        """Re-stamp a recorded dependence template with fresh task ids.

        Runs a validating dry-run against an overlay of the current user
        state; only when every op of every task resolves is the state
        mutation committed (so a failed replay leaves the analyzer
        untouched for the live fallback).  Returns per-task dependence
        lists matching :meth:`record_task` exactly — from a dependence
        kernel's aligned path as a :class:`LaunchDependences`, which builds
        them on first use — or None on any mismatch: a changed snapshot, a
        missing/duplicate key, or a length divergence.
        """
        if len(task_ids) != len(template.task_ops):
            return None
        kernel = template.kernel if self.kernels_enabled else None
        if kernel is not None:
            results = kernel.apply(self, task_ids)
            if results is not None:
                prof = self._profiler
                if prof is not None and prof.enabled:
                    prof.count("physical.template_replays", 1.0)
                    prof.count("physical.template_tasks", float(len(task_ids)))
                    prof.count("kernels.dependence_hits", 1.0)
                return results
            # Stale (a foreign bucket mutation): fall through to the
            # validating overlay path, which recompiles on success.
            template.kernel = None
        overlays: Dict[int, List[_OverlayEntry]] = {}
        for uid, recorded_keys in template.entry_keys.items():
            users = self._bucket(uid)
            current_keys = tuple(u.footprint_key() for u in users)
            if current_keys != recorded_keys:
                return None
            overlays[uid] = [
                _OverlayEntry(key, user=u, src=i)
                for i, (key, u) in enumerate(zip(current_keys, users))
            ]

        def find(entries: List[_OverlayEntry], key) -> Optional[_OverlayEntry]:
            for entry in entries:
                if entry.key == key:
                    return entry
            return None

        compile_steps: Optional[list] = [] if self.kernels_enabled else None
        creations: List[tuple] = []
        creation_keys: List[tuple] = []
        results: List[List[TaskDependence]] = []
        for tid, ops in zip(task_ids, template.task_ops):
            seen = set()
            out: List[TaskDependence] = []
            step: list = []
            for op in ops:
                entries = overlays.get(op.region_uid)
                if entries is None or len(entries) != op.n_scanned:
                    return None
                dep_srcs: List[int] = []
                for key in op.dep_keys:
                    entry = find(entries, key)
                    if entry is None:
                        return None
                    dep_srcs.append(entry.src)
                    for earlier in entry.all_ids():
                        if earlier != tid:
                            pair = (earlier, tid)
                            if pair not in seen:
                                seen.add(pair)
                                out.append(
                                    TaskDependence(earlier, tid, op.region_uid)
                                )
                for key in op.retire_keys:
                    entry = find(entries, key)
                    if entry is None:
                        return None
                    entries.remove(entry)
                coalesce_src = None
                if op.coalesce_key is not None:
                    entry = find(entries, op.coalesce_key)
                    if entry is None:
                        return None
                    entry.pending.append(tid)
                    coalesce_src = entry.src
                create_ord = None
                if op.create is not None:
                    subregion, privilege, fieldset = op.create
                    key = _footprint_key(subregion, privilege, fieldset)
                    if find(entries, key) is not None:
                        return None
                    create_ord = len(creations)
                    entry = _OverlayEntry(
                        key, spec=op.create, src=-1 - create_ord
                    )
                    creations.append(op.create)
                    creation_keys.append(key)
                    entry.pending.append(tid)
                    entries.append(entry)
                if compile_steps is not None:
                    step.append(
                        (op.region_uid, tuple(dep_srcs), coalesce_src, create_ord)
                    )
            if compile_steps is not None:
                compile_steps.append(step)
            results.append(out)
        for uid, key in template.launch_retire:
            entry = find(overlays[uid], key)
            if entry is None or entry.user is None or entry.pending:
                return None
            overlays[uid].remove(entry)

        # Commit: the overlay entry order reproduces the survivor order the
        # live path would have built, joint retirements included, so a
        # kernel compiled from it leaves them out too.
        self.launch_retired += len(template.launch_retire)
        final_order: Dict[int, List[int]] = {}
        entry_steady: Dict[int, bool] = {}
        for uid, entries in overlays.items():
            new_users: List[_User] = []
            for entry in entries:
                user = entry.user
                if user is None:
                    user = _User(list(entry.pending), *entry.spec, entry.key)
                    self.users_restamped += 1
                elif entry.pending:
                    user.task_ids.extend(entry.pending)
                    self.users_restamped += 1
                new_users.append(user)
            self.install_bucket(uid, new_users)
            if compile_steps is not None:
                final_order[uid] = [e.src for e in entries]
                # A bucket whose commit reproduces the entry snapshot is at
                # the single-launch fixed point and can ride the version
                # fast path; a permuting commit (interleaved launch sets
                # sharing this bucket) arms the revalidation sentinel so
                # every apply re-checks the ordered keys instead.
                entry_steady[uid] = (
                    tuple(e.key for e in entries) == template.entry_keys[uid]
                )
        if compile_steps is not None:
            from repro.runtime.kernels import DependenceKernel

            template.kernel = DependenceKernel(
                expected={
                    uid: (
                        self._versions.get(uid, 0)
                        if entry_steady[uid]
                        else DependenceKernel.REVALIDATE
                    )
                    for uid in overlays
                },
                entry_keys=template.entry_keys,
                steps=compile_steps,
                creations=creations,
                creation_keys=creation_keys,
                final_order=final_order,
                n_queries=template.n_queries,
            )
        self.overlap_queries += template.n_queries
        prof = self._profiler
        if prof is not None and prof.enabled:
            prof.count("physical.template_replays", 1.0)
            prof.count("physical.template_tasks", float(len(task_ids)))
        return results

    def install_bucket(
        self, region_uid: int, users: Union[List[_User], _LaunchUser]
    ) -> int:
        """Replace a region's user bucket wholesale; returns its new version.

        The one write path for buckets — the live path, template replay
        and dependence kernels all come through here — so the version
        advances on every change and whatever was derived from the old
        bucket (a dependence kernel's expectations, the candidate index)
        notices."""
        self._users[region_uid] = users
        version = self._versions[region_uid] = (
            self._versions.get(region_uid, 0) + 1
        )
        return version

    def install_launch_user(
        self,
        region_uid: int,
        keys: Optional[Tuple[tuple, ...]],
        creations: Sequence[Tuple[Subregion, PrivilegeSpec, frozenset]],
        task_ids: Sequence[int],
    ) -> int:
        """Commit what an aligned launch leaves in a bucket as one
        :class:`_LaunchUser`; returns the new version.  Both installers —
        an aligned kernel replay and :meth:`record_launch` — come through
        here.  The region's candidate index describes users that are gone,
        so it goes too."""
        self._indexes.pop(region_uid, None)
        return self.install_bucket(
            region_uid, _LaunchUser(keys, creations, task_ids)
        )

    def active_users(self, region_uid: int) -> int:
        """Number of live users tracked for a region (test hook)."""
        return len(self._users.get(region_uid, ()))

    # --------------------------------------------------- poison propagation
    def poison_regions(self, region_uids: Iterable[int], error: Any) -> int:
        """Taint regions with the error of an unrecovered launch.

        First writer wins: a region already tainted keeps its original
        error, so consumers always see the *root* cause.  Returns how many
        regions were newly tainted.
        """
        fresh = 0
        for uid in region_uids:
            if uid not in self.poisoned:
                self.poisoned[uid] = error
                fresh += 1
        return fresh

    def poison_for(self, region_uids: Iterable[int]) -> Optional[Any]:
        """The taint an operation over these regions would inherit, if any."""
        if not self.poisoned:
            return None
        for uid in region_uids:
            error = self.poisoned.get(uid)
            if error is not None:
                return error
        return None
