"""The indexed live path of the physical analyzer against a linear scan.

``PhysicalAnalyzer.record_task_access`` visits only the users its candidate
index returns.  The scan over the whole bucket it replaced survives here,
as the oracle: random access streams must leave both with the same
dependence lists, bucket order, captured ops, charged query counts and key
snapshots.  The second half guards the complexity by count, not by time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Point, Rect
from repro.data.collection import RectSubset, Region, SparseSubset, Subregion
from repro.data.partition import block_partition, equal_partition
from repro.data.privileges import Privilege, PrivilegeSpec
from repro.runtime.physical import (
    AccessOp,
    PhysicalAnalyzer,
    TaskDependence,
    _conflicts,
    _footprint_key,
    _same_subset,
    _User,
)

# Repeats weight the draw towards accesses that meet: writers on field f.
PRIVILEGES = [
    PrivilegeSpec.parse(text)
    for text in ("reads", "reads writes", "reads writes", "writes",
                 "reduces +", "reduces max")
]
FIELD_SETS = [("f",), ("f",), ("f",), ("g",), ("f", "g"), ("h",), ()]


def clone(user):
    """A copy with its own ``task_ids`` list (and the memoised key)."""
    twin = _User(
        list(user.task_ids), user.subregion, user.privilege, user.fields
    )
    twin._key = user._key
    return twin


def linear_access(users, task_id, subregion, privilege, fields):
    """One access by a scan of every user: ``(deps, new bucket, op)``."""
    region_uid = subregion.region.uid
    fieldset = frozenset(fields)
    keys = [_footprint_key(u.subregion, u.privilege, u.fields) for u in users]
    op = AccessOp(
        region_uid=region_uid,
        n_scanned=len(users),
        ambiguous=len(set(keys)) != len(keys),
    )
    deps, survivors, coalesced = [], [], False
    for key, user in zip(keys, users):
        if not (user.fields & fieldset):
            survivors.append(user)
            continue
        overlapping = user.subregion.overlaps(subregion)
        if overlapping and _conflicts(user.privilege, privilege):
            deps.extend(
                TaskDependence(tid, task_id, region_uid)
                for tid in user.task_ids
                if tid != task_id
            )
            op.dep_keys.append(key)
        if (
            overlapping
            and privilege.privilege in (Privilege.WRITE, Privilege.READ_WRITE)
            and task_id not in user.task_ids
            and user.fields <= fieldset
            and subregion.subset.covers(
                user.subregion.subset, subregion.region.bounds
            )
        ):
            op.retire_keys.append(key)
            continue
        if (
            not coalesced
            and user.privilege.compatible_with(privilege)
            and user.fields == fieldset
            and _same_subset(user.subregion.subset, subregion.subset)
        ):
            user.task_ids.append(task_id)
            coalesced = True
            op.coalesce_key = key
        survivors.append(user)
    if not coalesced:
        survivors.append(_User([task_id], subregion, privilege, fieldset))
        op.create = (subregion, privilege, fieldset)
    return deps, survivors, op


def footprints(region):
    """A pool of subregions of ``region`` covering every subset flavour."""
    bounds = region.bounds
    blocks = [3] * bounds.dim
    # A disjoint partition (subset objects shared with its subregions), the
    # same rects again as fresh subregions (equal-rect coalescing across
    # objects), and the aliased halo partition around them.
    tiles = block_partition(f"tiles{region.uid}", region, blocks)
    halos = block_partition(f"halos{region.uid}", region, blocks, halo=1)
    pool = [tiles[c] for c in tiles.color_space]
    pool += [
        Subregion(region, RectSubset(tiles[c].subset.rect), None, None)
        for c in tiles.color_space
    ]
    pool += [halos[c] for c in halos.color_space]
    pool.append(region.root_subregion())
    # Sparse: a scatter (twice: one subset, two subregions) and a cluster
    # inside one tile.
    rng = np.random.default_rng(bounds.dim)
    scatter = SparseSubset(rng.choice(bounds.volume, size=5, replace=False))
    cluster = SparseSubset(pool[0].subset.linear_indices(bounds)[:2])
    pool.append(Subregion(region, scatter, None, None))
    pool.append(Subregion(region, scatter, Point(*blocks), None))
    pool.append(Subregion(region, cluster, None, None))
    # Empty footprints, both flavours.
    nothing = Rect(bounds.lo, tuple(l - 1 for l in bounds.lo))
    pool.append(Subregion(region, RectSubset(nothing), None, None))
    pool.append(Subregion(region, RectSubset(nothing), None, None))
    pool.append(
        Subregion(region, SparseSubset(np.empty(0, dtype=np.int64)), None, None)
    )
    return pool


FIELDS = {"f": "f8", "g": "f8", "h": "f8"}
REGIONS = [
    Region("line", Rect((3,), (26,)), FIELDS),
    Region("grid", Rect((-2, 5), (3, 10)), FIELDS),
]
POOLS = [footprints(region) for region in REGIONS]

#: a bucket installed from outside the live path, as template replay, a
#: dependence kernel or the parallel merge would.
FOREIGN = {
    "reverse": lambda users: users[::-1],
    "drop_first": lambda users: users[1:],
    "duplicate_last": lambda users: users + users[-1:],
    "clear": lambda users: [],
}

accesses = st.tuples(
    st.integers(0, len(REGIONS) - 1),       # region
    st.integers(0, 255),                    # footprint (mod working set)
    st.integers(0, len(PRIVILEGES) - 1),
    st.integers(0, len(FIELD_SETS) - 1),
    st.integers(0, 5),                      # task id: repeats on purpose
    st.sampled_from([None, None, None] + sorted(FOREIGN)),
)


def describe(users):
    return [
        (list(u.task_ids), u.subregion, u.privilege, u.fields) for u in users
    ]


@settings(max_examples=400, deadline=None)
@given(
    stream=st.lists(accesses, max_size=60),
    capture=st.booleans(),
    # A few footprints per stream, so accesses keep meeting each other.
    working=st.lists(st.integers(0, 255), min_size=2, max_size=6),
)
def test_indexed_analyzer_matches_linear_scan(stream, capture, working):
    indexed = PhysicalAnalyzer()
    buckets = {region.uid: [] for region in REGIONS}    # the oracle's state
    charged = 0
    for ri, fi, pi, si, task_id, foreign in stream:
        uid = REGIONS[ri].uid
        if foreign is not None:
            mine = indexed._users.get(uid, [])
            indexed.install_bucket(
                uid, [clone(u) for u in FOREIGN[foreign](mine)]
            )
            buckets[uid] = [clone(u) for u in FOREIGN[foreign](buckets[uid])]
        subregion = POOLS[ri][working[fi % len(working)] % len(POOLS[ri])]
        privilege, fields = PRIVILEGES[pi], FIELD_SETS[si]
        captured = [] if capture else None
        got = indexed.record_task_access(
            task_id, subregion, privilege, fields, _capture=captured
        )
        charged += len(buckets[uid])
        want, buckets[uid], op = linear_access(
            buckets[uid], task_id, subregion, privilege, fields
        )
        assert got == want
        assert describe(indexed._users[uid]) == describe(buckets[uid])
        if capture:
            assert captured == [op]
        assert indexed.overlap_queries == charged
        assert indexed.snapshot_keys([uid])[uid] == tuple(
            _footprint_key(u.subregion, u.privilege, u.fields)
            for u in buckets[uid]
        )
    assert indexed.overlap_tests <= charged


def test_ambiguity_follows_duplicate_keys():
    # Two live users under one key make an access unreplayable; once a
    # covering write retires both, the next access is clean again.
    analyzer = PhysicalAnalyzer()
    region, tile = REGIONS[0], POOLS[0][0]
    rw = PRIVILEGES[1]
    analyzer.record_task_access(0, tile, rw, ("f",))
    (user,) = analyzer._users[region.uid]
    analyzer.install_bucket(region.uid, [clone(user), clone(user)])
    ops = []
    for tid in (1, 2):
        analyzer.record_task_access(tid, tile, rw, ("f",), _capture=ops)
    assert [op.ambiguous for op in ops] == [True, False]
    assert len(ops[0].retire_keys) == 2 and analyzer.active_users(region.uid) == 1


def test_index_describes_one_list_object_only():
    # A bucket swapped without install_bucket (same version, another list)
    # must not be analysed through the index of the list it replaced.
    analyzer = PhysicalAnalyzer()
    region, pool = REGIONS[0], POOLS[0]
    rw = PRIVILEGES[1]
    analyzer.record_task_access(0, pool[0], rw, ("f",))
    analyzer._users[region.uid] = [_User([7], pool[1], rw, frozenset("f"))]
    assert analyzer.record_task_access(1, pool[0], rw, ("f",)) == []
    deps = analyzer.record_task_access(2, pool[1], rw, ("f",))
    assert [d.earlier_task for d in deps] == [7]


def test_each_access_installs_a_fresh_list():
    # A caller may still be reading the list it snapshotted.
    analyzer = PhysicalAnalyzer()
    region, pool = REGIONS[0], POOLS[0]
    analyzer.record_task_access(0, pool[0], PRIVILEGES[0], ("f",))
    held = analyzer._users[region.uid]
    before = list(held)
    analyzer.record_task_access(1, pool[1], PRIVILEGES[1], ("f",))
    assert held == before and analyzer._users[region.uid] is not held


@pytest.mark.parametrize("pieces", [32, 256])
@pytest.mark.parametrize("block", [4, 5])     # 5: blocks straddle grid cells
def test_disjoint_launch_runs_one_exact_test_per_task(pieces, block):
    region = Region("big", Rect((0,), (pieces * block - 1,)), {"x": "f8"})
    part = equal_partition(f"big{region.uid}", region, pieces)
    rw = PrivilegeSpec.parse("reads writes")
    analyzer = PhysicalAnalyzer()
    for tid in range(pieces):                    # populate: nothing to test
        analyzer.record_task(tid, [(part[tid], rw, ("x",))])
    assert analyzer.overlap_tests == 0
    queries = analyzer.overlap_queries
    for tid in range(pieces):                    # the launch under test
        deps = analyzer.record_task(
            pieces + tid, [(part[(tid + 3) % pieces], rw, ("x",))]
        )
        assert [d.earlier_task for d in deps] == [(tid + 3) % pieces]
    assert analyzer.overlap_tests == pieces                      # |D|
    assert analyzer.overlap_queries - queries == pieces * pieces  # |D| * |P|
    assert analyzer.active_users(region.uid) == pieces
