"""Tests for mappers, sharding, and the slicing broadcast tree."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain, Point
from repro.core.projection import ModularFunctor
from repro.data.partition import equal_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.distribution import build_slices, shard_points
from repro.runtime.mapper import CyclicMapper, DefaultMapper, Mapper, ShardingCache
from repro.runtime.pipeline import Stage


class TestDefaultMapper:
    def test_block_assignment_covers_all_nodes(self):
        m = DefaultMapper()
        d = Domain.range(16)
        nodes = {m.shard(p, d, 4) for p in d}
        assert nodes == {0, 1, 2, 3}

    def test_block_assignment_contiguous(self):
        m = DefaultMapper()
        d = Domain.range(8)
        assignment = [m.shard(Point(i), d, 2) for i in range(8)]
        assert assignment == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_single_node(self):
        m = DefaultMapper()
        d = Domain.range(5)
        assert all(m.shard(p, d, 1) == 0 for p in d)

    def test_more_nodes_than_points(self):
        m = DefaultMapper()
        d = Domain.range(2)
        shards = [m.shard(p, d, 8) for p in d]
        assert all(0 <= s < 8 for s in shards)

    def test_2d_domain(self):
        m = DefaultMapper()
        d = Domain.rect((0, 0), (3, 3))
        nodes = {m.shard(p, d, 4) for p in d}
        assert nodes == {0, 1, 2, 3}

    @given(n=st.integers(1, 64), nodes=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_pure_and_in_range(self, n, nodes):
        m = DefaultMapper()
        d = Domain.range(n)
        for p in d:
            s1 = m.shard(p, d, nodes)
            s2 = m.shard(p, d, nodes)
            assert s1 == s2
            assert 0 <= s1 < nodes


class TestCyclicMapper:
    def test_round_robin(self):
        m = CyclicMapper()
        d = Domain.range(6)
        assert [m.shard(Point(i), d, 3) for i in range(6)] == [0, 1, 2, 0, 1, 2]


class TestShardPoints:
    def test_every_point_assigned_exactly_once(self):
        assignment = shard_points(DefaultMapper(), Domain.range(10), 3)
        all_points = [p for pts in assignment.values() for p in pts]
        assert sorted(p[0] for p in all_points) == list(range(10))

    def test_sparse_domain(self):
        d = Domain.points([(0, 0, 2), (1, 1, 0), (2, 0, 0)])
        assignment = shard_points(DefaultMapper(), d, 2)
        assert sum(len(v) for v in assignment.values()) == 3


class TestShardingCache:
    def test_memoizes_per_shape(self):
        cache = ShardingCache()
        m = DefaultMapper()
        d = Domain.range(8)
        a = cache.shard_map(m, d, 2)
        b = cache.shard_map(m, d, 2)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_shapes_miss(self):
        cache = ShardingCache()
        m = DefaultMapper()
        cache.shard_map(m, Domain.range(8), 2)
        cache.shard_map(m, Domain.range(8), 4)
        cache.shard_map(m, Domain.range(16), 2)
        assert cache.misses == 3

    def test_rejects_out_of_range_shard(self):
        class BadMapper(Mapper):
            def shard(self, point, domain, n_nodes):
                return n_nodes  # off by one

        with pytest.raises(ValueError):
            ShardingCache().shard_map(BadMapper(), Domain.range(4), 2)


class TestSlicing:
    def test_slices_partition_the_domain(self):
        d = Domain.range(16)
        result = build_slices(DefaultMapper(), d, 4)
        pts = sorted(p[0] for s in result.slices for p in s.points)
        assert pts == list(range(16))

    def test_each_slice_targets_one_node(self):
        d = Domain.range(16)
        result = build_slices(DefaultMapper(), d, 4)
        m = DefaultMapper()
        for s in result.slices:
            assert {m.shard(p, d, 4) for p in s.points} == {s.node}

    def test_depth_is_logarithmic(self):
        # The broadcast tree has O(log |D|) depth (Section 5).
        for n in (4, 16, 64, 256):
            d = Domain.range(n)
            result = build_slices(DefaultMapper(), d, n)
            assert result.max_depth <= math.ceil(math.log2(n)) + 1

    def test_single_node_no_transfers(self):
        result = build_slices(DefaultMapper(), Domain.range(8), 1)
        assert result.transfers == []
        assert len(result.slices) == 1

    def test_transfer_count_linear_in_nodes_not_tasks(self):
        # Overdecomposed: 8 tasks per node; messages scale with slices
        # (O(nodes)), not with |D|.
        d = Domain.range(8 * 16)
        result = build_slices(DefaultMapper(), d, 16)
        assert len(result.slices) == 16
        assert result.n_messages < 2 * 16 + math.ceil(math.log2(16)) * 4

    def test_empty_domain(self):
        result = build_slices(DefaultMapper(), Domain.range(0), 4)
        assert result.slices == [] and result.transfers == []

    @given(n=st.integers(1, 100), nodes=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_property_complete_and_disjoint(self, n, nodes):
        d = Domain.range(n)
        result = build_slices(DefaultMapper(), d, nodes)
        pts = sorted(p[0] for s in result.slices for p in s.points)
        assert pts == list(range(n))


@task(privileges=["reads writes"])
def _bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


class TestPlacementByRoute:
    """A point task is placed by its launch's sharding functor, whatever
    route the launch takes and whatever the mapper: an index launch,
    No-IDX and the fallback loop put the same tasks on the same nodes.
    (An index launch charges distribution one shard descriptor per node,
    the task loop one unit per task, so only that row's nodes compare.)"""

    def _placement(self, mapper, index_launches, functor=None):
        rt = Runtime(RuntimeConfig(n_nodes=4, index_launches=index_launches),
                     mapper=mapper)
        region = rt.create_region("placed", 16, {"x": "f8"})
        part = equal_partition("placed_p", region, 8)
        rt.index_launch(_bump, 8, part if functor is None else (part, functor))
        rows = rt.stats.representation
        return (
            sorted(n for s, n in rows if s == Stage.DISTRIBUTION),
            {n: u for (s, n), u in rows.items() if s == Stage.PHYSICAL},
            {n: u for (s, n), u in rows.items() if s == Stage.EXECUTION},
        )

    @pytest.mark.parametrize("mapper", [DefaultMapper, CyclicMapper])
    def test_idx_noidx_and_fallback_place_alike(self, mapper):
        idx = self._placement(mapper(), True)
        assert idx == ([0, 1, 2, 3], {n: 2 for n in range(4)},
                       {n: 2 for n in range(4)})
        assert self._placement(mapper(), False) == idx
        # ModularFunctor(4, 0) is not injective over 8 points: the launch
        # fails its dynamic check and runs as the fallback loop.
        assert self._placement(mapper(), True, ModularFunctor(4, 0)) == idx

    @pytest.mark.parametrize("index_launches", [True, False])
    def test_an_out_of_range_node_is_rejected_on_every_route(
        self, index_launches
    ):
        class BadMapper(Mapper):
            def shard(self, point, domain, n_nodes):
                return n_nodes  # off by one

        with pytest.raises(ValueError, match="to node 4 of 4"):
            self._placement(BadMapper(), index_launches)
