"""Tests for the launch representations (IndexLaunch / TaskLaunch)."""

import pytest

from repro.core.domain import Domain, Point, Rect
from repro.core.launch import ArgumentMap, IndexLaunch, RegionRequirement, TaskLaunch
from repro.core.projection import AffineFunctor, IdentityFunctor, ModularFunctor
from repro.data.collection import Region
from repro.data.partition import equal_partition
from repro.data.privileges import PrivilegeSpec


class FakeTask:
    name = "foo"


@pytest.fixture
def part():
    r = Region("c", Rect((0,), (15,)), {"x": "f8"})
    return equal_partition("p", r, 8)


def idx_req(part, functor=None, priv="reads"):
    return RegionRequirement(
        privilege=PrivilegeSpec.parse(priv), partition=part, functor=functor
    )


class TestRegionRequirement:
    def test_defaults_to_identity_functor(self, part):
        r = idx_req(part)
        assert isinstance(r.functor, IdentityFunctor)

    def test_rejects_both_sources(self, part):
        with pytest.raises(ValueError):
            RegionRequirement(
                privilege=PrivilegeSpec.parse("reads"),
                partition=part,
                subregion=part[0],
            )

    def test_rejects_neither_source(self):
        with pytest.raises(ValueError):
            RegionRequirement(privilege=PrivilegeSpec.parse("reads"))

    def test_project(self, part):
        r = idx_req(part, AffineFunctor(2))
        assert r.project(Point(3)) is part[6]

    def test_region_property(self, part):
        assert idx_req(part).region is part.region
        single = RegionRequirement(
            privilege=PrivilegeSpec.parse("reads"), subregion=part[0]
        )
        assert single.region is part.region

    def test_resolved_fields_default_all(self, part):
        assert idx_req(part).resolved_fields() == ("x",)

    def test_resolved_fields_explicit(self, part):
        r = RegionRequirement(
            privilege=PrivilegeSpec.parse("reads"), fields=("x",), partition=part
        )
        assert r.resolved_fields() == ("x",)


class TestIndexLaunch:
    def test_o1_representation(self, part):
        """The launch's in-memory size is independent of |D| (the paper's
        central claim about the representation)."""
        small = IndexLaunch(FakeTask(), Domain.range(2), [idx_req(part)])
        # A different partition is needed for a bigger domain's identity map,
        # but representation_units is what matters here.
        big = IndexLaunch(FakeTask(), Domain.range(8), [idx_req(part)])
        assert small.representation_units() == big.representation_units() == 1

    def test_parallelism_is_domain_volume(self, part):
        launch = IndexLaunch(FakeTask(), Domain.range(8), [idx_req(part)])
        assert launch.parallelism == 8

    def test_rejects_concrete_requirements(self, part):
        single = RegionRequirement(
            privilege=PrivilegeSpec.parse("reads"), subregion=part[0]
        )
        with pytest.raises(ValueError):
            IndexLaunch(FakeTask(), Domain.range(2), [single])

    def test_point_task_projects_all_requirements(self, part):
        launch = IndexLaunch(
            FakeTask(),
            Domain.range(4),
            [idx_req(part, IdentityFunctor()), idx_req(part, AffineFunctor(1, 4))],
        )
        t = launch.point_task(Point(2))
        assert t.requirements[0].subregion is part[2]
        assert t.requirements[1].subregion is part[6]
        assert t.point == Point(2)
        assert t.parent is launch

    def test_expand_whole_domain(self, part):
        launch = IndexLaunch(FakeTask(), Domain.range(4), [idx_req(part)])
        tasks = launch.expand()
        assert len(tasks) == 4
        assert [t.point[0] for t in tasks] == [0, 1, 2, 3]
        assert sum(t.representation_units() for t in tasks) == 4

    def test_expand_subset_of_points(self, part):
        """Distribution expands only locally-owned points (Section 5)."""
        launch = IndexLaunch(FakeTask(), Domain.range(8), [idx_req(part)])
        local = launch.expand(points=[Point(2), Point(5)])
        assert [t.point[0] for t in local] == [2, 5]

    def test_broadcast_args(self, part):
        launch = IndexLaunch(
            FakeTask(), Domain.range(2), [idx_req(part)], args=(0.5, "dt")
        )
        assert launch.point_task(Point(1)).args == (0.5, "dt")

    def test_point_args_from_map(self, part):
        amap = ArgumentMap(lambda p: (p[0] * 10,))
        launch = IndexLaunch(
            FakeTask(), Domain.range(3), [idx_req(part)], args=(1,), point_args=amap
        )
        assert launch.point_task(Point(2)).args == (1, 20)

    def test_point_args_from_dict(self, part):
        amap = ArgumentMap({Point(0): (7,)})
        launch = IndexLaunch(
            FakeTask(), Domain.range(2), [idx_req(part)], point_args=amap
        )
        assert launch.point_task(Point(0)).args == (7,)
        assert launch.point_task(Point(1)).args == ()

    def test_launch_ids_unique(self, part):
        a = IndexLaunch(FakeTask(), Domain.range(2), [idx_req(part)])
        b = IndexLaunch(FakeTask(), Domain.range(2), [idx_req(part)])
        assert a.launch_id != b.launch_id

    def test_name_includes_domain_size(self, part):
        launch = IndexLaunch(FakeTask(), Domain.range(5), [idx_req(part)])
        assert launch.name == "foo[5]"

    def test_name_builds_no_repr_of_a_named_task(self):
        """Every launch names its FutureMap; a task with a name must not
        pay for its repr there."""
        from repro.runtime import Runtime, RuntimeConfig
        from repro.runtime.task import Task

        class CountingTask(Task):
            reprs = 0

            def __repr__(self):
                CountingTask.reprs += 1
                return super().__repr__()

        bump = CountingTask(
            lambda ctx, r: r.write("x", r.read("x") + 1.0), ["reads writes"],
            name="bump",
        )
        rt = Runtime(RuntimeConfig(workers=1, n_nodes=2))
        region = rt.create_region("named", 8, {"x": "f8"})
        p = equal_partition("named_p", region, 4)
        for _ in range(3):
            rt.index_launch(bump, 4, p)
        assert CountingTask.reprs == 0
        assert rt.stats.tasks_executed == 12

    def test_nameless_task_is_named_by_its_repr(self, part):
        class Nameless:
            def __repr__(self):
                return "anon"

        launch = IndexLaunch(Nameless(), Domain.range(3), [idx_req(part)])
        assert launch.name == "anon[3]"


class TestTaskLaunch:
    def test_requires_concrete_subregions(self, part):
        with pytest.raises(ValueError):
            TaskLaunch(FakeTask(), [idx_req(part)])

    def test_name_with_point(self, part):
        t = TaskLaunch(
            FakeTask(),
            [RegionRequirement(privilege=PrivilegeSpec.parse("reads"),
                               subregion=part[0])],
            point=Point(3),
        )
        assert t.name == "foo(3,)"
