"""Tests for tasks, privilege enforcement, and physical regions."""

import numpy as np
import pytest

from repro.core.domain import Point, Rect
from repro.data.collection import RectSubset, Region, SparseSubset, Subregion
from repro.data.privileges import PrivilegeSpec
from repro.runtime.task import (
    PhysicalRegion,
    PrivilegeError,
    Task,
    TaskContext,
    task,
)


@pytest.fixture
def region():
    r = Region("r", Rect((0,), (9,)), {"x": "f8", "y": "f8"})
    r.storage("x")[:] = np.arange(10.0)
    return r


def phys(region, priv, fields=("x", "y"), subset=None):
    sub = Subregion(region, subset or RectSubset(region.bounds), Point(0), None)
    return PhysicalRegion(sub, PrivilegeSpec.parse(priv), tuple(fields))


class TestPhysicalRegion:
    def test_read_requires_read_privilege(self, region):
        assert list(phys(region, "reads").read("x")) == list(range(10))
        with pytest.raises(PrivilegeError):
            phys(region, "writes").read("x")

    def test_write_requires_write_privilege(self, region):
        phys(region, "writes").write("y", np.ones(10))
        assert np.all(region.storage("y") == 1.0)
        with pytest.raises(PrivilegeError):
            phys(region, "reads").write("y", np.ones(10))

    def test_read_write_allows_both(self, region):
        p = phys(region, "reads writes")
        p.write("y", p.read("x") * 2)
        assert region.storage("y")[3] == 6.0

    def test_reduce_requires_reduce_privilege(self, region):
        p = phys(region, "reduces +")
        p.reduce("x", np.ones(10))
        assert region.storage("x")[0] == 1.0
        with pytest.raises(PrivilegeError):
            phys(region, "writes").reduce("x", np.ones(10))

    def test_reduce_privilege_denies_read_and_write(self, region):
        p = phys(region, "reduces +")
        with pytest.raises(PrivilegeError):
            p.read("x")
        with pytest.raises(PrivilegeError):
            p.write("x", np.ones(10))

    def test_fill_requires_write(self, region):
        phys(region, "writes").fill("y", 5.0)
        assert np.all(region.storage("y") == 5.0)
        with pytest.raises(PrivilegeError):
            phys(region, "reads").fill("y", 0.0)

    def test_undeclared_field_rejected(self, region):
        p = phys(region, "reads writes", fields=("x",))
        with pytest.raises(PrivilegeError):
            p.read("y")
        with pytest.raises(PrivilegeError):
            p.write("y", np.zeros(10))

    def test_locate_translates_global_ids(self, region):
        sub = Subregion(region, SparseSubset(np.array([2, 5, 7])), Point(0), None)
        p = PhysicalRegion(sub, PrivilegeSpec.parse("reads"), ("x",))
        assert list(p.locate(np.array([5, 2, 7]))) == [1, 0, 2]

    def test_locate_rejects_outside_ids(self, region):
        sub = Subregion(region, SparseSubset(np.array([2, 5])), Point(0), None)
        p = PhysicalRegion(sub, PrivilegeSpec.parse("reads"), ("x",))
        with pytest.raises(PrivilegeError):
            p.locate(np.array([3]))
        with pytest.raises(PrivilegeError):
            p.locate(np.array([9]))

    def test_write_nd(self):
        r = Region("g", Rect((0, 0), (3, 3)), {"v": "f8"})
        sub = Subregion(r, RectSubset(Rect((0, 0), (1, 1))), Point(0), None)
        p = PhysicalRegion(sub, PrivilegeSpec.parse("reads writes"), ("v",))
        p.write_nd("v", np.full((2, 2), 3.0))
        assert r.field_nd("v")[1, 1] == 3.0 and r.field_nd("v")[2, 2] == 0.0

    def test_volume_and_color(self, region):
        sub = Subregion(region, SparseSubset(np.array([1, 2])), Point(4), None)
        p = PhysicalRegion(sub, PrivilegeSpec.parse("reads"), ("x",))
        assert p.volume == 2 and p.color == Point(4)

    def test_read_views_are_read_only_and_made_once_per_field(self):
        r = Region("g", Rect((0, 0), (3, 3)), {"v": "f8"})
        r.storage("v")[:] = np.arange(16.0)
        sub = Subregion(r, RectSubset(Rect((0, 0), (1, 1))), Point(0), None)
        p = PhysicalRegion(sub, PrivilegeSpec.parse("reads"), ("v",))
        view = p.read_nd("v")
        assert not view.flags.writeable and p.read_nd("v") is view
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        r.storage("v")[0] = -1.0              # a view: it sees later writes
        assert view[0, 0] == -1.0
        copy = p.read("v")                    # 2-D: a gathered copy
        assert not copy.flags.writeable and p.read("v") is not copy
        assert r.storage("v").flags.writeable

    def test_read_of_a_sparse_read_accessor_is_a_read_only_copy(self, region):
        sub = Subregion(region, SparseSubset(np.array([2, 5])), Point(0), None)
        p = PhysicalRegion(sub, PrivilegeSpec.parse("reads"), ("x",))
        first = p.read("x")
        assert list(first) == [2.0, 5.0] and not first.flags.writeable
        region.storage("x")[5] = 7.0
        assert list(p.read("x")) == [2.0, 7.0]

    def test_read_write_views_stay_writable(self, region):
        view = phys(region, "reads writes").read("x")
        view[0] = 42.0
        assert region.storage("x")[0] == 42.0


class TestTaskRegistration:
    def test_decorator_produces_task(self):
        @task(privileges=["reads"])
        def reader(ctx, r):
            return r.volume

        assert isinstance(reader, Task)
        assert reader.name == "reader"
        assert reader.n_region_params == 1

    def test_explicit_name(self):
        @task(privileges=[], name="custom")
        def whatever(ctx):
            return 1

        assert whatever.name == "custom"

    def test_privilege_strings_parsed(self):
        t = Task(lambda ctx: None, privileges=["reads writes", "reduces max"])
        assert t.privileges[0].privilege.value == "reads writes"
        assert t.privileges[1].redop.name == "max"

    def test_fields_must_align(self):
        with pytest.raises(ValueError):
            Task(lambda ctx, a: None, privileges=["reads"], fields=[None, None])

    def test_unique_uids(self):
        a = Task(lambda ctx: None, privileges=[])
        b = Task(lambda ctx: None, privileges=[])
        assert a.uid != b.uid

    def test_callable_passes_context(self):
        t = Task(lambda ctx, x: (ctx.node, x), privileges=[])
        assert t(TaskContext(node=3), 7) == (3, 7)


class TestTaskContext:
    def test_is_immutable(self):
        ctx = TaskContext(Point(1), 2)
        assert (ctx.point, ctx.node, ctx.runtime) == (Point(1), 2, None)
        for name in ("point", "node", "runtime", "other"):
            with pytest.raises(AttributeError):
                setattr(ctx, name, 0)
            with pytest.raises(AttributeError):
                delattr(ctx, name)
        assert ctx.node == 2
