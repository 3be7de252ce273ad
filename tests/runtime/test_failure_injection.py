"""Failure injection: the runtime's behaviour on misbehaving programs.

Errors must surface as clear exceptions at the right layer, and the
runtime's region data must stay consistent with what completed before the
failure (the functional backend executes eagerly, so partial effects are
sequential-prefix effects).
"""

import numpy as np
import pytest

from repro.core.domain import Domain
from repro.core.projection import AffineFunctor, CallableFunctor
from repro.data.partition import equal_partition
from repro.runtime import (
    PrivilegeError,
    Runtime,
    RuntimeConfig,
    task,
)


@task(privileges=["reads"])
def sneaky_writer(ctx, r):
    r.write("x", np.zeros(r.volume))  # privilege violation


@task(privileges=["reads writes"])
def crash_on_point_two(ctx, r):
    if ctx.point is not None and ctx.point[0] == 2:
        raise RuntimeError("injected failure")
    r.write("x", r.read("x") + 1.0)


@task(privileges=["reads writes"])
def touch_wrong_field(ctx, r):
    r.read("nope")


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


@pytest.fixture
def setup():
    rt = Runtime(RuntimeConfig(n_nodes=2))
    r = rt.create_region("r", 8, {"x": "f8"})
    p = equal_partition(f"p{r.uid}", r, 4)
    return rt, r, p


class TestPrivilegeViolations:
    def test_write_under_read_privilege_raises(self, setup):
        rt, r, p = setup
        with pytest.raises(PrivilegeError):
            rt.index_launch(sneaky_writer, 4, p)

    def test_undeclared_field_raises(self, setup):
        rt, r, p = setup
        with pytest.raises(PrivilegeError):
            rt.execute_task(touch_wrong_field, r)

    def test_data_untouched_after_denied_write(self, setup):
        rt, r, p = setup
        r.storage("x")[:] = 7.0
        with pytest.raises(PrivilegeError):
            rt.index_launch(sneaky_writer, 4, p)
        assert np.all(r.storage("x") == 7.0)


class TestTaskBodyFailures:
    def test_exception_propagates(self, setup):
        rt, r, p = setup
        with pytest.raises(RuntimeError, match="injected"):
            rt.index_launch(crash_on_point_two, 4, p)

    def test_prefix_effects_visible(self, setup):
        """Eager sequential execution: tasks before the failing point ran.
        A task counts as executed once its body starts, so the counters
        charge points 0-2: the one that raised included."""
        rt, r, p = setup
        with pytest.raises(RuntimeError):
            rt.index_launch(crash_on_point_two, 4, p)
        assert list(r.storage("x")) == [1, 1, 1, 1, 0, 0, 0, 0]
        assert rt.stats.tasks_executed == 3
        executed = {
            key: units for key, units in rt.stats.representation.items()
            if key[0] == "execution"
        }
        assert executed == {("execution", 0): 2, ("execution", 1): 1}

    def test_runtime_usable_after_failure(self, setup):
        rt, r, p = setup
        with pytest.raises(RuntimeError):
            rt.index_launch(crash_on_point_two, 4, p)
        r.storage("x")[:] = 0.0
        rt.index_launch(bump, 4, p)
        assert np.all(r.storage("x") == 1.0)


class TestBadFunctors:
    def test_out_of_bounds_color_raises(self, setup):
        rt, r, p = setup
        # f(i) = i + 2 maps point 2, 3 outside the 4-color space.
        with pytest.raises(KeyError):
            rt.index_launch(bump, 4, (p, AffineFunctor(1, 2)))

    def test_wrong_output_dimension_raises(self, setup):
        rt, r, p = setup
        f = CallableFunctor(lambda i: (i, i), name="pair")
        with pytest.raises(ValueError):
            rt.index_launch(bump, 4, (p, f))

    def test_functor_raising_propagates(self, setup):
        rt, r, p = setup

        def explode(i):
            raise ArithmeticError("bad functor")

        with pytest.raises(ArithmeticError):
            rt.index_launch(bump, 4, (p, CallableFunctor(explode)))


class TestDomainEdgeCases:
    def test_empty_domain_launch(self, setup):
        rt, r, p = setup
        fm = rt.index_launch(bump, 0, p)
        assert len(fm) == 0
        assert rt.stats.tasks_executed == 0

    def test_single_point_domain(self, setup):
        rt, r, p = setup
        fm = rt.index_launch(bump, 1, p)
        assert len(fm) == 1
        assert list(r.storage("x")[:2]) == [1.0, 1.0]

    def test_sparse_domain_launch(self, setup):
        rt, r, p = setup
        fm = rt.index_launch(bump, Domain.points([(0,), (3,)]), p)
        assert len(fm) == 2
        assert list(r.storage("x")) == [1, 1, 0, 0, 0, 0, 1, 1]
