"""Functor identity in the analysis caches.

Every cache keys a functor on its ``key``, which determines the function
it computes.  Cache keys used to be ``describe()`` text, which is the
function's ``__name__`` for a :class:`CallableFunctor` — ``<lambda>`` for
every lambda — so two launches differing only in their lambda shared one
launch signature, and the second replayed the first one's verdict and
expansion.  These tests pin the three ways that went wrong:

* within a runtime, on every backend, with the replay cache on or off;
* across runtimes, through the process-wide check kernels;
* through a user subclass of a value class, whose parent's parameters
  the affine engine used to read as the subclass's function.
"""

import pytest

from repro.core.domain import Point
from repro.core.projection import CallableFunctor, ModularFunctor
from repro.core.safety import SafetyMethod
from repro.core.static_analysis import functor_to_form
from repro.data.partition import equal_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.kernels import GLOBAL_CHECK_KERNELS

PIECES = 4


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


class Folded(ModularFunctor):
    """A user subclass of a value class that folds every point onto 0."""

    def apply(self, point):
        return Point(0)

    def apply_batch(self, points):
        return points[:, :1] * 0


def _bump_through(rt, *functors):
    """Bump a fresh 4-piece region through each functor in turn."""
    region = rt.create_region("r", PIECES, {"x": "f8"})
    part = equal_partition("p", region, PIECES)
    for functor in functors:
        rt.index_launch(bump, PIECES, (part, functor))
    rt.drain()
    return region


BACKENDS = [(1, None), (2, "pipe"), (2, "socket")]


@pytest.mark.parametrize("analysis_cache", [True, False])
@pytest.mark.parametrize("workers,transport", BACKENDS)
def test_two_lambdas_get_two_verdicts(workers, transport, analysis_cache):
    """``lambda i: i`` then ``lambda i: 0`` over the same partition: the
    second launch is unsafe, runs point after point, and bumps piece 0
    four more times (1 + 4 = 5)."""
    rt = Runtime(RuntimeConfig(n_nodes=4, workers=workers,
                               transport=transport,
                               analysis_cache=analysis_cache))
    region = _bump_through(rt, CallableFunctor(lambda i: i),
                           CallableFunctor(lambda i: 0))
    assert region.storage("x")[0] == 5.0
    assert [v.safe for v in rt.safety_log] == [True, False]


def test_a_fresh_runtime_does_not_inherit_another_lambdas_verdict():
    """Runtime B's memo is cold, so its check reaches the process-wide
    kernels; they must not serve runtime A's verdict for another lambda,
    and must not keep a lambda-keyed entry at all."""
    rt_a = Runtime(RuntimeConfig(workers=1))
    _bump_through(rt_a, CallableFunctor(lambda i: i))
    assert rt_a.safety_log[-1].safe

    before = len(GLOBAL_CHECK_KERNELS.store.layer("check"))
    rt_b = Runtime(RuntimeConfig(workers=1))
    _bump_through(rt_b, CallableFunctor(lambda i: 0))
    assert not rt_b.safety_log[-1].safe
    assert len(GLOBAL_CHECK_KERNELS.store.layer("check")) == before


def test_same_function_still_hits_across_wrappers():
    """Two wrappers of one module-level function are one key: a reissue
    through a fresh wrapper (as a service CALL unpickles one) replays."""
    rt = Runtime(RuntimeConfig(workers=1))
    region = _bump_through(rt, CallableFunctor(_rotate),
                           CallableFunctor(_rotate))
    assert rt.stats.analysis_cache_hits >= 1
    assert list(region.storage("x")) == [2.0] * PIECES


def _rotate(i):
    return (i + 1) % PIECES


@pytest.mark.parametrize("kernels", [True, False])
def test_subclass_of_value_class_is_not_read_as_its_parent(kernels):
    """``Folded`` inherits ``ModularFunctor``'s ``n, k`` but maps every
    point to 0: with or without kernels, writing through it is unsafe."""
    rt = Runtime(RuntimeConfig(workers=1, kernels=kernels))
    region = _bump_through(rt, Folded(PIECES, 1))
    verdict = rt.safety_log[-1]
    assert not verdict.safe
    assert verdict.method is SafetyMethod.UNSAFE
    assert region.storage("x")[0] == float(PIECES)


def test_affine_facts_come_from_exact_classes_only():
    assert functor_to_form(ModularFunctor(PIECES, 1)) is not None
    assert functor_to_form(Folded(PIECES, 1)) is None
