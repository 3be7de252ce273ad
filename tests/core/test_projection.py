"""Tests for projection functors and their static injectivity knowledge."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.domain import Domain, Point, Rect
from repro.core.launch import IndexLaunch
from repro.core.projection import (
    AffineFunctor,
    AffineNDFunctor,
    CallableFunctor,
    ComposedFunctor,
    ConstantFunctor,
    IdentityFunctor,
    Injectivity,
    ModularFunctor,
    PlaneProjectionFunctor,
    ProjectionFunctor,
    QuadraticFunctor,
    is_value_key,
)
from repro.data.partition import equal_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.replay import DynamicCheckMemo

D10 = Domain.range(10)


def batch_matches_scalar(functor, domain):
    """Vectorized evaluation must agree with point-at-a-time evaluation."""
    pts = domain.point_array()
    batch = functor.apply_batch(pts)
    if batch.ndim == 1:
        batch = batch.reshape(-1, 1)
    for row_in, row_out in zip(pts, batch):
        assert functor.apply(Point(*row_in)) == Point(*row_out)


class TestIdentity:
    def test_apply(self):
        f = IdentityFunctor()
        assert f(Point(3)) == Point(3)
        assert f(Point(1, 2)) == Point(1, 2)

    def test_statically_injective(self):
        assert IdentityFunctor().static_injectivity(D10) is Injectivity.INJECTIVE

    def test_batch(self):
        batch_matches_scalar(IdentityFunctor(), D10)

    def test_equality(self):
        assert IdentityFunctor() == IdentityFunctor()


class TestConstant:
    def test_apply(self):
        assert ConstantFunctor(4)(Point(9)) == Point(4)

    def test_not_injective_over_multi_point_domain(self):
        assert ConstantFunctor(0).static_injectivity(D10) is Injectivity.NOT_INJECTIVE

    def test_injective_over_singleton(self):
        assert (
            ConstantFunctor(0).static_injectivity(Domain.range(1))
            is Injectivity.INJECTIVE
        )

    def test_nd_constant(self):
        f = ConstantFunctor((1, 2))
        assert f(Point(0)) == Point(1, 2)
        assert f.apply_batch(D10.point_array()).shape == (10, 2)

    def test_batch(self):
        batch_matches_scalar(ConstantFunctor(7), D10)


class TestAffine:
    def test_apply(self):
        assert AffineFunctor(2, 1)(Point(3)) == Point(7)

    def test_injective_iff_nondegenerate(self):
        assert AffineFunctor(2, 5).static_injectivity(D10) is Injectivity.INJECTIVE
        assert AffineFunctor(0, 5).static_injectivity(D10) is Injectivity.NOT_INJECTIVE

    def test_negative_stride_injective(self):
        assert AffineFunctor(-1, 9).static_injectivity(D10) is Injectivity.INJECTIVE

    def test_batch(self):
        batch_matches_scalar(AffineFunctor(-3, 100), D10)

    @given(a=st.integers(-5, 5), b=st.integers(-10, 10))
    def test_static_verdict_matches_brute_force(self, a, b):
        f = AffineFunctor(a, b)
        images = {f.apply(p) for p in D10}
        injective = len(images) == D10.volume
        verdict = f.static_injectivity(D10)
        if verdict is Injectivity.INJECTIVE:
            assert injective
        elif verdict is Injectivity.NOT_INJECTIVE:
            assert not injective


class TestModular:
    def test_listing2_example(self):
        # i % 3 over [0, 5): 0,1,2,0,1 — not injective.
        f = ModularFunctor(3)
        vals = [f.apply(p)[0] for p in Domain.range(5)]
        assert vals == [0, 1, 2, 0, 1]

    def test_statically_unknown(self):
        assert ModularFunctor(3).static_injectivity(D10) is Injectivity.UNKNOWN

    def test_rotation_with_offset(self):
        f = ModularFunctor(10, k=4)
        images = {f.apply(p) for p in D10}
        assert len(images) == 10  # a full rotation is injective

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            ModularFunctor(0)

    def test_batch(self):
        batch_matches_scalar(ModularFunctor(7, k=3), D10)


class TestQuadratic:
    def test_apply(self):
        assert QuadraticFunctor(1, 0, 0)(Point(4)) == Point(16)

    def test_statically_unknown(self):
        assert QuadraticFunctor(1).static_injectivity(D10) is Injectivity.UNKNOWN

    def test_batch(self):
        batch_matches_scalar(QuadraticFunctor(2, -3, 5), D10)


class TestCallable:
    def test_opaque_function(self):
        f = CallableFunctor(lambda i: 2 * i + 1, name="odd")
        assert f(Point(3)) == Point(7)
        assert f.static_injectivity(D10) is Injectivity.UNKNOWN
        assert "odd" in f.describe()

    def test_nd_output(self):
        f = CallableFunctor(lambda i: (i, i + 1))
        assert f(Point(2)) == Point(2, 3)

    def test_batch_fallback(self):
        batch_matches_scalar(CallableFunctor(lambda i: i * i - i), D10)


class TestComposed:
    def test_apply(self):
        f = ComposedFunctor(AffineFunctor(2), AffineFunctor(1, 3))
        assert f(Point(1)) == Point(8)  # 2 * (1 + 3)

    def test_injective_composition(self):
        f = ComposedFunctor(AffineFunctor(2), IdentityFunctor())
        assert f.static_injectivity(D10) is Injectivity.INJECTIVE

    def test_noninjective_inner(self):
        f = ComposedFunctor(IdentityFunctor(), ConstantFunctor(0))
        assert f.static_injectivity(D10) is Injectivity.NOT_INJECTIVE

    def test_unknown_inner(self):
        f = ComposedFunctor(IdentityFunctor(), ModularFunctor(3))
        assert f.static_injectivity(D10) is Injectivity.UNKNOWN

    def test_batch(self):
        batch_matches_scalar(
            ComposedFunctor(AffineFunctor(-1, 5), ModularFunctor(4)), D10
        )


class TestAffineND:
    def test_apply(self):
        f = AffineNDFunctor([[1, 0], [0, 1], [1, 1]], offset=[0, 0, 10])
        assert f(Point(2, 3)) == Point(2, 3, 15)

    def test_full_rank_injective(self):
        f = AffineNDFunctor([[1, 0], [0, 1]])
        d = Domain.rect((0, 0), (3, 3))
        assert f.static_injectivity(d) is Injectivity.INJECTIVE

    def test_rank_deficient_unknown(self):
        # (x, y) -> x + y is not injective on a square but is on a diagonal.
        f = AffineNDFunctor([[1, 1]])
        d = Domain.rect((0, 0), (3, 3))
        assert f.static_injectivity(d) is Injectivity.UNKNOWN

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            AffineNDFunctor([1, 2, 3])
        with pytest.raises(ValueError):
            AffineNDFunctor([[1, 0]], offset=[1, 2])

    def test_batch(self):
        f = AffineNDFunctor([[2, 0], [0, 3]], offset=[1, -1])
        batch_matches_scalar(f, Domain.rect((0, 0), (2, 2)))


class TestPlaneProjection:
    def test_apply(self):
        f = PlaneProjectionFunctor([0, 1])
        assert f(Point(1, 2, 3)) == Point(1, 2)

    def test_unknown_over_volume(self):
        f = PlaneProjectionFunctor([0, 1])
        cube = Domain.rect((0, 0, 0), (2, 2, 2))
        assert f.static_injectivity(cube) is Injectivity.UNKNOWN

    def test_injective_over_diagonal_slice(self):
        # The DOM sweep case (Section 6.2.3): a diagonal slice has no
        # duplicate (x, y) pairs, so projecting away z is injective there.
        slice_pts = [(x, y, 4 - x - y) for x in range(3) for y in range(3)]
        d = Domain.points(slice_pts)
        f = PlaneProjectionFunctor([0, 1])
        images = {f.apply(p) for p in d}
        assert len(images) == d.volume

    def test_rejects_duplicate_axes(self):
        with pytest.raises(ValueError):
            PlaneProjectionFunctor([0, 0])

    def test_batch(self):
        f = PlaneProjectionFunctor([2, 0])
        batch_matches_scalar(f, Domain.rect((0, 0, 0), (1, 1, 1)))


@given(
    a=st.integers(-4, 4),
    b=st.integers(-8, 8),
    n=st.integers(1, 12),
    k=st.integers(0, 12),
)
def test_batch_scalar_agreement_randomized(a, b, n, k):
    """apply_batch == pointwise apply for every functor family."""
    domain = Domain.range(10)
    functors = [
        IdentityFunctor(),
        ConstantFunctor(b),
        AffineFunctor(a, b),
        ModularFunctor(n, k),
        QuadraticFunctor(a, b, k),
    ]
    for f in functors:
        pts = domain.point_array()
        batch = f.apply_batch(pts).reshape(domain.volume, -1)
        for row_in, row_out in zip(pts, batch):
            assert f.apply(Point(*row_in)) == Point(*row_out)


# ------------------------------------------------------------ functor keys
class Reverse(ProjectionFunctor):
    """A user functor: ``i -> n - 1 - i``."""

    input_dim = output_dim = 1

    def __init__(self, n):
        self.n = n

    def apply(self, point):
        return Point(self.n - 1 - point[0])


class Folded(ModularFunctor):
    """A user subclass of a value class that maps every point to 0."""

    def apply(self, point):
        return Point(0)

    def apply_batch(self, points):
        return points[:, :1] * 0


def shift(k):
    return CallableFunctor(lambda i: i + k)


def _double(i):
    return 2 * i


class TestKeys:
    def test_value_classes_compare_by_parameters(self):
        assert ModularFunctor(4, 1) == ModularFunctor(4, 1)
        assert hash(ModularFunctor(4, 1)) == hash(ModularFunctor(4, 1))
        assert ModularFunctor(4, 1) != ModularFunctor(4, 2)
        assert AffineNDFunctor([[1, 2]], [3]) == AffineNDFunctor([[1, 2]], [3])
        assert AffineNDFunctor([[1, 2]]) != AffineNDFunctor([[1], [2]])
        assert (ComposedFunctor(AffineFunctor(2), ModularFunctor(3))
                == ComposedFunctor(AffineFunctor(2), ModularFunctor(3)))

    def test_equality_is_exact_class(self):
        assert Folded(4, 1) != ModularFunctor(4, 1)
        assert ModularFunctor(4, 1) != Folded(4, 1)
        assert Folded(4, 1) != Folded(4, 1)  # user code: the object itself

    def test_user_functors_are_keyed_by_the_object(self):
        r = Reverse(4)
        assert r.key is r
        assert r == r and hash(r) == hash(r)
        assert r != Reverse(4)
        clone = pickle.loads(pickle.dumps(r))
        assert clone.key is clone and clone != r

    def test_callables_compare_by_the_wrapped_function(self):
        assert CallableFunctor(_double) == CallableFunctor(_double, name="x")
        assert CallableFunctor(lambda i: i) != CallableFunctor(lambda i: i)
        assert shift(1) != shift(1)

    def test_value_keys_survive_pickling(self):
        f = ModularFunctor(4, 1)
        assert f.key == (ModularFunctor, 4, 1)
        clone = pickle.loads(pickle.dumps(f))
        assert clone == f and hash(clone) == hash(f)

    def test_value_keys(self):
        assert is_value_key(ModularFunctor(4, 1).key)
        assert is_value_key(ComposedFunctor(IdentityFunctor(),
                                            AffineFunctor(2)).key)
        assert not is_value_key(CallableFunctor(_double).key)
        assert not is_value_key(Reverse(4).key)
        assert not is_value_key(Folded(4, 1).key)
        assert not is_value_key(ComposedFunctor(IdentityFunctor(),
                                                CallableFunctor(_double)).key)


KEY_DOMAIN = Domain.range(8)
_small = st.integers(-2, 2)
_FUNCTORS = st.one_of(
    st.builds(IdentityFunctor),
    st.builds(ConstantFunctor, st.integers(0, 3)),
    st.builds(AffineFunctor, _small, _small),
    st.builds(ModularFunctor, st.integers(1, 4), _small),
    st.builds(QuadraticFunctor, _small, _small, _small),
    st.builds(lambda a, b: AffineNDFunctor([[a]], [b]), _small, _small),
    st.builds(PlaneProjectionFunctor, st.just((0,))),
    st.builds(ComposedFunctor,
              st.builds(AffineFunctor, _small, _small),
              st.builds(ModularFunctor, st.integers(1, 4), _small)),
    st.builds(lambda: CallableFunctor(lambda i: i)),
    st.builds(lambda: CallableFunctor(lambda i: 0)),
    st.builds(CallableFunctor, st.just(_double)),
    st.builds(shift, _small),
    st.builds(Reverse, st.integers(1, 8)),
    st.builds(Folded, st.integers(1, 4), _small),
)
_KEY_WORLD = {}


def _key_world():
    """One runtime, an 8-piece partition and a task, built once."""
    if not _KEY_WORLD:
        @task(privileges=["reads writes"])
        def touch(ctx, r):
            pass

        rt = Runtime(RuntimeConfig(workers=1))
        region = rt.create_region("keys", KEY_DOMAIN.volume, {"x": "f8"})
        part = equal_partition("keys_p", region, KEY_DOMAIN.volume)
        _KEY_WORLD.update(rt=rt, part=part, task=touch)
    return _KEY_WORLD


def launch_signature(functor):
    world = _key_world()
    rt, task = world["rt"], world["task"]
    reqs = rt._build_requirements(task, [(world["part"], functor)])
    return rt._launch_signature(IndexLaunch(task, KEY_DOMAIN, reqs))


def check_memo_key(functor):
    memo = DynamicCheckMemo()
    memo.run(KEY_DOMAIN, ((functor, "write"),),
             Rect((0,), (KEY_DOMAIN.volume - 1,)))
    [(key, _)] = memo.export_entries()
    return key


def images(functor):
    pts = KEY_DOMAIN.point_array()
    return functor.apply_batch(pts).reshape(len(pts), -1)


@given(f=_FUNCTORS, g=_FUNCTORS)
@example(f=CallableFunctor(lambda i: i), g=CallableFunctor(lambda i: 0))
@example(f=shift(0), g=shift(1))
@example(f=Reverse(4), g=Reverse(8))
@example(f=ModularFunctor(4, 1), g=Folded(4, 1))
def test_equal_keys_mean_equal_functions(f, g):
    """Key soundness: two functors that share a launch signature or a
    check-memo key compute the same colors over the domain."""
    same = np.array_equal(images(f), images(g))
    if launch_signature(f) == launch_signature(g):
        assert same, (f, g)
    if check_memo_key(f) == check_memo_key(g):
        assert same, (f, g)
