"""``RegionRequirement.project_all``: one batched projection, the same
subregions as projecting point by point.

The first expansion of an index launch projects every requirement over
the launch's points at once (one ``apply_batch`` and a colour-table
lookup per point).  It must hand back exactly the ``Subregion`` objects
``project`` returns one point at a time, for every functor family, and
raise exactly what ``project`` raises when a colour does not resolve.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain, Point, Rect
from repro.core.launch import RegionRequirement
from repro.core.projection import (
    AffineFunctor,
    AffineNDFunctor,
    CallableFunctor,
    ComposedFunctor,
    ConstantFunctor,
    IdentityFunctor,
    ModularFunctor,
    PlaneProjectionFunctor,
    QuadraticFunctor,
)
from repro.data.collection import Region
from repro.data.partition import block_partition, equal_partition, explicit_partition
from repro.data.privileges import PrivilegeSpec

LINE = Region("line", Rect((0,), (47,)), {"x": "f8"})
GRID = Region("grid", Rect((0, 0), (7, 7)), {"x": "f8"})

PARTITIONS = {
    "disjoint-1d": equal_partition("pa_disjoint", LINE, 12),
    "halo-1d": block_partition("pa_halo", LINE, (12,), halo=1),
    # Aliased, with a colour space that has holes inside its bounds.
    "aliased-1d": explicit_partition(
        "pa_aliased", LINE,
        {c: Rect((2 * c,), (2 * c + 5,)) for c in range(0, 20, 2)},
    ),
    "disjoint-2d": block_partition("pa_blocks", GRID, (4, 4)),
    "halo-2d": block_partition("pa_halo2", GRID, (4, 4), halo=1),
    "aliased-2d": explicit_partition(
        "pa_aliased2", GRID,
        {(c, c): Rect((c, c), (c + 2, c + 2)) for c in range(5)},
    ),
}


def fold(p):
    """An opaque callable over 1-D (int) or N-D (tuple) points."""
    return (p if isinstance(p, int) else sum(p)) % 7


def swap(p):
    return p if isinstance(p, int) else tuple(reversed(p))


def _affine_nd(matrix, offset):
    try:
        return AffineNDFunctor(matrix, offset)
    except ValueError:  # offset length does not match the matrix rows
        return AffineNDFunctor(matrix)


def functors():
    base = st.one_of(
        st.just(IdentityFunctor()),
        st.builds(ConstantFunctor, st.one_of(
            st.integers(0, 13), st.tuples(st.integers(0, 4), st.integers(0, 4)),
        )),
        st.builds(AffineFunctor, st.integers(-2, 3), st.integers(-3, 12)),
        st.builds(ModularFunctor, st.integers(1, 16), st.integers(0, 16)),
        st.builds(QuadraticFunctor, st.integers(-1, 1), st.integers(-2, 2),
                  st.integers(0, 8)),
        st.builds(CallableFunctor, st.sampled_from([fold, swap])),
        st.builds(
            _affine_nd,
            st.sampled_from([[[1]], [[2]], [[1, 0]], [[0, 1]], [[1, 1]],
                             [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1], [1]]]),
            st.sampled_from([None, (0,), (1,), (0, 1), (1, 2)]),
        ),
        st.builds(PlaneProjectionFunctor,
                  st.sampled_from([(0,), (1,), (1, 0), (0, 1)])),
    )
    return st.one_of(base, st.builds(ComposedFunctor, base, base))


def domains():
    dense_1d = st.integers(1, 16).map(Domain.range)
    dense_2d = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda hi: Domain.rect((0, 0), hi)
    )
    sparse_1d = st.sets(st.integers(0, 24), min_size=1, max_size=12).map(
        lambda s: Domain.points(sorted(s))
    )
    sparse_2d = st.sets(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12
    ).map(lambda s: Domain.points(sorted(s)))
    return st.one_of(dense_1d, dense_2d, sparse_1d, sparse_2d)


def outcome(fn):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return "ok", fn()
    except Exception as exc:
        return "raised", type(exc), str(exc)


def assert_same_projection(req, points):
    expected = outcome(lambda: [req.project(p) for p in points])
    got = outcome(lambda: req.project_all(points))
    if expected[0] == "raised":
        assert got == expected
        return
    assert got[0] == "ok", got
    assert len(got[1]) == len(expected[1])
    assert all(a is b for a, b in zip(got[1], expected[1]))


@settings(max_examples=300, deadline=None)
@given(
    functor=functors(),
    domain=domains(),
    partition=st.sampled_from(sorted(PARTITIONS)),
)
def test_project_all_is_project_per_point(functor, domain, partition):
    req = RegionRequirement(
        privilege=PrivilegeSpec.parse("reads"),
        partition=PARTITIONS[partition],
        functor=functor,
    )
    assert_same_projection(req, list(domain))


@pytest.mark.parametrize("color", [12, -1, 40])
def test_out_of_range_colour_raises_what_project_raises(color):
    req = RegionRequirement(
        privilege=PrivilegeSpec.parse("reads writes"),
        partition=PARTITIONS["disjoint-1d"],
        functor=AffineFunctor(1, color),
    )
    points = list(Domain.range(4))
    with pytest.raises(KeyError) as per_point:
        [req.project(p) for p in points]
    with pytest.raises(KeyError) as batched:
        req.project_all(points)
    assert str(batched.value) == str(per_point.value)


def test_wrong_colour_dimension_raises_what_project_raises():
    req = RegionRequirement(
        privilege=PrivilegeSpec.parse("reads"),
        partition=PARTITIONS["disjoint-2d"],
        functor=ModularFunctor(4),
    )
    points = list(Domain.range(4))
    with pytest.raises(ValueError) as per_point:
        [req.project(p) for p in points]
    with pytest.raises(ValueError) as batched:
        req.project_all(points)
    assert str(batched.value) == str(per_point.value)


def test_one_d_functors_read_the_first_coordinate_in_a_batch_too():
    """On 2-D points a 1-D family's ``apply`` reads ``point[0]`` only, so
    its colours are 1-D and a 2-D partition refuses them.  Its batch
    agrees even inside a composition, where no shape check sees it."""
    for functor in (ModularFunctor(4),
                    ComposedFunctor(ModularFunctor(4), IdentityFunctor())):
        req = RegionRequirement(
            privilege=PrivilegeSpec.parse("reads"),
            partition=PARTITIONS["disjoint-2d"],
            functor=functor,
        )
        assert_same_projection(req, list(Domain.rect((0, 0), (3, 3))))


def test_a_concrete_requirement_projects_its_subregion():
    sub = PARTITIONS["halo-1d"][Point(2)]
    req = RegionRequirement(privilege=PrivilegeSpec.parse("reads"),
                            subregion=sub)
    assert req.project_all(list(Domain.range(3))) == [sub, sub, sub]
    assert req.project_all([]) == []
