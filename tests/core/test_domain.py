"""Tests for points, rectangles, and launch domains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain, Point, Rect, coerce_point


class TestPoint:
    def test_construction_from_ints(self):
        assert Point(1, 2, 3) == (1, 2, 3)

    def test_construction_from_sequence(self):
        assert Point((4, 5)) == (4, 5)
        assert Point([6]) == (6,)

    def test_requires_at_least_one_coord(self):
        with pytest.raises(ValueError):
            Point()

    def test_dim(self):
        assert Point(0).dim == 1
        assert Point(0, 0, 0).dim == 3

    def test_add_sub(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(5, 5) - (1, 2) == Point(4, 3)

    def test_scalar_mul(self):
        assert Point(1, 2) * 3 == Point(3, 6)
        assert 3 * Point(1, 2) == Point(3, 6)

    def test_hashable_and_tuple_compatible(self):
        assert hash(Point(1, 2)) == hash((1, 2))
        assert {Point(1): "a"}[(1,)] == "a"

    def test_numpy_coords_coerced_to_int(self):
        p = Point(np.int64(3), np.int32(4))
        assert p == (3, 4)
        assert all(isinstance(c, int) for c in p)


class TestCoercePoint:
    def test_bare_int(self):
        assert coerce_point(7) == Point(7)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            coerce_point((1, 2), dim=3)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            coerce_point("nope")


@st.composite
def small_rects(draw, dim=2):
    """Rects with corners in [-3, 4]^dim; ``hi < lo`` (empty) included."""
    corner = st.tuples(*[st.integers(-3, 4)] * dim)
    return Rect(draw(corner), draw(corner))


class TestRect:
    def test_volume_inclusive_bounds(self):
        # [0,3] has 4 points, as drawn in Figures 2 and 3.
        assert Rect((0,), (3,)).volume == 4

    def test_volume_2d(self):
        assert Rect((0, 0), (2, 3)).volume == 12

    def test_empty(self):
        r = Rect((0,), (-1,))
        assert r.empty and r.volume == 0

    def test_contains(self):
        r = Rect((1, 1), (3, 3))
        assert r.contains((1, 1)) and r.contains((3, 3)) and r.contains((2, 2))
        assert not r.contains((0, 2)) and not r.contains((2, 4))

    def test_contains_rect(self):
        outer = Rect((0, 0), (9, 9))
        assert outer.contains_rect(Rect((2, 2), (5, 5)))
        assert not outer.contains_rect(Rect((5, 5), (10, 5)))
        assert outer.contains_rect(Rect((3, 3), (2, 2)))  # empty fits anywhere

    def test_intersection_overlaps(self):
        a = Rect((0, 0), (4, 4))
        b = Rect((3, 3), (6, 6))
        assert a.intersection(b) == Rect((3, 3), (4, 4))
        assert a.overlaps(b)
        assert not a.overlaps(Rect((5, 5), (6, 6)))

    def test_intersection_dim_mismatch(self):
        with pytest.raises(ValueError):
            Rect((0,), (1,)).intersection(Rect((0, 0), (1, 1)))

    def test_linearize_row_major(self):
        r = Rect((0, 0), (1, 2))  # extents 2 x 3
        expected = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 3, (1, 1): 4, (1, 2): 5}
        for pt, idx in expected.items():
            assert r.linearize(pt) == idx

    def test_linearize_rejects_outside(self):
        with pytest.raises(ValueError):
            Rect((0,), (3,)).linearize(4)

    def test_delinearize_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Rect((0,), (3,)).delinearize(4)

    def test_points_iteration_order(self):
        r = Rect((0, 0), (1, 1))
        assert list(r) == [Point(0, 0), Point(0, 1), Point(1, 0), Point(1, 1)]

    def test_offset_bounds_linearize(self):
        r = Rect((5,), (9,))
        assert r.linearize(5) == 0 and r.linearize(9) == 4

    @given(
        lo=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        ext=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    )
    def test_linearize_bijective(self, lo, ext):
        r = Rect(lo, (lo[0] + ext[0] - 1, lo[1] + ext[1] - 1))
        seen = set()
        for p in r:
            i = r.linearize(p)
            assert 0 <= i < r.volume
            assert r.delinearize(i) == p
            seen.add(i)
        assert len(seen) == r.volume

    def test_equality_of_empty_rects(self):
        assert Rect((0,), (-1,)) == Rect((5,), (2,))
        assert Rect((0,), (-1,)) != Rect((0, 0), (-1, -1))

    # The predicates below compare coordinates directly (the physical
    # analysis calls them once per candidate user); these pin them to the
    # definitions they replaced.  Corners are drawn independently, so about
    # half the rects are empty.
    @given(a=small_rects(), b=small_rects())
    def test_overlaps_is_nonempty_intersection(self, a, b):
        assert a.overlaps(b) == (not a.intersection(b).empty)
        assert a.overlaps(b) == bool(set(a) & set(b))

    @given(a=small_rects(), b=small_rects())
    def test_contains_rect_is_pointwise(self, a, b):
        assert a.contains_rect(b) == (set(b) <= set(a))

    @given(a=small_rects())
    def test_empty_is_zero_volume(self, a):
        assert a.empty == (a.volume == 0) == (not list(a))

    def test_predicates_reject_dim_mismatch(self):
        flat, square = Rect((0,), (1,)), Rect((0, 0), (1, 1))
        with pytest.raises(ValueError):
            flat.overlaps(square)
        with pytest.raises(ValueError):
            square.contains_rect(flat)
        # An empty rect fits anywhere, whatever its dimension (as before).
        assert flat.contains_rect(Rect((0, 0), (-1, -1)))


class TestDomain:
    def test_range(self):
        d = Domain.range(5)
        assert d.volume == 5
        assert list(d) == [Point(i) for i in range(5)]

    def test_range_zero(self):
        assert Domain.range(0).volume == 0

    def test_range_negative(self):
        with pytest.raises(ValueError):
            Domain.range(-1)

    def test_rect_domain(self):
        d = Domain.rect((0, 0), (1, 1))
        assert d.volume == 4 and d.dim == 2 and d.dense

    def test_sparse_domain(self):
        pts = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (2, 0, 0)]
        d = Domain.points(pts)
        assert d.volume == 4 and not d.dense
        assert d.contains((0, 1, 1))
        assert not d.contains((9, 9, 9))

    def test_sparse_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Domain.points([(0,), (0,)])

    def test_sparse_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            Domain.points([(0,), (0, 1)])

    def test_sparse_rejects_empty(self):
        with pytest.raises(ValueError):
            Domain.points([])

    def test_empty_domain(self):
        d = Domain.empty(2)
        assert d.volume == 0 and d.dim == 2

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            Domain()
        with pytest.raises(ValueError):
            Domain(rect=Rect((0,), (1,)), points=[Point(0)])

    def test_bounds_of_sparse(self):
        d = Domain.points([(1, 5), (3, 2)])
        assert d.bounds == Rect((1, 2), (3, 5))

    def test_point_array_dense(self):
        d = Domain.rect((0, 0), (1, 1))
        arr = d.point_array()
        assert arr.shape == (4, 2)
        assert [tuple(r) for r in arr] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_point_array_sparse(self):
        d = Domain.points([(3,), (1,)])
        assert d.point_array().shape == (2, 1)

    def test_point_array_empty(self):
        assert Domain.empty(3).point_array().shape == (0, 3)

    def test_equality_dense_vs_sparse(self):
        assert Domain.range(3) == Domain.points([(2,), (0,), (1,)])

    def test_len_is_parallelism(self):
        # P = |D| (Section 3).
        assert len(Domain.range(17)) == 17

    @given(n=st.integers(1, 40))
    def test_dense_iteration_matches_point_array(self, n):
        d = Domain.range(n)
        assert [p[0] for p in d] == list(d.point_array()[:, 0])
