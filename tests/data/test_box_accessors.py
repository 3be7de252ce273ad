"""Box-aware ``Subregion.gather``/``scatter`` and the box coalescer.

A rectangular subset moves as one strided slice copy; the contract is that
this is byte-for-byte the ``linear_indices`` gather/scatter it replaces —
same values, same (row-major) order — for every rect a partition can
produce, including empty, single-cell and full ones, in regions whose
bounds do not start at zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Rect, coalesce_rects
from repro.data.collection import (
    RectSubset,
    Region,
    SparseSubset,
    Subregion,
    covering_subregions,
)


@st.composite
def region_and_rect(draw):
    dim = draw(st.integers(1, 3))
    lo = [draw(st.integers(-3, 4)) for _ in range(dim)]
    ext = [draw(st.integers(1, 5)) for _ in range(dim)]
    bounds = Rect(lo, [l + e - 1 for l, e in zip(lo, ext)])
    kind = draw(st.sampled_from(["any", "any", "empty", "cell", "full"]))
    if kind == "full":
        rect = bounds
    elif kind == "empty":
        rect = Rect(lo, [l - 1 for l in lo])
    else:
        a = [draw(st.integers(l, l + e - 1)) for l, e in zip(lo, ext)]
        b = a if kind == "cell" else [
            draw(st.integers(x, l + e - 1)) for x, l, e in zip(a, lo, ext)
        ]
        rect = Rect(a, b)
    return bounds, rect


def _region(bounds):
    region = Region("r", bounds, {"x": "f8", "n": "i4"})
    region.storage("x")[:] = np.arange(bounds.volume) * 0.5 + 1.0
    region.storage("n")[:] = np.arange(bounds.volume) + 7
    return region


class TestBoxEqualsIndexForm:
    @settings(max_examples=150, deadline=None)
    @given(region_and_rect())
    def test_gather_matches_linear_indices(self, case):
        bounds, rect = case
        region = _region(bounds)
        sub = Subregion(region, RectSubset(rect), None, None)
        gathered = {fname: sub.gather(fname) for fname in ("x", "n")}
        assert sub.subset._linear_cache is None       # no index array built
        for fname, got in gathered.items():
            want = region.storage(fname)[sub._indices()]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            out = np.full(rect.volume, -1, dtype=want.dtype)
            assert sub.gather(fname, out) is out
            assert out.tobytes() == want.tobytes()
            # always a copy: writing the result must not reach the region
            got[...] = 0
            assert region.storage(fname)[sub._indices()].tobytes() == (
                want.tobytes()
            )

    @settings(max_examples=150, deadline=None)
    @given(region_and_rect(), st.booleans())
    def test_scatter_matches_linear_indices(self, case, shaped):
        bounds, rect = case
        box, ref = _region(bounds), _region(bounds)
        sub = Subregion(box, RectSubset(rect), None, None)
        values = np.arange(rect.volume) * -2.0 - 1.0
        ref.storage("x")[sub._indices()] = values
        fresh = Subregion(box, RectSubset(rect), None, None)
        fresh.scatter("x", values.reshape(rect.extents) if shaped else values)
        assert fresh.subset._linear_cache is None
        assert box.storage("x").tobytes() == ref.storage("x").tobytes()
        fresh.scatter("x", 9.0)                       # one value for all
        ref.storage("x")[sub._indices()] = 9.0
        assert box.storage("x").tobytes() == ref.storage("x").tobytes()

    @settings(max_examples=60, deadline=None)
    @given(region_and_rect())
    def test_serial_accessors_build_no_index_array(self, case):
        bounds, rect = case
        region, ref = _region(bounds), _region(bounds)
        sub = Subregion(region, RectSubset(rect), None, None)
        idx = Subregion(ref, RectSubset(rect), None, None)._indices()
        sub.write("x", sub.read("x") * 3.0)
        ref.storage("x")[idx] = ref.storage("x")[idx] * 3.0
        sub.fill("n", 5)
        ref.storage("n")[idx] = 5
        assert sub.read_nd("x").shape == rect.extents
        assert sub.subset._linear_cache is None
        assert region.storage("x").tobytes() == ref.storage("x").tobytes()
        assert region.storage("n").tobytes() == ref.storage("n").tobytes()

    def test_wrong_size_is_refused(self):
        region = _region(Rect((0, 0), (3, 3)))
        sub = Subregion(region, RectSubset(Rect((1, 1), (2, 3))), None, None)
        with pytest.raises(ValueError):
            sub.scatter("x", np.zeros(3))     # a row: would broadcast silently
        with pytest.raises(ValueError):
            sub.gather("x", np.zeros(5))

    def test_rect_outside_bounds_is_refused(self):
        region = _region(Rect((2,), (9,)))
        sub = Subregion(region, RectSubset(Rect((0,), (3,))), None, None)
        with pytest.raises(ValueError):
            sub.gather("x")

    def test_sparse_subset_keeps_the_index_form(self):
        region = _region(Rect((0,), (9,)))
        sub = Subregion(region, SparseSubset(np.array([7, 1, 4])), None, None)
        assert list(sub.gather("n")) == [8, 11, 14]
        sub.scatter("n", [1, 2, 3])
        assert list(region.storage("n")[[1, 4, 7]]) == [1, 2, 3]
        out = np.zeros(3, dtype="i4")
        sub.gather("n", out)
        assert list(out) == [1, 2, 3]


def _rects(*pairs):
    return [Rect(lo, hi) for lo, hi in pairs]


class TestCoalesce:
    def test_abutting_on_one_axis_merges(self):
        assert coalesce_rects(_rects(((0,), (3,)), ((4,), (7,)))) == _rects(
            ((0,), (7,))
        )
        assert coalesce_rects(
            _rects(((0, 0), (1, 3)), ((2, 0), (5, 3)))
        ) == _rects(((0, 0), (5, 3)))

    def test_a_tiling_collapses_to_its_bounding_rect(self):
        tiles = [
            Rect((2 * i, 3 * j), (2 * i + 1, 3 * j + 2))
            for i in range(3) for j in range(2)
        ]
        assert coalesce_rects(tiles) == _rects(((0, 0), (5, 5)))

    def test_diagonal_neighbours_do_not_merge(self):
        rects = _rects(((0, 0), (1, 1)), ((2, 2), (3, 3)))
        assert coalesce_rects(rects) == rects

    def test_abutting_with_different_cross_extent_does_not_merge(self):
        rects = _rects(((0, 0), (1, 3)), ((2, 0), (3, 2)))
        assert coalesce_rects(rects) == rects

    def test_partial_overlaps_stay_as_they_are(self):
        halos = _rects(((0, 0), (5, 5)), ((4, 0), (9, 5)))
        assert coalesce_rects(halos) == halos
        assert coalesce_rects(_rects(((0,), (5,)), ((4,), (9,)))) == _rects(
            ((0,), (5,)), ((4,), (9,))
        )

    def test_wrap_around_rotation_stays_two_boxes(self):
        # pieces 7 and 0 of an 8-piece 1-D partition: not neighbours
        rects = _rects(((56,), (63,)), ((0,), (7,)))
        assert coalesce_rects(rects) == _rects(((0,), (7,)), ((56,), (63,)))

    def test_empty_repeated_and_contained_are_dropped(self):
        assert coalesce_rects(_rects(
            ((0, 0), (5, 5)), ((1, 1), (2, 2)), ((0, 0), (5, 5)),
            ((3, 3), (2, 2)),
        )) == _rects(((0, 0), (5, 5)))
        assert coalesce_rects([]) == []

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5),
                  st.integers(-1, 3), st.integers(-1, 3)),
        max_size=6,
    ))
    def test_union_is_preserved(self, raw):
        rects = [Rect((a, b), (a + da, b + db)) for a, b, da, db in raw]
        want = {tuple(p) for r in rects for p in r}
        got = coalesce_rects(rects)
        assert {tuple(p) for r in got for p in r} == want
        assert len(got) <= len({r for r in rects if not r.empty})
        assert got == coalesce_rects(reversed(rects))   # order-independent


class TestCoveringSubregions:
    def test_reuses_inputs_and_dedupes_by_identity(self):
        region = _region(Rect((0,), (15,)))
        a = Subregion(region, RectSubset(Rect((0,), (3,))), None, None)
        b = Subregion(region, RectSubset(Rect((8,), (11,))), None, None)
        assert covering_subregions([a, b, a]) == [[a, b]]

    def test_abutting_boxes_become_one_new_subregion(self):
        region = _region(Rect((0,), (15,)))
        a = Subregion(region, RectSubset(Rect((0,), (3,))), None, None)
        b = Subregion(region, RectSubset(Rect((4,), (7,))), None, None)
        ((merged,),) = covering_subregions([b, a])
        assert merged.subset.rect == Rect((0,), (7,))
        assert merged.region is region

    def test_contained_box_is_dropped(self):
        region = _region(Rect((0, 0), (7, 7)))
        halo = Subregion(region, RectSubset(Rect((0, 0), (5, 5))), None, None)
        inner = Subregion(region, RectSubset(Rect((2, 2), (3, 3))), None, None)
        assert covering_subregions([inner, halo]) == [[halo]]

    def test_sparse_subsets_union_into_one(self):
        region = _region(Rect((0,), (15,)))
        a = Subregion(region, SparseSubset(np.array([1, 5])), None, None)
        b = Subregion(region, SparseSubset(np.array([5, 9])), None, None)
        assert covering_subregions([a]) == [[a]]
        ((union,),) = covering_subregions([a, b])
        assert list(union.subset.indices) == [1, 5, 9]

    def test_boxes_and_sparse_move_separately(self):
        region = _region(Rect((0,), (15,)))
        box = Subregion(region, RectSubset(Rect((0,), (3,))), None, None)
        pts = Subregion(region, SparseSubset(np.array([1, 5])), None, None)
        assert covering_subregions([pts, box]) == [[box], [pts]]
        assert covering_subregions([]) == []
