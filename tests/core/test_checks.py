"""Tests for the Listing-3 dynamic checks: reference and vectorized paths."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.checks import (
    CheckResult,
    cross_check_reference,
    dynamic_cross_check,
    dynamic_self_check,
    self_check_reference,
)
from repro.core.domain import Domain, Point, Rect
from repro.core.projection import (
    AffineFunctor,
    CallableFunctor,
    ConstantFunctor,
    IdentityFunctor,
    ModularFunctor,
    PlaneProjectionFunctor,
    QuadraticFunctor,
)
from repro.runtime.kernels import _affine_constant_verdict


def bounds1d(n):
    return Rect((0,), (n - 1,))


class TestSelfCheckReference:
    def test_identity_safe(self):
        r = self_check_reference(Domain.range(8), IdentityFunctor(), bounds1d(8))
        assert r.safe and r.evaluations == 8

    def test_listing2_rejected_at_first_duplicate(self):
        # i % 3 over [0,5): duplicate first appears at i=3.
        r = self_check_reference(Domain.range(5), ModularFunctor(3), bounds1d(3))
        assert not r.safe
        assert r.conflict_point == Point(3)
        assert r.evaluations == 4  # early exit: evaluated i=0..3

    def test_constant_rejected_immediately(self):
        r = self_check_reference(Domain.range(5), ConstantFunctor(0), bounds1d(5))
        assert not r.safe and r.conflict_point == Point(1)

    def test_out_of_bounds_skipped_not_conflicting(self):
        # Values outside the color space fall through the bounds check
        # (Listing 3, line 13) without setting the bitmask.
        r = self_check_reference(Domain.range(5), AffineFunctor(2), bounds1d(4))
        assert r.safe
        assert r.out_of_bounds == 3  # 4, 6, 8 out of [0,4)

    def test_empty_domain_safe(self):
        r = self_check_reference(Domain.range(0), IdentityFunctor(), bounds1d(4))
        assert r.safe and r.evaluations == 0


class TestSelfCheckVectorized:
    def test_matches_reference_on_listing2(self):
        d, f, b = Domain.range(5), ModularFunctor(3), bounds1d(3)
        fast = dynamic_self_check(d, f, b)
        ref = self_check_reference(d, f, b)
        assert fast.safe == ref.safe
        assert fast.conflict_point == ref.conflict_point

    def test_use_numpy_false_is_reference(self):
        d, f, b = Domain.range(5), ModularFunctor(3), bounds1d(3)
        assert dynamic_self_check(d, f, b, use_numpy=False) == self_check_reference(d, f, b)

    def test_nd_functor_linearization(self):
        # 2-D color space: (x, y) -> (x, y) over a 2-D domain is injective.
        d = Domain.rect((0, 0), (2, 2))
        f = IdentityFunctor()
        b = Rect((0, 0), (2, 2))
        assert dynamic_self_check(d, f, b).safe

    def test_plane_projection_on_cube_rejected(self):
        cube = Domain.rect((0, 0, 0), (1, 1, 1))
        f = PlaneProjectionFunctor([0, 1])
        b = Rect((0, 0), (1, 1))
        r = dynamic_self_check(cube, f, b)
        assert not r.safe
        # First duplicate pair in row-major order is (0,0,1) repeating (0,0).
        assert r.conflict_point == Point(0, 0, 1)

    def test_plane_projection_on_diagonal_slice_accepted(self):
        # The DOM sweep validity condition: no duplicate (x, y) pairs.
        pts = [(x, y, 6 - x - y) for x in range(4) for y in range(4)]
        d = Domain.points(pts)
        f = PlaneProjectionFunctor([0, 1])
        assert dynamic_self_check(d, f, Rect((0, 0), (3, 3))).safe

    def test_conflict_point_with_out_of_bounds_interleaved(self):
        # f(i) = (i - 2)^2: values 4,1,0,1,4 over [0,5); bounds [0,3) keeps
        # 1,0,1 at i=1,2,3 — the duplicate is detected at i=3.
        f = QuadraticFunctor(1, -4, 4)
        d = Domain.range(5)
        b = bounds1d(3)
        ref = self_check_reference(d, f, b)
        fast = dynamic_self_check(d, f, b)
        assert not ref.safe and not fast.safe
        assert ref.conflict_point == fast.conflict_point == Point(3)
        assert ref.out_of_bounds >= 1 and fast.out_of_bounds >= 1

    def test_wrong_output_dim_raises(self):
        d = Domain.range(4)
        f = CallableFunctor(lambda i: (i, i))
        with pytest.raises(ValueError):
            dynamic_self_check(d, f, bounds1d(4))


class TestCrossCheckReference:
    def test_disjoint_affine_writes(self):
        # 2i and 2i+1 never collide.
        d = Domain.range(4)
        args = [(AffineFunctor(2, 0), "write"), (AffineFunctor(2, 1), "write")]
        assert cross_check_reference(d, args, bounds1d(8)).safe

    def test_overlapping_writes_rejected(self):
        d = Domain.range(4)
        args = [(IdentityFunctor(), "write"), (IdentityFunctor(), "write")]
        r = cross_check_reference(d, args, bounds1d(4))
        assert not r.safe and r.conflict_arg == 1 and r.conflict_point == Point(0)

    def test_read_overlapping_write_rejected(self):
        d = Domain.range(4)
        args = [(IdentityFunctor(), "read"), (IdentityFunctor(), "write")]
        r = cross_check_reference(d, args, bounds1d(4))
        # Writes are checked (and set) first, so the read triggers the conflict.
        assert not r.safe and r.conflict_arg == 0

    def test_reads_may_overlap_reads(self):
        d = Domain.range(4)
        args = [(IdentityFunctor(), "read"), (IdentityFunctor(), "read")]
        assert cross_check_reference(d, args, bounds1d(4)).safe

    def test_shifted_read_disjoint_from_write(self):
        d = Domain.range(4)
        args = [(IdentityFunctor(), "write"), (AffineFunctor(1, 4), "read")]
        assert cross_check_reference(d, args, bounds1d(8)).safe

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            cross_check_reference(
                Domain.range(2), [(IdentityFunctor(), "banana")], bounds1d(2)
            )

    def test_write_order_before_reads_regardless_of_arg_order(self):
        # Read listed first must still be checked *after* the write.
        d = Domain.range(3)
        args = [(AffineFunctor(1, 0), "read"), (AffineFunctor(1, 0), "write")]
        r = cross_check_reference(d, args, bounds1d(3))
        assert not r.safe


class TestCrossCheckVectorized:
    def test_matches_reference_safe_case(self):
        d = Domain.range(6)
        args = [
            (AffineFunctor(3, 0), "write"),
            (AffineFunctor(3, 1), "write"),
            (AffineFunctor(3, 2), "read"),
        ]
        b = bounds1d(18)
        assert dynamic_cross_check(d, args, b).safe
        assert cross_check_reference(d, args, b).safe

    def test_matches_reference_conflict_attribution(self):
        d = Domain.range(5)
        args = [
            (AffineFunctor(2, 0), "write"),
            (ModularFunctor(4), "write"),
        ]
        b = bounds1d(10)
        ref = cross_check_reference(d, args, b)
        fast = dynamic_cross_check(d, args, b)
        assert ref.safe == fast.safe
        assert ref.conflict_arg == fast.conflict_arg
        assert ref.conflict_point == fast.conflict_point

    def test_use_numpy_false_is_reference(self):
        d = Domain.range(5)
        args = [(IdentityFunctor(), "write"), (ModularFunctor(5, 2), "read")]
        b = bounds1d(5)
        assert dynamic_cross_check(d, args, b, use_numpy=False) == cross_check_reference(d, args, b)

    def test_evaluations_linear_in_args(self):
        # Table 3: cost scales linearly with the number of arguments.
        d = Domain.range(100)
        b = bounds1d(500)
        for n_args in range(2, 6):
            args = [(AffineFunctor(5, off), "write") for off in range(n_args)]
            r = dynamic_cross_check(d, args, b)
            assert r.safe
            assert r.evaluations == n_args * 100

    def test_no_write_args_always_safe(self):
        d = Domain.range(4)
        args = [(ConstantFunctor(0), "read"), (ConstantFunctor(0), "read")]
        assert dynamic_cross_check(d, args, bounds1d(4)).safe


# ------------------------------------------------------------------ fuzzing

functor_strategy = st.one_of(
    st.builds(IdentityFunctor),
    st.builds(ConstantFunctor, st.integers(0, 9)),
    st.builds(AffineFunctor, st.integers(-3, 3), st.integers(0, 9)),
    st.builds(ModularFunctor, st.integers(1, 9), st.integers(0, 9)),
    st.builds(QuadraticFunctor, st.integers(-2, 2), st.integers(-3, 3), st.integers(0, 5)),
)


@settings(max_examples=200, deadline=None)
@given(f=functor_strategy, n=st.integers(0, 12), vol=st.integers(1, 20))
def test_self_check_fast_equals_reference(f, n, vol):
    d = Domain.range(n)
    b = bounds1d(vol)
    ref = self_check_reference(d, f, b)
    fast = dynamic_self_check(d, f, b)
    assert ref.safe == fast.safe
    assert ref.conflict_point == fast.conflict_point
    assert ref.conflict_arg == fast.conflict_arg


@settings(max_examples=200, deadline=None)
@given(
    fs=st.lists(
        st.tuples(functor_strategy, st.sampled_from(["read", "write"])),
        min_size=1,
        max_size=4,
    ),
    n=st.integers(0, 10),
    vol=st.integers(1, 25),
)
def test_cross_check_fast_equals_reference(fs, n, vol):
    d = Domain.range(n)
    b = bounds1d(vol)
    ref = cross_check_reference(d, fs, b)
    fast = dynamic_cross_check(d, fs, b)
    assert ref.safe == fast.safe
    assert ref.conflict_point == fast.conflict_point
    assert ref.conflict_arg == fast.conflict_arg


@settings(max_examples=150, deadline=None)
@given(f=functor_strategy, n=st.integers(0, 12), vol=st.integers(1, 20))
def test_self_check_agrees_with_bruteforce_injectivity(f, n, vol):
    """The check passes iff the in-bounds image has no duplicates."""
    d = Domain.range(n)
    b = bounds1d(vol)
    in_bounds = [f.apply(p) for p in d if b.contains(f.apply(p))]
    expected = len(set(in_bounds)) == len(in_bounds)
    assert self_check_reference(d, f, b).safe == expected


# ------------------------------------------- affine constant check verdicts

affine_or_modular = st.one_of(
    st.builds(AffineFunctor, st.integers(-3, 3), st.integers(-4, 12)),
    st.builds(ModularFunctor, st.integers(1, 12), st.integers(-4, 12)),
)


@settings(max_examples=300, deadline=None)
@example(  # non-modular image bounds: one affine write, inside the bounds
    args=[(AffineFunctor(-2, 9), "write")], lo=1, n=4, vol=10,
)
@example(  # pairwise disjointness: two affine writes interleaving
    args=[(AffineFunctor(2, 0), "write"), (AffineFunctor(2, 1), "write")],
    lo=0, n=4, vol=8,
)
@example(  # ranges are inclusive: i and i + 3 meet only at the last point
    args=[(AffineFunctor(1, 0), "write"), (AffineFunctor(1, 3), "write")],
    lo=0, n=4, vol=8,
)
@given(
    args=st.lists(
        st.tuples(affine_or_modular, st.sampled_from(["write", "read"])),
        min_size=1, max_size=2,
    ),
    lo=st.integers(-3, 5),
    n=st.integers(1, 10),
    vol=st.integers(1, 24),
)
def test_affine_constant_verdict_equals_the_sweep(args, lo, n, vol):
    """A proven-safe constant skips the sweep, so whenever the affine
    engine proves one it must be exactly what the sweep would report."""
    d = Domain.rect((lo,), (lo + n - 1,))
    b = bounds1d(vol)
    verdict = _affine_constant_verdict(d, args, b)
    if verdict is None:
        return
    sweep = dynamic_cross_check(d, args, b)
    assert verdict.safe and sweep.safe
    assert verdict.evaluations == sweep.evaluations
    assert verdict.out_of_bounds == sweep.out_of_bounds == 0
