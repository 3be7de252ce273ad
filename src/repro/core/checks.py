"""Dynamic projection-functor checks (Listing 3 of the paper).

These checks decide, at runtime, whether a candidate loop may be executed as
an index launch.  They are *advisory*: program results never depend on them,
so they can be disabled for production runs (Section 4), leaving the launch
representation O(1).

Two entry points:

* :func:`dynamic_self_check` — is a single projection functor injective over
  the launch domain?  (Self-check, Section 3.)
* :func:`dynamic_cross_check` — do multiple arguments on the *same* disjoint
  partition select non-conflicting subregions?  Uses one shared bitmask and
  checks write/reduce arguments before read-only ones, achieving linear time
  instead of a quadratic pairwise comparison (Section 4).

Both have a pure-Python reference implementation that mirrors Listing 3
line-by-line, and a vectorized numpy fast path; the test suite asserts they
agree on random inputs.  Costs are O(|D| + |P|): the bitmask initialization
is O(|P|) and the domain sweep O(|D|), independent of how many objects the
underlying collections hold — checks operate at partition granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.domain import Domain, Point, Rect
from repro.core.projection import ProjectionFunctor

__all__ = [
    "CheckResult",
    "dynamic_self_check",
    "dynamic_cross_check",
    "self_check_reference",
    "cross_check_reference",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a dynamic check.

    Attributes:
        safe: True when no conflict was found (the launch may proceed as an
            index launch).
        conflict_point: the first launch-domain point (in domain order) at
            which a conflict was detected, or None.
        conflict_arg: index of the argument that triggered the conflict in a
            cross-check (0 for self-checks), or None when safe.
        evaluations: how many functor evaluations were performed.  The
            reference implementation exits early on the first conflict; the
            vectorized path always evaluates the full domain.
        out_of_bounds: number of functor values that fell outside the
            partition's color space.  Such values are skipped by the bitmask
            (Listing 3's bounds check) but reported for diagnostics.
    """

    safe: bool
    conflict_point: Optional[Point] = None
    conflict_arg: Optional[int] = None
    evaluations: int = 0
    out_of_bounds: int = 0


def self_check_reference(
    domain: Domain, functor: ProjectionFunctor, color_bounds: Rect
) -> CheckResult:
    """Pure-Python mirror of Listing 3: bitmask + early-exit domain sweep.

    Args:
        domain: the launch domain ``D``.
        functor: the projection functor under test.
        color_bounds: bounds of the partition's color space, used both for
            the bitmask size (``q.volume()`` in Listing 3) and to linearize
            multi-dimensional functor values.
    """
    volume = color_bounds.volume
    bitmask = [False] * volume
    evaluations = 0
    out_of_bounds = 0
    for i in domain:
        value = functor.apply(i)
        evaluations += 1
        if color_bounds.contains(value):
            linear = color_bounds.linearize(value)
            if bitmask[linear]:
                return CheckResult(
                    safe=False,
                    conflict_point=i,
                    conflict_arg=0,
                    evaluations=evaluations,
                    out_of_bounds=out_of_bounds,
                )
            bitmask[linear] = True
        else:
            out_of_bounds += 1
    return CheckResult(safe=True, evaluations=evaluations, out_of_bounds=out_of_bounds)


def cross_check_reference(
    domain: Domain,
    args: Sequence[Tuple[ProjectionFunctor, str]],
    color_bounds: Rect,
) -> CheckResult:
    """Pure-Python multi-argument cross-check on a single shared bitmask.

    ``args`` is a sequence of ``(functor, mode)`` pairs with mode ``"read"``
    or ``"write"`` (reductions are treated as writes for these checks, as in
    the paper).  Write arguments are checked before read arguments; only
    writes set the bitmask, so all write-write and write-read conflicts are
    caught in a single linear pass per argument.
    """
    for _, mode in args:
        if mode not in ("read", "write"):
            raise ValueError(f"mode must be 'read' or 'write', got {mode!r}")
    volume = color_bounds.volume
    bitmask = [False] * volume
    evaluations = 0
    out_of_bounds = 0
    ordered = [(idx, f, m) for idx, (f, m) in enumerate(args) if m == "write"]
    ordered += [(idx, f, m) for idx, (f, m) in enumerate(args) if m == "read"]
    for arg_index, functor, mode in ordered:
        for i in domain:
            value = functor.apply(i)
            evaluations += 1
            if not color_bounds.contains(value):
                out_of_bounds += 1
                continue
            linear = color_bounds.linearize(value)
            if bitmask[linear]:
                return CheckResult(
                    safe=False,
                    conflict_point=i,
                    conflict_arg=arg_index,
                    evaluations=evaluations,
                    out_of_bounds=out_of_bounds,
                )
            if mode == "write":
                bitmask[linear] = True
    return CheckResult(safe=True, evaluations=evaluations, out_of_bounds=out_of_bounds)


def _linearize_batch(values: np.ndarray, color_bounds: Rect) -> Tuple[np.ndarray, int]:
    """Vectorized bounds-check + row-major linearization.

    Returns ``(linear, n_out_of_bounds)`` where ``linear`` holds only the
    in-bounds values, linearized into ``[0, color_bounds.volume)`` in the
    original domain order.
    """
    lo = np.asarray(color_bounds.lo, dtype=np.int64)
    hi = np.asarray(color_bounds.hi, dtype=np.int64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if values.shape[1] != color_bounds.dim:
        raise ValueError(
            f"functor produced {values.shape[1]}-D values for a "
            f"{color_bounds.dim}-D color space"
        )
    in_bounds = np.all((values >= lo) & (values <= hi), axis=1)
    kept = values[in_bounds] - lo
    extents = np.asarray(color_bounds.extents, dtype=np.int64)
    strides = np.ones_like(extents)
    for d in range(len(extents) - 2, -1, -1):
        strides[d] = strides[d + 1] * extents[d + 1]
    linear = kept @ strides
    return linear, int(len(values) - int(in_bounds.sum()))


def _first_duplicate(linear: np.ndarray) -> Optional[int]:
    """Index (into ``linear``) of the first value already seen, or None.

    A single stable argsort serves both the existence test and the recovery
    of the earliest second occurrence: within a run of equal values the
    stable order preserves original positions, so every sorted position
    whose left neighbour is equal is a non-first occurrence, and the
    earliest one in the original order is simply the minimum index among
    them.
    """
    order = np.argsort(linear, kind="stable")
    sorted_vals = linear[order]
    dup_positions = np.nonzero(sorted_vals[1:] == sorted_vals[:-1])[0] + 1
    if len(dup_positions) == 0:
        return None
    return int(order[dup_positions].min())


def dynamic_self_check(
    domain: Domain,
    functor: ProjectionFunctor,
    color_bounds: Rect,
    use_numpy: bool = True,
    points: Optional[np.ndarray] = None,
) -> CheckResult:
    """Vectorized injectivity check for one functor over the launch domain.

    Semantically identical to :func:`self_check_reference`, but evaluates the
    functor over the whole domain at once and detects duplicates with a sort.
    Set ``use_numpy=False`` to run the reference path (early-exit loop).
    ``points`` optionally supplies a pre-materialized ``domain.point_array()``
    so repeated checks over one domain share a single array.
    """
    if not use_numpy:
        return self_check_reference(domain, functor, color_bounds)
    if points is None:
        points = domain.point_array()
    values = functor.apply_batch(points)
    linear, oob = _linearize_batch(values, color_bounds)
    dup = _first_duplicate(linear)
    if dup is None:
        return CheckResult(safe=True, evaluations=len(points), out_of_bounds=oob)
    # Map the duplicate's position among in-bounds values back to a domain point.
    if oob:
        lo = np.asarray(color_bounds.lo, dtype=np.int64)
        hi = np.asarray(color_bounds.hi, dtype=np.int64)
        vals2d = values.reshape(len(points), -1)
        in_bounds_idx = np.nonzero(np.all((vals2d >= lo) & (vals2d <= hi), axis=1))[0]
        domain_pos = int(in_bounds_idx[dup])
    else:
        domain_pos = dup
    return CheckResult(
        safe=False,
        conflict_point=Point(*points[domain_pos]),
        conflict_arg=0,
        evaluations=len(points),
        out_of_bounds=oob,
    )


def dynamic_cross_check(
    domain: Domain,
    args: Sequence[Tuple[ProjectionFunctor, str]],
    color_bounds: Rect,
    use_numpy: bool = True,
    points: Optional[np.ndarray] = None,
) -> CheckResult:
    """Vectorized linear-time cross-check for arguments sharing one partition.

    Writes are validated for mutual disjointness (across *all* write
    arguments, which subsumes each write argument's self-check) and reads
    are validated against the union of write images.  Reads may freely
    overlap other reads.  ``points`` optionally supplies a
    pre-materialized ``domain.point_array()``.
    """
    if not use_numpy:
        return cross_check_reference(domain, args, color_bounds)
    for _, mode in args:
        if mode not in ("read", "write"):
            raise ValueError(f"mode must be 'read' or 'write', got {mode!r}")
    if points is None:
        points = domain.point_array()
    n = len(points)
    oob_total = 0
    write_order: List[Tuple[int, np.ndarray]] = []
    read_order: List[Tuple[int, np.ndarray]] = []
    for arg_index, (functor, mode) in enumerate(args):
        values = functor.apply_batch(points)
        linear, oob = _linearize_batch(values, color_bounds)
        oob_total += oob
        if oob:
            # Track which domain positions survived for conflict attribution.
            lo = np.asarray(color_bounds.lo, dtype=np.int64)
            hi = np.asarray(color_bounds.hi, dtype=np.int64)
            vals2d = values.reshape(n, -1)
            pos = np.nonzero(np.all((vals2d >= lo) & (vals2d <= hi), axis=1))[0]
        else:
            pos = np.arange(n)
        entry = (arg_index, linear, pos)
        (write_order if mode == "write" else read_order).append(entry)

    evaluations = n * len(args)
    # All write images, concatenated in argument order, must be duplicate-free.
    if write_order:
        all_writes = np.concatenate([lin for _, lin, _ in write_order])
        dup = _first_duplicate(all_writes)
        if dup is not None:
            offset = 0
            for arg_index, lin, pos in write_order:
                if dup < offset + len(lin):
                    local = dup - offset
                    return CheckResult(
                        safe=False,
                        conflict_point=Point(*points[pos[local]]),
                        conflict_arg=arg_index,
                        evaluations=evaluations,
                        out_of_bounds=oob_total,
                    )
                offset += len(lin)
        write_set = all_writes
    else:
        write_set = np.empty(0, dtype=np.int64)

    # Reads must not touch anything written.
    if len(write_set):
        for arg_index, lin, pos in read_order:
            hits = np.isin(lin, write_set)
            if np.any(hits):
                local = int(np.nonzero(hits)[0][0])
                return CheckResult(
                    safe=False,
                    conflict_point=Point(*points[pos[local]]),
                    conflict_arg=arg_index,
                    evaluations=evaluations,
                    out_of_bounds=oob_total,
                )
    return CheckResult(safe=True, evaluations=evaluations, out_of_bounds=oob_total)
