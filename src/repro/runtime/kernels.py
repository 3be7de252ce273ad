"""Precompiled hot-path kernels (layer 3 of ``docs/hot-path.md``).

Steady-state replay of an index launch re-derives the same facts every
iteration: the dependence template's overlay dry-run re-resolves the same
footprint keys to the same slots, the dynamic-check memo re-hashes the same
(domain, functor) key, and the expansion template rebuilds the same ordered
plan list.  This module compiles each of those into a reusable kernel so a
replay executes straight-line integer programs instead of key machinery:

* :class:`DependenceKernel` — an integer slot program compiled from one
  successful validated :meth:`~repro.runtime.physical.PhysicalAnalyzer.
  replay_tasks` dry-run.  A bucket is accepted when its *version* is the
  one the kernel's own last commit minted (every bucket mutation bumps
  it), or else when its ordered footprint keys — memoised on every user,
  never recomputed — are the template's entry keys; application emits
  byte-identical ``TaskDependence`` lists and commits the same survivor
  order.  An *aligned* program (each task retires one entry user and
  creates one) commits a bucket as one launch user and, meeting one,
  replays in O(1) — the launch stays one object through physical state.

* :class:`CheckKernelCache` — Listing-3 dynamic checks promoted to
  constant verdicts under the memo's key: proven by the affine engine
  when possible (with ``evaluations``/``out_of_bounds`` counts matching
  the sweep exactly), otherwise from one vectorized sweep over a shared
  per-domain point array.  Kernels and point arrays live in the process
  tier (:data:`~repro.runtime.store.PROCESS_STORE`): value keys only,
  under finite budgets, so a long-lived process evicts the checks it no
  longer issues.

All kernels preserve observable behavior exactly — dependence edge order,
``overlap_queries`` charging, ``CheckResult`` counts — and every consumer
falls back to the uncompiled path when a kernel is missing or stale, so the
layer can be disabled wholesale (``RuntimeConfig.kernels=False``) without
changing results.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.physical import (
    LaunchDependences,
    TaskDependence,
    _LaunchUser,
    _User,
)
from repro.runtime.store import PROCESS_STORE

__all__ = [
    "DependenceKernel",
    "CheckKernelCache",
    "GLOBAL_CHECK_KERNELS",
    "domain_points_cached",
]


class DependenceKernel:
    """Slot-indexed replay program for one :class:`DependenceTemplate`.

    Compiled during a successful validated overlay replay.  Sources are
    encoded as integers: ``>= 0`` indexes the region bucket *in the
    template's entry order* at apply time, ``< 0`` (as ``-1 - j``) names
    the j-th footprint created during the replay itself.

    Validity is judged per region bucket:

    * A bucket whose commit reproduces the entry order (the single-launch
      steady-state fixed point) is guarded by its *version*: the kernel
      re-arms ``expected[uid]`` after each apply, and an exact match means
      nobody touched the bucket since — the fast path costs one dict probe.
    * A bucket whose commit *permutes* the entry order — interleaved
      launch sets retiring and re-creating entries in the shared bucket —
      arms the ``_REVALIDATE`` sentinel instead: a version match there
      would prove the bucket is as *our* commit left it, which is exactly
      the wrong order for the slot program.  Those buckets (and any bucket
      whose version mismatches, i.e. a sibling launch touched it) are
      revalidated by ordered footprint keys — the same comparison the
      validating overlay path makes, over keys every user already carries
      — so *disjoint* interleavings keep the kernel live while overlapping
      ones still bail to the overlay.

    A slot program is **aligned** when, in every bucket it touches, each
    task has one access that depends on exactly one entry user, coalesces
    into nothing and creates one user, and the committed bucket is exactly
    those creations in task order — the shape of a write through an
    injective functor over a disjoint partition.  What such a replay leaves
    in a bucket is a function of the launch alone, so the kernel commits it
    as one :class:`~repro.runtime.physical._LaunchUser` (its key tuple and
    creations fixed at compile, in ``aligned``) instead of |D| users.  And
    when every bucket it meets *is* a launch user whose keys are the
    kernel's entry keys, the whole replay is id arithmetic: task *i*
    depends on ``entry.task_ids[perm[i]]``, returned as a lazy
    :class:`~repro.runtime.physical.LaunchDependences`.  Any other bucket
    shape is expanded to its per-point list and runs the slot program.
    """

    __slots__ = (
        "expected",
        "entry_keys",
        "steps",
        "creations",
        "creation_keys",
        "final_order",
        "n_queries",
        "aligned",
    )

    #: ``expected`` value forcing key revalidation on every apply.
    REVALIDATE = -1

    def __init__(
        self,
        expected: Dict[int, int],
        entry_keys: Dict[int, Tuple[tuple, ...]],
        steps: List[List[Tuple[int, Tuple[int, ...], Optional[int], Optional[int]]]],
        creations: List[Tuple[object, object, frozenset]],
        creation_keys: List[tuple],
        final_order: Dict[int, List[int]],
        n_queries: int,
    ):
        self.expected = expected
        #: the kernel's own copy: the aligned path swaps in equal tuples.
        self.entry_keys = dict(entry_keys)
        self.steps = steps
        self.creations = creations
        #: footprint key of each creation, stamped on every user a replay
        #: builds so that no replay hashes a footprint.
        self.creation_keys = creation_keys
        self.final_order = final_order
        self.n_queries = n_queries
        #: None unless the program is aligned; then per region uid, in
        #: requirement order: (entry slot each task depends on, key tuple
        #: and creations of the launch user a replay commits).
        self.aligned: Optional[Dict[int, Tuple[List[int], tuple, list]]] = None
        perms = _aligned_perms(steps, final_order)
        if perms is not None:
            self.aligned = {
                uid: (
                    perm,
                    tuple(creation_keys[-1 - src] for src in final_order[uid]),
                    [creations[-1 - src] for src in final_order[uid]],
                )
                for uid, perm in perms.items()
            }

    def apply(self, analyzer, task_ids) -> Optional[Sequence[list]]:
        """Run the program against ``analyzer``; None when stale."""
        if len(task_ids) != len(self.steps):
            return None
        results = None
        if self.aligned is not None:
            results = self._apply_aligned(analyzer, task_ids)
        if results is None:
            results = self._apply_slots(analyzer, task_ids)
        if results is None:
            return None
        analyzer.overlap_queries += self.n_queries
        analyzer.kernel_replays += 1
        return results

    def _rearm(self, uid, bumped) -> None:
        # Permute-committing buckets stay on the revalidation path: the
        # version we just minted describes the *committed* order, not
        # the entry order the slot program needs.
        if self.expected[uid] >= 0:
            self.expected[uid] = bumped

    def _commit_launch_users(self, analyzer, task_ids) -> None:
        for uid, (_, keys, creations) in self.aligned.items():
            self._rearm(uid, analyzer.install_launch_user(
                uid, keys, creations, task_ids
            ))

    def _apply_aligned(self, analyzer, task_ids) -> Optional[LaunchDependences]:
        """The O(1) replay: None unless every touched bucket is a launch
        user holding exactly the entry keys (nothing is mutated then)."""
        buckets = analyzer._users
        sources = []
        for uid, (perm, _, _) in self.aligned.items():
            entry = buckets.get(uid)
            if type(entry) is not _LaunchUser:
                return None
            keys = self.entry_keys[uid]
            if entry.keys is not keys:
                if entry.keys != keys:
                    return None
                # The installing kernel hands out this one tuple every
                # time: adopt it and the next comparison is by identity.
                self.entry_keys[uid] = entry.keys
            sources.append((uid, entry.task_ids, perm))
        self._commit_launch_users(analyzer, task_ids)
        # One entry user per task and region: one region, one edge per task.
        return LaunchDependences(task_ids, sources,
                                 len(task_ids) if len(sources) == 1 else None)

    def _apply_slots(self, analyzer, task_ids) -> Optional[List[list]]:
        """The slot program over per-point buckets.

        Per-bucket staleness: an exact version match (for buckets armed
        with one) means untouched-since-re-arm; anything else falls back
        to comparing the bucket's ordered footprint keys against the
        template's entry keys, which is precisely the validation the
        overlay dry-run performs — a mismatch means the slot indices no
        longer describe this bucket and the caller must take the
        validating path.
        """
        versions = analyzer._versions
        users_map = {uid: analyzer._bucket(uid) for uid in self.final_order}
        for uid, expect in self.expected.items():
            if expect >= 0 and versions.get(uid, 0) == expect:
                continue
            users = users_map[uid]
            keys = self.entry_keys[uid]
            if len(users) != len(keys):
                return None
            for user, key in zip(users, keys):
                if user.footprint_key() != key:
                    return None
        restamped = 0
        created: List[List[int]] = [[] for _ in self.creations]
        results: List[list] = []
        for tid, ops in zip(task_ids, self.steps):
            seen = set()
            out: list = []
            for uid, dep_srcs, coalesce_src, create_ord in ops:
                users = users_map[uid]
                for src in dep_srcs:
                    ids = (
                        users[src].task_ids if src >= 0 else created[-1 - src]
                    )
                    for earlier in ids:
                        if earlier != tid:
                            pair = (earlier, tid)
                            if pair not in seen:
                                seen.add(pair)
                                out.append(TaskDependence(earlier, tid, uid))
                if coalesce_src is not None:
                    # In-place append reproduces the overlay's base+pending
                    # visibility: later dep queries this replay see the
                    # coalesced id, exactly as ``all_ids`` would.
                    if coalesce_src >= 0:
                        users[coalesce_src].task_ids.append(tid)
                        restamped += 1
                    else:
                        created[-1 - coalesce_src].append(tid)
                if create_ord is not None:
                    created[create_ord].append(tid)
            results.append(out)
        if self.aligned is not None:     # touched no user: it never coalesces
            self._commit_launch_users(analyzer, task_ids)
            return results
        for uid, order in self.final_order.items():
            users = users_map[uid]
            bucket = []
            for src in order:
                if src >= 0:
                    bucket.append(users[src])
                else:
                    bucket.append(
                        _User(
                            created[-1 - src],
                            *self.creations[-1 - src],
                            self.creation_keys[-1 - src],
                        )
                    )
                    restamped += 1
            self._rearm(uid, analyzer.install_bucket(uid, bucket))
        analyzer.users_restamped += restamped
        return results


def _aligned_perms(steps, final_order) -> Optional[Dict[int, List[int]]]:
    """``region uid -> entry slot of each task's one dependence`` when the
    slot program is aligned (see :class:`DependenceKernel`), else None."""
    if not steps:
        return None
    uids = [op[0] for op in steps[0]]
    if len(set(uids)) != len(uids) or set(uids) != set(final_order):
        return None
    perms: Dict[int, List[int]] = {uid: [] for uid in uids}
    created: Dict[int, List[int]] = {uid: [] for uid in uids}
    for ops in steps:
        if [op[0] for op in ops] != uids:
            return None
        for uid, dep_srcs, _, create_ord in ops:
            # (An access that creates a user coalesced into none.)
            if len(dep_srcs) != 1 or dep_srcs[0] < 0 or create_ord is None:
                return None
            perms[uid].append(dep_srcs[0])
            created[uid].append(-1 - create_ord)
    if any(final_order[uid] != created[uid] for uid in uids):
        return None
    return perms


#: The process tier is every runtime's, whichever thread drives one, and
#: an LRU step is not atomic: each store call holds this lock.
_PROCESS_LOCK = threading.Lock()


def domain_points_cached(domain) -> np.ndarray:
    """``domain.point_array()``, read-only, through the process tier's
    ``points`` layer: every dynamic check over the same domain reuses one
    materialized (volume, dim) array instead of re-running meshgrid."""
    with _PROCESS_LOCK:
        pts = PROCESS_STORE.get("points", domain)
    if pts is None:
        pts = domain.point_array()
        pts.setflags(write=False)
        with _PROCESS_LOCK:
            PROCESS_STORE.put("points", domain, pts)
    return pts


def _affine_constant_verdict(domain, args, bounds):
    """A proven-safe :class:`CheckResult`, or None when not provable.

    The affine engine must establish three facts for the constant to be
    byte-identical to the vectorized sweep: every functor is injective over
    the concrete window, all write images are pairwise disjoint and disjoint
    from read images, and every image lies inside ``bounds`` (so the sweep
    would report ``out_of_bounds == 0``).  Unsafe outcomes are never
    constant-folded — the sweep's conflict attribution must run.
    """
    from repro.core.checks import CheckResult
    from repro.core.static_analysis import (
        form_images_disjoint,
        form_injective,
        functor_to_form,
    )

    if not domain.dense or domain.dim != 1 or bounds.dim != 1:
        return None
    rect = domain.bounds
    if rect.empty:
        return None
    lo, hi = rect.lo[0], rect.hi[0]
    extent = hi - lo + 1
    blo, bhi = bounds.lo[0], bounds.hi[0]
    forms = []
    for functor, mode in args:
        form = functor_to_form(functor)
        if form is None:
            return None
        if mode == "write" and not form_injective(form, extent):
            return None
        if form.mod is None:
            image_lo = min(form.evaluate(lo), form.evaluate(hi))
            image_hi = max(form.evaluate(lo), form.evaluate(hi))
        else:
            image_lo, image_hi = 0, form.mod - 1
        if image_lo < blo or image_hi > bhi:
            return None
        forms.append((form, mode))
    rng = (lo, hi + 1)  # half-open, as form_images_disjoint takes it
    for i, (fi, mi) in enumerate(forms):
        for fj, mj in forms[i + 1 :]:
            if mi != "write" and mj != "write":
                continue
            if not form_images_disjoint(fi, rng, fj, rng):
                return None
    return CheckResult(
        safe=True, evaluations=extent * len(args), out_of_bounds=0
    )


class CheckKernelCache:
    """Dynamic-check kernels: constant verdicts keyed below the memo.

    ``run`` serves :meth:`DynamicCheckMemo.run`'s misses under the key the
    memo built, from the ``check`` layer of the process tier
    (:data:`~repro.runtime.store.PROCESS_STORE`, value keys only).  Hits
    return the pinned :class:`CheckResult` without evaluating anything;
    misses compile a kernel — by affine proof when possible, else by one
    vectorized sweep over the shared point arrays — and pin its verdict.
    """

    def __init__(self):
        self.store = PROCESS_STORE
        self.affine_constants = 0

    hits = property(lambda self: self.store.hits["check"])
    misses = property(lambda self: self.store.misses["check"])

    def run(self, key, domain, args, bounds, use_numpy: bool = True):
        from repro.core.checks import dynamic_cross_check

        with _PROCESS_LOCK:
            found = self.store.get("check", key)
        if found is not None:
            return found
        result = None
        if use_numpy:
            result = _affine_constant_verdict(domain, args, bounds)
            if result is not None:
                self.affine_constants += 1
        if result is None:
            points = domain_points_cached(domain) if use_numpy else None
            result = dynamic_cross_check(
                domain,
                args,
                bounds,
                use_numpy=use_numpy,
                points=points,
            )
        with _PROCESS_LOCK:
            self.store.put("check", key, result)
        return result


#: The process-wide kernels.  Check results are pure in the kernel key, so
#: they safely outlive any single Runtime (and its cache invalidations),
#: giving cross-runtime steady-state hits.
GLOBAL_CHECK_KERNELS = CheckKernelCache()
