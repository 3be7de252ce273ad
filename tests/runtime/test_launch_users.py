"""Launch users against the per-point bucket they stand for.

An aligned dependence kernel leaves one ``_LaunchUser`` per bucket instead
of |D| ``_User`` objects and, meeting one, replays by id arithmetic
(:mod:`repro.runtime.kernels`); a first issue of the aligned shape is
analysed by colour and leaves one too (``PhysicalAnalyzer.record_launch``).
``RuntimeConfig.kernels=False`` never builds either and is the reference
throughout: random programs, traced or not, must agree with it on every
dependence edge in order, on what every bucket holds once expanded, on
``PipelineStats`` and on region bytes.  The count tests guard the
complexity — per-launch replay work flat in |D|, per-launch first-issue
work free of exact tests at any |P| — by counting work performed, not by
time.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.domain import Rect
from repro.core.projection import ModularFunctor
from repro.data.collection import Region
from repro.data.partition import block_partition, equal_partition
from repro.data.privileges import PrivilegeSpec
from repro.runtime import Runtime, RuntimeConfig, physical, task
from repro.runtime.kernels import _aligned_perms
from repro.runtime.physical import (
    LaunchDependences,
    PhysicalAnalyzer,
    _LaunchUser,
)
from repro.tools.graph import GraphRecorder

PIECES = 8


@task(privileges=["reads writes"])
def bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


@task(privileges=["reads writes", "reads writes"])
def mix(ctx, a, b):
    a.write("x", a.read("x") * 0.5)
    b.write("y", b.read("y") + 2.0)


@task(privileges=["reads", "reads writes"], fields=[("x",), ("z",)])
def gather(ctx, halo, out):
    out.write("z", out.read("z") + float(halo.read("x").sum()))


@task(privileges=["reads"], fields=[("x",)])
def peek(ctx, r):
    return float(r.read("x").sum())


class EdgeRecorder(GraphRecorder):
    """Keeps whole dependences, region uid included, not just id pairs."""

    def record_physical_edges(self, deps):
        self.physical_edges.extend(deps)


def issue_program(
    body, iters, deviation, interludes, record, kernels, n_nodes, traced=True
):
    """``deviation`` is ``(iteration, how)``: that iteration issues a strict
    prefix of ``body`` (the trace survives, the next iteration meets buckets
    its templates did not record) or another first op (the trace breaks).
    Untraced, every launch is a first issue."""
    rt = Runtime(RuntimeConfig(
        n_nodes=n_nodes, dcr=True, tracing=traced, kernels=kernels
    ))
    recorder = EdgeRecorder().attach(rt) if record else None
    rx = rt.create_region("rx", 4 * PIECES, {"x": "f8", "z": "f8"})
    ry = rt.create_region("ry", 4 * PIECES, {"y": "f8"})
    rx.storage("x")[:] = np.arange(4.0 * PIECES)
    parts = {
        "A": equal_partition("pA", rx, PIECES),
        "B": equal_partition("pB", rx, PIECES),
        "Y": equal_partition("pY", ry, PIECES),
        "4": equal_partition("p4", rx, PIECES // 2),
        "H": block_partition("pH", rx, (PIECES,), halo=1),
    }

    def issue(op):
        kind = op[0]
        if kind == "id":
            rt.index_launch(bump, PIECES, parts[op[1]])
        elif kind == "rot":
            rt.index_launch(
                bump, PIECES, (parts[op[1]], ModularFunctor(PIECES, op[2]))
            )
        elif kind == "mix":
            rt.index_launch(
                mix, PIECES,
                (parts["A"], ModularFunctor(PIECES, op[1])),
                (parts["Y"], ModularFunctor(PIECES, op[2])),
            )
        elif kind == "halo":
            rt.index_launch(gather, PIECES, parts["H"], parts["A"])
        elif kind == "p4":
            rt.index_launch(bump, PIECES // 2, parts["4"])
        elif kind == "peek":
            rt.index_launch(peek, PIECES, parts["A"])
        elif kind == "single":
            rt.execute_task(bump, parts["A"][3])
        elif kind == "fill":
            rt.fill(rx, "x", 1.5)
        else:
            assert kind == "invalidate"
            rt.invalidate_analysis_cache()

    for it in range(iters):
        if it in interludes:
            issue((interludes[it],))
        ops = body
        if deviation is not None and deviation[0] == it:
            ops = (
                body[: max(1, len(body) // 2)] if deviation[1] == "prefix"
                else [("p4",)] + body
            )
        if traced:
            rt.begin_trace(7)
        for op in ops:
            issue(op)
        if traced:
            rt.end_trace(7)
    return rt, recorder, (rx, ry), parts


def run_program(*program, **config):
    """Issue the program, then observe it — which expands every bucket."""
    rt, recorder, (rx, ry), parts = issue_program(*program, **config)
    # uids are process-wide counters: name what they number.
    regions = {rx.uid: "rx", ry.uid: "ry"}
    names = {p.uid: p.name for p in parts.values()}
    names[None] = None                      # a root subregion
    buckets = {}
    for region in (rx, ry):
        keys = rt.physical.snapshot_keys([region.uid])[region.uid]
        buckets[region.name] = [
            ((names[key[0]],) + key[1:], list(user.task_ids))
            for key, user in zip(keys, rt.physical._bucket(region.uid))
        ]
    edges = None
    if recorder is not None:
        edges = [
            (d.earlier_task, d.later_task, regions[d.region_uid])
            for d in recorder.physical_edges
        ]
    data = b"".join(
        region.storage(f).tobytes()
        for region, f in ((rx, "x"), (rx, "z"), (ry, "y"))
    )
    return rt, edges, buckets, data


rotation = st.integers(min_value=1, max_value=PIECES - 1)
body_op = st.one_of(
    st.tuples(st.just("id"), st.sampled_from("AB")),
    st.tuples(st.just("rot"), st.sampled_from("AB"), rotation),
    st.tuples(st.just("mix"), rotation, rotation),
    st.sampled_from(
        [("halo",), ("p4",), ("peek",), ("single",), ("fill",)]
    ),
)
program = st.tuples(
    st.lists(body_op, min_size=1, max_size=4),
    st.integers(min_value=3, max_value=6),                      # iterations
    st.one_of(st.none(), st.tuples(                             # deviation
        st.integers(min_value=2, max_value=5),
        st.sampled_from(["prefix", "break"]),
    )),
    st.dictionaries(
        st.integers(min_value=2, max_value=5),
        st.sampled_from(["fill", "single", "invalidate"]),
        max_size=2,
    ),
    st.booleans(),                                              # recorder
    st.sampled_from([1, 4]),                                    # n_nodes
    st.booleans(),                                              # traced
)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(program)
    @example((
        [("id", "A"), ("rot", "A", 3)], 6, None, {4: "fill"}, True, 1, True,
    ))
    @example((
        [("id", "A"), ("rot", "B", 5)], 6, (4, "break"), {}, False, 4, True,
    ))
    @example((
        [("id", "A"), ("rot", "A", 3), ("rot", "B", 5)], 7, (5, "prefix"),
        {}, True, 1, True,
    ))
    @example((
        [("mix", 2, 2), ("mix", 1, 3)], 6, None, {5: "single"}, False, 1,
        True,
    ))
    @example((
        [("id", "B"), ("halo",)], 5, None, {3: "invalidate"}, True, 4, True,
    ))
    @example((
        [("id", "A"), ("rot", "A", 3), ("p4",)], 4, None, {2: "single"},
        True, 1, False,
    ))
    @example((
        [("mix", 2, 2), ("peek",), ("mix", 1, 3)], 4, None, {3: "fill"},
        True, 4, False,
    ))
    @example((                      # readers coalesce, then a write
        [("peek",), ("peek",), ("id", "A")], 3, None, {}, True, 1, False,
    ))
    def test_kernels_on_equals_per_point_reference(self, program):
        *issued, n_nodes, traced = program
        on = run_program(*issued, kernels=True, n_nodes=n_nodes, traced=traced)
        ref = run_program(
            *issued, kernels=False, n_nodes=n_nodes, traced=traced
        )
        assert ref[0].physical.kernel_replays == 0
        assert on[1] == ref[1]              # edges, order-sensitive
        assert on[2] == ref[2]              # expanded buckets
        assert on[3] == ref[3]              # region bytes
        assert on[0].stats == ref[0].stats
        assert on[0].physical.overlap_queries == ref[0].physical.overlap_queries

    def test_the_aligned_programs_do_hold_launch_users(self):
        """Anti-vacuity for the property above.  Traced, its aligned shapes
        — one and two region arguments, a second partition of the same
        region — end on launch users; a halo read or a coarser partition in
        the loop does not.  Untraced, a body whose launches all go through
        the partition the bucket's users are pieces of ends on launch
        users, every launch analysed by colour; a launch over another
        partition of the region, a halo read or a coarser partition does
        not."""
        for body, traced, aligned in (
            ([("id", "A"), ("rot", "A", 3)], True, True),
            ([("id", "A"), ("rot", "B", 5)], True, True),
            ([("mix", 2, 2), ("mix", 1, 3)], True, True),
            ([("id", "B"), ("halo",)], True, False),
            ([("id", "A"), ("p4",)], True, False),
            ([("id", "A"), ("rot", "A", 3)], False, True),
            ([("mix", 2, 2), ("mix", 1, 3)], False, True),
            ([("id", "A"), ("rot", "B", 5)], False, False),
            ([("id", "B"), ("halo",)], False, False),
            ([("id", "A"), ("p4",)], False, False),
        ):
            rt, *_ = issue_program(
                body, 6, None, {}, False, True, 1, traced=traced
            )
            held = [type(b) is _LaunchUser for b in rt.physical._users.values()]
            assert all(held) if aligned else not any(held), (body, traced)
            if aligned and not traced:
                assert rt.physical.launch_aligned == 6 * len(body)


@task(privileges=["reads writes"])
def noop(ctx, r):
    pass


def steady_chain(pieces, kernels):
    """The traced identity -> rotation chain at |D| = |P| = ``pieces``:
    ``(runtime, region, iterate(n))``."""
    rt = Runtime(RuntimeConfig(tracing=True, kernels=kernels))
    region = rt.create_region("r", 2 * pieces, {"x": "f8"})
    part = equal_partition("p", region, pieces)
    rotation = ModularFunctor(pieces, 3)

    def iterate(n):
        for _ in range(n):
            rt.begin_trace(1)
            rt.index_launch(noop, pieces, part)
            rt.index_launch(noop, pieces, (part, rotation))
            rt.end_trace(1)

    return rt, region, iterate


#: iterations before the chain is steady: record the trace, capture the
#: dependence templates, validate and compile them, first kernel run.
WARM = 4


@pytest.fixture
def key_calls(monkeypatch):
    """Every ``_footprint_key`` computation made while the test runs."""
    calls = []
    real = physical._footprint_key

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(physical, "_footprint_key", counting)
    return calls


class TestReplayWorkByCount:
    @pytest.mark.parametrize("pieces", [16, 64, 256, 1024])
    def test_steady_replay_restamps_no_user_at_any_size(self, pieces):
        restamped = {}
        for kernels in (False, True):
            rt, _, iterate = steady_chain(pieces, kernels)
            iterate(WARM)
            before = rt.physical.users_restamped
            iterate(3)
            restamped[kernels] = rt.physical.users_restamped - before
            if not kernels:
                ref = rt
        assert restamped[True] == 0
        # The per-point reference rebuilds every user of every launch.
        assert restamped[False] == 3 * 2 * pieces
        assert rt.physical.kernel_replays == 2 * 4
        assert rt.physical.overlap_queries == ref.physical.overlap_queries
        assert rt.stats.physical_dependences == ref.stats.physical_dependences
        assert rt.stats == ref.stats

    def test_steady_replay_hashes_no_footprint(self, key_calls):
        """Users a replay builds carry the key their kernel computed at
        compile, and revalidation reads those.  The two launches stale each
        other's version guard every time, which used to re-hash all |D|
        fresh users per launch."""
        rt, region, iterate = steady_chain(64, kernels=True)
        iterate(WARM - 1)
        assert key_calls
        del key_calls[:]
        iterate(3)                                  # onto launch users
        rt.physical.snapshot_keys([region.uid])     # expands
        iterate(1)                                  # revalidates per point
        assert key_calls == []
        assert rt.physical.kernel_replays == 2 * 4

    @pytest.mark.parametrize("body", [
        [("id", "B"), ("halo",)],                   # expanded every time
        [("p4",), ("id", "A"), ("peek",)],          # never aligned
    ])
    def test_unaligned_replays_hash_no_footprint_either(self, key_calls, body):
        counts = []
        for iters in (4, 7):
            del key_calls[:]
            rt, *_ = issue_program(body, iters, None, {}, False, True, 1)
            counts.append((len(key_calls), rt.physical.kernel_replays))
        assert counts[1][0] == counts[0][0]
        assert counts[1][1] == counts[0][1] + 3 * len(body)

    def test_dependences_are_built_only_for_a_reader(self):
        rt, region, iterate = steady_chain(16, kernels=True)
        iterate(WARM)
        seen = []
        replay = rt.physical.replay_tasks
        rt.physical.replay_tasks = (
            lambda *args: seen.append(replay(*args)) or seen[-1]
        )
        iterate(1)
        assert [type(deps) for deps in seen] == [LaunchDependences] * 2
        assert [deps._lists for deps in seen] == [None, None]
        first = seen[0]
        assert first.n_edges == 16 == sum(len(deps) for deps in first)
        assert first._lists is not None

    def test_a_launch_user_expands_once_into_the_bucket(self):
        rt, region, iterate = steady_chain(16, kernels=True)
        iterate(WARM)
        uid = region.uid
        assert type(rt.physical._users[uid]) is _LaunchUser
        assert rt.physical.active_users(uid) == 16
        before = rt.physical.users_restamped
        users = rt.physical._bucket(uid)
        assert rt.physical._bucket(uid) is users is rt.physical._users[uid]
        assert rt.physical.users_restamped == before + 16
        assert rt.physical.active_users(uid) == 16


def live_rotation(pieces, kernels):
    """The bucket holds one user per block from an earlier launch; the
    returned launch is a rotation over the same partition the runtime has
    not seen, so it takes the live path: ``(runtime, recorder, launch)``."""
    rt = Runtime(RuntimeConfig(kernels=kernels))
    recorder = EdgeRecorder().attach(rt)
    region = rt.create_region("live", 4 * pieces, {"x": "f8"})
    part = equal_partition("live", region, pieces)
    rt.index_launch(noop, pieces, part)
    rotated = (part, ModularFunctor(pieces, 3))
    return rt, recorder, lambda: rt.index_launch(noop, pieces, rotated)


class TestLiveWorkByCount:
    """A first issue's physical analysis, flat in |P| by count: analysed by
    colour it runs no exact test, builds no per-point user and hashes no
    footprint; the per-point reference runs one exact test per task."""

    @pytest.mark.parametrize("pieces", [32, 128, 512, 1024])
    def test_first_issue_runs_no_exact_test_at_any_size(
        self, key_calls, pieces
    ):
        runs = {}
        for kernels in (False, True):
            rt, recorder, launch = live_rotation(pieces, kernels)
            physical = rt.physical
            before = (physical.overlap_tests, physical.users_restamped,
                      physical.launch_aligned)
            del key_calls[:]
            launch()
            performed = (
                physical.overlap_tests - before[0],
                physical.users_restamped - before[1],
                physical.launch_aligned - before[2],
                len(key_calls),
            )
            edges = [(d.earlier_task, d.later_task)
                     for d in recorder.physical_edges]
            runs[kernels] = rt, edges, performed
        (on, on_edges, on_work), (ref, ref_edges, ref_work) = (
            runs[True], runs[False]
        )
        assert on_work == (0, 0, 1, 0)
        assert ref_work[0] == pieces                # one exact test per task
        assert on_edges == ref_edges and len(on_edges) == pieces
        assert on.stats == ref.stats
        assert on.physical.overlap_queries == ref.physical.overlap_queries


SHAPE_REGION = Region("shape", Rect((0,), (15,)), {"x": "f8", "z": "f8"})
SHAPE_PARTS = {
    "P": equal_partition("shapeP", SHAPE_REGION, 4),
    "Q": equal_partition("shapeQ", SHAPE_REGION, 4),
}


def analyse_shape(kernels, priors, privilege, fields, colours=(1, 2, 3, 0)):
    """Record ``priors`` — ``(task id, partition, colour, privilege,
    fields)`` one task each — then a four-task launch over the pieces of P
    of ``colours`` (a rotation by default): ``(analyzer, dependences,
    expanded bucket)``."""
    analyzer = PhysicalAnalyzer(kernels=kernels)
    for tid, name, colour, prior, prior_fields in priors:
        spec = PrivilegeSpec.parse(prior)
        analyzer.record_task(
            tid, [(SHAPE_PARTS[name][colour], spec, prior_fields)]
        )
    spec = PrivilegeSpec.parse(privilege)
    part = SHAPE_PARTS["P"]
    deps, _ = analyzer.record_launch(
        [10, 11, 12, 13],
        [[(part[colour], spec, fields)] for colour in colours],
    )
    uid = SHAPE_REGION.uid
    keys = analyzer.snapshot_keys([uid])[uid]
    bucket = [
        (key, list(user.task_ids))
        for key, user in zip(keys, analyzer._bucket(uid))
    ]
    edges = [[(d.earlier_task, d.later_task) for d in own] for own in deps]
    return analyzer, edges, bucket


def one_each(prior, fields, name="P"):
    return [(i, name, i, prior, fields) for i in range(4)]


class TestAlignedShape:
    """``record_launch`` against ``kernels=False`` over hand-built buckets:
    a launch is analysed by colour exactly when every condition of the
    shape holds, a miss is counted under its code, and either way the
    outcome is the per-point one."""

    XZ = ("x", "z")
    ROTATION = (1, 2, 3, 0)

    @pytest.mark.parametrize("priors, privilege, fields, colours, code", [
        pytest.param([], "reads writes", XZ, ROTATION, None, id="empty"),
        # nothing to conflict with
        pytest.param([], "reads", XZ, ROTATION, None, id="empty-read"),
        pytest.param(one_each("reads writes", XZ), "reads writes", XZ,
                     ROTATION, None, id="over-writes"),
        pytest.param(one_each("reads", ("x",)), "writes", XZ, ROTATION, None,
                     id="over-readers-of-fewer-fields"),
        # the bucket holds some of the colours; the launch hits others too
        pytest.param(one_each("reads writes", XZ)[1:3], "writes", XZ,
                     ROTATION, None, id="bucket-holds-some-colours"),
        # writes that repeat colours chain; colour 0 is left untouched
        pytest.param(one_each("reads", XZ), "reads writes", XZ, (2, 1, 2, 2),
                     None, id="write-chain"),
        pytest.param([], "writes", XZ, (3, 3, 3, 3), None,
                     id="write-chain-over-empty"),
        # readers that repeat a colour coalesce
        pytest.param([], "reads", XZ, (0, 1, 0, 2), "read_chain",
                     id="read-chain"),
        # one user holds two task ids
        pytest.param(one_each("reads", XZ) + [(4, "P", 0, "reads", XZ)],
                     "reads writes", XZ, ROTATION, "shared_user",
                     id="coalesced-reader"),
        # one piece held twice (two field sets), another not at all
        pytest.param(one_each("reads writes", ("x",))[:3]
                     + [(3, "P", 0, "writes", ("z",))],
                     "reads writes", XZ, ROTATION, "colour_held_twice",
                     id="piece-held-twice"),
        # a compatible prior privilege: readers after readers coalesce
        pytest.param(one_each("reads", XZ), "reads", XZ, ROTATION,
                     "read_over_users", id="read-after-read"),
        # the launch does not write every field of its prior users
        pytest.param(one_each("reads writes", XZ), "reads writes", ("x",),
                     ROTATION, "unwritten_fields", id="field-left-unwritten"),
        pytest.param(one_each("reads writes", XZ, name="Q"), "reads writes",
                     XZ, ROTATION, "foreign_partition",
                     id="pieces-of-another-partition"),
    ])
    def test_by_colour_only_in_the_shape(self, priors, privilege, fields,
                                         colours, code):
        on, on_deps, on_bucket = analyse_shape(
            True, priors, privilege, fields, colours
        )
        ref, ref_deps, ref_bucket = analyse_shape(
            False, priors, privilege, fields, colours
        )
        assert on.launch_aligned == int(code is None)
        assert on.colour_misses == Counter([code] if code else [])
        assert ref.launch_aligned == 0
        assert on_deps == ref_deps
        assert on_bucket == ref_bucket
        assert on.overlap_queries == ref.overlap_queries


class TestAlignedDetection:
    """``_aligned_perms`` over hand-built slot programs: two tasks, one
    access each on region 5 (and 6), steps as ``(uid, dependence slots,
    coalesce slot, creation ordinal)``."""

    def test_one_dependence_one_creation_per_task_is_aligned(self):
        steps = [[(5, (1,), None, 0)], [(5, (0,), None, 1)]]
        assert _aligned_perms(steps, {5: [-1, -2]}) == {5: [1, 0]}
        two = [
            [(5, (1,), None, 0), (6, (0,), None, 1)],
            [(5, (0,), None, 2), (6, (1,), None, 3)],
        ]
        assert _aligned_perms(two, {5: [-1, -3], 6: [-2, -4]}) == {
            5: [1, 0], 6: [0, 1],
        }

    @pytest.mark.parametrize("steps, final_order", [
        ([], {}),
        # an entry user survives the commit
        ([[(5, (1,), None, 0)], [(5, (0,), None, 1)]], {5: [2, -1, -2]}),
        # creations committed out of task order
        ([[(5, (1,), None, 0)], [(5, (0,), None, 1)]], {5: [-2, -1]}),
        # two dependences; none; one on a user this replay created
        ([[(5, (0, 1), None, 0)], [(5, (0,), None, 1)]], {5: [-1, -2]}),
        ([[(5, (), None, 0)], [(5, (0,), None, 1)]], {5: [-1, -2]}),
        ([[(5, (1,), None, 0)], [(5, (-1,), None, 1)]], {5: [-1, -2]}),
        # a coalescing access creates nothing
        ([[(5, (1,), 1, None)], [(5, (0,), None, 0)]], {5: [1, -1]}),
        # two accesses of one task in one bucket
        ([[(5, (1,), None, 0), (5, (0,), None, 1)]], {5: [-1, -2]}),
        # tasks that do not touch the buckets in one order
        (
            [
                [(5, (1,), None, 0), (6, (0,), None, 1)],
                [(6, (1,), None, 2), (5, (0,), None, 3)],
            ],
            {5: [-1, -4], 6: [-2, -3]},
        ),
    ])
    def test_anything_else_runs_the_slot_program(self, steps, final_order):
        assert _aligned_perms(steps, final_order) is None
