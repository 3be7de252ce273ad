"""The task loop by colour, held to the per-point reference.

With kernels on, ``PhysicalAnalyzer.record_launch`` analyses a launch by
colour — index launches, and the task loop of Listing 3's fallback and
No-IDX — whenever every region it touches goes through one disjoint
partition over a bucket that partition's single-task users hold.  With
``kernels=False`` every launch runs point by point.  Random programs run
both ways and must agree on everything the analysis leaves: the physical
and logical edges in order, ``PipelineStats``, every bucket's footprint
keys and task ids, the bytes of the region and the futures.

The programs cover 1-D and 2-D regions; a disjoint partition, a second
disjoint partition of the same region and an aliased (halo) one, which
force the per-point path, and a disjoint one with an empty piece;
functors that are bijective, that cover a subset of the colours and
repeat some; every privilege; IDX with and without the safety check, and
No-IDX; traced and untraced runs; and single-task fills between
iterations.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain
from repro.core.projection import AffineNDFunctor, ModularFunctor
from repro.data.partition import block_partition, explicit_partition
from repro.data.privileges import Privilege
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.physical import PhysicalAnalyzer
from repro.tools.graph import GraphRecorder

SHAPES = {1: (24,), 2: (4, 6)}
BLOCKS = {1: (4,), 2: (2, 2)}
PRIVILEGES = ["reads", "writes", "reads writes", "reduces +", "reduces max"]
FIELD_SETS = [("f",), ("g",), ("f", "g")]
#: per dimension: the identity, a bijection, and a functor whose image is
#: a subset of the colours, some of them hit twice
FUNCTORS = {
    1: [None, ModularFunctor(4, 1), ModularFunctor(2, 1)],
    2: [None, AffineNDFunctor([[0, 1], [1, 0]]),
        AffineNDFunctor([[1, 0], [0, 0]])],
}


def _body(ctx, *regions):
    acc = float(sum(ctx.point))
    for r in regions:
        kind = r.privilege.privilege
        for f in r.fields:
            if kind.reads:
                acc += float(r.read(f).sum())
            if kind is Privilege.WRITE:
                r.write(f, acc)
            elif kind is Privilege.READ_WRITE:
                r.write(f, r.read(f) * 0.5 + acc)
            elif kind is Privilege.REDUCE:
                r.reduce(f, np.full(r.subregion.volume, 1.0 + acc))
    return acc


_TASKS = {}


def task_for(reqs):
    key = tuple((priv, fields) for _, priv, fields, _ in reqs)
    found = _TASKS.get(key)
    if found is None:
        found = _TASKS[key] = task(
            privileges=[priv for priv, _ in key],
            fields=[fields for _, fields in key],
            name=f"c{len(_TASKS)}",
        )(_body)
    return found


def build(rt, dim, n_fields):
    """The region and its partitions, by letter: D disjoint blocks, E a
    second partition of the same blocks, H the blocks grown by one
    (aliased), Z a disjoint one whose last colour is empty."""
    fields = {"f": "f8", "g": "f8"} if n_fields == 2 else {"f": "f8"}
    region = rt.create_region("r", SHAPES[dim], fields)
    blocks = block_partition("D", region, BLOCKS[dim])
    colours = list(blocks.color_space)
    points = np.arange(region.volume)
    parts = {
        "D": blocks,
        "E": block_partition("E", region, BLOCKS[dim]),
        "H": block_partition("H", region, BLOCKS[dim], halo=1),
        "Z": explicit_partition("Z", region, {
            c: points[points % (len(colours) - 1) == i] if i < 3
            else points[:0]
            for i, c in enumerate(colours)
        }),
    }
    store = region.storage("f")
    store.flat[:] = np.arange(store.size)
    return region, parts, colours


def observe(program, kernels):
    """Run ``program``; everything its analysis and bodies left behind."""
    dim = program["dim"]
    rt = Runtime(RuntimeConfig(
        kernels=kernels, index_launches=program["idx"],
        validate_safety=program["checked"], tracing=program["traced"],
    ))
    recorder = GraphRecorder().attach(rt)
    region, parts, colours = build(rt, dim, program["n_fields"])
    futures = []
    for it in range(program["iters"]):
        if it and program["fill"] is not None:
            letter, colour = program["fill"]
            rt.fill(parts[letter][colours[colour]], "f", float(it))
        if program["traced"]:
            rt.begin_trace(1)
        for reqs, skip in program["body"]:
            reqs = [
                (part, priv, FIELD_SETS[fi] if program["n_fields"] == 2
                 else ("f",), functor)
                for part, priv, fi, functor in reqs
            ]
            domain = Domain.points(
                [c for i, c in enumerate(colours) if i != skip]
            )
            args = [
                parts[part] if FUNCTORS[dim][functor] is None
                else (parts[part], FUNCTORS[dim][functor])
                for part, _, _, functor in reqs
            ]
            fmap = rt.index_launch(task_for(reqs), domain, *args)
            futures.append([(p, fmap.get(p)) for p in domain])
        if program["traced"]:
            rt.end_trace(1)
    physical = rt.physical
    keys = physical.snapshot_keys([region.uid])[region.uid]
    # Partition and subset uids are process-wide: name them by letter.
    letter = {part.uid: name for name, part in parts.items()}
    return dict(
        physical=list(recorder.physical_edges),
        logical=list(recorder.logical_edges),
        stats=rt.stats,
        bucket=[
            ((letter.get(part), colour,
              ident if ident[0] == "rect" else "uid", fields, privilege),
             list(user.task_ids))
            for (part, colour, ident, fields, privilege), user in zip(
                keys, physical._bucket(region.uid))
        ],
        bytes={f: region.storage(f).tobytes() for f in region.fields.names},
        futures=futures,
    ), physical


def program_of(body, dim=1, n_fields=1, iters=2, idx=True, checked=True,
               traced=False, fill=None):
    return dict(dim=dim, n_fields=n_fields, body=body, iters=iters, idx=idx,
                checked=checked, traced=traced, fill=fill)


requirement = st.tuples(
    st.sampled_from("DDDEHZ"),
    st.sampled_from(PRIVILEGES + ["reads writes", "reads writes"]),
    st.sampled_from([0, 0, 1, 2]),
    st.sampled_from([0, 1, 2, 2]),
)
launch = st.tuples(
    st.lists(requirement, min_size=1, max_size=2),
    st.sampled_from([None, None, None, 0, 3]),      # a colour left out
)
programs = st.fixed_dictionaries(dict(
    dim=st.sampled_from([1, 2]),
    n_fields=st.sampled_from([1, 2]),
    body=st.lists(launch, min_size=1, max_size=4),
    iters=st.sampled_from([1, 2, 3]),
    idx=st.booleans(),
    checked=st.booleans(),
    traced=st.booleans(),
    fill=st.one_of(st.none(), st.tuples(st.sampled_from("DEH"),
                                        st.integers(0, 3))),
))

# Listing 3's fallback: a write folding four colours onto two, between
# full writes of the blocks — chains on the folded colours, prior holders
# on the others.
FOLD = [([("D", "reads writes", 0, 0)], None),
        ([("D", "reads writes", 0, 2)], None),
        ([("D", "writes", 0, 1)], 3)]


@settings(max_examples=120, deadline=None)
@given(programs)
@example(program_of(FOLD))
@example(program_of(FOLD, idx=False, traced=True))
@example(program_of(FOLD, dim=2, n_fields=2, checked=False, fill=("D", 1)))
@example(program_of(                    # a second partition and a halo
    FOLD + [([("E", "reads writes", 2, 2)], None),
            ([("H", "reads", 0, 0), ("D", "reads writes", 1, 2)], 0)],
    n_fields=2, idx=False,
))
def test_by_colour_matches_the_per_point_reference(program):
    on, _ = observe(program, kernels=True)
    ref, _ = observe(program, kernels=False)
    for key in ("physical", "logical", "stats", "bucket", "bytes",
                "futures"):
        assert on[key] == ref[key], key


@pytest.mark.parametrize("idx", [True, False], ids=["fallback", "noidx"])
def test_the_task_loop_over_a_disjoint_partition_runs_by_colour(idx):
    """Every launch of FOLD is analysed by colour, the folding one's task
    loop included: no exact test, no per-point user, no miss."""
    _, physical = observe(program_of(FOLD, idx=idx), kernels=True)
    assert physical.launch_aligned == 6
    assert physical.overlap_tests == 0
    assert physical.colour_misses == Counter()


@pytest.mark.parametrize("body, code", [
    ([([("H", "reads writes", 0, 0)], None)], "aliased_partition"),
    ([([("D", "reads writes", 0, 0)], None),
      ([("E", "reads writes", 0, 0)], None)], "foreign_partition"),
    ([([("Z", "reads writes", 0, 0)], None)], "empty_piece"),
    ([([("D", "reads", 0, 0), ("D", "reads", 0, 1)], None)],
     "region_twice"),
])
def test_a_column_that_misses_is_counted_under_its_code(body, code):
    """Each region column a No-IDX loop sends point by point adds one
    count under the reason it missed, and the outcome is the reference's
    (the bucket-shape codes are ``TestAlignedShape``'s, in
    ``test_launch_users.py``)."""
    program = program_of(body, iters=1, idx=False)
    on, physical = observe(program, kernels=True)
    ref, reference = observe(program, kernels=False)
    assert on == ref
    assert physical.colour_misses == Counter({code: 1})
    assert reference.colour_misses == Counter()


def _noidx_app(name):
    from repro.apps.circuit import CircuitConfig, build_circuit, run_circuit
    from repro.apps.soleil import SoleilConfig, build_soleil, run_soleil
    from repro.apps.stencil import StencilConfig, build_stencil, run_stencil

    rt = Runtime(RuntimeConfig(index_launches=False, n_nodes=2))
    if name == "circuit":
        run_circuit(rt, build_circuit(rt, CircuitConfig(n_pieces=4,
                                                        steps=2)))
    elif name == "stencil":
        run_stencil(rt, build_stencil(rt, StencilConfig(
            n=16, blocks=(2, 2), radius=2, steps=2)))
    else:
        run_soleil(rt, build_soleil(rt, SoleilConfig(
            tiles=(2, 2, 1), cells_per_tile=(2, 2, 2), steps=1)))
    return rt


@pytest.mark.parametrize("app", ["circuit", "stencil", "soleil"])
def test_the_apps_misses_sum_to_the_columns_that_missed(app, monkeypatch):
    """Over the No-IDX paper apps, the miss counts add up to the region
    columns that missed, each judged alone — against a probe analyzer
    holding only that region's bucket — or as a second column on one
    region; a launch that ran point by point missed at least once."""
    record_launch = PhysicalAnalyzer.record_launch
    columns_missed, launches_missed = [0], [0]

    def counted(self, task_ids, access_lists, template_regions=None,
                joint=True):
        access_lists = list(access_lists)
        missed, seen = 0, set()
        for column in zip(*access_lists):
            uid = column[0][0].region.uid
            probe = PhysicalAnalyzer()
            if uid in self._users:
                probe._users[uid] = self._users[uid]
            if uid in seen or probe._record_by_colour(
                task_ids, [[access] for access in column]
            ) is None:
                missed += 1
            seen.add(uid)
        aligned = self.launch_aligned
        out = record_launch(self, task_ids, access_lists, template_regions,
                            joint)
        if self.launch_aligned == aligned:
            columns_missed[0] += missed
            launches_missed[0] += 1
            assert missed >= 1
        return out

    monkeypatch.setattr(PhysicalAnalyzer, "record_launch", counted)
    rt = _noidx_app(app)
    assert launches_missed[0] > 0
    assert sum(rt.physical.colour_misses.values()) == columns_missed[0]
