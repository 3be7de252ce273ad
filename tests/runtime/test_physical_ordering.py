"""Physical dependences against the exact conflict relation.

Two tasks *conflict* when their exact footprints share a point of a field
both name, under privileges that are not both reads or both the same
reduction.  The oracle computes that relation from the partitions alone —
no bucket, key, template or kernel of the analyzer takes part — and holds
the runtime to two properties:

* soundness: every conflicting pair of tasks is ordered, earlier first, by
  the transitive closure of the dependences the runtime reported;
* precision: every reported dependence is such a conflict, earlier first.

Random programs cover 1-D and 2-D regions; disjoint, halo and sparse
(disjoint and aliased) partitions; one or two fields; every privilege;
launches over every colour or all but one; traced and untraced runs with
dependence kernels on and off; launches trusted without the safety check,
whose own points may then conflict; and a launch interleaved between trace
iterations.  One example writes through a functor folding the colours,
so its task loop chains the points that share a piece.  The examples pin one witness for each way the launch-level
retirement rule could go wrong: ignoring field sets, retiring a user that
holds a task of the launch, and not noticing that a launch left one writer
out of the union.
"""

from ast import literal_eval
from collections import defaultdict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain
from repro.core.projection import ModularFunctor
from repro.data.partition import block_partition, explicit_partition
from repro.runtime import Runtime, RuntimeConfig, task
from repro.tools.graph import GraphRecorder

SHAPES = {1: (24,), 2: (4, 6)}
#: requirement letter F, 1-D only: the blocks D through this functor, which
#: folds the four colours onto two — a launch that writes through it fails
#: its dynamic check and runs as Listing 3's fallback loop
FOLD = ModularFunctor(2, 1)
BLOCKS = {1: (4,), 2: (2, 2)}
PRIVILEGES = ["reads", "writes", "reads writes", "reduces +", "reduces max"]
FIELD_SETS = [("f",), ("g",), ("f", "g")]


def _noop(ctx, *regions):
    pass


_TASKS = {}


def task_for(reqs):
    """One registered task per privilege/field signature."""
    key = tuple((priv, fields) for _, priv, fields in reqs)
    found = _TASKS.get(key)
    if found is None:
        found = _TASKS[key] = task(
            privileges=[priv for priv, _ in key],
            fields=[fields for _, fields in key],
            name=f"t{len(_TASKS)}",
        )(_noop)
    return found


def build(rt, dim, n_fields, assign, extra):
    """The region and its four partitions, by letter: D disjoint blocks,
    H the blocks grown by one (aliased), S a disjoint sparse colouring, A
    an aliased sparse one (each point in its S colour and an ``extra``)."""
    fields = {"f": "f8", "g": "f8"} if n_fields == 2 else {"f": "f8"}
    region = rt.create_region("r", SHAPES[dim], fields)
    blocks = block_partition("D", region, BLOCKS[dim])
    colours = list(blocks.color_space)
    points = np.arange(region.volume)
    parts = {
        "D": blocks,
        "H": block_partition("H", region, BLOCKS[dim], halo=1),
        "S": explicit_partition("S", region, {
            c: points[np.asarray(assign) == i] for i, c in enumerate(colours)
        }),
        "A": explicit_partition("A", region, {
            c: points[(np.asarray(assign) == i) | (np.asarray(extra) == i)]
            for i, c in enumerate(colours)
        }),
    }
    return region, parts, colours


def compatible(p, q):
    return p == q and (p == "reads" or p.startswith("reduces"))


def conflict(xs, ys):
    return any(
        fa & fb and ma & mb and not compatible(pa, pb)
        for pa, fa, ma in xs
        for pb, fb, mb in ys
    )


def run(program):
    """Issue ``program``; returns the recorder and, per launch issued, its
    resolved requirements and the task ids it minted."""
    rt = Runtime(RuntimeConfig(
        tracing=program["traced"],
        kernels=program["kernels"],
        validate_safety=program["checked"],
    ))
    recorder = GraphRecorder().attach(rt)
    region, parts, colours = build(
        rt, program["dim"], program["n_fields"], program["assign"],
        program["extra"],
    )
    issued = []

    def issue(launch):
        reqs, skip = launch
        reqs = [
            (part, priv, FIELD_SETS[fi] if program["n_fields"] == 2 else ("f",))
            for part, priv, fi in reqs
        ]
        domain = Domain.points(
            [c for i, c in enumerate(colours) if i != skip]
        )
        known = set(recorder.tasks)
        rt.index_launch(task_for(reqs), domain, *[
            (parts["D"], FOLD) if part == "F" else parts[part]
            for part, _, _ in reqs
        ])
        issued.append((reqs, sorted(set(recorder.tasks) - known)))

    interlude = program["interlude"]
    for it in range(program["iters"]):
        if interlude is not None and interlude[0] == it:
            issue(interlude[1])
        if program["traced"]:
            rt.begin_trace(1)
        for launch in program["body"]:
            issue(launch)
        if program["traced"]:
            rt.end_trace(1)
    return recorder, issued, region, parts


def check_ordering(program):
    recorder, issued, region, parts = run(program)
    masks = {}

    def mask(part, point):
        if part == "F":
            part, point = "D", FOLD.apply(point)
        if (part, point) not in masks:
            indices = parts[part][point].subset.linear_indices(region.bounds)
            masks[part, point] = sum(1 << int(i) for i in indices)
        return masks[part, point]

    footprint = {}
    for reqs, tids in issued:
        for tid in tids:
            name = recorder.tasks[tid].name
            point = literal_eval(name[name.index("("):])
            footprint[tid] = [
                (priv, frozenset(fields), mask(part, point))
                for part, priv, fields in reqs
            ]
    assert sorted(footprint) == sorted(recorder.tasks)
    preds = defaultdict(set)
    for a, b in recorder.physical_edges:
        assert a < b and conflict(footprint[a], footprint[b]), (a, b)
        preds[b].add(a)
    order = sorted(footprint)
    bit = {tid: 1 << i for i, tid in enumerate(order)}
    reach = {}
    for b in order:
        reach[b] = 0
        for a in preds[b]:
            reach[b] |= reach[a] | bit[a]
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if conflict(footprint[a], footprint[b]):
                assert reach[b] & bit[a], f"task {a} not ordered before {b}"


def program_of(body, dim=1, n_fields=1, iters=1, traced=False, kernels=True,
               checked=True, interlude=None, assign=None, extra=None):
    volume = int(np.prod(SHAPES[dim]))
    return dict(
        dim=dim, n_fields=n_fields, body=body, iters=iters, traced=traced,
        kernels=kernels, checked=checked, interlude=interlude,
        assign=assign or [i % 4 for i in range(volume)],
        extra=extra or [(i + 1) % 4 for i in range(volume)],
    )


# Repeats weight the draw towards what retires jointly: readers of one
# partition, then a launch writing another over every colour.
requirement = st.tuples(
    st.sampled_from("DHSA"),
    st.sampled_from(PRIVILEGES + ["reads", "reads writes"]),
    st.sampled_from([0, 0, 1, 2]),
)
launch = st.tuples(
    st.lists(requirement, min_size=1, max_size=2),
    st.sampled_from([None, None, None, 0, 3]),      # a colour left out
)
VOLUME = 24
programs = st.fixed_dictionaries(dict(
    dim=st.sampled_from([1, 2]),
    n_fields=st.sampled_from([1, 2]),
    assign=st.lists(st.integers(0, 3), min_size=VOLUME, max_size=VOLUME),
    extra=st.lists(st.integers(0, 3), min_size=VOLUME, max_size=VOLUME),
    body=st.lists(launch, min_size=1, max_size=4),
    iters=st.sampled_from([1, 2, 4, 5, 5]),
    interlude=st.one_of(st.none(), st.tuples(st.integers(1, 4), launch)),
    traced=st.booleans(),
    kernels=st.booleans(),
    checked=st.booleans(),
))

# Witnesses.  Halo readers on both fields, then blocks written on one field
# at a time: no writer's field set covers the readers'.
FIELDS_WITNESS = program_of(
    [([("H", "reads", 2)], None), ([("D", "reads writes", 0)], None),
     ([("D", "reads writes", 1)], None)],
    n_fields=2,
)
# Unchecked, so the launch's points conflict: on the second issue task i
# joins the reader of H[i] the first issue left, after task i-1 wrote the
# block beside it — a writer of the union that does not wait for task i.
# The interleaved write of the blocks must.
GUARD_WITNESS = program_of(
    [([("H", "reads", 0), ("D", "reads writes", 0)], None)],
    iters=3, checked=False,
    interlude=(2, ([("D", "reads writes", 0)], None)),
)
# The blocks are written over every colour but the last, which its halo
# reader overlaps; the next full write of the blocks must wait for it.
UNION_WITNESS = program_of(
    [([("H", "reads", 0)], None), ([("D", "reads writes", 0)], 3),
     ([("D", "reads writes", 0)], None)],
)


@settings(max_examples=150, deadline=None)
@given(programs)
@example(FIELDS_WITNESS)
@example(GUARD_WITNESS)
@example(UNION_WITNESS)
@example(program_of(                     # Stencil's step, traced into kernels
    [([("H", "reads", 0), ("D", "reads writes", 1)], None),
     ([("D", "reads writes", 0)], None)],
    dim=2, n_fields=2, iters=5, traced=True,
))
@example(program_of(                     # a fallback loop chaining colours
    [([("D", "reads writes", 0)], None), ([("F", "reads writes", 0)], None),
     ([("H", "reads", 0)], None), ([("F", "writes", 0)], 3)],
    iters=2,
))
@example(program_of(                     # Circuit's step, sparse owners
    [([("A", "reads", 0)], None), ([("A", "reduces +", 1)], None),
     ([("S", "reads writes", 2)], None)],
    n_fields=2, iters=5, traced=True, kernels=False,
    interlude=(3, ([("H", "writes", 0)], 1)),
))
def test_reported_dependences_are_the_exact_conflict_order(program):
    check_ordering(program)
