"""``LogicalAnalyzer.analyze_run`` is |D| ``analyze_operation`` calls.

The expanded loop registers the point tasks of a launch — consecutive ops
sharing one access list — in one call.  From any prior state, and for any
access list (read, write, read-write and reduce privileges, one or more
fields, repeated and distinct regions), the batched run must give the same
per-op dependence lists, the same ``users_processed``, the same end state,
and so the same dependences for whatever op comes next.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.privileges import PrivilegeSpec
from repro.runtime.logical import LogicalAnalyzer

PRIVILEGES = [
    PrivilegeSpec.parse(spec)
    for spec in ("reads", "writes", "reads writes", "reduces +",
                 "reduces max")
]

accesses = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 3]),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                 unique=True).map(tuple),
        st.sampled_from(PRIVILEGES),
    ),
    min_size=1,
    max_size=4,
)


def _state(analyzer):
    return {
        key: (st.exclusive, st.group_mode, st.group, st.group_members)
        for key, st in analyzer._regions.items()
    }


@settings(max_examples=400, deadline=None)
@given(
    prior=st.lists(accesses, max_size=6),
    run=accesses,
    gap=st.integers(0, 3),
    count=st.integers(1, 12),
    after=accesses,
)
def test_a_batched_run_is_its_ops_one_by_one(prior, run, gap, count, after):
    naive, batched, counted = (LogicalAnalyzer(), LogicalAnalyzer(),
                               LogicalAnalyzer())
    for op_id, acc in enumerate(prior):
        for analyzer in (naive, batched, counted):
            analyzer.analyze_operation(op_id, acc)
    first = len(prior) + gap
    op_ids = list(range(first, first + count))

    expected = [naive.analyze_operation(op, run) for op in op_ids]
    assert batched.analyze_run(op_ids, run) == expected
    assert counted.analyze_run(op_ids, run, edges=False) == sum(
        map(len, expected))
    for analyzer in (batched, counted):
        assert analyzer.users_processed == naive.users_processed
        assert _state(analyzer) == _state(naive)
    nxt = first + count
    following = naive.analyze_operation(nxt, after)
    for analyzer in (batched, counted):
        assert analyzer.analyze_operation(nxt, after) == following


def test_an_empty_run_registers_nothing():
    analyzer = LogicalAnalyzer()
    assert analyzer.analyze_run([], [(1, ("a",), PRIVILEGES[1])]) == []
    assert analyzer.users_processed == 0
    assert analyzer._regions == {}


def test_a_long_run_settles_after_two_ops():
    """A write run registers two ops one by one and derives the rest:
    ``record_field_access`` is called twice however long the run."""
    analyzer = LogicalAnalyzer()
    calls = []
    record = analyzer.record_field_access

    def counting(*args):
        calls.append(args[0])
        return record(*args)

    analyzer.record_field_access = counting
    deps = analyzer.analyze_run(list(range(100)),
                                [(1, ("a",), PRIVILEGES[2])])
    assert calls == [0, 1]
    assert [[(d.earlier_op, d.later_op) for d in op] for op in deps] == (
        [[]] + [[(i - 1, i)] for i in range(1, 100)]
    )
