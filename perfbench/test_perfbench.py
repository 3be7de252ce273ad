"""Tests of the benchmark itself.  Not part of tier-1 (``testpaths`` is
``tests``); run with ``PYTHONPATH=src:. python -m pytest perfbench -q``.
The ``selftest`` cases start real workers and a real service and take about
a minute together.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import ROOT, bootstrap

bootstrap()

from perfbench import compare, layers, metrics, selftest  # noqa: E402
from perfbench.__main__ import benchmark_spec  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


# ------------------------------------------------------------- the contract
def test_benchmark_json_is_what_the_package_defines():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == benchmark_spec()


def test_spec_obeys_the_driver_contract():
    spec = benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in spec[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 1 <= len(spec["per_layer"]) <= 128
    for row in spec["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25 and unit.match(row["unit"])
    for row in spec["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
        assert unit.match(row["unit"]), row
    setup = next(r for r in spec["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60


def test_every_boundary_names_something_that_exists():
    for _, path, attr, on in layers.BOUNDARIES:
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr)), (path, attr)
        assert set(on) <= set(WORKLOADS)


# ------------------------------------------------------------------- spans
def test_spans_nest_and_self_times_sum_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(200)))
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    op = tracer.root(lambda: (mid(), leaf()))
    op()                          # tracer off: nothing recorded
    tracer.enabled = True
    for _ in range(3):
        op()
    leaf()                        # outside any op: op id -1
    tracer.enabled = False
    (spans,) = tracer.take()
    assert tracer.nesting_errors([spans]) == []
    assert [s[0] for s in spans[:5]] == ["op", "mid", "leaf", "leaf", "leaf"]
    assert {s[4] for s in spans} == {0, 1, 2, -1}
    table = tracer.per_op([spans], 3)
    assert table["leaf"]["calls"] == 3.0 and table["op"]["calls"] == 1.0
    assert tracer.per_op([spans], 1, in_ops=False)["leaf"]["calls"] == 10
    assert tracer.counts()["calls:leaf"] == 10
    # self times partition each op's wall time
    for op_id in range(3):
        mine = [s for s in spans if s[4] == op_id]
        root = next(s for s in mine if s[3] == -1)
        assert sum(s[5] for s in mine) == root[2] - root[1]


def test_each_thread_records_its_own_ops():
    tracer = Tracer()
    op = tracer.root(tracer.wrap("work", lambda: None))
    tracer.enabled = True
    threads = [threading.Thread(target=lambda: [op() for _ in range(50)])
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    tracer.enabled = False
    per_thread = tracer.take()
    assert [len(spans) for spans in per_thread] == [100, 100]
    assert tracer.nesting_errors(per_thread) == []
    ops = [s[4] for spans in per_thread for s in spans if s[0] == "op"]
    assert len(set(ops)) == 100


def test_tracer_is_off_in_a_forked_child():
    tracer = Tracer()
    tracer.enabled = True
    pid = os.fork()
    if pid == 0:
        os._exit(7 if tracer.enabled else 0)
    assert os.waitpid(pid, 0)[1] == 0


# ----------------------------------------------------------------- metrics
from perfbench.hygiene import REFERENCE_SPIN_S as QUIET_SPIN  # noqa: E402


def _round(latencies_us, slowdown=1.0):
    """A synthetic closed-loop round on a machine ``slowdown`` times slower
    than quiet: latencies and calibration spins stretch alike."""
    ends, spins, clock = [], [(0.0, QUIET_SPIN * slowdown)], 0.0
    for lat in latencies_us:
        clock += lat * slowdown / 1e6
        ends.append(clock)
        if clock - spins[-1][0] >= 0.05:
            spins.append((clock, QUIET_SPIN * slowdown))
    spins.append((clock, QUIET_SPIN * slowdown))
    return {"ends_s": ends, "spins": spins, "wall_s": clock,
            "samples_us": [lat * slowdown for lat in latencies_us],
            "setup_marks": [(0.25 * slowdown, QUIET_SPIN * slowdown),
                            (1.0 * slowdown, QUIET_SPIN * slowdown)],
            "peak_rss_mb": 50.0, "attempted": len(ends),
            "failed": 0, "failures": []}


def test_a_slow_machine_phase_is_corrected_by_the_spins():
    rounds = [_round([1000.0] * 2000), _round([1000.0] * 2000, 1.5),
              _round([1000.0] * 1500 + [3000.0] * 500, 1.2)]
    found = metrics.combine_rounds(rounds, 90)
    m = found["metrics"]
    assert m["op_p50_us"]["rounds"] == pytest.approx([1000.0] * 3)
    assert m["op_p50_raw_us"]["rounds"] == pytest.approx([1000, 1500, 1200])
    assert m["ops_per_s"]["rounds"] == pytest.approx([1000, 1000, 2000 / 3])
    assert m["setup_s"]["rounds"] == pytest.approx([1.0] * 3)
    assert m["setup_raw_s"]["rounds"] == pytest.approx([1.0, 1.5, 1.2])
    # the program's own slow ops are not corrected away
    assert m["op_tail_us"]["rounds"][2] == pytest.approx(3000.0)
    assert found["samples"] == 6000 and found["samples_beyond_tail"] >= 10


def test_a_round_without_samples_counts_as_a_failure_only():
    dead = {"samples_us": [], "attempted": 1, "failed": 1,
            "failures": ["round hung and was killed"]}
    found = metrics.combine_rounds([_round([900.0] * 2000), dead], 99)
    assert found["attempted"] == 2001 and found["failed"] == 1
    assert found["metrics"]["op_p50_us"]["rounds"] == pytest.approx([900.0])
    assert metrics.combine_rounds([dead], 99)["samples"] == 0


def _row(value, spread=0.0):
    return {"value": value,
            "rounds": [value * (1 - spread), value, value * (1 + spread)]}


@pytest.mark.parametrize("a, b, expected", [
    (_row(100, 0.01), _row(105, 0.01), "ok"),
    (_row(100, 0.01), _row(125, 0.01), "regressed"),
    (_row(100, 0.30), _row(101, 0.01), "unresolved"),
    (_row(100, 0.30), _row(60, 0.01), "ok"),         # every round better
])
def test_compare_verdicts(a, b, expected):
    assert compare.verdict("op_p50_us", "replay_steady", a, b)[0] == expected


def test_compare_directions_and_the_setup_floor():
    assert compare.verdict("ops_per_s", "first_issue", _row(100),
                           _row(80))[0] == "regressed"
    assert compare.verdict("ops_per_s", "first_issue", _row(100),
                           _row(130))[0] == "ok"
    # +0.15 s on a 0.3 s set-up is +50 %, but under the 0.2 s floor
    assert compare.verdict("setup_s", "first_issue", _row(0.3),
                           _row(0.45))[0] == "ok"
    assert compare.verdict("setup_s", "stencil_compute", _row(12.0),
                           _row(16.0))[0] == "regressed"


# ------------------------------------------------- the benchmark, for real
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_selftest(name):
    assert selftest.check_workload(name) == []


def _bench(cwd, *extra):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", "bench", "--workload",
         "replay_steady", "--seed", "5", "--seconds", "3", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_prints_one_json_object_last(trace):
    done = _bench(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(found) == {"correct", "attempted", "failed", "metrics"}
    assert found["correct"] is True and found["failed"] == 0
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(found["metrics"]) == {row["name"] for row in wanted}
    for row in wanted:
        assert found["metrics"][row["name"]]["unit"] == row["unit"]


def test_bench_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
