"""Command line of the benchmark.

``python3 -m perfbench bench --workload W --seed N --seconds S --trace 0|1``
    one workload, the way ``BENCHMARK.json`` runs it: the last line of
    stdout is one JSON object (end-to-end metrics, or per-layer with
    ``--trace 1``).
``python3 -m perfbench run [--seed N] [--rounds 3] [--round-s 7]
[--workload W] [--traced]``
    every workload, rounds interleaved round-robin, every metric printed
    by name and written to ``perfbench/out/results.json``.
``python3 -m perfbench compare A.json B.json``
    the benchmark's bounds applied to two ``run`` results.
``python3 -m perfbench selftest``
    the benchmark checking itself (boundaries crossed, counters alive).
``python3 -m perfbench spec``
    rewrite ``BENCHMARK.json`` from the definitions in this package.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from perfbench import OUT, ROOT, SRC, bootstrap

#: rounds (fresh child processes) behind one ``bench`` result
BENCH_ROUNDS = 3
#: a round that has not ended this long after its timed loop should have is
#: hung: it is killed and counted as a failed op
ROUND_GRACE_S = 90.0

_round_ids = itertools.count()


def _child_env() -> dict:
    """The environment of every child: no REPRO_* knob leaks in, so the
    configuration under test is the one the workload states."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def spawn_round(workload: str, seed: int, seconds: float, traced: int = 0,
                aux_seconds: float = 0.0) -> dict:
    """One round in a fresh child; always returns a result, never hangs."""
    from perfbench import hygiene

    out = os.path.join(OUT, f"round-{os.getpid()}-{next(_round_ids)}.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", workload,
         "--seed", str(seed), "--seconds", repr(seconds),
         "--traced", str(traced), "--aux-seconds", repr(aux_seconds),
         "--spawned-at", repr(time.monotonic()), "--out", out],
        cwd=ROOT, env=_child_env(), stdout=sys.stderr,
        start_new_session=True,
    )
    failure = None
    try:
        code = proc.wait(timeout=ROUND_GRACE_S + seconds + aux_seconds)
        if code != 0:
            failure = f"child exited with code {code}"
    except subprocess.TimeoutExpired:
        family = [proc.pid] + hygiene.descendants(proc.pid)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        hygiene.kill_tree(family)
        proc.wait()
        failure = "round hung and was killed"
    result = None
    if os.path.exists(out):
        with open(out) as fh:
            result = json.load(fh)
        os.unlink(out)
    if result is None:
        result = {"workload": workload, "failures": [], "samples_us": [],
                  "ops": 0, "aux": {}}
        failure = failure or "child wrote no result"
    if failure:
        result["failures"].append(failure)
    # A round that produced nothing still attempted one op and failed it.
    result["attempted"] = max(result["ops"], 1)
    result["failed"] = min(len(result["failures"]), result["attempted"])
    return result


def _combine(workload: str, results: List[dict]) -> dict:
    from perfbench.metrics import combine_rounds
    from perfbench.workloads import WORKLOADS

    return combine_rounds(results, WORKLOADS[workload].tail_percentile)


def measure_traced(workload: str, seed: int, seconds: float,
                   untraced_p50_us: Optional[float]) -> dict:
    """The traced pass: one round with the layer wrappers installed, plus
    the serial / in-process comparison runs some layer metrics need."""
    from perfbench.metrics import layer_metrics, round_summary

    result = spawn_round(workload, seed, seconds * 2 / 3, traced=1,
                         aux_seconds=seconds / 3)
    layers = None
    if result["samples_us"] and "spans" in result:
        overhead = None
        if untraced_p50_us:
            overhead = round_summary(result, 50)["op_p50_us"] / untraced_p50_us
        layers = layer_metrics(result, overhead)
    return {
        "layers": layers,
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"][:20],
        "nesting_errors": result.get("nesting_errors", []),
        "notes": {k: v for k, v in result["aux"].items()
                  if isinstance(v, str)},
    }


# ------------------------------------------------------------------- bench
def cmd_bench(args) -> int:
    from perfbench.metrics import END_TO_END, PER_LAYER

    if args.trace:
        # A short untraced round gives the base of trace_overhead_ratio.
        base = _combine(args.workload, [
            spawn_round(args.workload, args.seed, args.seconds / 4)
        ])
        if not base["samples"]:
            print(f"perfbench: {base['failures']}", file=sys.stderr)
            return 1
        traced = measure_traced(
            args.workload, args.seed, args.seconds * 3 / 4,
            base["metrics"]["op_p50_us"]["value"],
        )
        if traced["layers"] is None:
            print(f"perfbench: {traced['failures']}", file=sys.stderr)
            return 1
        attempted = base["attempted"] + traced["attempted"]
        failed = base["failed"] + traced["failed"]
        failures = base["failures"] + traced["failures"] \
            + traced["nesting_errors"]
        # Not applicable on this workload (or refused) reads 0.
        metrics = {
            name: {"value": traced["layers"][name] or 0.0, "unit": unit}
            for name, unit, *_ in PER_LAYER
        }
    else:
        found = _combine(args.workload, [
            spawn_round(args.workload, args.seed, args.seconds / BENCH_ROUNDS)
            for _ in range(BENCH_ROUNDS)
        ])
        if not found["samples"]:
            print(f"perfbench: {found['failures']}", file=sys.stderr)
            return 1
        attempted, failed = found["attempted"], found["failed"]
        failures = found["failures"]
        metrics = {
            name: {"value": found["metrics"][name]["value"], "unit": unit}
            for name, unit, *_ in END_TO_END
        }
    for line in failures:
        print(f"perfbench: failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


# --------------------------------------------------------------------- run
def cmd_run(args) -> int:
    from perfbench import hygiene
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import TRANSPORT, WORKERS, WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    rounds: Dict[str, List[dict]] = {name: [] for name in names}
    # Round-robin: one noisy phase of the machine hits every workload once
    # instead of one workload every time.
    for r in range(args.rounds):
        for name in names:
            print(f"round {r + 1}/{args.rounds} {name} ...", file=sys.stderr)
            rounds[name].append(spawn_round(name, args.seed, args.round_s))
    report = {
        "fingerprint": dict(hygiene.fingerprint(), workers=WORKERS,
                            transport=TRANSPORT),
        "seed": args.seed,
        "rounds": args.rounds, "round_s": args.round_s, "workloads": {},
    }
    ok = True
    for name in names:
        found = _combine(name, rounds[name])
        found["why"] = WORKLOADS[name].why
        report["workloads"][name] = found
        ok = ok and found["samples"] > 0 and not found["failures"]
        print(f"\n{name}  ({found['samples']} samples, "
              f"{found['samples_beyond_tail']} beyond "
              f"p{found['tail_percentile']})")
        for metric, unit, better, _ in END_TO_END:
            row = found["metrics"].get(metric)
            if row:
                print(f"  {metric:<14}{row['value']:>14.4f} {unit:<4} "
                      f"({better} is better; rounds "
                      f"{', '.join(f'{v:.4g}' for v in row['rounds'])})")
        print(f"  {'fail_ratio':<14}{found['fail_ratio']:>14.4f}      "
              f"({found['failed']} of {found['attempted']} ops)")
        for line in found["failures"]:
            print(f"  FAILURE: {line}")
    if args.traced:
        for name in names:
            print(f"traced pass {name} ...", file=sys.stderr)
            found = report["workloads"][name]
            p50 = found["metrics"].get("op_p50_us", {}).get("value")
            traced = measure_traced(name, args.seed, args.round_s, p50)
            found["traced"] = traced
            ok = ok and traced["layers"] is not None \
                and not traced["failures"] and not traced["nesting_errors"]
            print(f"\n{name}  per layer "
                  f"(trace: perfbench/out/trace-{name}.json)")
            for metric, unit, *_ in PER_LAYER:
                value = (traced["layers"] or {}).get(metric)
                if value is not None:
                    print(f"  {metric:<44}{value:>16.4f} {unit}")
            for key, note in traced["notes"].items():
                print(f"  note: {key}: {note}")
            for line in traced["failures"] + traced["nesting_errors"]:
                print(f"  FAILURE: {line}")
    path = args.out or os.path.join(OUT, "results.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path)}")
    return 0 if ok else 1


# -------------------------------------------------------------------- spec
def benchmark_spec() -> dict:
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    return {
        "command": ["python3", "-m", "perfbench", "bench"],
        "paths": ["perfbench"],
        "run_seconds": 12,
        "workloads": [{"name": name, "why": cls.why}
                      for name, cls in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, *_ in PER_LAYER
        ],
    }


def cmd_spec(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_spec(), fh, indent=2)
        fh.write("\n")
    return 0


def cmd_compare(args) -> int:
    from perfbench import compare

    return compare.main(args.a, args.b)


def cmd_selftest(args) -> int:
    from perfbench import selftest

    return selftest.main()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--round-s", type=float, default=7.0)
    p.add_argument("--workload", default=None)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("selftest")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("spec")
    p.set_defaults(fn=cmd_spec)

    args = parser.parse_args(argv)
    bootstrap()
    if getattr(args, "workload", None):
        from perfbench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(WORKLOADS)}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
