"""One round of one workload, in a process of its own.

``python -m perfbench.child WORKLOAD --seed N --seconds S --out FILE``:
build -> warm up (fixed op count) -> timed closed loop -> oracle ->
teardown -> leak check; the result is one JSON object written to FILE.
With ``--traced`` the layer wrappers are installed before anything of the
program is built, and the round also makes the extra measurements the
per-layer metrics need (transport round-trip probe, serial sub-run,
in-process service stream).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from perfbench import OUT, bootstrap


def run_round(args) -> dict:
    from perfbench import hygiene

    result = {
        "workload": args.workload, "seed": args.seed, "traced": args.traced,
        "failures": [],
        "samples_us": [], "ops": 0, "aux": {},
        #: (seconds since the child was spawned, calibration spin) at the
        #: start, after build and after warm-up: set-up time is corrected
        #: for the machine's speed like every other time
        "setup_marks": [],
    }

    def mark_setup():
        took = min(hygiene.spin() for _ in range(3))
        result["setup_marks"].append(
            (time.monotonic() - args.spawned_at, took)
        )

    mark_setup()
    tracer = None
    if args.traced:
        from perfbench import layers
        from perfbench.spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    from perfbench.workloads import WORKERS, WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, workers=WORKERS if cls.parallel else 1,
                   tracer=tracer)
    aux = result["aux"]
    family = []
    try:
        if tracer:
            tracer.enabled = True       # build spans: data.partition
        workload.build()
        if tracer:
            tracer.enabled = False
            build = tracer.per_op(tracer.take(), 1, in_ops=False)
            aux["partition_build_ms"] = (
                build.get("data.partition", {}).get("self_us", 0.0) / 1e3
            )
        result["input_digest"] = workload.input_digest()
        mark_setup()
        workload.warm_up()
        gc.collect()
        mark_setup()
        if tracer:
            tracer.enabled = True
        res = workload.run(args.seconds)
        if tracer:
            tracer.enabled = False
        family = hygiene.descendants(os.getpid())
        result["peak_rss_mb"] = hygiene.peak_rss_mb([os.getpid()] + family)
        result["spins"] = res.spins
        result["ends_s"] = [end for end, _ in res.samples]
        result["samples_us"] = [s * 1e6 for _, s in res.samples]
        result["ops"] = len(res.samples)
        result["wall_s"] = res.wall
        result["window"] = res.window
        result["count_ops"] = workload.count_ops
        result["failures"] += res.failures
        if res.window is None:
            result["failures"].append(
                f"round too short for the {workload.count_ops}-op count "
                f"window"
            )
        result["failures"] += workload.check()
        if tracer:
            threads = tracer.take()
            result["spans"] = tracer.per_op(threads, len(res.samples))
            result["nesting_errors"] = tracer.nesting_errors(threads)[:5]
            tracer.write_chrome_trace(
                os.path.join(OUT, f"trace-{args.workload}.json"), threads,
                {"workload": args.workload, "seed": args.seed},
            )
            aux.update(workload.traced_extras())
    finally:
        try:
            workload.close()
        except Exception as exc:
            result["failures"].append(f"teardown: {exc}")
    if tracer and args.aux_seconds > 0:
        aux.update(workload.comparison_run(args.aux_seconds))
        result["failures"] += aux.pop("failures", [])
    # Everything this round started has been told to stop: whatever is
    # still alive now, or left a segment behind, leaked.
    family = sorted(set(family) | set(hygiene.descendants(os.getpid())))
    left = hygiene.leftovers(family)
    if left:
        hygiene.kill_tree(family)
        result["failures"] += left
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--aux-seconds", type=float, default=0.0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    bootstrap()
    result = run_round(args)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
