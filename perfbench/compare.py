"""``python3 -m perfbench compare A.json B.json``: is B a regression of A?

Applies the benchmark's own bounds per end-to-end metric and workload to
two ``perfbench run`` results and prints one row per workload:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound (``fail_ratio``: at all)
``unresolved``  the rounds of one side spread wider than the bound, so the
                medians cannot settle it — unless every round of B reads
                better than every round of A, which is ``ok``

Count metrics of the traced pass must agree exactly; any that differ are
listed.  Exit status 1 when anything regressed or a count differs.
"""

from __future__ import annotations

import json
from typing import Tuple

from perfbench.metrics import (
    END_TO_END,
    EXACT,
    SETUP_FLOOR_S,
    bound_for,
)

__all__ = ["verdict", "main"]


def _spread(row: dict) -> float:
    rounds = row["rounds"]
    return (max(rounds) - min(rounds)) / row["value"] if row["value"] else 0.0


def verdict(metric: str, workload: str, a: dict, b: dict) -> Tuple[str, float]:
    """(status, how much worse B is as a share of A) for one metric."""
    better = next(d for name, _, d, _ in END_TO_END if name == metric)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    bound = bound_for(metric, workload)
    allowed = bound
    if metric == "setup_s":
        allowed = max(bound, SETUP_FLOOR_S / a["value"])
    if worse_by > allowed:
        return "regressed", worse_by
    b_always_better = (
        max(b["rounds"]) < min(a["rounds"]) if better == "lower"
        else min(b["rounds"]) > max(a["rounds"])
    )
    if max(_spread(a), _spread(b)) > allowed and not b_always_better:
        return "unresolved", worse_by
    return "ok", worse_by


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bad = 0
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload:<16} missing from {path_b}")
            bad += 1
            continue
        cells = []
        for metric, *_ in END_TO_END:
            status, worse_by = verdict(
                metric, workload, wa["metrics"][metric], wb["metrics"][metric]
            )
            bad += status == "regressed"
            cells.append(f"{metric}={status}({worse_by:+.1%})")
        if wb["fail_ratio"] > wa["fail_ratio"]:
            bad += 1
            cells.append(f"fail_ratio=regressed({wa['fail_ratio']:.4f}->"
                         f"{wb['fail_ratio']:.4f})")
        else:
            cells.append("fail_ratio=ok")
        print(f"{workload:<16} " + " ".join(cells))
        la = (wa.get("traced") or {}).get("layers")
        lb = (wb.get("traced") or {}).get("layers")
        if la and lb:
            for name in EXACT:
                if la[name] != lb[name]:
                    bad += 1
                    print(f"{'':<16} count differs: {name} "
                          f"{la[name]} -> {lb[name]}")
    print("regressed" if bad else "no regression")
    return 1 if bad else 0
