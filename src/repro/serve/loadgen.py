"""Synthetic many-client load generator for the session service.

Each synthetic client is one thread with its own :class:`ServiceClient`
session: it creates a region (deliberately reusing the *same* region
name across clients — isolation means names never collide across
sessions), partitions it, ships the workload task, then issues a
sustained stream of index launches, timing each issuance round trip.
Half the launches go through a :class:`ModularFunctor` so the
dynamic-check path — the analysis the persisted cache captures — is
exercised, not just the static-verification fast path.

The report carries sustained launches/sec and p50/p99 issuance latency,
aggregated across clients, plus per-tenant cache counters from the
service's ``stats`` command.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np

from repro.runtime.task import task

__all__ = ["run_loadgen"]


def _bump_fn(ctx, r):
    r.write("x", r.read("x") + 1.0)


#: The workload task, wrapped once at import so the underlying function
#: pickles by reference into the service process.
BUMP = task(privileges=["reads writes"])(_bump_fn)


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def _client_body(host, port, token, tenant, launches, shards, elems,
                 out, errors, index):
    from repro.core.projection import ModularFunctor
    from repro.serve.client import ServiceBusy, ServiceClient

    latencies: List[float] = []
    busy = 0
    try:
        with ServiceClient(host, port, token=token, tenant=tenant) as cli:
            region = cli.create_region("load_rx", elems, {"x": "f8"})
            cli.write_field(region, "x", np.arange(float(elems)))
            part = cli.equal_partition("load_p", region, shards)
            bump = cli.define_task(BUMP)
            t0 = time.perf_counter()
            # Launches ride inside traces (the Legion model: replayed
            # iterations are where issuance hits replay cost) — one
            # static + one dynamically-checked launch per iteration.
            for i in range(launches // 2):
                cli.begin_trace(7)
                for functor in (None, ModularFunctor(shards, 1)):
                    mark = time.perf_counter()
                    while True:
                        try:
                            cli.index_launch(bump, shards, part,
                                             functor=functor)
                            break
                        except ServiceBusy:
                            busy += 1
                            time.sleep(0.001)
                    latencies.append(time.perf_counter() - mark)
                cli.end_trace(7)
            cli.drain()
            elapsed = time.perf_counter() - t0
            expected = np.arange(float(elems)) + len(latencies)
            got = cli.read_field(region, "x")
            stats = cli.stats()
    except Exception as exc:  # surfaced in the aggregate report
        errors.append(f"client {index}: {type(exc).__name__}: {exc}")
        return
    out[index] = {
        "latencies": latencies,
        "elapsed": elapsed,
        "busy_retries": busy,
        "correct": bool(np.array_equal(got, expected)),
        "stats": stats,
    }


def run_loadgen(
    host: str,
    port: int,
    token: str = "repro",
    clients: int = 8,
    launches: int = 40,
    shards: int = 8,
    elems: int = 64,
    tenants: Optional[int] = None,
) -> dict:
    """Drive ``clients`` concurrent sessions; return the aggregate report.

    ``tenants`` spreads the clients over that many distinct tenant names
    (default: one tenant per client, the strictest isolation shape).
    """
    n_tenants = tenants if tenants is not None else clients
    results: List[Optional[dict]] = [None] * clients
    errors: List[str] = []
    threads = [
        threading.Thread(
            target=_client_body,
            args=(host, port, token, f"tenant{i % n_tenants}", launches,
                  shards, elems, results, errors, i),
            daemon=True,
        )
        for i in range(clients)
    ]
    wall0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    wall = time.perf_counter() - wall0

    done = [r for r in results if r is not None]
    all_lat = sorted(
        lat for r in done for lat in r["latencies"]
    )
    total_launches = sum(len(r["latencies"]) for r in done)
    report = {
        "clients": clients,
        "clients_completed": len(done),
        "tenants": n_tenants,
        "launches_per_client": launches,
        "shards": shards,
        "total_launches": total_launches,
        "wall_s": wall,
        "launches_per_s": total_launches / wall if wall > 0 else 0.0,
        "issue_p50_us": _percentile(all_lat, 0.50) * 1e6,
        "issue_p99_us": _percentile(all_lat, 0.99) * 1e6,
        "busy_retries": sum(r["busy_retries"] for r in done),
        "all_correct": bool(done) and all(r["correct"] for r in done),
        "errors": errors,
        "client_stats": [r["stats"] for r in done],
    }
    return report
