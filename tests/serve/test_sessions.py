"""Concurrent-session isolation (the tenancy contract).

N clients hammer one service concurrently with *overlapping region and
partition names* but distinct tenants.  Isolation means: every client's
results are byte-identical to running serially alone, every tenant pays
exactly its own first-issue analysis (no cross-tenant check-memo
traffic), and replay caches never alias across sessions.
"""

import threading

import numpy as np

from repro.core.projection import ModularFunctor
from repro.runtime.task import task
from repro.serve.client import ServiceClient
from tests.serve.conftest import running_service

N_CLIENTS = 4
LAUNCH_ITERS = 4
SHARDS = 8
ELEMS = 48


def _bump_fn(ctx, r):
    r.write("x", r.read("x") + 1.0)


BUMP = task(privileges=["reads writes"])(_bump_fn)


def client_program(cli, seed):
    """Same region/partition names for every client, different data."""
    region = cli.create_region("iso_rx", ELEMS, {"x": "f8"})
    cli.write_field(region, "x", np.arange(float(ELEMS)) + seed)
    part = cli.equal_partition("iso_p", region, SHARDS)
    bump = cli.define_task(BUMP)
    for _ in range(LAUNCH_ITERS):
        cli.begin_trace(11)
        cli.index_launch(bump, SHARDS, part)
        cli.index_launch(bump, SHARDS, part,
                         functor=ModularFunctor(SHARDS, 1))
        cli.end_trace(11)
    cli.drain()
    return cli.read_field(region, "x"), cli.stats()


def _run_concurrent(port, tenants):
    results = [None] * len(tenants)
    errors = []

    def body(i):
        try:
            with ServiceClient("127.0.0.1", port,
                               tenant=tenants[i]) as cli:
                results[i] = client_program(cli, seed=100.0 * i)
        except Exception as exc:
            errors.append(f"client {i}: {exc!r}")

    threads = [threading.Thread(target=body, args=(i,))
               for i in range(len(tenants))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert errors == []
    assert all(r is not None for r in results)
    return results


class TestConcurrentIsolation:
    def test_overlapping_names_distinct_tenants(self):
        tenants = [f"iso{i}" for i in range(N_CLIENTS)]
        with running_service(workers=2) as (svc, _):
            results = _run_concurrent(svc.port, tenants)

        for i, (got, stats) in enumerate(results):
            expected = np.arange(float(ELEMS)) + 100.0 * i \
                + 2 * LAUNCH_ITERS
            assert np.array_equal(got, expected), f"client {i} corrupted"
            # Every tenant pays exactly its own cold first-issue
            # analysis: a cross-tenant hit would zero a later miss.
            assert stats["tenant"] == tenants[i]
            assert stats["check_memo_misses"] == 1
            assert stats["check_memo_entries"] == 1
            # Replay caches are per-session: exactly this session's two
            # traced signatures (static + functor), never a neighbour's.
            assert stats["replay_cache_entries"] == 2

    def test_concurrent_byte_identical_to_serial_alone(self):
        tenants = [f"iso{i}" for i in range(N_CLIENTS)]
        with running_service(workers=2) as (svc, _):
            concurrent = _run_concurrent(svc.port, tenants)

        for i in range(N_CLIENTS):
            with running_service(workers=2) as (svc, _):
                with ServiceClient("127.0.0.1", svc.port,
                                   tenant=tenants[i]) as cli:
                    alone, _ = client_program(cli, seed=100.0 * i)
            assert concurrent[i][0].tobytes() == alone.tobytes(), \
                f"client {i} diverged from serial-alone"

    def test_same_tenant_sessions_share_check_memo(self):
        """Positive control: the sharing boundary is the tenant.  A
        second session of the same tenant re-issues the same dynamic
        signature as a hit, paying no new miss."""
        with running_service(workers=2) as (svc, _):
            with ServiceClient("127.0.0.1", svc.port,
                               tenant="shared") as cli:
                _, first = client_program(cli, seed=0.0)
            with ServiceClient("127.0.0.1", svc.port,
                               tenant="shared") as cli:
                _, second = client_program(cli, seed=7.0)
        assert first["check_memo_misses"] == 1
        assert second["check_memo_misses"] == 1  # no *new* miss
        assert second["check_memo_hits"] >= first["check_memo_hits"] + 1

    def test_same_tenant_concurrent_same_region_name(self):
        """Even within one tenant, sessions own private region trees:
        the same name holds different data per session."""
        with running_service(workers=2) as (svc, _):
            with ServiceClient("127.0.0.1", svc.port, tenant="t") as a, \
                    ServiceClient("127.0.0.1", svc.port, tenant="t") as b:
                ra = a.create_region("dup_rx", 8, {"x": "f8"})
                rb = b.create_region("dup_rx", 8, {"x": "f8"})
                a.write_field(ra, "x", np.full(8, 1.0))
                b.write_field(rb, "x", np.full(8, 2.0))
                assert np.array_equal(a.read_field(ra, "x"),
                                      np.full(8, 1.0))
                assert np.array_equal(b.read_field(rb, "x"),
                                      np.full(8, 2.0))


def test_replay_cache_entries_counts_signatures_not_templates():
    """Untraced launches record no physical template, but the replay
    cache still holds their signature (verdict and expansion)."""
    with running_service(workers=1) as (svc, _):
        with ServiceClient("127.0.0.1", svc.port, tenant="sig") as cli:
            region = cli.create_region("sig_rx", ELEMS, {"x": "f8"})
            part = cli.equal_partition("sig_p", region, SHARDS)
            bump = cli.define_task(BUMP)
            for _ in range(3):
                cli.index_launch(bump, SHARDS, part)
            assert cli.stats()["replay_cache_entries"] == 1
