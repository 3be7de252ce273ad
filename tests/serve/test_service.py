"""Service front-end behaviour: handshake, admission control, graceful
shutdown (the long-running-process leak sweep), and warm-restart
persistence of the analysis cache."""

import glob
import os
import threading
import time

import numpy as np
import pytest

from repro.core.projection import ModularFunctor
from repro.exec import wire
from repro.exec.plan import dumps, loads
from repro.exec.pool import get_pool
from repro.runtime.task import task
from repro.serve import run_loadgen
from repro.serve.client import ServiceBusy, ServiceClient, ServiceError
from tests.serve.conftest import running_service


def _bump_fn(ctx, r):
    r.write("x", r.read("x") + 1.0)


BUMP = task(privileges=["reads writes"])(_bump_fn)


def _shm_files():
    return glob.glob(f"/dev/shm/reproshm-{os.getpid()}p*")


def wait_for(predicate, timeout=10.0):
    """Poll the running service's state until ``predicate`` holds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "service never reached the state"
        time.sleep(0.001)


def drive(cli, launches=4, shards=8, elems=48, seed=0.0,
          region_name="svc_rx", part_name="svc_p", drain=True):
    """One client's workload: traced static + dynamically-checked launch
    pairs.  Returns the final field contents."""
    region = cli.create_region(region_name, elems, {"x": "f8"})
    cli.write_field(region, "x", np.arange(float(elems)) + seed)
    part = cli.equal_partition(part_name, region, shards)
    bump = cli.define_task(BUMP)
    for _ in range(launches):
        cli.begin_trace(5)
        cli.index_launch(bump, shards, part)
        cli.index_launch(bump, shards, part,
                         functor=ModularFunctor(shards, 1))
        cli.end_trace(5)
    if drain:
        cli.drain()
    return region


class TestHandshake:
    def test_bad_token_rejected(self):
        with running_service(token="sesame") as (svc, _):
            with pytest.raises(ServiceError, match="handshake rejected"):
                ServiceClient("127.0.0.1", svc.port, token="wrong")

    def test_version_mismatch_rejected(self):
        import socket

        with running_service() as (svc, _):
            sock = socket.create_connection(("127.0.0.1", svc.port),
                                            timeout=10)
            try:
                sock.sendall(wire.pack_frame(
                    wire.HELLO, 0, wire.json_payload(token="repro"),
                    version=wire.PROTOCOL_VERSION - 1,
                ))
                frame = wire.recv_frame(sock)
                assert frame.msg == wire.REJECT
                reason = wire.parse_json(frame.payload)["reason"]
                assert "protocol version" in reason
            finally:
                sock.close()

    def test_good_handshake_assigns_session(self):
        with running_service() as (svc, _):
            with ServiceClient("127.0.0.1", svc.port) as a, \
                    ServiceClient("127.0.0.1", svc.port) as b:
                assert a.session != b.session


class TestCommands:
    def test_write_read_round_trip(self):
        with running_service() as (svc, _):
            with ServiceClient("127.0.0.1", svc.port) as cli:
                region = cli.create_region("rt_rx", 16, {"x": "f8"})
                cli.write_field(region, "x", np.arange(16.0) * 3)
                got = cli.read_field(region, "x")
                assert np.array_equal(got, np.arange(16.0) * 3)

    def test_launches_apply(self):
        with running_service(workers=2) as (svc, _):
            with ServiceClient("127.0.0.1", svc.port) as cli:
                region = drive(cli, launches=4)
                got = cli.read_field(region, "x")
                assert np.array_equal(got, np.arange(48.0) + 8)

    def test_unknown_command_is_typed_error(self):
        with running_service() as (svc, _):
            with ServiceClient("127.0.0.1", svc.port) as cli:
                with pytest.raises(ServiceError, match="unknown command"):
                    cli.call("frobnicate")

    def test_bad_handle_is_typed_error(self):
        with running_service() as (svc, _):
            with ServiceClient("127.0.0.1", svc.port) as cli:
                with pytest.raises(ServiceError, match="unknown handle"):
                    cli.read_field(999, "x")


class TestAdmissionControl:
    def test_busy_backpressure(self):
        """With the runtime thread pinned, calls beyond the queue limit
        (plus the one in-flight slot) get BUSY, not unbounded buffering;
        admitted calls complete once the thread frees up."""
        qlimit = 2
        sent = qlimit + 9
        with running_service(queue_limit=qlimit) as (svc, _):
            cli = ServiceClient("127.0.0.1", svc.port)
            gate = threading.Event()
            try:
                svc._executor.submit(gate.wait)  # pin the runtime thread
                for seq in range(100, 100 + sent):
                    wire.send_frame(cli._sock, wire.CALL, seq,
                                    dumps(("drain", {})))
                replies = {}
                # No RESULT can arrive while the runtime thread is
                # pinned, and at most qlimit+1 calls can be admitted —
                # so the first frames back are guaranteed BUSY.
                for _ in range(sent - qlimit - 1):
                    frame = wire.recv_frame(cli._sock)
                    assert frame.msg == wire.BUSY
                    replies[frame.seq] = "busy"
                gate.set()
                while len(replies) < sent:
                    frame = wire.recv_frame(cli._sock)
                    if frame.msg == wire.BUSY:
                        replies[frame.seq] = "busy"
                    else:
                        assert frame.msg == wire.RESULT
                        replies[frame.seq] = loads(frame.payload)[0]
            finally:
                gate.set()
                cli.close()
            busy = sum(1 for v in replies.values() if v == "busy")
            ok = sum(1 for v in replies.values() if v == "ok")
            assert busy + ok == sent
            assert busy >= sent - qlimit - 1
            assert qlimit <= ok <= qlimit + 1
            assert sorted(replies) == list(range(100, 100 + sent))

    def test_client_surfaces_busy(self):
        with running_service(queue_limit=1) as (svc, _):
            cli = ServiceClient("127.0.0.1", svc.port)
            gate = threading.Event()
            try:
                svc._executor.submit(gate.wait)
                session = svc.sessions[cli.session]

                def admitted():
                    return svc.metrics.value(
                        "serve.admissions", tenant=session.tenant.name
                    )

                # Fill the queue behind the pinned thread by hand, gating
                # on server state rather than on arrival timing: 900 has
                # left the queue for the pinned executor, 901 waits in it.
                for seq, queued in ((900, 0), (901, 1)):
                    wire.send_frame(cli._sock, wire.CALL, seq,
                                    dumps(("drain", {})))
                    wait_for(lambda: admitted() == seq - 899
                             and len(session.queue) == queued)
                # So a normal call must raise ServiceBusy.
                with pytest.raises(ServiceBusy):
                    cli.drain()
            finally:
                gate.set()
                cli.close()


class TestGracefulShutdown:
    def test_shutdown_drains_and_leaks_nothing(self):
        """Satellite sweep: after shutdown with launches left in flight,
        no pool teardown errors, no shm teardown errors, and no
        reproshm-* segments linked in /dev/shm."""
        with running_service(workers=2) as (svc, _):
            clients = [ServiceClient("127.0.0.1", svc.port,
                                     tenant=f"gs{i}") for i in range(3)]
            regions = [
                drive(cli, launches=3, seed=i * 10.0, drain=False)
                for i, cli in enumerate(clients)
            ]
            # Leave the pipelined launches in flight; shutdown must
            # drain them.  One client also departs early (reap path).
            clients[2].close()
            pool = get_pool(2)  # the one shared pool all sessions use
            # Context exit runs svc.shutdown() — the SIGTERM path.
        assert svc._stopped.is_set()
        assert pool.shutdown_errors == 0
        assert pool.arena.stats.teardown_errors == 0
        assert _shm_files() == []
        del regions

    def test_shutdown_is_idempotent(self):
        with running_service() as (svc, loop):
            import asyncio

            asyncio.run_coroutine_threadsafe(
                svc.shutdown(), loop
            ).result(timeout=30)
            # The context manager's teardown calls shutdown() again.
        assert svc._stopped.is_set()


class TestSwallowedErrors:
    def test_each_swallowed_error_is_counted(self):
        """The three errors no client is left to receive — draining a
        departed session's runtime, releasing a backend at shutdown, and
        closing a writer at shutdown — each land in their own
        ``serve.swallowed_errors`` series."""
        def swallowed(reason):
            return svc.metrics.value("serve.swallowed_errors", reason=reason,
                                     kind="RuntimeError")

        def failing(real=None):
            def fail(*_):
                if real is not None:
                    real()
                raise RuntimeError("forced")
            return fail

        with running_service() as (svc, _):
            keep = ServiceClient("127.0.0.1", svc.port)
            gone = ServiceClient("127.0.0.1", svc.port)
            kept, left = svc.sessions[keep.session], svc.sessions[gone.session]
            left.rt.drain = failing()
            gone.close()
            wait_for(lambda: left.closed)
            keep.drain()                # the sweep that reaps ``gone``
            wait_for(lambda: swallowed("drain") == 1)
            kept.rt.backend.shutdown = failing()
            kept.writer.close = failing(kept.writer.close)
            assert swallowed("backend_shutdown") == swallowed(
                "writer_close") == 0
            # Context exit runs svc.shutdown(), which meets both.
        assert swallowed("backend_shutdown") == 1
        assert swallowed("writer_close") == 1
        assert svc.metrics.total("serve.swallowed_errors") == 3
        keep.close()


class TestWarmRestartPersistence:
    def test_restart_repays_no_first_issue_analysis(self, tmp_path):
        """Acceptance: a restarted service restores the dynamic-check
        memo, so the first dynamically-checked launch is a hit, not a
        recomputation (zero misses on the warm run) — for one client and
        for concurrent ``repro loadgen`` tenants beside it, each of which
        pays its first issue exactly once and finishes byte-correct."""
        persist = str(tmp_path)
        clients, launches = 3, 4
        phases = []
        for _ in range(2):
            with running_service(workers=2, persist_dir=persist) as (svc, _):
                with ServiceClient("127.0.0.1", svc.port,
                                   tenant="warm") as cli:
                    drive(cli, launches=4)
                    stats = [cli.stats()]
                report = run_loadgen("127.0.0.1", svc.port, clients=clients,
                                     launches=launches)
            assert report["errors"] == []
            assert report["clients_completed"] == clients
            assert report["total_launches"] == clients * launches
            assert report["all_correct"]
            phases.append(stats + report["client_stats"])
        cold, warm = phases
        assert [s["check_memo_misses"] for s in cold] == [1] * (clients + 1)
        assert [s["restored_entries"] for s in cold] == [0] * (clients + 1)
        assert [s["check_memo_misses"] for s in warm] == [0] * (clients + 1)
        assert all(s["restored_entries"] >= 1 for s in warm)
        assert all(s["check_memo_hits"] >= 1 for s in warm)

    def test_restart_results_identical(self, tmp_path):
        persist = str(tmp_path)
        results = []
        for _ in range(2):
            with running_service(workers=2,
                                 persist_dir=persist) as (svc, _):
                with ServiceClient("127.0.0.1", svc.port,
                                   tenant="warm") as cli:
                    region = drive(cli, launches=4)
                    results.append(cli.read_field(region, "x").tobytes())
        assert results[0] == results[1]
