"""Service front-end behaviour: handshake, admission control, graceful
shutdown (the long-running-process leak sweep), and warm-restart
persistence of the analysis cache."""

import gc
import glob
import os
import sys
import threading
import time
import weakref

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


class TestSessionLifetime:
    def test_reaped_session_releases_its_runtime(self):
        """The tenant memo outlives its sessions, so nothing on it may
        point back at one: a departed session's ``Runtime`` (its regions
        and their segments) must be collectable once it is reaped."""
        with running_service(workers=2) as (svc, _):
            keep = ServiceClient("127.0.0.1", svc.port, tenant="pin")
            gone = ServiceClient("127.0.0.1", svc.port, tenant="pin")
            drive(gone, launches=1)
            session = svc.sessions[gone.session]
            rt_ref = weakref.ref(session.rt)
            gone.close()
            wait_for(lambda: session.closed)
            keep.drain()                # the sweep that reaps ``gone``
            wait_for(lambda: gone.session not in svc.sessions)
            del session
            keep.drain()                # after the reaped runtime's drain
            gc.collect()
            assert rt_ref() is None
            keep.close()

    def test_a_session_is_reaped_at_disconnect(self):
        """With no other traffic on the service, a departing session
        leaves ``sessions`` and its ``Runtime`` becomes collectable."""
        with running_service(workers=2) as (svc, _):
            cli = ServiceClient("127.0.0.1", svc.port)
            drive(cli, launches=1)
            sid = cli.session
            rt_ref = weakref.ref(svc.sessions[sid].rt)
            cli.close()
            wait_for(lambda: sid not in svc.sessions)

            def collected():
                gc.collect()
                return rt_ref() is None

            wait_for(collected)


class TestFairness:
    def test_no_session_is_served_twice_while_another_waits(self):
        """Two sessions with three commands queued each are served
        alternately."""
        with running_service() as (svc, _):
            first, a, b = (ServiceClient("127.0.0.1", svc.port,
                                         tenant=f"rr{i}") for i in range(3))
            order = []
            execute = svc._execute

            def recording(session, command, payload):
                order.append(session.sid)
                return execute(session, command, payload)

            svc._execute = recording
            gate = threading.Event()
            try:
                svc._executor.submit(gate.wait)  # pin the runtime thread
                # ``first``'s call is admitted before the others arrive,
                # so ``a`` and ``b`` both have all three commands queued
                # whenever the order between them is decided.
                wire.send_frame(first._sock, wire.CALL, 1,
                                dumps(("drain", {})))
                wait_for(lambda: svc.metrics.total("serve.admissions") == 1)
                for cli in (a, b):
                    for seq in (1, 2, 3):
                        wire.send_frame(cli._sock, wire.CALL, seq,
                                        dumps(("drain", {})))
                wait_for(lambda: svc.metrics.total("serve.admissions") == 7)
                gate.set()
                for cli, calls in ((first, 1), (a, 3), (b, 3)):
                    for _ in range(calls):
                        assert wire.recv_frame(cli._sock).msg == wire.RESULT
            finally:
                gate.set()
                for cli in (first, a, b):
                    cli.close()
        assert order[0] == first.session
        alternating = [a.session, b.session] * 3
        assert order[1:] in (alternating, alternating[1:] + alternating[:1])


class TestHandoffStress:
    def test_churning_sessions_lose_no_command(self):
        """The event loop and the runtime thread share the session queues
        and the session table.  Clients outnumbering the cores connect,
        call and disconnect with thread switches forced often: every call
        is answered, every admission executed, every session reaped."""
        clients, rounds, calls, burst = 6, 3, 40, 4
        errors = []
        with running_service() as (svc, _):
            def churn(i):
                try:
                    for _ in range(rounds):
                        with ServiceClient("127.0.0.1", svc.port,
                                           tenant=f"churn{i}",
                                           timeout=20) as cli:
                            for _ in range(calls // burst):
                                for seq in range(burst):
                                    wire.send_frame(cli._sock, wire.CALL,
                                                    seq, dumps(("stats", {})))
                                for _ in range(burst):
                                    frame = wire.recv_frame(cli._sock)
                                    assert frame.msg == wire.RESULT
                except Exception as exc:
                    errors.append(f"client {i}: {exc!r}")

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=churn, args=(i,))
                           for i in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            wait_for(lambda: not svc.sessions)
            assert svc.metrics.total("serve.admissions") == \
                clients * rounds * calls
            assert svc.metrics.total("serve.busy_rejections") == 0


class TestSlowReader:
    def test_a_client_that_stops_reading_stalls_only_itself(self):
        """A session that never reads its replies (four of 16 MB each,
        more than the socket buffers hold) must not delay another
        session's command."""
        elems = 2 * 1024 * 1024
        with running_service() as (svc, _):
            slow = ServiceClient("127.0.0.1", svc.port, tenant="slow")
            fast = ServiceClient("127.0.0.1", svc.port, tenant="fast")
            region = slow.create_region("big", elems, {"x": "f8"})
            done = threading.Event()
            errors = []

            def fast_call():
                try:
                    fast.create_region("small", 8, {"x": "f8"})
                    done.set()
                except Exception as exc:
                    errors.append(exc)

            thread = threading.Thread(target=fast_call, daemon=True)
            try:
                for seq in range(100, 104):
                    wire.send_frame(slow._sock, wire.CALL, seq, dumps((
                        "read_field", {"region": region, "fname": "x"},
                    )))
                thread.start()
                served = done.wait(timeout=5)
            finally:
                # Reading the replies unblocks a service that stalled.
                for _ in range(4):
                    assert wire.recv_frame(slow._sock).msg == wire.RESULT
                thread.join(timeout=30)
                slow.close()
                fast.close()
            assert not thread.is_alive()
            assert errors == []
            assert served, "a slow reader stalled another session"


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
                # on server state rather than on arrival timing: 900 waits
                # in the queue, which holds one command.
                wire.send_frame(cli._sock, wire.CALL, 900,
                                dumps(("drain", {})))
                wait_for(lambda: admitted() == 1 and len(session.queue) == 1)
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
        for cli in clients[:2]:
            cli.close()
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


    def test_a_call_read_after_shutdown_begins_is_answered(self):
        """A CALL admitted before shutdown runs; one read after it began
        is answered with an error and never run."""
        with running_service() as (svc, loop):
            import asyncio

            cli = ServiceClient("127.0.0.1", svc.port)
            gate = threading.Event()
            try:
                svc._executor.submit(gate.wait)  # pin the runtime thread
                wire.send_frame(cli._sock, wire.CALL, 1, dumps(("stats", {})))
                wait_for(lambda: svc.metrics.total("serve.admissions") == 1)
                done = asyncio.run_coroutine_threadsafe(svc.shutdown(), loop)
                wait_for(lambda: svc._stopping)
                wire.send_frame(cli._sock, wire.CALL, 2, dumps(("stats", {})))
                frame = wire.recv_frame(cli._sock)
                assert (frame.seq, loads(frame.payload)) == (
                    2, ("error", "service is shutting down"))
                gate.set()
                frame = wire.recv_frame(cli._sock)
                assert frame.seq == 1 and loads(frame.payload)[0] == "ok"
                done.result(timeout=30)
            finally:
                gate.set()
                cli.close()
        assert svc.metrics.total("serve.admissions") == 1


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
