"""The ``socket`` spawn strategy's own cases.

Everything a transport owes the engine — byte-identity with serial,
the fault ladder, the failure contract, no leaks — is asserted for both
strategies in ``test_transports.py``.  What is left here is the edge
only sockets have: blocking ``send_frame`` / ``recv_frame`` framing
(round-trips, partial-recv reassembly, alien-peer rejection), both sides
of the HELLO/WELCOME handshake, every way a spawn can fail (and that
none leaves a zombie or an open fd behind), transport-name resolution,
and dialling a pre-started ``--listen`` worker via
``REPRO_SOCKET_HOSTS``.
"""

import os
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.exec import transport as transport_mod
from repro.exec import wire
from repro.exec.plan import dumps, loads
from repro.exec.pool import WorkerPool
from repro.exec.socket_worker import _handshake
from repro.exec.transport import (
    SocketTransport,
    WorkerLost,
    resolve_transport,
)

from tests.exec.test_transports import (
    POINTS,
    Doubler,
    children,
    open_fds,
)


# ------------------------------------------------------------- wire layer
class TestWireFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            wire.send_frame(a, wire.SHARD, 7, b"payload bytes")
            frame = wire.recv_frame(b)
            assert frame.msg == wire.SHARD
            assert frame.seq == 7
            assert frame.payload == b"payload bytes"
            assert frame.version == wire.PROTOCOL_VERSION
        finally:
            a.close()
            b.close()

    def test_empty_payload(self):
        a, b = socket.socketpair()
        try:
            wire.send_frame(a, wire.SHUTDOWN, 0)
            frame = wire.recv_frame(b)
            assert frame.msg == wire.SHUTDOWN and frame.payload == b""
        finally:
            a.close()
            b.close()

    def test_partial_recv_reassembles(self):
        """A frame trickled one byte at a time must reassemble intact —
        TCP guarantees order, not message boundaries."""
        a, b = socket.socketpair()
        try:
            raw = wire.pack_frame(wire.RESULT, 3, b"x" * 257)
            done = threading.Event()

            def trickle():
                for i in range(len(raw)):
                    a.sendall(raw[i:i + 1])
                done.set()

            t = threading.Thread(target=trickle)
            t.start()
            frame = wire.recv_frame(b)
            t.join()
            assert done.is_set()
            assert frame.payload == b"x" * 257 and frame.seq == 3
        finally:
            a.close()
            b.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            raw = bytearray(wire.pack_frame(wire.SHARD, 0, b""))
            raw[:4] = b"EVIL"
            a.sendall(bytes(raw))
            with pytest.raises(wire.WireError):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_version_mismatch_rejected(self):
        a, b = socket.socketpair()
        try:
            raw = wire.pack_frame(
                wire.SHARD, 0, b"", version=wire.PROTOCOL_VERSION + 1
            )
            a.sendall(raw)
            with pytest.raises(wire.VersionMismatch):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_handshake_passes_any_version(self):
        """The handshake path reads mismatched versions instead of raising
        so the parent can answer with a descriptive REJECT."""
        a, b = socket.socketpair()
        try:
            raw = wire.pack_frame(
                wire.HELLO, 0, wire.json_payload(worker=0),
                version=wire.PROTOCOL_VERSION + 1,
            )
            a.sendall(raw)
            frame = wire.recv_frame(b, check_version=False)
            assert frame.version == wire.PROTOCOL_VERSION + 1
            assert frame.msg == wire.HELLO
        finally:
            a.close()
            b.close()

    def test_eof_surfaces_as_connection_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionError):
                wire.recv_frame(b)
        finally:
            b.close()


class TestHandshake:
    def _drive(self, reply_msg, reply_payload=b"",
               reply_version=wire.PROTOCOL_VERSION):
        parent, worker = socket.socketpair()
        try:
            result = {}

            def worker_side():
                result["ok"] = _handshake(worker, 0, "tok")

            t = threading.Thread(target=worker_side)
            t.start()
            hello = wire.recv_frame(parent, check_version=False)
            assert hello.msg == wire.HELLO
            assert wire.parse_json(hello.payload)["token"] == "tok"
            wire.send_frame(parent, reply_msg, 0, reply_payload,
                            version=reply_version)
            t.join()
            return result["ok"]
        finally:
            parent.close()
            worker.close()

    def test_welcome_accepted(self):
        assert self._drive(wire.WELCOME) is True

    def test_reject_refused(self, capsys):
        assert self._drive(
            wire.REJECT, wire.json_payload(reason="bad token")
        ) is False

    def test_mismatched_parent_version_refused(self):
        assert self._drive(
            wire.WELCOME, reply_version=wire.PROTOCOL_VERSION + 1
        ) is False


class TestTransportResolution:
    def test_env_selects_socket(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "socket")
        assert resolve_transport(None) == "socket"

    def test_config_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "socket")
        assert resolve_transport("pipe") == "pipe"

    def test_unset_env_resolves_to_pipe(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert resolve_transport(None) == "pipe"

    def test_directly_built_pool_follows_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "socket")
        pool = WorkerPool(2)
        try:
            assert pool.transport_name == "socket"
            assert isinstance(pool.transport, SocketTransport)
            assert not pool.arena.available
        finally:
            pool.shutdown()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            resolve_transport("carrier-pigeon")

    @pytest.mark.parametrize("via", ["config", "env"])
    def test_local_is_gone_not_aliased(self, via, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "local")
        with pytest.raises(
            ValueError,
            match=r"unknown transport 'local'; "
                  r"choose from \['pipe', 'socket'\]",
        ):
            resolve_transport("local" if via == "config" else None)


# --------------------------------------------------------- spawn failures
class TestSpawnFailures:
    """Every way ``_spawn`` can fail ends in the engine's one
    kill-and-reap path: ``WorkerLost``, no zombie, no fd left open."""

    def _assert_spawn_fails_clean(self, engine, cause):
        fds, kids = open_fds(), children()
        with pytest.raises(WorkerLost) as info:
            engine.submit_batch(0, dumps(Doubler()), POINTS)
        assert isinstance(info.value.__cause__, cause)
        assert engine._handles == [None]
        assert children() == kids       # killed *and* reaped
        assert open_fds() == fds        # connection and listener closed

    def test_bad_token_worker_is_rejected_and_reaped(self, monkeypatch):
        launch = SocketTransport._launch

        def launch_then_rotate(self, k, port):
            pid = launch(self, k, port)
            self._token = "rotated-after-launch"
            return pid

        monkeypatch.setattr(SocketTransport, "_launch", launch_then_rotate)
        engine = SocketTransport(1)
        self._assert_spawn_fails_clean(engine, wire.WireError)
        assert engine.shutdown() == []

    def test_worker_that_never_connects_is_reaped(self, monkeypatch):
        monkeypatch.setattr(transport_mod, "SPAWN_TIMEOUT_S", 0.2)
        monkeypatch.setattr(
            SocketTransport, "_launch",
            lambda self, k, port: os.posix_spawn(
                sys.executable,
                [sys.executable, "-c", "import time; time.sleep(60)"],
                os.environ,
            ),
        )
        engine = SocketTransport(1)
        self._assert_spawn_fails_clean(engine, socket.timeout)
        assert engine.shutdown() == []

    def test_alien_version_gets_descriptive_reject(self, monkeypatch):
        """The parent side of the version handshake, against a scripted
        peer reached the way a pre-started worker is: by dialling."""
        seen = {}

        def alien(listener):
            conn, _ = listener.accept()
            with conn:
                wire.send_frame(
                    conn, wire.HELLO, 0, wire.json_payload(token=""),
                    version=wire.PROTOCOL_VERSION + 1,
                )
                seen["reply"] = wire.recv_frame(conn)

        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            peer = threading.Thread(target=alien, args=(listener,))
            peer.start()
            monkeypatch.setenv(
                "REPRO_SOCKET_HOSTS",
                "127.0.0.1:%d" % listener.getsockname()[1],
            )
            engine = SocketTransport(1)
            self._assert_spawn_fails_clean(engine, wire.VersionMismatch)
            peer.join(timeout=10.0)
            assert not peer.is_alive()
        assert seen["reply"].msg == wire.REJECT
        assert "protocol version" in wire.parse_json(
            seen["reply"].payload
        )["reason"]
        assert engine.shutdown() == []

    def test_unreachable_host_is_worker_lost(self, monkeypatch):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as placeholder:
            placeholder.bind(("127.0.0.1", 0))   # bound, never listening
            monkeypatch.setenv(
                "REPRO_SOCKET_HOSTS",
                "127.0.0.1:%d" % placeholder.getsockname()[1],
            )
            engine = SocketTransport(1)
            self._assert_spawn_fails_clean(engine, ConnectionRefusedError)
        assert engine.shutdown() == []


# ------------------------------------------------------- pre-started worker
class TestDialledWorker:
    def test_socket_hosts_dial_drop_redial_shutdown(
        self, monkeypatch
    ):
        """Slot 0 is a ``--listen`` worker this test started, slot 1 a
        locally spawned fill-in.  The parent owns slot 0's connection,
        never its process: a dropped connection sends the worker back to
        ``accept`` and the respawn re-dials it; only the pool's graceful
        SHUTDOWN ends it, with exit code 0."""
        env = dict(os.environ, REPRO_SOCKET_TOKEN="prestarted")
        env["PYTHONPATH"] = os.pathsep.join(p or os.getcwd() for p in sys.path)
        listen = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.socket_worker",
             "--listen", "--port", "0", "--worker", "0"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = listen.stderr.readline()   # "... listening on host:port"
            assert "listening on" in banner
            monkeypatch.setenv("REPRO_SOCKET_TOKEN", "prestarted")
            monkeypatch.setenv(
                "REPRO_SOCKET_HOSTS", banner.rsplit(" ", 1)[1].strip()
            )
            pool = WorkerPool(2, "socket")
            engine = pool.transport

            def double(k):
                future = engine.submit_batch(k, dumps(Doubler()), POINTS)
                return loads(future.result(timeout=60.0))

            for k in range(2):
                np.testing.assert_array_equal(double(k), POINTS * 2)
            assert engine._handles[0].pid is None
            assert engine._handles[1].pid is not None

            engine.drop_connection(0)
            with pytest.raises(WorkerLost):
                double(0)
            assert listen.poll() is None        # not ours to kill
            pool.reset_worker(0)
            np.testing.assert_array_equal(double(0), POINTS * 2)

            pool.shutdown()
            assert pool.shutdown_errors == 0
            assert listen.wait(timeout=30.0) == 0
        finally:
            listen.kill()
            listen.wait()
            listen.stderr.close()
