"""Standalone socket-connected worker: ``python -m repro.exec.socket_worker``.

The ``socket`` spawn strategy's worker: one process per pool slot,
connected to the parent over a loopback TCP stream (standing in for a
cluster interconnect).  This module is only the edge — argument
parsing, dial or ``--listen``, and the HELLO/WELCOME handshake; once
admitted, the connection's fd is handed to the same
:func:`repro.exec.worker.serve` loop a forked pipe worker runs.  Unlike
a forked worker it inherits *nothing*: the parent ships its ``sys.path``
via ``PYTHONPATH`` so by-reference pickles (task functions defined in
importable modules) resolve, and every piece of cached state arrives as
a delta inside the unit plans.

Exit codes: 0 on SHUTDOWN or clean EOF, 3 on a failed handshake, 4 on a
malformed invocation.  Injected ``kill`` faults still hard-exit with 13
inside :func:`repro.exec.worker.run_shard_bytes`, exactly like a pipe
worker — the parent reads EOF and raises ``WorkerLost``.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
from typing import Optional

from repro.exec import wire

__all__ = ["main"]


def _handshake(sock: socket.socket, worker: int, token: str) -> bool:
    wire.send_frame(
        sock,
        wire.HELLO,
        0,
        wire.json_payload(
            worker=worker,
            token=token,
            pid=os.getpid(),
            version=wire.PROTOCOL_VERSION,
        ),
    )
    try:
        frame = wire.recv_frame(sock, check_version=False)
    except (wire.WireError, ConnectionError):
        return False
    if frame.version != wire.PROTOCOL_VERSION or frame.msg != wire.WELCOME:
        # REJECT (token/version mismatch) or an alien peer: report why on
        # stderr — the parent may already have hung up — and bail.
        reason = ""
        if frame.msg == wire.REJECT:
            try:
                reason = wire.parse_json(frame.payload).get("reason", "")
            except wire.WireError:
                pass
        print(
            f"repro socket worker {worker}: handshake refused"
            f"{': ' + reason if reason else ''}",
            file=sys.stderr,
        )
        return False
    return True


def _serve_listener(host: str, port: int, worker: int, token: str) -> int:
    """``--listen`` mode: a pre-started worker the parent dials into.

    Binds once, then loops accept → handshake → serve: a parent that
    discards this worker (tier-2 respawn) just reconnects, and the
    persistent caches are wiped between connections so every parent
    incarnation starts from the clean delta-shipping state its
    bookkeeping assumes.  A SHUTDOWN frame ends the process.
    """
    from repro.exec import worker as w

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
        except OSError as exc:
            print(
                f"repro socket worker {worker}: cannot bind "
                f"{host}:{port}: {exc}",
                file=sys.stderr,
            )
            return 4
        listener.listen(1)
        print(
            f"repro socket worker {worker}: listening on "
            f"{host}:{listener.getsockname()[1]}",
            file=sys.stderr,
        )
        while True:
            conn, _ = listener.accept()
            try:
                conn.settimeout(None)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                w.reset_state()
                if not _handshake(conn, worker, token):
                    continue  # refused parent; await the next one
                if w.serve(conn.fileno(), conn.fileno()):
                    return 0
            finally:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - dead socket
                    pass
    finally:
        try:
            listener.close()
        except OSError:  # pragma: no cover - dead listener
            pass


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.exec.socket_worker")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument(
        "--listen", action="store_true",
        help="bind and await the parent instead of dialing it "
             "(pre-started remote worker; see REPRO_SOCKET_HOSTS)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 4
    token = os.environ.get("REPRO_SOCKET_TOKEN", "")
    if args.listen:
        return _serve_listener(args.host, args.port, args.worker, token)
    try:
        sock = socket.create_connection((args.host, args.port), timeout=30)
    except OSError as exc:
        print(
            f"repro socket worker {args.worker}: cannot reach parent: {exc}",
            file=sys.stderr,
        )
        return 3
    try:
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if not _handshake(sock, args.worker, token):
            return 3
        # Imported only now, so a refused worker never pays for numpy.
        from repro.exec.worker import serve

        serve(sock.fileno(), sock.fileno())
        return 0
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - close on a dead socket
            pass


if __name__ == "__main__":
    raise SystemExit(main())
