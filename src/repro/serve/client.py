"""Synchronous client for the ``repro serve`` session service.

One :class:`ServiceClient` is one session: a blocking TCP connection
speaking the framed wire protocol, with the CALL/RESULT/BUSY messages
layered on top.  Commands are strictly request/reply: a launch's RESULT
comes back once the session runtime has executed and committed it.

A BUSY reply — the service's admission control rejecting the call — is
surfaced as :class:`ServiceBusy` so callers can back off and retry;
service-side command failures are re-raised as :class:`ServiceError`
carrying the remote one-line description.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Optional

from repro.exec import wire
from repro.exec.plan import dumps, loads

__all__ = ["ServiceClient", "ServiceBusy", "ServiceError"]


class ServiceError(Exception):
    """A command failed service-side; the message is the remote error."""


class ServiceBusy(Exception):
    """Admission control rejected the call; back off and retry."""


class ServiceClient:
    def __init__(self, host: str, port: int, token: str = "repro",
                 tenant: str = "default", timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._seq = itertools.count(1)
        wire.send_frame(
            self._sock, wire.HELLO, 0,
            wire.json_payload(token=token, tenant=tenant),
        )
        frame = wire.recv_frame(self._sock)
        if frame.msg == wire.REJECT:
            reason = wire.parse_json(frame.payload).get("reason", "?")
            self._sock.close()
            raise ServiceError(f"handshake rejected: {reason}")
        if frame.msg != wire.WELCOME:
            self._sock.close()
            raise wire.WireError(
                f"expected WELCOME, got {wire.MSG_NAMES.get(frame.msg)}"
            )
        self.session = wire.parse_json(frame.payload).get("session")

    # ----------------------------------------------------------- transport
    def call(self, command: str, **payload) -> Any:
        seq = next(self._seq)
        wire.send_frame(
            self._sock, wire.CALL, seq, dumps((command, payload))
        )
        while True:
            frame = wire.recv_frame(self._sock)
            if frame.seq != seq:
                continue  # stale reply from an abandoned retry
            if frame.msg == wire.BUSY:
                raise ServiceBusy(command)
            if frame.msg != wire.RESULT:
                raise wire.WireError(
                    f"expected RESULT, got {wire.MSG_NAMES.get(frame.msg)}"
                )
            status, value = loads(frame.payload)
            if status == "error":
                raise ServiceError(value)
            return value

    def close(self) -> None:
        try:
            wire.send_frame(self._sock, wire.SHUTDOWN, 0)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ---------------------------------------------------------- convenience
    def define_task(self, task) -> int:
        return self.call("define_task", blob=dumps(task))

    def create_region(self, name, shape, fields) -> int:
        return self.call(
            "create_region", name=name, shape=shape, fields=fields
        )

    def equal_partition(self, name, region: int, n: int) -> int:
        return self.call(
            "equal_partition", name=name, region=region, n=n
        )

    def write_field(self, region: int, fname: str, values) -> None:
        self.call("write_field", region=region, fname=fname, values=values)

    def read_field(self, region: int, fname: str):
        return self.call("read_field", region=region, fname=fname)

    def index_launch(self, task: int, domain: int, partition: int,
                     functor=None, args=(), reduce: Optional[str] = None):
        return self.call(
            "index_launch", task=task, domain=domain, partition=partition,
            functor=functor, args=args, reduce=reduce,
        )

    def begin_trace(self, trace_id: int) -> None:
        self.call("begin_trace", trace_id=trace_id)

    def end_trace(self, trace_id: int) -> None:
        self.call("end_trace", trace_id=trace_id)

    def drain(self) -> None:
        self.call("drain")

    def stats(self) -> dict:
        return self.call("stats")
