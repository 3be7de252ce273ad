"""Framed wire protocol: what travels on a worker's two fds.

Every worker — a forked child on a pipe pair, a standalone process on a
loopback socket — and every ``repro serve`` session speaks these frames.
Worker-cache deltas (task blobs, region skeletons, partition colors,
sparse subsets) need no messages of their own: they ride inside the
pickled ``ShardPlan`` a SHARD frame carries, and the worker
installs them before running the plan, so a worker on another machine —
loopback stands in for a cluster node here — holds exactly the
persistent state the parent's ``_WorkerCaches`` bookkeeping believes it
does.

Frame layout (big-endian, ``_HEADER.size`` bytes then the payload)::

    magic   4s   b"RPRO"
    version B    PROTOCOL_VERSION of the sender
    msg     B    message type (below)
    seq     I    correlation id; replies echo the request's seq
    length  Q    payload byte count

Message types:

==========  =======================================================
HELLO       worker -> parent: JSON ``{worker, token, pid, version}``
WELCOME     parent -> worker: handshake accepted
REJECT      parent -> worker: JSON ``{reason}``; the worker exits
SHARD       parent -> worker: pickled ``ShardPlan`` (a unit), deltas included
BATCH       parent -> worker: pickled ``(functor_blob, points)``; the
            RESULT is the pickled array, or ``None`` if the functor raised.
            Sent only by the benchmark's idle round-trip probe and the
            transport-contract tests
RESULT      worker -> parent: raw result bytes for ``seq``
SHUTDOWN    parent -> worker: drain and exit cleanly
CALL        client -> service: pickled ``(command, payload)`` session
            request; the service answers RESULT (or BUSY) echoing seq
BUSY        service -> client: admission control rejected ``seq``; the
            session queue is full, retry after draining replies
==========  =======================================================

Every frame carries the protocol version; :func:`recv_frame` refuses a
mismatched frame with :class:`VersionMismatch` *except* during the
handshake, where the parent inspects the HELLO's version explicitly so it
can answer with a descriptive REJECT instead of slamming the connection.

The framing layer never interprets payloads, so corruption injected by
the fault layer (a garbled result blob) travels through untouched and is
discovered by the parent's unpickle — the same place a truncated TCP
stream would surface on a real cluster.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import NamedTuple

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "HELLO",
    "WELCOME",
    "REJECT",
    "SHARD",
    "BATCH",
    "RESULT",
    "SHUTDOWN",
    "CALL",
    "BUSY",
    "MSG_NAMES",
    "Frame",
    "FrameDecoder",
    "WireError",
    "VersionMismatch",
    "pack_frame",
    "send_frame",
    "recv_frame",
    "json_payload",
    "parse_json",
]

MAGIC = b"RPRO"
#: Bump on any incompatible change to framing or message payloads; the
#: handshake rejects a peer built against a different version.
#: v2 added the SHARDS batched-submit message.
#: v3 added the service messages: CALL (client command) and BUSY
#: (admission-control backpressure, echoes the rejected seq).
#: v4 changed the ShardPlan/ShardResult payloads (box footprints).
#: v5 removed REGIONS/PARTITIONS/TASK (deltas ride in the plan) and
#: renumbered the messages after them.
#: v6 dropped the analyzer snapshot from ShardPlan and the dependence/op
#: records from TaskResult (physical analysis is the parent's alone).
#: v7: a plan is one unit (a worker's slice of a launch); one ShardResult
#: per unit replaced the per-point TaskResults.
#: v8 removed the SHARDS batch (a worker carries one unit per launch, one
#: SHARD frame) and renumbered CALL and BUSY.
PROTOCOL_VERSION = 8

(
    HELLO,
    WELCOME,
    REJECT,
    SHARD,
    BATCH,
    RESULT,
    SHUTDOWN,
    CALL,
    BUSY,
) = range(1, 10)

MSG_NAMES = {
    HELLO: "HELLO",
    WELCOME: "WELCOME",
    REJECT: "REJECT",
    SHARD: "SHARD",
    BATCH: "BATCH",
    RESULT: "RESULT",
    SHUTDOWN: "SHUTDOWN",
    CALL: "CALL",
    BUSY: "BUSY",
}

_HEADER = struct.Struct(">4sBBIQ")

#: Refuse absurd frame lengths outright: a desynchronized stream read as a
#: header must not turn into a multi-gigabyte allocation.
MAX_PAYLOAD = 1 << 32


class WireError(ConnectionError):
    """Protocol violation: bad magic, oversized frame, unknown message."""


class VersionMismatch(WireError):
    """The peer speaks a different PROTOCOL_VERSION."""


class Frame(NamedTuple):
    version: int
    msg: int
    seq: int
    payload: bytes


def pack_frame(
    msg: int, seq: int, payload: bytes = b"",
    version: int = PROTOCOL_VERSION,
) -> bytes:
    if msg not in MSG_NAMES:
        raise ValueError(f"unknown message type {msg}")
    return _HEADER.pack(MAGIC, version, msg, seq, len(payload)) + payload


def send_frame(
    sock: socket.socket, msg: int, seq: int, payload: bytes = b"",
    version: int = PROTOCOL_VERSION,
) -> None:
    sock.sendall(pack_frame(msg, seq, payload, version=version))


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    parts = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts) if len(parts) != 1 else parts[0]


def recv_frame(sock: socket.socket, check_version: bool = True) -> Frame:
    """Read one complete frame, surviving partial recvs.

    ``check_version=False`` returns mismatched-version frames instead of
    raising, so the handshake can answer them with a REJECT.
    """
    header = _recv_exactly(sock, _HEADER.size)
    magic, version, msg, seq, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if msg not in MSG_NAMES:
        raise WireError(f"unknown message type {msg}")
    if length > MAX_PAYLOAD:
        raise WireError(f"frame length {length} exceeds limit")
    if check_version and version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"peer protocol version {version}, ours {PROTOCOL_VERSION}"
        )
    payload = _recv_exactly(sock, length) if length else b""
    return Frame(version, msg, seq, payload)


class FrameDecoder:
    """Incremental frame reassembly for non-blocking byte streams.

    The transport engine reads whatever ``os.read`` hands it — arbitrary
    byte runs with no message alignment — so frames are reassembled
    statefully: :meth:`feed` appends raw bytes, :meth:`next` yields one
    complete :class:`Frame` (or ``None`` until enough bytes arrive).
    Validation matches :func:`recv_frame`: bad magic, unknown message,
    or an absurd length poison the stream with :class:`WireError`; a
    mismatched version raises :class:`VersionMismatch` unless
    ``check_version=False``.
    """

    __slots__ = ("_buf", "_header", "_check_version")

    def __init__(self, check_version: bool = True):
        self._buf = bytearray()
        self._header = None
        self._check_version = check_version

    def feed(self, data: bytes) -> None:
        self._buf += data

    def next(self):
        buf = self._buf
        if self._header is None:
            if len(buf) < _HEADER.size:
                return None
            magic, version, msg, seq, length = _HEADER.unpack_from(buf)
            if magic != MAGIC:
                raise WireError(f"bad frame magic {bytes(magic)!r}")
            if msg not in MSG_NAMES:
                raise WireError(f"unknown message type {msg}")
            if length > MAX_PAYLOAD:
                raise WireError(f"frame length {length} exceeds limit")
            if self._check_version and version != PROTOCOL_VERSION:
                raise VersionMismatch(
                    f"peer protocol version {version}, ours {PROTOCOL_VERSION}"
                )
            del buf[:_HEADER.size]
            self._header = (version, msg, seq, length)
        version, msg, seq, length = self._header
        if len(buf) < length:
            return None
        payload = bytes(buf[:length])
        del buf[:length]
        self._header = None
        return Frame(version, msg, seq, payload)


def json_payload(**fields) -> bytes:
    """Handshake payloads are JSON: human-debuggable and pickle-free."""
    return json.dumps(fields, sort_keys=True).encode("utf-8")


def parse_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"bad handshake payload: {exc}") from None
    if not isinstance(obj, dict):
        raise WireError("handshake payload must be a JSON object")
    return obj
