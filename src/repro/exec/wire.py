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
import mmap
import os
import socket
import struct
from collections import deque
from typing import NamedTuple, Optional

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
    "READ_CHUNK",
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

#: The most a framed-stream read asks for outside a payload it already
#: knows the size of: a pipe's capacity (see :class:`FrameDecoder`).
READ_CHUNK = 1 << 16


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


def _exact_buffer(n: int) -> memoryview:
    """A writable buffer for ``n`` bytes still to arrive.  Above a chunk
    it is an anonymous mapping, which the kernel commits page by page as
    bytes land: a header alone, whatever length it names, fills no
    memory."""
    return memoryview(mmap.mmap(-1, n) if n > READ_CHUNK else bytearray(n))


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    view = _exact_buffer(n)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise ConnectionError("connection closed mid-frame")
        got += k
    return bytes(view)


def _unpack_header(buf, pos: int, check_version: bool):
    """``(version, msg, seq, length)`` of the header at ``buf[pos:]``, or
    the :class:`WireError` that poisons the stream."""
    magic, version, msg, seq, length = _HEADER.unpack_from(buf, pos)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {bytes(magic)!r}")
    if msg not in MSG_NAMES:
        raise WireError(f"unknown message type {msg}")
    if length > MAX_PAYLOAD:
        raise WireError(f"frame length {length} exceeds limit")
    if check_version and version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"peer protocol version {version}, ours {PROTOCOL_VERSION}"
        )
    return version, msg, seq, length


def recv_frame(sock: socket.socket, check_version: bool = True) -> Frame:
    """Read one complete frame, surviving partial recvs.

    ``check_version=False`` returns mismatched-version frames instead of
    raising, so the handshake can answer them with a REJECT.
    """
    version, msg, seq, length = _unpack_header(
        _recv_exactly(sock, _HEADER.size), 0, check_version
    )
    payload = _recv_exactly(sock, length) if length else b""
    return Frame(version, msg, seq, payload)


class FrameDecoder:
    """Incremental frame reassembly for byte streams, and the one way a
    framed fd is read.

    Frames are reassembled statefully from arbitrary byte runs with no
    message alignment: :meth:`feed` takes bytes already read (the
    service's asyncio stream), :meth:`read` reads an fd itself, and
    :meth:`next` yields one complete :class:`Frame` (or ``None`` until
    enough bytes arrive).  Frames are cut as bytes arrive, so an
    invalid header is found then, but raised only once :meth:`next` has
    handed out every frame before it.  Validation matches
    :func:`recv_frame`: bad magic, unknown message, or an absurd length
    poison the stream with :class:`WireError`; a mismatched version
    raises :class:`VersionMismatch` unless ``check_version=False``.

    Reads cost their bytes.  A read that returns a new ``bytes`` object
    allocates its whole request before shrinking it, and a megabyte
    request costs 20x a small one (``os.read`` 10.5-12.5 vs about 0.5 us
    for a 700-byte frame), so bytes go into storage that already exists: a
    reused :data:`READ_CHUNK` buffer (a pipe's capacity) holds headers
    and frames that arrive whole, and once a header names a payload
    longer than what is buffered, that payload is allocated once, at its
    exact size, and the rest of it is read straight into it.  A payload
    is copied once, into the ``bytes`` the frame carries.  One longer
    than a chunk is allocated as an anonymous mapping, whose pages are
    committed only as bytes arrive, so a peer's header cannot make the
    decoder fill memory its bytes never reach.
    """

    __slots__ = (
        "_view", "_held", "_header", "_payload", "_filled",
        "_frames", "_error", "_check_version",
    )

    def __init__(self, check_version: bool = True):
        self._view = memoryview(bytearray(READ_CHUNK))
        self._held = 0          # bytes at the front of _view: a partial header
        self._header = None     # (version, msg, seq) of the payload filling
        self._payload = None    # memoryview of that payload's own buffer
        self._filled = 0
        self._frames: deque = deque()
        self._error: Optional[WireError] = None
        self._check_version = check_version

    def feed(self, data) -> None:
        """Take bytes some other reader already has."""
        data = memoryview(data)
        while data and self._error is None:
            space = self._space()[0]
            n = min(len(space), len(data))
            space[:n] = data[:n]
            data = data[n:]
            self._advance(n)

    def read(self, fd: int) -> int:
        """One read of ``fd`` into the decoder's own storage; the byte
        count, 0 at EOF.  A non-blocking fd with nothing queued raises
        :class:`BlockingIOError`."""
        n = os.readv(fd, self._space())
        self._advance(n)
        return n

    def read_until_blocked(self, fd: int) -> bool:
        """Read a non-blocking ``fd`` until it has nothing more queued;
        ``False`` once it reached EOF.  Whatever a socket has queued is
        read in this one call, however large, not one chunk per selector
        pass.  A read that comes back short has emptied the fd, so the
        loop stops there rather than paying for the read that would fail
        with ``EAGAIN``."""
        try:
            while True:
                want = sum(len(space) for space in self._space())
                n = self.read(fd)
                if not n:
                    return False
                if n < want:
                    return True
        except BlockingIOError:
            return True

    def next(self):
        """The oldest complete frame not yet handed out, or ``None``."""
        if self._frames:
            return self._frames.popleft()
        if self._error is not None:
            raise self._error
        return None

    # ------------------------------------------------------------ internals
    def _space(self):
        """Where the next bytes belong: the rest of a pending payload,
        then the free tail of the chunk buffer."""
        tail = self._view[self._held:]
        if self._payload is None:
            return (tail,)
        return (self._payload[self._filled:], tail)

    def _advance(self, n: int) -> None:
        """``n`` bytes have landed in :meth:`_space`, in order."""
        if self._error is not None:
            return              # a poisoned stream is never cut again
        payload = self._payload
        if payload is not None:
            take = min(n, len(payload) - self._filled)
            self._filled += take
            if self._filled < len(payload):
                return
            n -= take
            self._frames.append(Frame(*self._header, bytes(payload)))
            self._payload = self._header = None
        self._held += n
        self._cut()

    def _cut(self) -> None:
        """Cut every complete frame out of the chunk buffer; a payload
        that runs past it moves into its own exact-size buffer."""
        view, end, pos = self._view, self._held, 0
        while end - pos >= _HEADER.size:
            try:
                version, msg, seq, length = _unpack_header(
                    view, pos, self._check_version
                )
            except WireError as exc:
                self._error = exc
                self._held = 0
                return
            pos += _HEADER.size
            if end - pos >= length:
                self._frames.append(
                    Frame(version, msg, seq, bytes(view[pos:pos + length]))
                )
                pos += length
                continue
            payload = _exact_buffer(length)
            payload[:end - pos] = view[pos:end]
            self._payload, self._filled = payload, end - pos
            self._header = (version, msg, seq)
            pos = end
        rest = end - pos
        if rest and pos:
            # A partial header, shorter than the frame before it: the
            # two ranges never overlap.
            view[:rest] = view[pos:end]
        self._held = rest


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
