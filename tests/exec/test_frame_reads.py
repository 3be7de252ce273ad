"""Frame reads cost their bytes, not a fixed megabyte.

A read that returns a fresh ``bytes`` object allocates its whole request
and then shrinks it, so the size a framed-stream reader asks for is paid
on every frame, however small.  These tests hold each reader to what its
frames need:

* an allocation guard: over small-frame round trips the traced peak
  stays under 128 KiB at the worker's serve loop, at the parent's
  selector engine and at the service's front door (a megabyte per read,
  or the asyncio transport's 256 KiB default, fails it);
* large frames: a 5 MiB payload, split at arbitrary points, decodes
  byte-identical through the engine over a pipe and over TCP and through
  the blocking ``recv_frame``, round-trips through both real transports,
  and the decoder copies a payload once:
  its traced peak stays under 1.5x the payload (the exact-size buffer of
  a payload longer than a chunk is an anonymous mapping the tracer does
  not see, so what it sees is the ``bytes`` the frame carries, and any
  second copy crosses the bound);
* a header alone fills no memory: the length it names is committed as
  bytes arrive, as it was when the decoder grew with them.
"""

import fcntl
import os
import socket
import sys
import termios
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import wire
from repro.exec.plan import dumps, loads
from repro.exec.transport import TRANSPORTS, PipeTransport, Transport
from repro.exec.worker import serve
from repro.serve.client import ServiceClient
from tests.serve.conftest import running_service

ROUND_TRIPS = 50
PEAK_LIMIT = 128 * 1024
LARGE = 5 << 20


class Doubler:
    def apply_batch(self, points):
        return points * 2


class Echo:
    def apply_batch(self, points):
        return points


POINTS = np.arange(8, dtype=np.int64)
DOUBLED = (POINTS * 2).tobytes()


def traced_peak(fn):
    """Bytes ``fn`` had traced at its peak, from a standing start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_exactly(fd, n):
    """Blocking exact-size read: the test's own side of a stream asks for
    no more than it needs, so only the reader under test is measured."""
    out = b""
    while len(out) < n:
        chunk = os.read(fd, n - len(out))
        assert chunk, "stream closed mid-frame"
        out += chunk
    return out


def read_reply(fd):
    header = read_exactly(fd, wire._HEADER.size)
    _, _, msg, seq, length = wire._HEADER.unpack(header)
    return msg, seq, read_exactly(fd, length)


# ------------------------------------------------------- allocation guard
class TestSmallFrameReads:
    def test_worker_serve_loop(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        blob = dumps(Doubler())

        def round_trips():
            thread = threading.Thread(target=serve, args=(req_r, rep_w))
            thread.start()
            for seq in range(1, ROUND_TRIPS + 1):
                os.write(req_w, wire.pack_frame(
                    wire.BATCH, seq, dumps((blob, POINTS))
                ))
                msg, got, payload = read_reply(rep_r)
                assert (msg, got) == (wire.RESULT, seq)
                assert loads(payload).tobytes() == DOUBLED
            os.write(req_w, wire.pack_frame(wire.SHUTDOWN, 0))
            thread.join(timeout=10)
            assert not thread.is_alive()

        try:
            peak = traced_peak(round_trips)
        finally:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
        assert peak < PEAK_LIMIT, peak

    def test_pipe_transport_parent(self):
        engine = PipeTransport(1)
        blob = dumps(Doubler())
        try:
            engine._handle(0)   # forked before tracing starts

            def round_trips():
                for _ in range(ROUND_TRIPS):
                    out = engine.submit_batch(0, blob, POINTS).result(10)
                    assert loads(out).tobytes() == DOUBLED

            peak = traced_peak(round_trips)
        finally:
            assert engine.shutdown() == []
        assert peak < PEAK_LIMIT, peak

    def test_service_front_door(self):
        with running_service(workers=1) as (svc, _loop):
            with ServiceClient("127.0.0.1", svc.port) as cli:
                cli.stats()     # the session's runtime is built

                def round_trips():
                    for _ in range(ROUND_TRIPS):
                        assert cli.stats()["tenant"] == "default"

                peak = traced_peak(round_trips)
        assert peak < PEAK_LIMIT, peak


# ----------------------------------------------------------- large frames
PAYLOAD = np.random.default_rng(47).bytes(LARGE)


class _Peer(Transport):
    """The engine over one stream whose far end the test writes itself:
    a pipe pair, or a loopback TCP connection like a socket worker's."""

    def __init__(self, kind):
        super().__init__(1)
        self.kind = kind
        self.peer = None

    def _spawn(self, k):
        if self.kind == "pipe":
            rfd, peer_w = os.pipe()
            peer_r, wfd = os.pipe()
            self.peer = (peer_r, peer_w)
            return None, rfd, wfd
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            far = socket.create_connection(listener.getsockname())
            conn, _ = listener.accept()
        far.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        fd = far.detach()
        self.peer = (fd, fd)
        wfd = os.dup(conn.fileno())
        return None, conn.detach(), wfd

    def close_peer(self):
        for fd in set(self.peer or ()):
            os.close(fd)


def _cuts(total):
    """Split points in ``[1, total)``, biased toward the header."""
    return st.lists(
        st.one_of(st.integers(1, 64), st.integers(1, total - 1)),
        max_size=10, unique=True,
    ).map(sorted)


RESULT_FRAME = wire.pack_frame(wire.RESULT, 1, PAYLOAD)


def _write_in_pieces(fd, read_fd, data, cuts):
    """Write ``data`` split at ``cuts``; before each next piece, wait
    until the reader has taken everything queued, so its reads see the
    pieces apart."""
    view = memoryview(data)
    bounds = [0] + cuts + [len(data)]
    for lo, hi in zip(bounds, bounds[1:]):
        piece = view[lo:hi]
        while piece:
            piece = piece[os.write(fd, piece):]
        deadline = time.monotonic() + 10
        while _queued(read_fd) and time.monotonic() < deadline:
            time.sleep(0.0002)


def _queued(fd):
    buf = bytearray(4)
    fcntl.ioctl(fd, termios.FIONREAD, buf)
    return int.from_bytes(buf, sys.byteorder)


@pytest.mark.parametrize("kind", ["pipe", "socket"])
class TestLargeFrames:
    @settings(max_examples=6)
    @given(cuts=_cuts(len(RESULT_FRAME)))
    def test_split_payload_decodes_identically(self, kind, cuts):
        engine = _Peer(kind)
        try:
            future = engine.submit_batch(0, b"", POINTS)
            worker = engine._handles[0]
            writer = threading.Thread(
                target=_write_in_pieces,
                args=(engine.peer[1], worker.rfd, RESULT_FRAME, cuts),
            )
            writer.start()
            try:
                assert future.result(timeout=30) == PAYLOAD
            finally:
                writer.join(timeout=30)
            assert not writer.is_alive()
        finally:
            engine.shutdown()
            engine.close_peer()

    def test_real_transport_round_trip(self, kind):
        """5 MiB each way: the worker's serve loop reads the large BATCH
        frame, the parent's engine the large RESULT frame."""
        engine = TRANSPORTS[kind](1)
        points = np.frombuffer(PAYLOAD, dtype=np.uint8)
        try:
            out = engine.submit_batch(0, dumps(Echo()), points).result(60)
        finally:
            assert engine.shutdown() == []
        assert loads(out).tobytes() == PAYLOAD


PIECE = 1 << 16


def test_decoder_copies_a_large_payload_once():
    raw = memoryview(wire.pack_frame(wire.RESULT, 3, PAYLOAD))
    frames = []

    def decode():
        decoder = wire.FrameDecoder()
        for lo in range(0, len(raw), PIECE):
            decoder.feed(raw[lo:lo + PIECE])
            frame = decoder.next()
            if frame is not None:
                frames.append(frame)

    peak = traced_peak(decode)
    assert [f.seq for f in frames] == [3]
    assert frames[0].payload == PAYLOAD
    assert type(frames[0].payload) is bytes
    assert peak < 1.5 * LARGE, peak / LARGE


def _rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def test_a_header_alone_fills_no_memory():
    decoder = wire.FrameDecoder()
    header = wire._HEADER.pack(
        wire.MAGIC, wire.PROTOCOL_VERSION, wire.RESULT, 1, 256 << 20
    )
    before = _rss()
    decoder.feed(header + bytes(1024))
    assert decoder.next() is None
    assert _rss() - before < 16 << 20


def test_recv_frame_reads_a_large_payload():
    """The blocking reader (client replies, the socket handshake) fills
    one exact-size buffer with ``recv_into``."""
    a, b = socket.socketpair()
    with a, b:
        writer = threading.Thread(target=a.sendall, args=(RESULT_FRAME,))
        writer.start()
        frame = wire.recv_frame(b)
        writer.join(timeout=30)
        assert not writer.is_alive()
    assert frame.seq == 1
    assert type(frame.payload) is bytes and frame.payload == PAYLOAD
