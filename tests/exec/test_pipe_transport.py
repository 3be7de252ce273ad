"""The ``pipe`` spawn strategy's own cases.

Everything a transport owes the engine — byte-identity with serial,
the fault ladder, the failure contract, no leaks — is asserted for both
strategies in ``test_transports.py``.  What is left here is what only
pipes have: the incremental :class:`~repro.exec.wire.FrameDecoder` that
reassembles whatever a read hands the engine (byte-at-a-time,
back-to-back frames in one read, the same rejection rules as
``recv_frame``), and the fork-time discipline that lets a worker read
EOF although a sibling was forked while the parent's end was open.
"""

import os

import pytest

from repro.exec import wire
from repro.exec.transport import PipeTransport


# ---------------------------------------------------------- frame decoder
class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        """A read hands back arbitrary byte runs; the decoder must
        reassemble a frame trickled one byte at a time."""
        raw = wire.pack_frame(wire.RESULT, 9, b"y" * 123)
        dec = wire.FrameDecoder()
        for i in range(len(raw) - 1):
            dec.feed(raw[i:i + 1])
            assert dec.next() is None
        dec.feed(raw[-1:])
        frame = dec.next()
        assert frame.msg == wire.RESULT
        assert frame.seq == 9
        assert frame.payload == b"y" * 123
        assert dec.next() is None

    def test_multiple_frames_in_one_feed(self):
        raw = (wire.pack_frame(wire.RESULT, 1, b"a")
               + wire.pack_frame(wire.RESULT, 2, b"bb")
               + wire.pack_frame(wire.SHUTDOWN, 0))
        dec = wire.FrameDecoder()
        dec.feed(raw)
        assert [dec.next().seq for _ in range(3)] == [1, 2, 0]
        assert dec.next() is None

    def test_empty_payload_frame(self):
        dec = wire.FrameDecoder()
        dec.feed(wire.pack_frame(wire.SHUTDOWN, 0))
        frame = dec.next()
        assert frame.msg == wire.SHUTDOWN and frame.payload == b""

    def test_bad_magic_poisons_stream(self):
        raw = bytearray(wire.pack_frame(wire.SHARD, 0, b""))
        raw[:4] = b"EVIL"
        dec = wire.FrameDecoder()
        dec.feed(bytes(raw))
        with pytest.raises(wire.WireError):
            dec.next()

    def test_version_mismatch_rejected(self):
        raw = wire.pack_frame(
            wire.SHARD, 0, b"", version=wire.PROTOCOL_VERSION + 1
        )
        dec = wire.FrameDecoder()
        dec.feed(raw)
        with pytest.raises(wire.VersionMismatch):
            dec.next()

    def test_check_version_false_passes_mismatch(self):
        raw = wire.pack_frame(
            wire.HELLO, 0, b"", version=wire.PROTOCOL_VERSION + 1
        )
        dec = wire.FrameDecoder(check_version=False)
        dec.feed(raw)
        assert dec.next().version == wire.PROTOCOL_VERSION + 1

    def test_oversized_length_rejected(self):
        header = wire._HEADER.pack(
            wire.MAGIC, wire.PROTOCOL_VERSION, wire.SHARD, 0,
            wire.MAX_PAYLOAD + 1,
        )
        dec = wire.FrameDecoder()
        dec.feed(header)
        with pytest.raises(wire.WireError):
            dec.next()


class TestSiblingFds:
    def test_worker_reads_eof_despite_later_sibling(self):
        """Worker 1 is forked while the parent's ends of worker 0's pipes
        are open, so it inherits copies.  Unless it closes them, worker 0
        never reads EOF when the parent lets go — a discarded worker
        would linger until killed."""
        engine = PipeTransport(2)
        try:
            w0 = engine._handle(0)
            engine._handle(1)
            engine._handles[0] = None
            engine._selector.unregister(w0.rfd)
            os.close(w0.wfd)
            # Nobody signals worker 0: it exits because its read hit EOF.
            assert engine._reap(w0.pid, timeout=10.0)
            os.close(w0.rfd)
        finally:
            assert engine.shutdown() == []
