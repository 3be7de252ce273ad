"""The worker transport beneath :class:`~repro.exec.pool.WorkerPool`:
one framed-stream engine, two ways to spawn what it talks to.

A spawned worker is a read fd, a write fd and (when the parent owns the
process) a pid to kill and reap.  Both fds carry :mod:`repro.exec.wire`
frames; the worker on the other end runs the one serve loop in
:mod:`repro.exec.worker`.  :class:`Transport` is the engine: all
parent-side I/O is non-blocking, submits append to a per-worker write
backlog and flush opportunistically, and one ``selectors`` loop — run
inline from ``future.result()`` on the caller's own thread, no helper
thread anywhere — drains every worker's RESULT frames and finishes
stalled writes; completion order is decided by that single loop, not by
the host's thread scheduler.  A readable worker is read through its
:class:`~repro.exec.wire.FrameDecoder`, the one read rule every framed
stream follows: read into storage that already exists — a reused 64 KiB
buffer, or a large payload's own exact-size buffer — until the fd has
nothing more queued.  A read that returns fresh bytes allocates its
whole request first, and the megabyte this engine used to ask for cost
10.5-12.5 us per small frame against about 0.5 us for 64 KiB: the
largest single item of a worker round trip.

The pool keeps everything else — affinity, cache bookkeeping,
generations, the shm arena, failure metrics — so the recovery ladder in
``parallel._collect_unit`` sees one failure vocabulary, the three
exceptions defined here:

* :class:`WorkerLost` — the worker died, its stream hit EOF or a reset,
  a frame failed to parse, or it could not be spawned (accept timeout,
  refused handshake).  Raised at submit time or from a collected future;
  the ladder answers with a tier-2 respawn.
* :class:`ResultCancelled` — the worker was discarded with this future
  still pending (another unit's recovery reset it); the collect path's
  free same-worker retry.
* :class:`ResultTimeout` — ``future.result(timeout)`` ran out of time.

Two spawn strategies:

* :class:`PipeTransport` (``pipe``, the default) — ``os.fork`` plus an
  ``os.pipe`` pair per worker.  The child is this very interpreter (warm
  numpy and module state, protocol version guaranteed), so there is no
  handshake, and ``local_shm=True``: it attaches the parent's segments.
* :class:`SocketTransport` (``socket``) — standalone ``python -m
  repro.exec.socket_worker`` processes over loopback TCP, standing in
  for cluster nodes, admitted by the HELLO/WELCOME handshake.
  ``local_shm=False``: shm descriptors degrade to wire payloads because
  a remote node cannot map the parent's segments.
  ``REPRO_SOCKET_HOSTS=host:port,...`` assigns slots to *pre-started*
  remote workers (``socket_worker --listen``) that the parent dials
  instead of spawning — it then owns the connection, never the process.
"""

from __future__ import annotations

import os
import secrets
import select
import selectors
import signal
import socket
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.exec import wire
from repro.exec.plan import dumps

__all__ = [
    "Transport",
    "PipeTransport",
    "SocketTransport",
    "WorkerLost",
    "ResultCancelled",
    "ResultTimeout",
    "TRANSPORTS",
    "make_transport",
    "resolve_transport",
]

#: Seconds a freshly spawned socket worker gets to connect and say HELLO
#: (a cold python -m import of numpy + repro dominates this).
SPAWN_TIMEOUT_S = 60.0


class WorkerLost(Exception):
    """The worker process or its stream is gone (or never came up)."""


class ResultCancelled(Exception):
    """The worker was discarded while this result was still pending."""


class ResultTimeout(Exception):
    """``future.result(timeout)`` expired before the RESULT frame came."""


def resolve_transport(configured: Optional[str]) -> str:
    """Effective transport name: explicit config wins, else
    ``REPRO_TRANSPORT``, else ``pipe``."""
    name = configured
    if name is None:
        name = os.environ.get("REPRO_TRANSPORT", "").strip() or "pipe"
    name = str(name).lower()
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {name!r}; choose from {sorted(TRANSPORTS)}"
        )
    return name


def make_transport(name: str, n: int) -> "Transport":
    return TRANSPORTS[name](n)


_PENDING = "pending"
_CANCELLED = "cancelled"
_RESULT = "result"
_EXCEPTION = "exception"


class _PipeFuture:
    """A future settled by :class:`Transport`'s inline selector loop.

    There is no worker-side thread to wake us: ``result()`` *is* the
    event loop — it drives the owning transport's selector until this
    future settles, servicing every worker's reads and writes along the
    way.  ``result`` raises :class:`ResultCancelled` for a discarded
    worker, :class:`ResultTimeout` past the deadline, and whatever
    ``set_exception`` recorded (:class:`WorkerLost`) otherwise.
    """

    __slots__ = ("_transport", "_state", "_value")

    def __init__(self, transport: "Transport"):
        self._transport = transport
        self._state = _PENDING
        self._value = None

    def done(self) -> bool:
        return self._state is not _PENDING

    def cancelled(self) -> bool:
        return self._state is _CANCELLED

    def cancel(self) -> bool:
        if self._state is _PENDING:
            self._state = _CANCELLED
            return True
        return self._state is _CANCELLED

    def set_result(self, value) -> None:
        if self._state is _PENDING:
            self._state = _RESULT
            self._value = value

    def set_exception(self, exc: BaseException) -> None:
        if self._state is _PENDING:
            self._state = _EXCEPTION
            self._value = exc

    def result(self, timeout: Optional[float] = None):
        if self._state is _PENDING:
            self._transport._drive_until(self, timeout)
        if self._state is _CANCELLED:
            raise ResultCancelled()
        if self._state is _EXCEPTION:
            raise self._value
        return self._value


class _Worker:
    """Parent-side bookkeeping for one spawned worker.

    ``pid`` is ``None`` for a dialled remote worker: the parent owns the
    two fds, never the process."""

    __slots__ = (
        "k", "pid", "rfd", "wfd", "decoder", "pending", "seq",
        "backlog", "broken", "closing", "write_waiting",
    )

    def __init__(self, k: int, pid: Optional[int], rfd: int, wfd: int):
        self.k = k
        self.pid = pid
        self.rfd = rfd
        self.wfd = wfd
        self.decoder = wire.FrameDecoder()
        self.pending: Dict[int, _PipeFuture] = {}
        self.seq = 0
        self.backlog: deque = deque()   # outgoing memoryviews, oldest first
        self.broken = False
        self.closing = False
        self.write_waiting = False      # wfd registered for EVENT_WRITE


class Transport:
    """The selector engine over ``n`` worker slots; see the module
    docstring for the failure contract.  A subclass supplies
    :meth:`_spawn` and says whether its workers can map parent shm."""

    #: Whether workers share the parent's shared-memory segment namespace.
    #: False degrades every shm descriptor to a pickled wire payload.
    local_shm = True
    name = "abstract"

    def __init__(self, n: int):
        self.n = n
        #: Optional obs profiler, wired in by the pool; the dispatch loop
        #: counts its wakes (``dispatch.wake``) on it.
        self.profiler = None
        self._handles: List[Optional[_Worker]] = [None] * n
        self._selector = selectors.DefaultSelector()

    # ----------------------------------------------------------- spawning
    def _spawn(self, k: int) -> Tuple[Optional[int], int, int]:
        """Start (or dial) worker ``k``; returns ``(pid, rfd, wfd)`` with
        two *distinct* fds (the selector registers each once).  Raises
        :class:`WorkerLost`, leaving nothing behind, if it cannot."""
        raise NotImplementedError

    def _handle(self, k: int) -> _Worker:
        worker = self._handles[k]
        if worker is not None and (worker.broken or worker.closing):
            # Never respawn transparently: the parent's cache bookkeeping
            # still believes this worker holds shipped state.  Surfacing
            # WorkerLost routes the failure through the backend's ladder,
            # whose respawn (``pool.reset_worker``) discards the handle
            # *and* wipes beliefs + bumps the generation before anything
            # is resubmitted.
            raise WorkerLost(f"{self.name} worker {k} is down")
        if worker is None:
            pid, rfd, wfd = self._spawn(k)
            os.set_blocking(rfd, False)
            os.set_blocking(wfd, False)
            worker = _Worker(k, pid, rfd, wfd)
            self._selector.register(rfd, selectors.EVENT_READ, worker)
            self._handles[k] = worker
        return worker

    # ----------------------------------------------------------- dispatch
    def _register_future(self, worker: _Worker):
        worker.seq += 1
        future = _PipeFuture(self)
        worker.pending[worker.seq] = future
        return worker.seq, future

    def submit_shard(self, k: int, plan_blob: bytes) -> _PipeFuture:
        """Ship one plan to worker ``k``; future resolves to result bytes."""
        (future,) = self.submit_shards(k, [(plan_blob, None)])
        return future

    def submit_shards(self, k: int, items) -> List[_PipeFuture]:
        """Ship ``[(plan_blob, plan), ...]`` — from the backend, one unit —
        to worker ``k``, one SHARD frame per plan; one future per plan,
        each resolving to its result bytes."""
        worker = self._handle(k)
        futures: List[_PipeFuture] = []
        for plan_blob, _plan in items:
            seq, future = self._register_future(worker)
            futures.append(future)
            self._send(worker, wire.pack_frame(wire.SHARD, seq, plan_blob))
        return futures

    def submit_batch(self, k: int, functor_blob: bytes, points) -> _PipeFuture:
        """One ``apply_batch`` call on worker ``k``; the future resolves to
        the result bytes.  Only the benchmark's idle round-trip probe and
        the transport-contract tests use it: dynamic checks are evaluated
        in the parent."""
        worker = self._handle(k)
        seq, future = self._register_future(worker)
        self._send(
            worker,
            wire.pack_frame(wire.BATCH, seq, dumps((functor_blob, points))),
        )
        return future

    # ------------------------------------------------------------- writes
    def _send(self, worker: _Worker, data: bytes) -> None:
        worker.backlog.append(memoryview(data))
        self._flush(worker)
        if worker.broken:
            raise WorkerLost(f"{self.name} worker {worker.k} is gone")

    def _flush(self, worker: _Worker) -> None:
        backlog = worker.backlog
        while backlog:
            head = backlog[0]
            try:
                n = os.write(worker.wfd, head)
            except BlockingIOError:
                break
            except OSError:
                self._mark_broken(worker)
                return
            if n == len(head):
                backlog.popleft()
            else:
                backlog[0] = head[n:]
        self._update_write_interest(worker)

    def _update_write_interest(self, worker: _Worker) -> None:
        want = bool(worker.backlog)
        if want and not worker.write_waiting:
            self._selector.register(
                worker.wfd, selectors.EVENT_WRITE, worker
            )
            worker.write_waiting = True
        elif not want and worker.write_waiting:
            self._selector.unregister(worker.wfd)
            worker.write_waiting = False

    # -------------------------------------------------------- event loop
    def _drive(self, timeout: Optional[float]) -> bool:
        """One selector pass; True if any events were serviced."""
        events = self._selector.select(timeout)
        if not events:
            return False
        prof = self.profiler
        if prof is not None and prof.enabled:
            prof.count("dispatch.wake", 1.0, transport=self.name)
        for key, mask in events:
            worker = key.data
            if worker.broken or worker.closing:
                continue
            if mask & selectors.EVENT_WRITE:
                self._flush(worker)
            if mask & selectors.EVENT_READ:
                self._on_readable(worker)
        return True

    def _drive_until(
        self, future: _PipeFuture, timeout: Optional[float]
    ) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while future._state is _PENDING:
            if deadline is None:
                self._drive(None)
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ResultTimeout(
                    f"worker result not ready after {timeout}s"
                )
            self._drive(remaining)

    def _on_readable(self, worker: _Worker) -> None:
        decoder = worker.decoder
        try:
            alive = decoder.read_until_blocked(worker.rfd)
        except OSError:
            alive = False
        while True:
            try:
                frame = decoder.next()
            except wire.WireError:
                # Framing desync: the stream can never be trusted again —
                # same failure class as a severed connection.
                self._mark_broken(worker)
                return
            if frame is None:
                break
            if frame.msg != wire.RESULT:
                continue
            future = worker.pending.pop(frame.seq, None)
            if future is not None:
                future.set_result(frame.payload)
        if not alive:
            self._mark_broken(worker)

    # ------------------------------------------------------------ failure
    def _mark_broken(self, worker: _Worker) -> None:
        if worker.broken or worker.closing:
            return
        worker.broken = True
        self._unregister(worker)
        pending, worker.pending = worker.pending, {}
        for future in pending.values():
            future.set_exception(
                WorkerLost(f"{self.name} worker {worker.k} died")
            )
        worker.backlog.clear()
        self._close_fds(worker)
        self._kill_and_reap(worker.pid)

    def _unregister(self, worker: _Worker) -> None:
        try:
            self._selector.unregister(worker.rfd)
        except (KeyError, ValueError):
            pass
        if worker.write_waiting:
            try:
                self._selector.unregister(worker.wfd)
            except (KeyError, ValueError):
                pass
            worker.write_waiting = False

    @staticmethod
    def _close_fds(worker: _Worker) -> None:
        for fd in (worker.rfd, worker.wfd):
            try:
                os.close(fd)
            except OSError:
                pass

    @staticmethod
    def _kill(pid: Optional[int]) -> None:
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    @staticmethod
    def _reap(pid: Optional[int], timeout: float = 5.0) -> bool:
        """Wait for ``pid`` to exit; a worker we never owned (``None``)
        has nothing to wait for."""
        if pid is None:
            return True
        end = time.monotonic() + timeout
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return True
            if done:
                return True
            if time.monotonic() >= end:
                return False
            time.sleep(0.005)

    def _kill_and_reap(self, pid: Optional[int]) -> bool:
        """The one way a worker process is put down — a broken stream, a
        discard and a failed spawn all end here, so none leaves a zombie."""
        self._kill(pid)
        return self._reap(pid)

    # ---------------------------------------------------------- lifecycle
    def discard_worker(self, k: int) -> None:
        """Abandon worker ``k``: cancel its pending futures, drop the
        process.  The pool has already cleared caches and bumped the
        generation; a later submit spawns a fresh worker."""
        worker = self._handles[k]
        self._handles[k] = None
        if worker is not None:
            self._close_worker(worker, graceful=False)

    def drop_connection(self, k: int) -> None:
        """Lose worker ``k`` without settling anything — the
        fault-injection hook for "the network ate this node".  The next
        selector pass reads EOF and fails the pending futures with
        :class:`WorkerLost`, which the ladder recovers as a tier-2
        respawn."""
        worker = self._handles[k]
        if worker is None:
            return
        if worker.pid is not None:
            self._kill(worker.pid)
        else:
            # Not our process to kill: sever its stream instead.
            conn = socket.socket(fileno=os.dup(worker.rfd))
            try:
                conn.shutdown(socket.SHUT_RDWR)
            finally:
                conn.close()

    def _close_worker(
        self, worker: _Worker, graceful: bool
    ) -> List[BaseException]:
        errors: List[BaseException] = []
        was_broken = worker.broken
        worker.closing = True
        self._unregister(worker)
        pending, worker.pending = worker.pending, {}
        for future in pending.values():
            future.cancel()
        if graceful and not was_broken:
            try:
                tail = b"".join(bytes(m) for m in worker.backlog)
                self._write_deadline(
                    worker, tail + wire.pack_frame(wire.SHUTDOWN, 0)
                )
            except (OSError, TimeoutError) as exc:
                errors.append(exc)
        worker.backlog.clear()
        if not was_broken:
            self._close_fds(worker)
            exited = graceful and self._reap(worker.pid)
            if not exited and not self._kill_and_reap(worker.pid):
                errors.append(
                    TimeoutError(
                        f"{self.name} worker {worker.k} "
                        f"(pid {worker.pid}) did not exit"
                    )
                )
        return errors

    @staticmethod
    def _write_deadline(
        worker: _Worker, data: bytes, deadline_s: float = 2.0
    ) -> None:
        """Best-effort bounded write for the graceful-shutdown frame; the
        fd stays non-blocking so a wedged child cannot hang teardown."""
        view = memoryview(data)
        end = time.monotonic() + deadline_s
        while view:
            try:
                view = view[os.write(worker.wfd, view):]
            except BlockingIOError:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("worker shutdown write stalled")
                select.select([], [worker.wfd], [], remaining)

    def shutdown(self) -> List[BaseException]:
        """Tear everything down; returns the exceptions swallowed doing it
        (counted by the pool as ``shutdown_errors`` — never silent)."""
        errors: List[BaseException] = []
        for k in range(self.n):
            worker = self._handles[k]
            self._handles[k] = None
            if worker is not None:
                errors.extend(self._close_worker(worker, graceful=True))
        try:
            self._selector.close()
        except Exception as exc:  # pragma: no cover - selector close
            errors.append(exc)
        self._selector = selectors.DefaultSelector()
        return errors


# ---------------------------------------------------------------------- pipe
class PipeTransport(Transport):
    """Spawn strategy: fork this interpreter, wire it by two pipes."""

    local_shm = True
    name = "pipe"

    def _spawn(self, k: int) -> Tuple[int, int, int]:
        sys.stdout.flush()
        sys.stderr.flush()
        child_read, parent_write = os.pipe()
        parent_read, child_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: serve frames until SHUTDOWN or EOF, then _exit so no
            # parent atexit hook (pools, pytest, shm cleanup) ever runs
            # twice.  Closing the inherited parent-side ends of sibling
            # workers' pipes is what lets a sibling read EOF (and a late
            # writer get EPIPE) once the parent lets go of it.
            status = 0
            try:
                os.close(parent_write)
                os.close(parent_read)
                for sibling in self._handles:
                    if sibling is not None:
                        self._close_fds(sibling)
                from repro.exec.worker import serve

                serve(child_read, child_write)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        os.close(child_read)
        os.close(child_write)
        return pid, parent_read, parent_write


# -------------------------------------------------------------------- socket
class SocketTransport(Transport):
    """Spawn strategy: a standalone worker process over loopback TCP.

    Workers inherit no parent state: every cache delta travels inside
    the unit plans, and shm is off (``local_shm=False``) because a
    remote node could not map the parent's segments.
    """

    local_shm = False
    name = "socket"

    def __init__(self, n: int):
        super().__init__(n)
        self._hosts = self._parse_hosts(
            os.environ.get("REPRO_SOCKET_HOSTS", "")
        )
        if self._hosts:
            # Pre-started workers read REPRO_SOCKET_TOKEN from *their*
            # environment at launch, so both sides must agree on it out of
            # band; locally spawned fill-in workers inherit the same one.
            self._token = os.environ.get("REPRO_SOCKET_TOKEN", "")
        else:
            self._token = secrets.token_hex(16)

    @staticmethod
    def _parse_hosts(raw: str) -> List[tuple]:
        hosts = []
        for entry in raw.split(","):
            entry = entry.strip()
            if not entry:
                continue
            host, sep, port = entry.rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"REPRO_SOCKET_HOSTS entry {entry!r} is not host:port"
                )
            hosts.append((host, int(port)))
        return hosts

    def _spawn(self, k: int) -> Tuple[Optional[int], int, int]:
        pid = None
        try:
            if k < len(self._hosts):
                # A pre-started ``socket_worker --listen`` process: dial
                # it; it sends HELLO on accept, so the handshake below is
                # direction-agnostic.
                conn = socket.create_connection(
                    self._hosts[k], timeout=SPAWN_TIMEOUT_S
                )
            else:
                with socket.socket(
                    socket.AF_INET, socket.SOCK_STREAM
                ) as listener:
                    listener.bind(("127.0.0.1", 0))
                    listener.listen(1)
                    listener.settimeout(SPAWN_TIMEOUT_S)
                    pid = self._launch(k, listener.getsockname()[1])
                    conn, _ = listener.accept()
            with conn:
                self._verify_hello(conn, k)
                wfd = os.dup(conn.fileno())
                return pid, conn.detach(), wfd
        except OSError as exc:  # unreachable, accept timeout, WireError
            self._kill_and_reap(pid)
            raise WorkerLost(
                f"socket worker {k} could not be connected: {exc}"
            ) from exc

    def _launch(self, k: int, port: int) -> int:
        """Start a local ``socket_worker`` that dials ``port``."""
        env = dict(os.environ)
        # Ship the parent's import universe: by-reference pickles (tasks
        # defined in importable modules, e.g. under pytest) must resolve
        # in a process that inherited nothing.
        env["PYTHONPATH"] = os.pathsep.join(
            p if p else os.getcwd() for p in sys.path
        )
        env["REPRO_SOCKET_TOKEN"] = self._token
        return os.posix_spawn(
            sys.executable,
            [
                sys.executable, "-m", "repro.exec.socket_worker",
                "--port", str(port), "--worker", str(k),
            ],
            env,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)
            ],
        )

    def _verify_hello(self, conn: socket.socket, k: int) -> None:
        """Receive and validate the worker's HELLO; answer WELCOME, or a
        descriptive REJECT on version/token mismatch before raising."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(SPAWN_TIMEOUT_S)
        hello = wire.recv_frame(conn, check_version=False)
        if hello.msg != wire.HELLO:
            raise wire.WireError(
                f"expected HELLO, got {wire.MSG_NAMES.get(hello.msg)}"
            )
        if hello.version != wire.PROTOCOL_VERSION:
            wire.send_frame(
                conn, wire.REJECT, 0,
                wire.json_payload(
                    reason=f"protocol version {hello.version} != "
                           f"{wire.PROTOCOL_VERSION}"
                ),
            )
            raise wire.VersionMismatch(
                f"socket worker {k} speaks protocol {hello.version}, "
                f"parent speaks {wire.PROTOCOL_VERSION}"
            )
        fields = wire.parse_json(hello.payload)
        if fields.get("token") != self._token:
            wire.send_frame(
                conn, wire.REJECT, 0,
                wire.json_payload(reason="bad token"),
            )
            raise wire.WireError(f"socket worker {k} sent a bad token")
        wire.send_frame(conn, wire.WELCOME, 0)


TRANSPORTS = {
    PipeTransport.name: PipeTransport,
    SocketTransport.name: SocketTransport,
}
