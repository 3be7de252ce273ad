"""The ``repro serve`` session service.

Architecture (see ``docs/service.md``):

* an asyncio front-end accepts many concurrent client connections over
  the framed wire protocol (``exec/wire.py``) with the same
  HELLO/WELCOME token handshake the socket workers use, extended with a
  ``tenant`` field;
* each accepted connection is a **session** owning a private
  :class:`~repro.runtime.runtime.Runtime` (its own regions, partitions,
  replay cache) — sessions of the same *tenant* additionally share one
  :class:`~repro.runtime.replay.DynamicCheckMemo`, the portable,
  persistable slice of first-issue analysis;
* all sessions multiplex onto **one** shared
  :class:`~repro.exec.pool.WorkerPool` (the module-level ``get_pool``
  registry already interns pools by ``(workers, transport)``, so the
  per-session runtimes dispatch onto the same warm workers);
* commands execute strictly one at a time on a single dedicated runtime
  thread — the runtimes, arenas and transports are not thread-safe —
  which drains the per-session queues itself, least recently served
  session first, so one chatty session cannot starve the rest;
* **admission control**: a session whose command queue is full gets an
  immediate BUSY frame (echoing the rejected seq) instead of unbounded
  buffering; a session that stops reading its replies stops being read,
  and stalls no one else.

Shutdown (:meth:`ReproService.shutdown`, which ``repro serve`` calls on
SIGTERM/SIGINT) finishes every admitted command, retires the shared pool
— transports, shm arenas and the sessions' region instances — and
snapshots each tenant's check memo to the persist directory.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exec import wire
from repro.exec.plan import dumps, loads
from repro.obs.metrics import MetricsRegistry

__all__ = ["ServiceConfig", "ReproService", "TenantState", "Session"]


@dataclass
class ServiceConfig:
    """Knobs for one :class:`ReproService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is ``service.port``
    token: str = "repro"
    workers: Optional[int] = None  # None = env REPRO_WORKERS, else 1
    transport: Optional[str] = None  # None = env REPRO_TRANSPORT, else pipe
    #: simulated node count for each session runtime's mapper; > 1 so
    #: multi-shard launches shard across nodes and take the parallel path.
    n_nodes: int = 4
    #: per-session command-queue bound; a CALL arriving while the queue
    #: holds this many waiting commands is answered with BUSY.
    queue_limit: int = 8
    #: persisted-cache directory (None = no persistence).
    persist_dir: Optional[str] = None
    #: cache budgets applied to every session runtime + tenant memo.
    cache_entry_budget: Optional[int] = None
    cache_byte_budget: Optional[int] = None


@dataclass
class TenantState:
    """Per-tenant shared state: the portable analysis cache + counters."""

    name: str
    memo: Any  # DynamicCheckMemo shared by the tenant's sessions
    restored_entries: int = 0


@dataclass
class Session:
    """One connected client: a private runtime plus its command queue."""

    sid: int
    tenant: TenantState
    writer: asyncio.StreamWriter
    rt: Any = None
    #: admitted commands waiting for the runtime thread
    queue: "List[Tuple[int, str, dict]]" = field(default_factory=list)
    closed: bool = False
    #: region/partition/task handles are small server-assigned ints so
    #: clients never hold (or forge) references into another session.
    handles: Dict[int, Any] = field(default_factory=dict)
    _next_handle: Any = None

    def new_handle(self, obj) -> int:
        h = next(self._next_handle)
        self.handles[h] = obj
        return h

    def resolve(self, h) -> Any:
        try:
            return self.handles[h]
        except (KeyError, TypeError):
            raise ValueError(f"unknown handle {h!r}") from None


class ReproService:
    """Accept sessions, execute their commands, keep the pool warm."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.tenants: Dict[str, TenantState] = {}
        #: least recently served first (see :meth:`_drain_queues`)
        self.sessions: "OrderedDict[int, Session]" = OrderedDict()
        self._sid = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # All runtime work happens on this one thread: runtimes, worker
        # transports and shm arenas are single-threaded by design.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-rt"
        )
        # Guards ``sessions``, every session's ``queue`` and
        # ``_draining``: the event loop admits, the runtime thread drains.
        self._lock = threading.Lock()
        self._draining = False  # a _drain_queues job is submitted
        self._stopping = False
        self._stopped = threading.Event()
        self.port: Optional[int] = None

    # ------------------------------------------------------------- tenants
    def _tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            from repro.runtime.replay import DynamicCheckMemo

            memo = DynamicCheckMemo(
                entry_budget=self.config.cache_entry_budget,
                byte_budget=self.config.cache_byte_budget,
            )
            state = TenantState(name=name, memo=memo)
            if self.config.persist_dir:
                from repro.serve.persist import load_tenant_memo

                state.restored_entries = load_tenant_memo(
                    self.config.persist_dir, name, memo
                )
                if state.restored_entries:
                    self.metrics.inc(
                        "serve.cache_restored",
                        state.restored_entries,
                        tenant=name,
                    )
            self.tenants[name] = state
        return state

    def _make_runtime(self, session: Session):
        """Build the session's runtime (runs on the runtime thread)."""
        from repro.runtime.runtime import Runtime, RuntimeConfig

        cfg_kwargs: Dict[str, Any] = dict(
            validate_safety=True,
            n_nodes=self.config.n_nodes,
            workers=self.config.workers,
            transport=self.config.transport,
            cache_entry_budget=self.config.cache_entry_budget,
            cache_byte_budget=self.config.cache_byte_budget,
        )
        rt = Runtime(RuntimeConfig(**cfg_kwargs))
        # Swap in the tenant's shared check memo, re-applying the hook
        # Runtime.__init__ put on the private one (kernels delegation).
        # Nothing on the memo may point back at this runtime: the tenant
        # outlives its sessions.
        memo = session.tenant.memo
        memo.kernels = rt.replay_cache.check_memo.kernels or memo.kernels
        rt.replay_cache.check_memo = memo
        session.rt = rt
        return rt

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Drain everything, persist caches, release the pool — exactly
        the teardown a batch run gets from ``atexit``, made explicit."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # The executor runs jobs in order, so any drain job admitted
        # commands started finishes them before the teardown begins.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._teardown_runtimes)
        for session in list(self.sessions.values()):
            try:
                session.writer.close()
            except Exception as exc:
                self._swallowed("writer_close", exc)
        if self.config.persist_dir:
            from repro.serve.persist import save_tenant_memo

            for state in self.tenants.values():
                save_tenant_memo(
                    self.config.persist_dir, state.name, state.memo,
                    self.metrics,
                )
        self._executor.shutdown(wait=True)
        self._stopped.set()

    def _teardown_runtimes(self) -> None:
        """Runtime-thread half of shutdown: release each session's backend,
        then retire the shared pool (shm arenas, transports, region
        instances)."""
        with self._lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            rt = session.rt
            if rt is None:
                continue
            try:
                rt.backend.shutdown()
            except Exception as exc:
                # The step that unlinks the session's region segments: a
                # failure here is a leak, so it is counted, never silent.
                self._swallowed("backend_shutdown", exc)
        from repro.exec.pool import shutdown_pools

        shutdown_pools()

    # ----------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = wire.FrameDecoder(check_version=False)
        session: Optional[Session] = None
        try:
            hello = await self._read_frame(reader, decoder)
            if hello is None or hello.msg != wire.HELLO:
                writer.close()
                return
            if hello.version != wire.PROTOCOL_VERSION:
                writer.write(wire.pack_frame(
                    wire.REJECT, 0, wire.json_payload(
                        reason=f"protocol version {hello.version} != "
                               f"{wire.PROTOCOL_VERSION}"
                    ),
                ))
                await writer.drain()
                writer.close()
                return
            fields = wire.parse_json(hello.payload)
            if fields.get("token") != self.config.token:
                writer.write(wire.pack_frame(
                    wire.REJECT, 0, wire.json_payload(reason="bad token")
                ))
                await writer.drain()
                writer.close()
                self.metrics.inc("serve.rejects", reason="token")
                return
            tenant = self._tenant(str(fields.get("tenant", "default")))
            session = Session(
                sid=next(self._sid),
                tenant=tenant,
                writer=writer,
                _next_handle=itertools.count(1),
            )
            with self._lock:
                self.sessions[session.sid] = session
            self.metrics.inc("serve.sessions", tenant=tenant.name)
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self._make_runtime, session
            )
            writer.write(wire.pack_frame(
                wire.WELCOME, 0, wire.json_payload(session=session.sid)
            ))

            while True:
                # A client that stops reading its replies stops being
                # read: it holds at most queue_limit + 1 replies here and
                # stalls no other session.
                await writer.drain()
                frame = await self._read_frame(reader, decoder)
                if frame is None or frame.msg == wire.SHUTDOWN:
                    break
                if frame.msg != wire.CALL:
                    continue
                try:
                    command, payload = loads(frame.payload)
                except Exception:
                    writer.write(self._error_frame(
                        frame.seq, "undecodable CALL payload"
                    ))
                    continue
                if self._stopping:
                    # The runtimes are being torn down: answer, never run.
                    writer.write(self._error_frame(
                        frame.seq, "service is shutting down"
                    ))
                    continue
                with self._lock:
                    admitted = len(session.queue) < self.config.queue_limit
                    if admitted:
                        session.queue.append((frame.seq, command, payload))
                        start = not self._draining
                        self._draining = True
                if not admitted:
                    # Admission control: reject, don't buffer unboundedly.
                    writer.write(wire.pack_frame(wire.BUSY, frame.seq))
                    self.metrics.inc(
                        "serve.busy_rejections", tenant=tenant.name
                    )
                    continue
                self.metrics.inc("serve.admissions", tenant=tenant.name)
                if start:
                    self._executor.submit(self._drain_queues)
        except ConnectionError:
            pass  # the client went away; reaped below like any other
        finally:
            if session is not None:
                session.closed = True
                if not self._stopping:
                    # Queued behind any drain job, which empties this
                    # session's queue first; at shutdown the teardown
                    # releases every session instead.
                    writer.close()
                    self._executor.submit(self._reap, session)

    @staticmethod
    async def _read_frame(reader, decoder):
        while True:
            frame = decoder.next()
            if frame is not None:
                return frame
            chunk = await reader.read(65536)
            if not chunk:
                return None
            decoder.feed(chunk)

    @staticmethod
    def _error_frame(seq: int, message: str) -> bytes:
        return wire.pack_frame(wire.RESULT, seq, dumps(("error", message)))

    # ------------------------------------------------------- runtime thread
    def _drain_queues(self) -> None:
        """The runtime thread's job: run queued commands until every queue
        is empty, each time taking the head of the least recently served
        ready session, so while another session has commands waiting no
        session is served twice in a row.  Each reply goes back to the
        event loop in one ``call_soon_threadsafe``."""
        while True:
            with self._lock:
                session = next(
                    (s for s in self.sessions.values() if s.queue), None
                )
                if session is None:
                    self._draining = False
                    return
                self.sessions.move_to_end(session.sid)
                seq, command, payload = session.queue.pop(0)
            try:
                reply = dumps(("ok", self._execute(session, command, payload)))
                frame = wire.pack_frame(wire.RESULT, seq, reply)
            except Exception as exc:  # surfaced to the client, typed
                frame = self._error_frame(seq, f"{type(exc).__name__}: {exc}")
            self._loop.call_soon_threadsafe(self._send_reply, session, frame)

    @staticmethod
    def _send_reply(session: Session, frame: bytes) -> None:
        if not session.closed:
            session.writer.write(frame)

    def _reap(self, session: Session) -> None:
        """Forget a departed session and drain its runtime; the shared
        pool stays warm for the tenant's next session."""
        with self._lock:
            del self.sessions[session.sid]
        try:
            if session.rt is not None:
                session.rt.drain()
        except Exception as exc:
            self._swallowed("drain", exc)

    def _swallowed(self, reason: str, exc: BaseException) -> None:
        """An error no client is left to receive: counted as
        ``serve.swallowed_errors{reason, kind}``."""
        self.metrics.inc("serve.swallowed_errors", reason=reason,
                         kind=type(exc).__name__)

    # ------------------------------------------------------------ commands
    def _execute(self, session: Session, command: str, payload: dict):
        """One session command, on the runtime thread.  Commands are the
        runtime's issuance API, handle-indirected; results are plain
        picklable values."""
        rt = session.rt
        if command == "define_task":
            task = loads(payload["blob"])
            # Re-stamp the uid from this process's counter: worker caches
            # key task blobs by uid, and two clients' counters collide.
            from repro.runtime.task import _next_task_id

            task.uid = next(_next_task_id)
            return session.new_handle(task)
        if command == "create_region":
            region = rt.create_region(
                payload["name"], payload["shape"], payload["fields"]
            )
            return session.new_handle(region)
        if command == "equal_partition":
            from repro.data.partition import equal_partition

            part = equal_partition(
                payload["name"],
                session.resolve(payload["region"]),
                payload["n"],
            )
            return session.new_handle(part)
        if command == "write_field":
            rt.drain()
            region = session.resolve(payload["region"])
            region.storage(payload["fname"])[:] = payload["values"]
            return None
        if command == "read_field":
            rt.drain()
            region = session.resolve(payload["region"])
            return region.storage(payload["fname"]).copy()
        if command == "index_launch":
            task = session.resolve(payload["task"])
            req = session.resolve(payload["partition"])
            functor = payload.get("functor")
            if functor is not None:
                req = (req, functor)
            out = rt.index_launch(
                task,
                payload["domain"],
                req,
                args=tuple(payload.get("args", ())),
                reduce=payload.get("reduce"),
            )
            if payload.get("reduce"):
                return out.get()
            return None
        if command == "begin_trace":
            rt.begin_trace(payload["trace_id"])
            return None
        if command == "end_trace":
            rt.end_trace(payload["trace_id"])
            return None
        if command == "drain":
            rt.drain()
            return None
        if command == "stats":
            memo = session.tenant.memo
            bstats = getattr(rt.backend, "stats", None)
            return {
                "tenant": session.tenant.name,
                "session": session.sid,
                "check_memo_hits": memo.hits,
                "check_memo_misses": memo.misses,
                "check_memo_entries": len(memo),
                "check_memo_evictions": memo.evictions,
                "restored_entries": session.tenant.restored_entries,
                "replay_cache_entries":
                    len(rt.replay_cache.store.layer("physical")),
                "replay_cache_evictions": rt.replay_cache.evictions,
                "analysis_cache_hits": rt.stats.analysis_cache_hits,
                "launches_verified_dynamic":
                    rt.stats.launches_verified_dynamic,
                "plan_memo_hits": getattr(bstats, "plan_memo_hits", 0),
                "tasks_executed": rt.stats.tasks_executed,
            }
        raise ValueError(f"unknown command {command!r}")
