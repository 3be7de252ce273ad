"""Pluggable execution backends (serial and shard-parallel)."""

from repro.exec.backend import ExecutionBackend, SerialBackend, resolve_backend
from repro.exec.pool import (
    active_pool_count,
    get_pool,
    resolve_workers,
    shutdown_pools,
)
from repro.exec.transport import (
    SocketTransport,
    Transport,
    resolve_transport,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ParallelBackend",
    "resolve_backend",
    "get_pool",
    "shutdown_pools",
    "active_pool_count",
    "resolve_workers",
    "Transport",
    "SocketTransport",
    "resolve_transport",
]


def __getattr__(name):
    if name == "ParallelBackend":  # lazy: pulls in the worker machinery
        from repro.exec.parallel import ParallelBackend

        return ParallelBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
