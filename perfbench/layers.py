"""The layer boundaries the traced pass times, and how they are wrapped.

Each row is ``(span name, owner, attribute, workloads)``: ``owner`` is the
module — or ``module:Class`` — holding the binding *the caller actually
uses* (``runtime.py`` does ``from repro.core.safety import
analyze_launch_safety``, so the binding to patch is
``repro.runtime.runtime.analyze_launch_safety``); ``workloads`` names the
workloads whose timed loop must cross the boundary at least once — on the
others ``selftest`` expects none.  :func:`install` replaces each binding with a
timing wrapper *before* any runtime is built.  Nothing under ``src/``
changes; worker-side and service-internal time is seen from outside only,
as ``exec.transport.wait`` and ``serve.client.wait``.
"""

from __future__ import annotations

import importlib

__all__ = ["BOUNDARIES", "MAY_APPEAR", "install", "expected_on"]

_SERIAL = ("replay_steady", "first_issue")
_PARALLEL = ("dispatch_fanout", "stencil_compute")
_IN_PROCESS = _SERIAL + _PARALLEL

BOUNDARIES = [
    # --- core: the section-3 safety procedure and the listing-3 checks
    ("core.safety", "repro.runtime.runtime", "analyze_launch_safety",
     ("first_issue",)),
    ("core.checks", "repro.core.checks", "dynamic_cross_check",
     ("first_issue",)),     # kernels.py imports it at call time
    ("core.checks", "repro.core.safety", "dynamic_cross_check", ()),
    ("core.checks", "repro.runtime.replay", "dynamic_cross_check", ()),
    ("core.checks", "repro.core.checks", "dynamic_self_check", ()),
    # --- runtime: issuance glue and the per-stage analyses
    ("runtime.issue", "repro.runtime.runtime:Runtime", "index_launch",
     _IN_PROCESS),
    ("runtime.tracing", "repro.runtime.runtime:Runtime", "begin_trace",
     ("replay_steady",) + _PARALLEL),
    ("runtime.tracing", "repro.runtime.runtime:Runtime", "end_trace",
     ("replay_steady",) + _PARALLEL),
    ("runtime.logical", "repro.runtime.logical:LogicalAnalyzer",
     "analyze_operation", _IN_PROCESS),
    ("runtime.distribution", "repro.runtime.mapper:ShardingCache",
     "shard_map", _IN_PROCESS),
    ("runtime.distribution", "repro.runtime.runtime", "build_slices", ()),
    ("runtime.distribution", "repro.runtime.distribution:SlicingCache",
     "slice", ()),          # non-DCR only; every workload runs DCR
    ("runtime.physical", "repro.runtime.physical:PhysicalAnalyzer",
     "record_task", ("first_issue",)),
    ("runtime.physical", "repro.runtime.physical:PhysicalAnalyzer",
     "replay_tasks", ("replay_steady",)),
    ("runtime.replay", "repro.runtime.replay:LaunchReplayCache",
     "replayed_verdict", _IN_PROCESS),
    ("runtime.replay", "repro.runtime.replay:LaunchReplayCache",
     "get_expansion", _IN_PROCESS),
    ("runtime.replay", "repro.runtime.replay:LaunchReplayCache",
     "get_physical", ("replay_steady",) + _PARALLEL),
    ("runtime.replay", "repro.runtime.replay:DynamicCheckMemo", "run",
     ("first_issue",)),
    # --- exec: the per-node tail, serial or fanned out over the pool
    ("exec.backend", "repro.exec.backend:SerialBackend", "finish_launch",
     _SERIAL),
    ("exec.backend", "repro.exec.parallel:ParallelBackend", "finish_launch",
     _PARALLEL),
    ("exec.plan.dumps", "repro.exec.parallel", "dumps", ()),
    ("exec.plan.loads", "repro.exec.parallel", "loads", _PARALLEL),
    ("exec.transport.submit", "repro.exec.pool:WorkerPool", "submit_shards",
     _PARALLEL),
    ("exec.transport.submit", "repro.exec.pool:WorkerPool", "submit_shard",
     ()),                   # recovery-ladder resubmissions only
    ("exec.transport.wait", "repro.exec.transport:_PipeFuture", "result",
     _PARALLEL),
    # --- data: region build.  (Task bodies, ``apps.body``, are wrapped per
    # task for the serial sub-run only — see child.py: wrapping
    # ``Task.__call__`` here would put 128 no-op spans into every
    # ``replay_steady`` op, a fifth of its time.)
    ("data.partition", "perfbench.workloads", "equal_partition", ()),
    ("data.partition", "repro.apps.stencil", "block_partition", ()),
    # --- serve: only the client side is this process
    ("serve.client.encode", "repro.serve.client", "dumps",
     ("service_closed",)),
    ("serve.client.decode", "repro.serve.client", "loads",
     ("service_closed",)),
    ("serve.client.wait", "repro.exec.wire", "recv_frame",
     ("service_closed",)),
]


#: boundaries a workload may cross without the table demanding it: plan
#: blobs are re-pickled only when the memoized one cannot ship as it is,
#: and the parallel commit replays dependence templates in the parent.
MAY_APPEAR = ("exec.plan.dumps", "runtime.physical", "data.partition")

#: payload bytes a call moved, from ``(args, result)``; feeds
#: ``exec.plan.bytes_per_op`` and ``serve.client.bytes_per_call``.
_SIZES = {
    ("repro.exec.pool:WorkerPool", "submit_shards"):
        lambda args, result: sum(len(blob) for blob, _ in args[2]),
    ("repro.exec.transport:_PipeFuture", "result"):
        lambda args, result: len(result) if isinstance(result, bytes) else 0,
    ("repro.serve.client", "dumps"): lambda args, result: len(result),
    ("repro.serve.client", "loads"): lambda args, result: len(args[0]),
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer) -> None:
    """Wrap every boundary.  Once per process, before any runtime exists."""
    for name, path, attr, _ in BOUNDARIES:
        owner = _owner(path)
        setattr(owner, attr, tracer.wrap(
            name, getattr(owner, attr), size=_SIZES.get((path, attr))
        ))


def expected_on(workload: str) -> set:
    """Span names the timed loop of ``workload`` must record."""
    return {name for name, _, _, on in BOUNDARIES if workload in on}
