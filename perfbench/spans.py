"""In-memory span recorder for the traced pass.

A span is ``(name, start_ns, end_ns, parent, op, self_ns)``: ``parent`` is
the index of the enclosing span in the same thread's list (-1 for a root),
``op`` the id shared by every span of one workload op (-1 outside any op,
i.e. during build), and ``self_ns`` the duration minus the time covered by
child spans — computed as spans close, so the self times of one op sum to
its root's duration exactly.

Spans stay in memory; :meth:`Tracer.write_chrome_trace` writes them when
the round is over.  The recorder is per thread (the service workload has
two client threads) and switches itself off in forked children, whose
spans nobody could collect.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer"]

#: ops whose spans go into the trace file; aggregates always use all ops.
TRACE_FILE_OPS = 400


class _ThreadSpans:
    __slots__ = ("tid", "spans", "stack", "op", "calls", "counted", "moved")

    def __init__(self, tid: int):
        self.tid = tid
        self.spans: list = []
        self.stack: list = []   # open frames: [index in spans, child ns]
        self.op = -1
        #: calls per span name, counted lazily from ``spans[counted:]`` so
        #: the wrapper does not pay for it; payload bytes, counted in place
        self.calls: Dict[str, int] = {}
        self.counted = 0
        self.moved: Dict[str, int] = {}

    def count_calls(self) -> None:
        spans = self.spans
        while self.counted < len(spans) and spans[self.counted] is not None:
            name = spans[self.counted][0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.counted += 1


class Tracer:
    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._op_ids = itertools.count()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadSpans(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    # ------------------------------------------------------------ recording
    def wrap(self, name: str, fn: Callable, root: bool = False,
             size: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span called ``name``; a ``root`` span opens a
        new op; ``size(args, result)`` says how many payload bytes the
        call moved.  With the tracer off the wrapper is one attribute
        test."""
        tracer, local, now = self, self._local, perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = getattr(local, "state", None) or tracer._state()
            spans, stack = state.spans, state.stack
            if root:
                state.op = next(tracer._op_ids)
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    state.moved[name] = (
                        state.moved.get(name, 0) + size(args, result)
                    )
                return result
            finally:
                end = now()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans[index] = (name, start, end, parent, state.op,
                                duration - frame[1])
                if root:
                    state.op = -1

        traced.__wrapped__ = fn
        return traced

    def root(self, fn: Callable) -> Callable:
        """``fn`` as one workload op: the root span of a fresh op id."""
        return self.wrap("op", fn, root=True)

    def counts(self) -> Dict[str, int]:
        """Calls and payload bytes per span name so far, as monotone
        counters (``calls:<name>``, ``bytes:<name>``) that can be windowed
        like the program's own."""
        out: Dict[str, int] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            state.count_calls()
            for prefix, table in (("calls:", state.calls),
                                  ("bytes:", state.moved)):
                for name, value in table.items():
                    out[prefix + name] = out.get(prefix + name, 0) + value
        return out

    def take(self) -> List[list]:
        """Hand over (and forget) the closed spans, one list per thread."""
        with self._lock:
            out = []
            for state in self._threads:
                state.count_calls()
                out.append([s for s in state.spans if s is not None])
                state.spans, state.counted = [], 0
        return out

    # ----------------------------------------------------------- reporting
    @staticmethod
    def per_op(threads: List[list], n_ops: int,
               in_ops: bool = True) -> Dict[str, Dict[str, float]]:
        """Per span name: self time (µs) and calls, per op.  ``in_ops``
        keeps only spans under an op's root — between ops the loop's own
        bookkeeping (counter reads, the service's begin/end_trace calls)
        crosses the same boundaries."""
        totals: Dict[str, List[int]] = {}    # name -> [self ns, calls]
        for spans in threads:
            for name, _start, _end, _parent, op, self_ns in spans:
                if in_ops and op < 0:
                    continue
                row = totals.setdefault(name, [0, 0])
                row[0] += self_ns
                row[1] += 1
        return {name: {"self_us": ns / 1e3 / n_ops, "calls": calls / n_ops}
                for name, (ns, calls) in totals.items()}

    @staticmethod
    def nesting_errors(threads: List[list]) -> List[str]:
        """What breaks 'each op's spans nest under one root and their self
        times sum to the root's duration' — empty when the trace is sound."""
        errors = []
        for tid, spans in enumerate(threads):
            self_sum: Dict[int, int] = {}
            roots: Dict[int, int] = {}
            for i, (name, start, end, parent, op, self_ns) in enumerate(spans):
                if op < 0:
                    continue
                self_sum[op] = self_sum.get(op, 0) + self_ns
                if parent < 0:
                    if op in roots:
                        errors.append(f"thread {tid}: op {op} has two roots")
                    roots[op] = end - start
                else:
                    _, pstart, pend, _, pop, _ = spans[parent]
                    if pop != op or start < pstart or end > pend:
                        errors.append(
                            f"thread {tid}: span {i} ({name}) escapes its "
                            f"parent"
                        )
            for op, total in self_sum.items():
                if roots.get(op) != total:
                    errors.append(
                        f"thread {tid}: op {op} self times sum to {total} ns, "
                        f"root lasts {roots.get(op)} ns"
                    )
        return errors

    @staticmethod
    def write_chrome_trace(path: str, threads: List[list], meta: dict) -> None:
        """Chrome trace format (``chrome://tracing``, Perfetto): one complete
        event per span, one track per client thread."""
        events = []
        pid = os.getpid()
        for tid, spans in enumerate(threads):
            kept_ops = set()
            for name, start, end, parent, op, self_ns in spans:
                if op >= 0 and op not in kept_ops:
                    if len(kept_ops) >= TRACE_FILE_OPS:
                        continue
                    kept_ops.add(op)
                events.append({
                    "name": name, "ph": "X", "pid": pid, "tid": tid,
                    "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                    "args": {"op": op, "parent": parent,
                             "self_us": self_ns / 1000.0},
                })
        meta = dict(meta, ops_per_thread_in_file=TRACE_FILE_OPS)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                       "otherData": meta}, fh)
