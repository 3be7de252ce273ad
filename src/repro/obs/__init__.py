"""Pipeline observability: spans, metrics, and trace exporters.

The paper's argument is made through pipeline-stage measurements (§5, §6);
this package makes the reproduction's pipeline observable the same way.
Attach a :class:`Profiler` via ``RuntimeConfig(profiler=...)`` and every
operation's five phases — issuance, logical, distribution, physical,
execution — emit structured spans with cache-hit/replay/fallback
annotations; the machine model emits simulated-time spans of its scheduled
activities.  Export with :func:`write_chrome_trace` (open in
https://ui.perfetto.dev), :func:`write_jsonl`, or :func:`text_summary`, or
drive it all from the CLI: ``python -m repro profile circuit --out
trace.json``.  See ``docs/observability.md``.
"""

from repro.obs.export import (
    chrome_trace,
    jsonl_records,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import NULL_PROFILER, Profiler, Span

__all__ = [
    "Profiler",
    "Span",
    "NULL_PROFILER",
    "MetricsRegistry",
    "Histogram",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_records",
    "write_jsonl",
    "text_summary",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
]


def __getattr__(name):
    # The validators load on first use, so ``python -m repro.obs.schema``
    # finds its module unimported (runpy warns otherwise).
    if name in ("validate_chrome_trace", "validate_chrome_trace_file"):
        from repro.obs import schema

        return getattr(schema, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
