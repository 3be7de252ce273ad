"""Exporters and the trace schema validator."""

import itertools
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.obs import (
    Profiler,
    chrome_trace,
    jsonl_records,
    text_summary,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.export import _SIM_PID, _WALL_PID, _sim_tid


def fake_clock(step=1.0):
    counter = itertools.count()
    return lambda: float(next(counter)) * step


def sample_profiler():
    prof = Profiler(clock=fake_clock(step=0.001))
    t = prof.mark()
    end = prof.now()
    for node in (0, 1):
        prof.phase("issuance", "issuance", t, node=node, end=end,
                   launch="bump")
    t = prof.mark()
    prof.phase("logical", "logical", t, node=0, dependences=2)
    prof.instant("cache.verdict_hit", "safety", node=0)
    prof.add_simulated(0, "control", "ctl:bump", 0.0, 1e-4)
    prof.add_simulated(0, "gpu", "gpu:bump", 1e-4, 5e-4)
    prof.add_simulated(1, "gpu", "gpu:bump", 1e-4, 5e-4)
    return prof


class TestChromeTrace:
    def test_structure_and_validity(self):
        trace = chrome_trace(sample_profiler())
        assert validate_chrome_trace(trace) == []
        json.dumps(trace)  # serializable
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}

    def test_processes_and_tracks(self):
        trace = chrome_trace(sample_profiler())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["pid"], e["tid"]): e["args"] for e in meta}
        assert names[("process_name", _WALL_PID, 0)] == {
            "name": "runtime (wall)"}
        assert names[("process_name", _SIM_PID, 0)] == {
            "name": "machine model (sim)"}
        assert names[("thread_name", _WALL_PID, 1)] == {"name": "node 1"}
        gpu_tid = _sim_tid(1, "gpu")
        assert names[("thread_name", _SIM_PID, gpu_tid)] == {
            "name": "node 1 gpu"}

    def test_wall_timestamps_normalized(self):
        trace = chrome_trace(sample_profiler())
        wall_x = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and e["pid"] == _WALL_PID]
        assert min(e["ts"] for e in wall_x) == 0.0

    def test_sim_timestamps_in_microseconds(self):
        trace = chrome_trace(sample_profiler())
        sim_x = [e for e in trace["traceEvents"] if e["pid"] == _SIM_PID
                 and e["ph"] == "X"]
        ctl = next(e for e in sim_x if e["name"] == "ctl:bump")
        assert ctl["ts"] == pytest.approx(0.0)
        assert ctl["dur"] == pytest.approx(100.0)  # 1e-4 s -> 100 us

    def test_stats_embedded(self):
        from repro.runtime.pipeline import PipelineStats

        stats = PipelineStats()
        stats.ops_issued = 3
        trace = chrome_trace(sample_profiler(), stats=stats)
        counters = {
            c["name"]: c["value"]
            for c in trace["otherData"]["pipeline_stats"]["counters"]
        }
        assert counters["pipeline.ops_issued"] == 3

    def test_non_json_args_coerced(self):
        prof = Profiler(clock=fake_clock())
        t = prof.mark()
        prof.phase("p", "s", t, domain=(0, 8))
        trace = chrome_trace(prof)
        json.dumps(trace)
        x = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        assert x["args"]["domain"] == repr((0, 8))

    def test_write_and_validate_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), sample_profiler())
        assert validate_chrome_trace_file(str(path)) == []


class TestSchemaValidator:
    def test_rejects_non_dict(self):
        assert validate_chrome_trace([]) != []

    def test_rejects_missing_fields(self):
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0}]}
        assert any("missing fields" in p for p in validate_chrome_trace(bad))

    def test_rejects_unknown_phase(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0.0, "pid": 1, "tid": 0}]}
        assert any("unknown phase" in p for p in validate_chrome_trace(bad))

    def test_rejects_negative_duration(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0.0, "dur": -1.0,
             "pid": 1, "tid": 0}]}
        assert any("dur" in p for p in validate_chrome_trace(bad))

    def test_rejects_non_monotone_track(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 5.0, "dur": 1.0, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 2.0, "dur": 1.0, "pid": 1, "tid": 0},
        ]}
        assert any("monotone" in p for p in validate_chrome_trace(bad))

    def test_separate_tracks_independent(self):
        ok = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 5.0, "dur": 1.0, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 2.0, "dur": 1.0, "pid": 1, "tid": 1},
        ]}
        assert validate_chrome_trace(ok) == []

    def test_file_errors_reported_not_raised(self, tmp_path):
        assert validate_chrome_trace_file(str(tmp_path / "missing.json")) != []
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert validate_chrome_trace_file(str(bad)) != []

    def test_cli_entrypoint(self, tmp_path, capsys):
        from repro.obs.schema import main

        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), sample_profiler())
        assert main([str(path)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main([str(bad)]) == 1
        assert main([]) == 2

    def test_module_entrypoint_runs_without_a_warning(self, tmp_path):
        """``python -m repro.obs.schema`` as CI runs it: importing the
        package must not import the module first (runpy warns then)."""
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), sample_profiler())
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.obs.schema", str(path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (done.returncode, done.stderr) == (0, "")


class TestJsonl:
    def test_records_cover_spans_instants_counters(self):
        records = jsonl_records(sample_profiler())
        kinds = {r["type"] for r in records}
        assert kinds == {"span", "instant", "counter"}
        span = next(r for r in records if r["type"] == "span")
        assert span["clock"] in ("wall", "sim")
        for r in records:
            json.dumps(r)

    def test_write_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(str(path), sample_profiler())
        lines = path.read_text().strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert len(parsed) == len(jsonl_records(sample_profiler()))


class TestTextSummary:
    def test_contains_phases_and_annotations(self):
        out = text_summary(sample_profiler())
        assert "issuance" in out
        assert "cache.verdict_hit" in out
        assert "machine model" in out

    def test_empty_profiler(self):
        out = text_summary(Profiler(enabled=False))
        assert "no spans" in out

    def test_stats_section(self):
        from repro.runtime.pipeline import PipelineStats, Stage

        stats = PipelineStats()
        stats.index_launches = 2
        stats.add_representation(Stage.ISSUANCE, 0, 2)
        out = text_summary(sample_profiler(), stats=stats)
        assert "pipeline.index_launches" in out
        assert "representation units" in out
