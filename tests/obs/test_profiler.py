"""Profiler core: span capture, disabled-mode behavior, simulated tracks."""

import itertools

from repro.obs import NULL_PROFILER, Profiler


def fake_clock(step=1.0):
    counter = itertools.count()
    return lambda: float(next(counter)) * step


class TestWallSpans:
    def test_mark_phase_records_span(self):
        prof = Profiler(clock=fake_clock())
        t = prof.mark()
        prof.phase("logical", "logical", t, node=2, op=7)
        (span,) = prof.spans
        assert span.name == "logical"
        assert span.node == 2
        assert span.args == {"op": 7}
        assert span.duration == 1.0
        assert prof.metrics.value("spans", stage="logical", name="logical") == 1

    def test_span_contextmanager_annotates(self):
        prof = Profiler(clock=fake_clock())
        with prof.span("expansion", "expansion", node=1) as attrs:
            attrs["cached"] = True
        (span,) = prof.spans
        assert span.args == {"cached": True}

    def test_instants_and_counts(self):
        prof = Profiler(clock=fake_clock())
        prof.instant("cache.verdict_hit", "safety", node=3, launch="bump")
        prof.count("cache.lookups", 2.0, layer="verdict", outcome="hit")
        (inst,) = prof.instants
        assert inst.name == "cache.verdict_hit"
        assert prof.metrics.value("cache.verdict_hit", stage="safety") == 1
        assert prof.metrics.value("cache.lookups", layer="verdict",
                                  outcome="hit") == 2.0


class TestDisabled:
    def test_mark_returns_none_and_phase_noops(self):
        prof = Profiler(enabled=False)
        assert prof.mark() is None
        prof.phase("logical", "logical", prof.mark(), node=0)
        prof.instant("x", "y")
        prof.count("c", 5.0)
        prof.add_simulated(0, "gpu", "k", 0.0, 1.0)
        assert prof.spans == []
        assert prof.instants == []
        assert len(prof.metrics) == 0

    def test_span_contextmanager_yields_none(self):
        prof = Profiler(enabled=False)
        with prof.span("a", "b") as attrs:
            assert attrs is None
        assert prof.spans == []

    def test_null_profiler_is_disabled(self):
        assert NULL_PROFILER.enabled is False
        assert NULL_PROFILER.spans == []


class TestSimulatedSpans:
    def test_sim_spans_separate_clock(self):
        prof = Profiler(clock=fake_clock())
        t = prof.mark()
        prof.phase("physical", "physical", t)
        prof.add_simulated(1, "gpu", "gpu:stencil", 0.25, 0.5, aid=3)
        assert len(prof.wall_spans()) == 1
        (sim,) = prof.sim_spans()
        assert sim.sim is True
        assert sim.track == "gpu"
        assert sim.start == 0.25 and sim.end == 0.75
        assert prof.metrics.value("sim_activities", kind="gpu", node=1) == 1

    def test_simulator_emits_through_profiler(self):
        from repro.machine.simulator import MachineSimulator

        prof = Profiler(clock=fake_clock())
        sim = MachineSimulator(2, profiler=prof)
        a = sim.add(0, "control", 1.0, label="ctl")
        b = sim.add(1, "gpu", 2.0, deps=(a,), label="gpu")
        sim.barrier([b])
        makespan = sim.run()
        assert makespan == 3.0
        spans = prof.sim_spans()
        # The sink barrier is bookkeeping, not a track row.
        assert [s.name for s in spans] == ["ctl", "gpu"]
        assert spans[1].start == 1.0 and spans[1].end == 3.0

    def test_simulator_without_profiler_unchanged(self):
        from repro.machine.simulator import MachineSimulator

        sim = MachineSimulator(2)
        a = sim.add(0, "control", 1.0)
        sim.add(1, "gpu", 2.0, deps=(a,))
        assert sim.run() == 3.0


class TestClear:
    def test_clear_resets_everything(self):
        prof = Profiler(clock=fake_clock())
        prof.phase("a", "b", prof.mark())
        prof.instant("i", "b")
        prof.clear()
        assert prof.spans == [] and prof.instants == []
        assert len(prof.metrics) == 0
