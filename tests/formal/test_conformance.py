"""Trace-to-runtime conformance and the ``repro check`` CLI.

The conformance scenarios are the PR's acceptance gate: checker traces
compiled into attempt-keyed fault plans must drive the real ``ParallelBackend`` to
the model-predicted terminal class, byte-identically where the model says
so.
"""

import json

from repro.cli import main
from repro.fault import FaultSpec
from repro.formal.conform import SCENARIOS, plan_from_trace, run_conformance


class TestScheduleCompilation:
    def test_fault_actions_become_worker_entries(self):
        trace = [
            ("<init>", None),
            ("fault.corrupt w1 shard2 attempt0 phase=execution", None),
            ("fault.kill w0 shard0 attempt1 phase=install", None),
            ("fault.hang w0 shard1 attempt0", None),
            ("work.complete w1 shard2", None),
        ]
        plan = plan_from_trace(trace, launch=3)
        assert [
            (s.scope, s.target, s.attempt, s.kind, s.phase, s.times)
            for s in plan.specs
        ] == [
            ("shard", (2,), 0, "corrupt", "execution", 1),
            ("shard", (0,), 1, "kill", "install", 1),
            ("shard", (1,), 0, "hang", "execution", 1),
        ]
        assert all(s.launch == 3 for s in plan.specs)

    def test_serial_fault_becomes_inline_entry(self):
        # Keyed on shard 0's submission count: its first submission plus
        # one per retry or respawn, so no worker attempt can fire it.
        [spec] = plan_from_trace([("serial.fault", None)]).specs
        assert spec == FaultSpec(kind="kill", scope="shard", target=(0,),
                                 launch=0, attempt=1)
        trace = [
            ("<init>", None),
            ("fault.kill w0 shard0 attempt0 phase=execution pord=1", None),
            ("collect.respawn shard0 kind=broken", None),
            ("fault.corrupt w1 shard1 attempt0 phase=execution pord=1",
             None),
            ("collect.retry shard1 kind=corrupt", None),
            ("collect.retry shard0 kind=corrupt", None),
            ("collect.bail shard0 kind=corrupt", None),
            ("serial.fault", None),
        ]
        assert plan_from_trace(trace).specs[-1].attempt == 3

    def test_non_fault_actions_ignored(self):
        trace = [("<init>", None), ("collect.ok shard0", None),
                 ("commit", None)]
        assert plan_from_trace(trace).specs == ()

    def test_phase_ordinal_stamp_compiles(self):
        # Stamped actions (phase name + pord) and ordinal-only actions
        # both compile to the right phase.
        trace = [
            ("fault.kill w1 shard1 attempt0 phase=execution pord=1", None),
            ("fault.corrupt w0 shard0 attempt1 phase=install pord=0", None),
            ("fault.kill w0 shard2 attempt0 pord=0", None),
        ]
        plan = plan_from_trace(trace)
        assert [
            (s.target, s.attempt, s.kind, s.phase)
            for s in plan.specs
        ] == [
            ((1,), 0, "kill", "execution"),
            ((0,), 1, "corrupt", "install"),
            ((2,), 0, "kill", "install"),
        ]


class TestConformance:
    def test_all_scenarios_pass(self):
        # >= 3 distinct checker traces replayed on the real backend,
        # covering every terminal class.
        results = run_conformance()
        assert len(results) >= 3
        for res in results:
            assert res.ok, res.summary()
        assert {r.predicted for r in results} == {
            "committed", "serial-fallback", "poisoned"
        }

    def test_recovered_scenarios_are_byte_identical(self):
        by_name = {r.scenario: r for r in run_conformance()}
        assert by_name["committed-with-recovery"].byte_identical is True
        assert by_name["serial-fallback"].byte_identical is True
        assert by_name["serial-fallback-via-kill"].byte_identical is True

    def test_kill_witness_replays(self):
        """The scenario the old corrupt-only restriction skipped: a
        pure-kill witness (phase-ordinal-stamped, last-queued victim)
        compiled into a fault plan and replayed to the predicted class."""
        by_name = {r.scenario: r for r in run_conformance()}
        res = by_name["serial-fallback-via-kill"]
        assert res.ok, res.summary()
        kills = [a for a in res.trace_actions if a.startswith("fault.kill")]
        assert kills and all("pord=1" in a for a in kills)
        assert not any(
            a.startswith(("fault.corrupt", "fault.hang"))
            for a in res.trace_actions
        )

    def test_scenarios_carry_their_traces(self):
        for build in SCENARIOS:
            res = build()
            assert res.ok, res.summary()
            assert res.trace_actions[0] == "<init>"
            assert "PASS" in res.summary()


class TestCheckCli:
    def test_default_check_is_clean(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "CommitModel" in out and "PoisonModel" in out
        assert "0 violation(s) total" in out

    def test_single_model_selection(self, capsys):
        assert main(["check", "--model", "poison"]) == 0
        out = capsys.readouterr().out
        assert "PoisonModel" in out and "CommitModel" not in out

    def test_config_shapes_the_commit_bound(self, capsys):
        assert main(["check", "--model", "commit",
                     "--config", "2x2x1"]) == 0
        assert "2 worker(s) x 2 shard(s) x 1 fault(s)" in (
            capsys.readouterr().out
        )

    def test_mutants_exit_nonzero_with_one_line_report(self, capsys):
        assert main(["check", "--mutate", "collect-time-gen-stamp"]) == 1
        out = capsys.readouterr().out
        assert "invariant violation [cache-coherence]" in out

    def test_every_listed_mutation_is_caught(self, capsys):
        assert main(["check", "--list-mutations"]) == 0
        names = [line.split()[0] for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert len(names) == 9
        for name in names:
            assert main(["check", "--mutate", name]) == 1, name
        capsys.readouterr()

    def test_trace_export(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["check", "--trace", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert {m["model"] for m in payload["models"]} == {
            "CommitModel", "PoisonModel"
        }

    def test_mutant_trace_contains_counterexample(self, tmp_path, capsys):
        out_path = tmp_path / "mutant.json"
        assert main(["check", "--mutate", "skip-read-taint",
                     "--trace", str(out_path)]) == 1
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["model"] == "PoisonModel"
        assert payload["violations"]
        steps = payload["violations"][0]["trace"]
        assert steps[0]["action"] == "<init>"
        assert "launches" in steps[-1]["state"]

    def test_operational_errors_exit_2(self, tmp_path, capsys):
        assert main(["check", "--config", "bogus"]) == 2
        assert "bad config" in capsys.readouterr().err
        assert main(["check", "--mutate", "nope"]) == 2
        assert "unknown mutation" in capsys.readouterr().err
        missing = tmp_path / "no-such-dir" / "x.json"
        assert main(["check", "--trace", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert err.count("\n") == 1
