"""The commit-protocol model: correct variant proves its invariants on
every reachable state, every seeded mutation is caught with a
counterexample naming the right invariant."""

import pytest

from repro.formal.commit_model import (
    MUTATIONS, CommitConfig, CommitModel,
)
from repro.formal.kernel import explore, find_trace


class TestConfig:
    def test_parse_round_trip(self):
        cfg = CommitConfig.parse("3x5x2")
        assert (cfg.workers, cfg.shards, cfg.faults) == (3, 5, 2)

    @pytest.mark.parametrize("text", ["", "2x3", "2x3x4x5", "axbxc", "0x1x1"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            CommitConfig.parse(text)

    def test_describe_mentions_bounds(self):
        text = CommitConfig(workers=2, shards=3, faults=4).describe()
        assert "2 worker(s)" in text and "4 fault(s)" in text


class TestCorrectProtocol:
    def test_default_config_holds_all_invariants(self):
        result = explore(CommitModel())
        assert result.ok, result.summary()
        assert not result.truncated

    def test_default_config_reaches_every_terminal(self):
        # The default fault budget is chosen so one bounded check
        # witnesses commit, serial fallback, AND poison.
        result = explore(CommitModel())
        assert set(result.terminals) == {
            "committed", "serial-fallback", "poisoned"
        }

    def test_fault_free_run_commits_uniquely(self):
        result = explore(CommitModel(CommitConfig(faults=0)))
        assert result.ok
        assert result.terminals == {"committed": 1}

    def test_single_worker_config_holds(self):
        result = explore(CommitModel(CommitConfig(workers=1, shards=2,
                                                  faults=3)))
        assert result.ok, result.summary()

    def test_stale_recovery_is_reachable(self):
        # The interesting interleaving: a shard commits with a worker
        # generation above 0 — i.e. it survived a sibling's respawn.
        trace = find_trace(
            CommitModel(),
            lambda s: s.outcome == "committed"
            and any(g > 0 for g in s.gens)
            and any(k != 0 and g == 0 for k, g, _ in s.shipments),
        )
        assert trace is not None
        actions = [a for a, _ in trace]
        assert any(a.startswith("collect.respawn") for a in actions)


class TestMutations:
    def _violated(self, name):
        result = explore(CommitModel(mutation=name))
        assert not result.ok, f"mutation {name} was not caught"
        return {(v.kind, v.name) for v in result.violations}

    def test_collect_time_gen_stamp_breaks_coherence(self):
        # The real pre-PR-6 bug: collect-time stamping launders state
        # banked by an already-respawned worker past the commit filter.
        assert ("invariant", "cache-coherence") in self._violated(
            "collect-time-gen-stamp"
        )

    def test_skip_commit_gen_check_caught(self):
        violated = self._violated("skip-commit-gen-check")
        assert ("invariant", "no-stale-commit") in violated
        assert ("invariant", "cache-coherence") in violated

    def test_respawn_despite_stale_caught(self):
        assert ("invariant", "no-double-respawn") in self._violated(
            "respawn-despite-stale"
        )

    def test_every_commit_mutation_has_counterexample(self):
        for name in MUTATIONS:
            result = explore(CommitModel(mutation=name))
            assert not result.ok, f"mutation {name} was not caught"
            assert all(v.trace[0][0] == "<init>"
                       for v in result.violations)

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            CommitModel(mutation="nope")


class TestRendering:
    def test_state_json_is_serializable(self):
        import json

        model = CommitModel()
        payload = model.state_json(model.initial_state())
        text = json.dumps(payload)
        assert '"outcome": "dispatching"' in text
        assert len(payload["shards"]) == model.cfg.shards
        assert len(payload["workers"]) == model.cfg.workers


class TestInPlaceWrites:
    """The undo protocol behind in-place writes (exec/shm.py): every
    committed or serially re-run launch applies each shard exactly once."""

    def _violated(self, name):
        result = explore(CommitModel(mutation=name))
        assert not result.ok, f"mutation {name} was not caught"
        return {(v.kind, v.name) for v in result.violations}

    @pytest.mark.parametrize("name", [
        "restore-before-reap",
        "retry-without-restore",
        "restore-torn-undo",
        "fallback-restores-failed-only",
    ])
    def test_undo_mutation_double_applies(self, name):
        assert ("invariant", "exactly-once") in self._violated(name)

    def test_zombie_write_lands_after_the_restore(self):
        trace = explore(CommitModel(mutation="restore-before-reap"),
                        stop_at_first=True).violations[0].trace
        actions = [a for a, _ in trace]
        assert any(a.startswith("fault.hang") for a in actions)
        assert any(a.startswith("zombie.write") for a in actions)

    def test_torn_slot_and_landed_sibling_are_met(self):
        # Anti-vacuity: the correct protocol reaches a torn undo slot, and
        # the fallback mutant's counterexample bails after a sibling's
        # write landed in place.
        assert find_trace(CommitModel(), lambda s: -2 in s.undo) is not None
        trace = explore(CommitModel(mutation="fallback-restores-failed-only"),
                        stop_at_first=True).violations[0].trace
        actions = [a for a, _ in trace]
        bail = next(i for i, a in enumerate(actions)
                    if a.startswith("collect.bail"))
        assert any(a.startswith("work.complete") for a in actions[:bail])
