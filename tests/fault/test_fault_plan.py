"""Unit tests for the fault-injection framework itself.

Plans are immutable and seeded (same seed, same faults, forever); the
injector consumes firings at arm time and gates launch-targeted specs on
the active launch ordinal.
"""

import pytest

from repro.fault import (
    FAULT_KINDS,
    FAULT_PHASES,
    FAULT_SCOPES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    RetryPolicy,
    parse_fault,
)


class TestFaultSpec:
    def test_valid_spec_describes(self):
        spec = FaultSpec(kind="kill", scope="worker", target=(0,))
        assert "kill worker 0" in spec.describe()

    @pytest.mark.parametrize("kwargs", [
        dict(kind="explode", scope="worker", target=(0,)),
        dict(kind="kill", scope="node", target=(0,)),
        dict(kind="kill", scope="worker", target=(0,), phase="mapping"),
        dict(kind="kill", scope="point", target=(0,), phase="install"),
        dict(kind="kill", scope="worker", target=(0,), times=0),
        dict(kind="kill", scope="worker", target=()),
        dict(kind="kill", scope="worker", target=[0]),
        dict(kind="hang", scope="worker", target=(0,), hang_s=-1.0),
        dict(kind="kill", scope="worker", target=(0,), times=-3),
        # An attempt-keyed spec fires once, at a real ordinal, in a phase
        # some worker matches.
        dict(kind="kill", scope="shard", target=(0,), attempt=-1),
        dict(kind="kill", scope="shard", target=(0,), attempt=0, times=2),
        dict(kind="kill", scope="shard", target=(0,), attempt=0, times=-1),
        dict(kind="kill", scope="shard", target=(0,), attempt=0,
             phase="exection"),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_vocabulary_is_closed(self):
        assert set(FAULT_KINDS) == {"kill", "hang", "corrupt"}
        assert set(FAULT_SCOPES) == {"worker", "shard", "point"}
        assert set(FAULT_PHASES) == {
            "install", "expansion", "physical", "execution",
        }


class TestParseFault:
    def test_minimal(self):
        spec = parse_fault("kill:worker:0")
        assert (spec.kind, spec.scope, spec.target) == ("kill", "worker", (0,))
        assert spec.phase == "execution" and spec.times == 1

    def test_full_form_with_point_tuple(self):
        spec = parse_fault("kill:point:1,2:execution:-1")
        assert spec.target == (1, 2)
        assert spec.times == -1

    @pytest.mark.parametrize("text", [
        "kill", "kill:worker", "kill:worker:zero",
        "kill:worker:0:execution:soon", "kill:worker:0:execution:1:extra",
        "kill:shard:0:execution:-3",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault(text)


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(7, n_faults=3, workers=2, shards=4)
        b = FaultPlan.random(7, n_faults=3, workers=2, shards=4)
        assert a == b
        assert a.describe() == b.describe()

    def test_different_seeds_differ(self):
        plans = {FaultPlan.random(s, n_faults=3).describe()
                 for s in range(10)}
        assert len(plans) > 1

    def test_empty_plan_describes(self):
        assert FaultPlan().describe() == "empty fault plan"


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05)
        delays = [policy.backoff_s(a) for a in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]
        assert policy.backoff_s(0) == 0.0


class TestFaultInjector:
    def test_arm_consumes_firings(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", scope="worker", target=(0,)),
        ))
        inj = FaultInjector(plan)
        inj.begin_launch(0)
        assert len(inj.arm_shard(0, 0, [(0,), (1,)])) == 1
        # times=1 consumed at arm time: the retry sails through clean.
        assert inj.arm_shard(0, 0, [(0,), (1,)]) == []
        assert inj.fired_count == 1
        assert inj.exhausted()

    def test_unlimited_never_exhausts(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", scope="shard", target=(1,), times=-1),
        ))
        inj = FaultInjector(plan)
        inj.begin_launch(0)
        for _ in range(3):
            assert len(inj.arm_shard(1, 1, [(2,)])) == 1
        assert not inj.exhausted()

    def test_launch_ordinal_gates_arming(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="corrupt", scope="worker", target=(0,), launch=2),
        ))
        inj = FaultInjector(plan)
        inj.begin_launch(0)
        assert inj.arm_shard(0, 0, [(0,)]) == []
        inj.begin_launch(2)
        assert len(inj.arm_shard(0, 0, [(0,)])) == 1

    def test_point_scope_arms_only_owning_shard(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", scope="point", target=(3,)),
        ))
        inj = FaultInjector(plan)
        inj.begin_launch(0)
        assert inj.arm_shard(0, 0, [(0,), (1,)]) == []
        directives = inj.arm_shard(1, 1, [(2,), (3,)])
        assert directives == [("kill", "execution", (3,), 0.25)]

    def test_fire_inline_raises_for_kill(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", scope="point", target=(1,)),
        ))
        inj = FaultInjector(plan)
        inj.begin_launch(0)
        inj.fire_inline((0,), node=0)  # wrong point: nothing happens
        with pytest.raises(InjectedFaultError) as excinfo:
            inj.fire_inline((1,), node=0)
        assert excinfo.value.point == (1,)
        assert excinfo.value.spec is plan.specs[0]

    def test_fire_inline_gated_on_active_launch(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", scope="point", target=(1,)),
        ))
        inj = FaultInjector(plan)
        inj.fire_inline((1,), node=0)  # no active launch: inert
        assert inj.fired_count == 0
        inj.begin_launch(0)
        inj.end_launch()
        inj.fire_inline((1,), node=0)
        assert inj.fired_count == 0

    def test_fire_inline_hang_sleeps_and_continues(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="hang", scope="shard", target=(0,), hang_s=0.0),
        ))
        inj = FaultInjector(plan)
        inj.begin_launch(0)
        inj.fire_inline((0,), node=0)  # must not raise
        assert inj.fired_count == 1


class TestAttemptKey:
    """An attempt-keyed spec is live on one submission ordinal of its
    (launch, node) and fires once."""

    @staticmethod
    def _injector(**kwargs):
        spec = FaultSpec(kind="kill", scope="shard", target=(0,), **kwargs)
        inj = FaultInjector(FaultPlan(specs=(spec,)))
        inj.begin_launch(0)
        return inj

    def test_fires_only_on_its_ordinal(self):
        inj = self._injector(attempt=1, launch=0)
        assert inj.arm_shard(0, 1, [(1,)]) == []     # another node
        assert inj.arm_shard(0, 0, [(0,)]) == []     # attempt 0
        assert inj.arm_shard(0, 0, [(0,)]) == [
            ("kill", "execution", None, 0.25)
        ]                                            # attempt 1
        assert inj.arm_shard(0, 0, [(0,)]) == []     # fired once
        assert inj.exhausted()
        [event] = inj.events
        assert event["attempt"] == 1 and event["via"] == "worker"

    def test_ordinal_counts_per_launch(self):
        inj = self._injector(attempt=0, launch=1)
        assert inj.arm_shard(0, 0, [(0,)]) == []     # launch 0
        inj.begin_launch(1)
        assert len(inj.arm_shard(0, 0, [(0,)])) == 1

    def test_serial_ordinal_is_zero_without_submissions(self):
        inj = self._injector(attempt=0)
        inj.fire_inline((1,), node=1)                # another node
        with pytest.raises(InjectedFaultError):
            inj.fire_inline((0,), node=0)
        assert inj.events[0]["attempt"] == 0
        assert inj.events[0]["via"] == "inline"

    def test_serial_ordinal_counts_worker_submissions(self):
        # A fallback after two submissions of node 0 sees ordinal 2; the
        # two worker attempts never reach it.
        inj = self._injector(attempt=2)
        assert inj.arm_shard(0, 0, [(0,)]) == []
        assert inj.arm_shard(0, 0, [(0,)]) == []
        with pytest.raises(InjectedFaultError):
            inj.fire_inline((0,), node=0)
        assert inj.events[0]["attempt"] == 2
        inj.fire_inline((0,), node=0)                # fired once

    def test_describe_names_the_attempt(self):
        spec = FaultSpec(kind="corrupt", scope="shard", target=(0,),
                         launch=3, attempt=1)
        assert spec.describe() == (
            "corrupt shard 0 in execution (x1, @launch 3, attempt 1)"
        )
