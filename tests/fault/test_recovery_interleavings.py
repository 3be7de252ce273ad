"""Deterministic regressions for suspicious recovery-ladder interleavings.

These are the orderings the commit-protocol model flags as the dangerous
ones (see ``src/repro/formal/commit_model.py``): a shard *succeeding* on a
generation that a sibling's respawn then retires — which dispatching one
unit per worker now rules out by construction — and a hang landing in the
middle of a tier-1 same-worker retry.  An attempt-keyed
:class:`~repro.fault.FaultSpec` pins the fault to an exact shard
submission ordinal, so each interleaving reproduces run after run instead
of depending on pool timing.
"""

from repro.fault import FaultPlan, FaultSpec, RetryPolicy

from tests.exec.test_parallel_equivalence import full_stats, run_program

#: Short timeout + long hang: the parent-side hang detector always wins.
_HANG_S = 1.2
_TIMEOUT_RETRY = RetryPolicy(
    same_worker_retries=1,
    respawns=2,
    backoff_base_s=1e-4,
    backoff_cap_s=1e-3,
    shard_timeout_s=0.3,
)

_OPS = ("bump8", "copy", "total", "reduce")


def _run(plan=None, retry=None):
    cfg = dict(n_nodes=4)
    if plan is not None:
        cfg.update(fault_plan=plan, retry=retry or _TIMEOUT_RETRY)
    rt, x, y, futures, edges = run_program(_OPS, 2, None, cfg, workers=2)
    return rt, (x.tobytes(), y.tobytes(), futures, edges)


class TestHangInASharedUnit:
    """Nodes 0 and 2 share worker 0 (affinity i % 2) and so one unit.
    Node 2's first attempt hangs: the timeout respawns worker 0 and the
    fresh process reruns the whole unit, node 0 included.  Node 0 can no
    longer succeed on a generation a sibling's respawn then retires, so no
    cache shipment is stamped stale: the interleaving the
    ``collect-time-gen-stamp`` mutation needs is left to the model
    (``repro check``), which still queues several shards per worker."""

    PLAN = FaultPlan((
        FaultSpec(kind="hang", scope="shard", target=(2,), attempt=0,
                  hang_s=_HANG_S, launch=0),
    ))

    def test_unit_respawns_whole_and_run_identical(self):
        ref_rt, ref_out = _run()
        rt, out = _run(self.PLAN)

        assert rt.fault_injector.fired_count >= 1
        bstats = rt.backend.stats
        # The respawn path ran: hang -> timeout -> worker replacement,
        # with no tier-1 retry (a timeout goes straight to tier 2).
        assert bstats.shard_timeouts >= 1
        assert bstats.worker_respawns >= 1
        assert bstats.shard_retries == 0
        assert bstats.fallbacks == 0
        # The unit's shipment carries the respawned generation.
        assert bstats.stale_shipments_dropped == 0
        assert rt.stats.launches_poisoned == 0
        assert out == ref_out
        assert full_stats(rt) == full_stats(ref_rt)


class TestHangDuringTier1Retry:
    """A corrupt result sends a shard down tier 1 (same-worker retry) and
    the *retry* hangs: the timeout must climb to tier 2 and respawn, not
    re-enter tier 1 or wedge the collect loop."""

    PLAN = FaultPlan((
        FaultSpec(kind="corrupt", scope="shard", target=(0,), attempt=0,
                  launch=0),
        FaultSpec(kind="hang", scope="shard", target=(0,), attempt=1,
                  hang_s=_HANG_S, launch=0),
    ))

    def test_timeout_escalates_the_retry_to_respawn(self):
        ref_rt, ref_out = _run()
        rt, out = _run(self.PLAN)

        # Both attempt-keyed specs fired: the corrupt on attempt 0, the
        # hang on the tier-1 resubmission.
        assert rt.fault_injector.fired_count >= 2
        attempts = [e["attempt"] for e in rt.fault_injector.events
                    if "attempt" in e]
        assert 0 in attempts and 1 in attempts

        bstats = rt.backend.stats
        assert bstats.shard_retries >= 1      # tier 1 engaged
        assert bstats.shard_timeouts >= 1     # the retry's hang detected
        assert bstats.worker_respawns >= 1    # escalated to tier 2
        assert bstats.fallbacks == 0
        assert rt.stats.launches_poisoned == 0
        assert out == ref_out
        assert full_stats(rt) == full_stats(ref_rt)
