"""Trace-to-runtime conformance: replay checker traces on the real backend.

The model checker proves properties of an *abstraction*; this module
closes the loop by replaying checker traces against the real executor and
asserting both reach the same terminal classification.  A witness trace
from :class:`~repro.formal.commit_model.CommitModel` (or
:class:`~repro.formal.poison_model.PoisonModel`) is compiled into a
:class:`~repro.fault.FaultPlan` — the one fault format ``repro faultsim``
and CI use — where every ``fault.*`` action becomes a shard-scoped
:class:`~repro.fault.FaultSpec` keyed on the same shard and attempt
ordinal the model faulted, and run through a real ``Runtime`` with the
matching worker count, shard count, and retry caps.  The commit scenarios
use as many shards as workers: the real backend dispatches one unit per
worker (a worker's slice of the launch), so each model shard is then
exactly one real unit, one node wide.  The real run must then land in the
model-predicted terminal class:

* ``committed`` — no fallbacks, no poison, byte-identical to fault-free;
* ``serial-fallback`` — fallbacks, no poison, still byte-identical;
* ``poisoned`` — at least one poisoned launch, origins matching.

``run_conformance()`` executes the five stock scenarios (one per terminal
class, a kill-only fallback, and a poison-propagation chain) and is what
``repro check --conform`` and ``tests/formal/test_conformance.py`` drive.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.data.partition import equal_partition
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.formal.commit_model import PHASES, CommitConfig, CommitModel
from repro.formal.kernel import find_trace
from repro.formal.poison_model import PoisonConfig, PoisonModel, _Launch
from repro.runtime import Runtime, RuntimeConfig, task
from repro.runtime.futures import TaskPoisonedError

__all__ = [
    "ConformResult",
    "run_conformance",
    "plan_from_trace",
    "SCENARIOS",
]

#: Hang faults must outlive the parent-side timeout that the model assumes
#: converts them into respawns.
_HANG_S = 1.2
_HANG_TIMEOUT_S = 0.3

_FAULT_RE = re.compile(
    r"fault\.(?P<kind>kill|corrupt|hang) w(?P<worker>\d+) "
    r"shard(?P<shard>\d+) attempt(?P<attempt>\d+)"
    r"(?: phase=(?P<phase>\w+))?(?: pord=(?P<pord>\d+))?"
)
#: The parent resubmits shard 0 (ladder tiers 1 and 2).
_RESUBMIT_RE = re.compile(r"collect\.(?:retry|respawn) shard0 ")


# ----------------------------------------------------------- real programs
@task(privileges=["reads writes"])
def _bump(ctx, r):
    r.write("x", r.read("x") + 1.0)


@task(privileges=["reads", "writes"])
def _derive(ctx, src, dst):
    dst.write("x", src.read("x") * 2.0 + 1.0)


def plan_from_trace(trace, launch: int = 0) -> FaultPlan:
    """Compile a commit-model trace's fault actions into a fault plan.

    Worker-side actions map directly: the model faults shard ``s`` on its
    ``a``-th submission, the plan arms the same fault on attempt ``a`` of
    node ``s``.  A ``serial.fault`` action becomes a shard-0 kill keyed on
    shard 0's number of submissions — its first, plus one per retry or
    respawn the trace gives it — which is the ordinal the serial fallback
    path reads, and one no worker submission reaches.
    """
    specs: List[FaultSpec] = []
    submissions = 1
    for action, _state in trace:
        m = _FAULT_RE.match(action)
        if m:
            phase = m.group("phase")
            if phase is None and m.group("pord") is not None:
                # Phase-ordinal stamp alone is enough to compile: the
                # ordinal indexes the model's PHASES tuple.
                phase = PHASES[int(m.group("pord"))]
            specs.append(FaultSpec(
                kind=m.group("kind"),
                scope="shard",
                target=(int(m.group("shard")),),
                phase=phase or "execution",
                launch=launch,
                hang_s=_HANG_S,
                attempt=int(m.group("attempt")),
            ))
        elif _RESUBMIT_RE.match(action):
            submissions += 1
        elif action == "serial.fault":
            specs.append(FaultSpec(kind="kill", scope="shard", target=(0,),
                                   launch=launch, attempt=submissions))
    return FaultPlan(tuple(specs))


def _policy_for(cfg: CommitConfig, plan: FaultPlan) -> RetryPolicy:
    has_hang = any(spec.kind == "hang" for spec in plan.specs)
    return RetryPolicy(
        same_worker_retries=cfg.same_worker_retries,
        respawns=cfg.respawns,
        backoff_base_s=1e-4,
        backoff_cap_s=1e-3,
        shard_timeout_s=_HANG_TIMEOUT_S if has_hang else 30.0,
    )


def _stats_dict(rt) -> dict:
    out = {}
    for f in dataclasses.fields(rt.stats):
        value = getattr(rt.stats, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def _run_commit_program(shards: int, workers: int,
                        plan: Optional[FaultPlan] = None,
                        policy: Optional[RetryPolicy] = None):
    """Two ``_bump`` launches over ``shards`` single-point nodes — with
    ``shards == workers``, one unit per model shard.

    The second launch is the commit-correctness probe: if launch 0 merged
    a stale cache shipment, launch 1 ships a wrong delta and bails."""
    rt = Runtime(RuntimeConfig(
        workers=workers, n_nodes=shards,
        fault_plan=plan, retry=policy,
    ))
    r = rt.create_region("cr", 4 * shards, {"x": "f8"})
    r.storage("x")[:] = np.arange(4.0 * shards)
    p = equal_partition(f"cp{r.uid}", r, shards)
    for _ in range(2):
        rt.index_launch(_bump, shards, p)
    return rt, r.storage("x").tobytes()


def _classify_run(rt) -> str:
    if rt.stats.launches_poisoned > 0:
        return "poisoned"
    if rt.backend.stats.fallbacks > 0:
        return "serial-fallback"
    return "committed"


@dataclass
class ConformResult:
    scenario: str
    predicted: str                    # model terminal classification
    actual: str                       # real-run classification
    ok: bool
    byte_identical: Optional[bool] = None   # None where not applicable
    detail: str = ""
    trace_actions: List[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        byte = (
            "" if self.byte_identical is None
            else f", byte-identical={self.byte_identical}"
        )
        return (
            f"{status} {self.scenario}: model={self.predicted} "
            f"real={self.actual}{byte} ({self.detail})"
        )


class _ReplayableFaults:
    """Witness-search wrapper keeping only replay-deterministic faults.

    A witness trace is safe to assert a terminal class on only when
    every fault in it surfaces in the real backend exactly where the model
    discovers it (at the victim shard's collect):

    * **corrupt** faults damage exactly one result blob and nothing else —
      always interleaving-robust;
    * **kills** are kept only when the phase-ordinal stamp says execution
      phase (``pord=1``: the worker at least ran the victim's body before
      dying).

    There used to be a second condition on kills: the victim had to be the
    last shard in its worker's queue, because a death with sibling shards
    of the same launch still to submit could surface at a sibling's
    *submit* (uncapped submit-path respawn) instead of at collect.  It is
    deleted: a worker now gets one unit per launch in one submit, so no
    sibling of the launch is ever queued behind the victim, and the
    scenarios use one model shard per worker (queues never hold two).

    Dropped entirely: install-phase kills (``pord=0``, immediate death)
    and hangs (discovery depends on timeout tuning).  Before the
    phase-ordinal stamp, kills could not be told apart at all and witness
    search was corrupt-only; the stamp un-skips kill coverage.

    ``kills_only=True`` additionally drops corrupts, forcing the witness
    to exercise the kill→respawn rungs of the ladder.
    """

    def __init__(self, model, kills_only: bool = False):
        self.model = model
        self.kills_only = kills_only
        self.TERMINALS = model.TERMINALS

    def initial_state(self):
        return self.model.initial_state()

    def actions(self, s):
        acts = []
        for a, t in self.model.actions(s):
            if a.startswith("fault.hang"):
                continue
            if a.startswith("fault.kill") and " pord=1" not in a:
                continue
            if self.kills_only and a.startswith("fault.corrupt"):
                continue
            acts.append((a, t))
        return acts

    def classify(self, s):
        return self.model.classify(s)

    def invariants(self):
        return self.model.invariants()


# ------------------------------------------------------ commit-model cases
def _commit_scenario(name: str, cfg: CommitConfig, predicate,
                     predicted: str, faults: Optional[str] = None
                     ) -> ConformResult:
    """``faults``: None searches the unrestricted model; ``"replayable"``
    keeps corrupts + execution-phase kills; ``"kills"`` keeps only
    execution-phase kills."""
    model = CommitModel(cfg)
    if faults == "replayable":
        searched = _ReplayableFaults(model)
    elif faults == "kills":
        searched = _ReplayableFaults(model, kills_only=True)
    else:
        searched = model
    trace = find_trace(searched, predicate)
    if trace is None:
        return ConformResult(name, predicted, "no-witness", ok=False,
                             detail="model produced no witness trace")
    plan = plan_from_trace(trace)
    policy = _policy_for(cfg, plan)

    ref_rt, ref_bytes = _run_commit_program(cfg.shards, cfg.workers)
    rt, out_bytes = _run_commit_program(cfg.shards, cfg.workers,
                                        plan, policy)
    actual = _classify_run(rt)
    identical = None
    detail = (
        f"{len(plan.specs)} attempt-keyed fault(s), "
        f"retries={rt.backend.stats.shard_retries}, "
        f"respawns={rt.backend.stats.worker_respawns}, "
        f"fallbacks={rt.backend.stats.fallbacks}, "
        f"poisoned={rt.stats.launches_poisoned}"
    )
    ok = actual == predicted
    if predicted in ("committed", "serial-fallback"):
        # Recovered and fallback runs promise byte-identity to fault-free.
        identical = (
            out_bytes == ref_bytes
            and _stats_dict(rt) == _stats_dict(ref_rt)
        )
        ok = ok and identical
        if rt.fault_injector is not None:
            ok = ok and rt.fault_injector.fired_count >= len(plan.specs)
    return ConformResult(name, predicted, actual, ok=ok,
                         byte_identical=identical, detail=detail,
                         trace_actions=[a for a, _ in trace])


def _scenario_committed_with_recovery() -> ConformResult:
    cfg = CommitConfig(workers=2, shards=2, faults=1,
                       same_worker_retries=1, respawns=2)
    return _commit_scenario(
        "committed-with-recovery", cfg,
        lambda s: s.outcome == "committed" and any(g > 0 for g in s.gens),
        "committed",
    )


def _scenario_serial_fallback() -> ConformResult:
    cfg = CommitConfig(workers=2, shards=2, faults=3,
                       same_worker_retries=1, respawns=1)
    return _commit_scenario(
        "serial-fallback", cfg,
        lambda s: s.outcome == "serial",
        "serial-fallback",
        faults="replayable",
    )


def _scenario_serial_fallback_via_kill() -> ConformResult:
    """The scenario the corrupt-only restriction used to skip: a witness
    built purely from kills, climbing respawn rungs to the fallback."""
    cfg = CommitConfig(workers=2, shards=2, faults=3,
                       same_worker_retries=1, respawns=1)
    return _commit_scenario(
        "serial-fallback-via-kill", cfg,
        lambda s: s.outcome == "serial",
        "serial-fallback",
        faults="kills",
    )


def _scenario_poisoned() -> ConformResult:
    cfg = CommitConfig(workers=2, shards=2, faults=4,
                       same_worker_retries=1, respawns=1)
    return _commit_scenario(
        "poisoned", cfg,
        lambda s: s.outcome == "poisoned",
        "poisoned",
        faults="replayable",
    )


# ------------------------------------------------------ poison-model case
#: Mirror of the real program below: regions A..E are 0..4.
_CONFORM_PROGRAM = (
    _Launch("L0", (0,), (0,)),     # bump A
    _Launch("L1", (1,), (1,)),     # bump B
    _Launch("L2", (0,), (1,)),     # derive A -> B
    _Launch("L3", (1,), (2,)),     # derive B -> C
    _Launch("L4", (2,), (3,)),     # derive C -> D
    _Launch("L5", (4,), (4,)),     # bump E (independent)
)


def _run_poison_program(plan: Optional[FaultPlan] = None):
    """The real twin of ``_CONFORM_PROGRAM``, on the serial backend where
    shard faults fire inline."""
    rt = Runtime(RuntimeConfig(workers=1, n_nodes=2, fault_plan=plan))
    regions = []
    parts = []
    for name in "abcde":
        r = rt.create_region(f"pz_{name}", 8, {"x": "f8"})
        r.storage("x")[:] = np.arange(8.0)
        regions.append(r)
        parts.append(equal_partition(f"pzp{r.uid}", r, 4))
    a, b, c, d, e = parts
    fmaps = [
        rt.index_launch(_bump, 4, a),
        rt.index_launch(_bump, 4, b),
        rt.index_launch(_derive, 4, a, b),
        rt.index_launch(_derive, 4, b, c),
        rt.index_launch(_derive, 4, c, d),
        rt.index_launch(_bump, 4, e),
    ]
    statuses = []
    for fm in fmaps:
        try:
            fm.get((0,))
            statuses.append(("committed", None))
        except TaskPoisonedError as err:
            statuses.append(("poisoned", err))
    return rt, regions, statuses


def _scenario_poison_propagation() -> ConformResult:
    name = "poison-propagation"
    model = PoisonModel(PoisonConfig(program=_CONFORM_PROGRAM, faults=1))
    trace = find_trace(
        model,
        lambda s: (
            model.classify(s) == "poisoned"
            and isinstance(s.statuses[0], tuple)
            and sum(1 for st in s.statuses if st == "committed") >= 2
        ),
    )
    if trace is None:
        return ConformResult(name, "poisoned", "no-witness", ok=False,
                             detail="model produced no witness trace")
    final = trace[-1][1]
    predicted_poisoned = [
        i for i, st in enumerate(final.statuses) if isinstance(st, tuple)
    ]
    # The model faulted launch 0 directly; replay that inline.
    plan = FaultPlan((
        FaultSpec(kind="kill", scope="shard", target=(0,), launch=0),
    ))
    ref_rt, ref_regions, _ = _run_poison_program()
    rt, regions, statuses = _run_poison_program(plan)

    actual_poisoned = [
        i for i, (st, _) in enumerate(statuses) if st == "poisoned"
    ]
    actual = "poisoned" if actual_poisoned else "clean"
    ok = actual == "poisoned" and actual_poisoned == predicted_poisoned
    # Origin chaining: every poison names the directly-faulted launch.
    root_err = statuses[0][1]
    if ok:
        for i in actual_poisoned:
            err = statuses[i][1]
            if err.launch != root_err.launch:
                ok = False
        # The independent launch must be untouched, byte for byte.
        last = len(statuses) - 1
        if statuses[last][0] != "committed" or (
            regions[4].storage("x").tobytes()
            != ref_regions[4].storage("x").tobytes()
        ):
            ok = False
    return ConformResult(
        name, "poisoned", actual, ok=ok,
        detail=(
            f"model poisons {predicted_poisoned}, "
            f"real poisons {actual_poisoned}, "
            f"origin={getattr(root_err, 'launch', None)!r}"
        ),
        trace_actions=[a for a, _ in trace],
    )


SCENARIOS = (
    _scenario_committed_with_recovery,
    _scenario_serial_fallback,
    _scenario_serial_fallback_via_kill,
    _scenario_poisoned,
    _scenario_poison_propagation,
)


def run_conformance() -> List[ConformResult]:
    """Run every stock scenario; callers check ``all(r.ok for r in ...)``."""
    return [build() for build in SCENARIOS]
