"""The ``repro faultsim`` driver: inject faults, recover, compare bytes.

One invocation runs an application twice with identical configuration —
once fault-free (the reference) and once under a :class:`FaultPlan` — and
compares every observable: the result array byte-for-byte, and the full
:class:`~repro.runtime.pipeline.PipelineStats` table.  The contract being
exercised is the heart of the fault-tolerance layer: *a recovered run is
indistinguishable from a run where the fault never happened*.

Outcomes map to process exit codes (the CI fault smoke relies on these):

* ``0`` — the plan fired at least once, every fault was recovered, and the
  faulted run is byte-identical to the reference.
* ``1`` — recovered but **not** identical (a determinism bug), or the plan
  never fired (the smoke would silently test nothing).
* ``2`` — the plan was unrecoverable: the run poisoned one or more
  launches.  ``repro faultsim`` reports this as one line.

Runtime imports happen inside :func:`run_faultsim` on purpose: this module
is re-exported from :mod:`repro.fault`, which the runtime itself imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.fault.plan import FaultPlan, RetryPolicy

__all__ = ["FAULTSIM_APPS", "FaultSimReport", "run_faultsim"]

FAULTSIM_APPS = ("circuit", "stencil")


@dataclass
class FaultSimReport:
    """Everything one faultsim run observed, ready to render."""

    app: str
    workers: int
    plan: str                       # FaultPlan.describe()
    faults_fired: int = 0
    poisoned_launches: int = 0
    poison_message: str = ""
    identical: bool = False
    stats_identical: bool = False
    shard_retries: int = 0
    worker_respawns: int = 0
    shard_timeouts: int = 0
    backoff_total_s: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        return self.poisoned_launches == 0

    @property
    def exit_code(self) -> int:
        if not self.recovered:
            return 2
        if self.faults_fired == 0:
            return 1  # the plan tested nothing; do not report success
        return 0 if (self.identical and self.stats_identical) else 1

    def summary_line(self) -> str:
        """The one-line outcome (the only output for exit code 2)."""
        if not self.recovered:
            return (
                f"faultsim {self.app}: poisoned — {self.poisoned_launches} "
                f"launch(es) lost to unrecovered faults: {self.poison_message}"
            )
        if self.faults_fired == 0:
            return f"faultsim {self.app}: plan never fired ({self.plan})"
        verdict = (
            "recovered, byte-identical"
            if self.identical and self.stats_identical
            else "recovered BUT NOT IDENTICAL"
        )
        return (
            f"faultsim {self.app}: {self.faults_fired} fault(s) fired, "
            f"{verdict}"
        )

    def render(self) -> str:
        lines = [
            self.summary_line(),
            f"  plan            : {self.plan}",
            f"  workers         : {self.workers}",
            f"  faults fired    : {self.faults_fired}",
            f"  shard retries   : {self.shard_retries}",
            f"  worker respawns : {self.worker_respawns}",
            f"  shard timeouts  : {self.shard_timeouts}",
            f"  backoff slept   : {self.backoff_total_s:.3f}s wall clock",
            f"  result bytes    : "
            f"{'identical' if self.identical else 'MISMATCH'}",
            f"  pipeline stats  : "
            f"{'identical' if self.stats_identical else 'MISMATCH'}",
        ]
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def _run_app(app: str, steps: Optional[int], seed: int, cfg):
    """Build and run one application; returns (runtime, result ndarray)."""
    from repro.runtime.runtime import Runtime

    rt = Runtime(cfg)
    if app == "circuit":
        from repro.apps.circuit import (
            CircuitConfig,
            build_circuit,
            run_circuit,
        )

        graph = build_circuit(
            rt,
            CircuitConfig(
                n_pieces=4, nodes_per_piece=16, wires_per_piece=32,
                steps=steps or 5, seed=seed,
            ),
        )
        result = run_circuit(rt, graph)
    elif app == "stencil":
        from repro.apps.stencil import (
            StencilConfig,
            build_stencil,
            run_stencil,
        )

        grid = build_stencil(
            rt, StencilConfig(n=32, blocks=(2, 2), radius=2, steps=steps or 4)
        )
        result = run_stencil(rt, grid)
    else:
        raise ValueError(
            f"unknown faultsim app {app!r}; choose from {FAULTSIM_APPS}"
        )
    return rt, result


def run_faultsim(
    app: str,
    plan: FaultPlan,
    workers: int = 2,
    steps: Optional[int] = None,
    seed: int = 42,
    retry: Optional[RetryPolicy] = None,
    transport: Optional[str] = None,
) -> FaultSimReport:
    """Reference run vs faulted run; see the module docstring for codes."""
    from repro.runtime.runtime import RuntimeConfig

    report = FaultSimReport(app=app, workers=workers, plan=plan.describe())
    base = dict(n_nodes=2, workers=workers, transport=transport)
    ref_rt, ref_result = _run_app(app, steps, seed, RuntimeConfig(**base))
    if ref_rt.stats.launches_poisoned:
        raise RuntimeError(
            "fault-free reference run reported poisoned launches"
        )

    faulted_cfg = RuntimeConfig(**base, fault_plan=plan, retry=retry)
    rt, result = _run_app(app, steps, seed, faulted_cfg)

    inj = rt.fault_injector
    report.faults_fired = inj.fired_count if inj is not None else 0
    report.poisoned_launches = rt.stats.launches_poisoned
    if rt.poison_log:
        report.poison_message = str(rt.poison_log[0])

    stats = getattr(rt.backend, "stats", None)
    if stats is not None:
        report.shard_retries = stats.shard_retries
        report.worker_respawns = stats.worker_respawns
        report.shard_timeouts = stats.shard_timeouts
        report.backoff_total_s = stats.backoff_total_s

    if report.recovered:
        report.identical = result.tobytes() == ref_result.tobytes()
        # The byte-identity contract covers the pipeline tables too: a
        # recovered fault may not perturb a single counter.
        report.stats_identical = rt.stats == ref_rt.stats
        if not report.identical:
            report.notes.append("result arrays differ")
        if not report.stats_identical:
            report.notes.append("PipelineStats differ between runs")
    return report
