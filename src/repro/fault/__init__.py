"""Deterministic fault injection and recovery (see docs/fault-tolerance.md).

Public surface:

* :class:`FaultPlan` / :class:`FaultSpec` — seeded, immutable descriptions
  of which worker/shard/point fails, how (kill / hang / corrupt), at which
  pipeline phase, and optionally on which submission attempt; wired in via
  ``RuntimeConfig.fault_plan``.
* :class:`RetryPolicy` — caps for the recovery ladder (same-worker retry →
  respawn → serial fallback → poison); ``RuntimeConfig.retry``.
* :class:`FaultInjector` — per-run firing state (the runtime creates one
  from the config's plan).
* :class:`InjectedFaultError` — the only exception the runtime converts
  into poisoned futures.
* :func:`run_faultsim` — the ``repro faultsim`` driver: a fault-free
  reference run vs a faulted run, compared byte for byte.
"""

from repro.fault.inject import FaultInjector
from repro.fault.plan import (
    FAULT_KINDS,
    FAULT_PHASES,
    FAULT_SCOPES,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    RetryPolicy,
    parse_fault,
)
from repro.fault.sim import FaultSimReport, run_faultsim

__all__ = [
    "FAULT_KINDS",
    "FAULT_PHASES",
    "FAULT_SCOPES",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedFaultError",
    "RetryPolicy",
    "FaultSimReport",
    "parse_fault",
    "run_faultsim",
]
