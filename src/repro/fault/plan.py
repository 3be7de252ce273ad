"""Deterministic fault plans: what breaks, where, and when.

A :class:`FaultSpec` names one injectable fault — *kill* a worker process,
*hang* it for a bounded interval, or *corrupt* its result blob — scoped to
a worker index, a shard (distribution node), or a single point task, and
anchored to one pipeline phase of the shard body (install / expansion /
physical / execution).  A :class:`FaultPlan` is an immutable bag of specs
plus the seed that generated it, so a faulted run is exactly reproducible:
the same plan against the same program fires the same faults at the same
places, every time.

Faults are *armed* by the parent (see :class:`~repro.fault.inject.
FaultInjector`) and *fired* either inside a worker process (real effects:
``os._exit``, ``time.sleep``, a garbled result blob) or inline on the
serial path as an :class:`InjectedFaultError`.  Only injected faults are
ever converted into poisoned futures — a genuine application exception
still propagates to the caller unchanged.

:class:`RetryPolicy` caps the recovery ladder the parallel backend climbs
before declaring a launch unrecoverable: same-worker retries, worker
respawns, capped exponential backoff between attempts, and an optional
per-unit result timeout that converts a hung worker into a respawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FAULT_SCOPES",
    "FAULT_PHASES",
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "InjectedFaultError",
    "parse_fault",
]

FAULT_KINDS = ("kill", "hang", "corrupt")
FAULT_SCOPES = ("worker", "shard", "point")
FAULT_PHASES = ("install", "expansion", "physical", "execution")


class InjectedFaultError(RuntimeError):
    """An armed fault fired inline (serial path / last-resort tier).

    This is the *only* exception the runtime converts into a poisoned
    launch; real application errors keep their existing semantics.  The
    attributes are annotated progressively as the error propagates up
    through layers that know more context.
    """

    def __init__(self, message: str, spec: Optional["FaultSpec"] = None):
        super().__init__(message)
        self.spec = spec
        self.task_id: Optional[int] = None
        self.point: Optional[tuple] = None
        self.launch: Optional[str] = None


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    Attributes:
        kind: ``kill`` (worker process exits hard), ``hang`` (worker sleeps
            ``hang_s`` seconds mid-phase), or ``corrupt`` (the shard result
            blob is garbled so the parent cannot unpickle it).
        scope: what the fault is anchored to — a ``worker`` pool slot, a
            ``shard`` (distribution node), or a single ``point`` task.
        target: the worker index / node id as a 1-tuple, or the point tuple.
        phase: which shard-pipeline phase fires it.  Point-scoped faults
            fire per point and therefore only support ``execution``.
        launch: index-launch ordinal this spec applies to (``None`` = any).
        times: how many firings before the spec is exhausted; ``-1`` means
            unlimited (the canonical *unrecoverable* fault).
        hang_s: sleep length for ``hang`` faults.
        attempt: submission ordinal of the spec's (launch, node) it is live
            on (``None`` = any): 0 is a node's first worker submission in
            the launch, 1 its first resubmission, and so on.  The serial
            path's ordinal is the number of worker submissions the node has
            had, so a fallback after ``k`` of them sees ``k`` (0 on the
            serial backend).  An attempt-keyed spec fires once; this is
            how a model-checker trace replays attempt for attempt.
    """

    kind: str
    scope: str
    target: Tuple[int, ...]
    phase: str = "execution"
    launch: Optional[int] = None
    times: int = 1
    hang_s: float = 0.25
    attempt: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.scope not in FAULT_SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}")
        if self.phase not in FAULT_PHASES:
            raise ValueError(f"unknown fault phase {self.phase!r}")
        if self.scope == "point" and self.phase != "execution":
            raise ValueError("point-scoped faults fire at execution only")
        if self.times < 1 and self.times != -1:
            raise ValueError("times must be positive or -1 (unlimited)")
        if self.attempt is not None:
            if self.attempt < 0:
                raise ValueError("attempt must be >= 0")
            if self.times != 1:
                raise ValueError("an attempt-keyed fault fires once: "
                                 "times must be 1")
        if not isinstance(self.target, tuple) or not self.target:
            raise ValueError("target must be a non-empty tuple of ints")
        if self.hang_s < 0:
            raise ValueError("hang_s must be >= 0")

    def describe(self) -> str:
        target = ",".join(str(t) for t in self.target)
        times = "unlimited" if self.times < 0 else f"x{self.times}"
        at = f"@launch {self.launch}" if self.launch is not None else "@any"
        if self.attempt is not None:
            at += f", attempt {self.attempt}"
        return (
            f"{self.kind} {self.scope} {target} in {self.phase} "
            f"({times}, {at})"
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded set of fault specs."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @staticmethod
    def random(
        seed: int,
        n_faults: int = 1,
        workers: int = 2,
        shards: int = 4,
        kinds: Tuple[str, ...] = ("kill", "corrupt"),
        phases: Tuple[str, ...] = FAULT_PHASES,
    ) -> "FaultPlan":
        """A reproducible plan: same arguments, same faults, forever."""
        rng = random.Random(seed)
        specs = []
        for _ in range(n_faults):
            scope = rng.choice(("worker", "shard"))
            target = (
                rng.randrange(workers) if scope == "worker"
                else rng.randrange(shards),
            )
            specs.append(
                FaultSpec(
                    kind=rng.choice(kinds),
                    scope=scope,
                    target=target,
                    phase=rng.choice(phases),
                )
            )
        return FaultPlan(specs=tuple(specs), seed=seed)

    def describe(self) -> str:
        if not self.specs:
            return "empty fault plan"
        return "; ".join(spec.describe() for spec in self.specs)


@dataclass(frozen=True)
class RetryPolicy:
    """Caps on the recovery ladder (see ``docs/fault-tolerance.md``).

    All delays here are *wall-clock* implementation overhead of the host
    running the reproduction, never charged to simulated time.
    """

    same_worker_retries: int = 1    # tier 1: resubmit to the same process
    respawns: int = 2               # tier 2: replace the worker process
    backoff_base_s: float = 0.01    # first retry delay
    backoff_cap_s: float = 1.0      # exponential backoff ceiling
    shard_timeout_s: Optional[float] = 30.0  # hang detector; None = forever

    def backoff_s(self, attempt: int) -> float:
        """Capped exponential backoff before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return min(self.backoff_base_s * (2 ** (attempt - 1)),
                   self.backoff_cap_s)


def parse_fault(text: str) -> FaultSpec:
    """Parse a CLI fault spec: ``KIND:SCOPE:TARGET[:PHASE[:TIMES]]``.

    ``TARGET`` is an integer (worker/shard) or a comma-separated point
    tuple; ``TIMES`` of ``-1`` makes the fault unlimited (unrecoverable).
    Examples: ``kill:worker:0``, ``hang:shard:1:execution``,
    ``kill:point:0:execution:-1``.
    """
    parts = text.split(":")
    if len(parts) < 3 or len(parts) > 5:
        raise ValueError(
            f"bad fault spec {text!r}: want KIND:SCOPE:TARGET[:PHASE[:TIMES]]"
        )
    kind, scope, target_text = parts[0], parts[1], parts[2]
    try:
        target = tuple(int(t) for t in target_text.split(","))
    except ValueError:
        raise ValueError(
            f"bad fault target {target_text!r} in {text!r}"
        ) from None
    phase = parts[3] if len(parts) > 3 else "execution"
    try:
        times = int(parts[4]) if len(parts) > 4 else 1
    except ValueError:
        raise ValueError(f"bad fault times {parts[4]!r} in {text!r}") from None
    return FaultSpec(kind=kind, scope=scope, target=target, phase=phase,
                     times=times)
