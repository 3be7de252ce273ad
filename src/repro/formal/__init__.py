"""Formal verification of the executor's concurrency protocols.

A pure-Python explicit-state model checker (:mod:`repro.formal.kernel`)
plus two protocol models abstracted from the real executor:

* :class:`~repro.formal.commit_model.CommitModel` — worker generations,
  staged cache shipments, and the four-tier recovery ladder of the
  shard-parallel backend;
* :class:`~repro.formal.poison_model.PoisonModel` — poisoned-future
  propagation through region taint with origin chaining.

Both ship *mutations* — seeded, intentionally-broken protocol variants
that must yield counterexamples, proving the checker has teeth — and a
conformance harness (:mod:`repro.formal.conform`) that replays checker
traces through the real ``ParallelBackend`` by compiling them into
attempt-keyed :class:`~repro.fault.FaultPlan` specs.  ``repro check`` is the CLI entry point; see
``docs/formal-verification.md``.
"""

from repro.formal.commit_model import CommitConfig, CommitModel
from repro.formal.commit_model import MUTATIONS as COMMIT_MUTATIONS
from repro.formal.kernel import (
    CheckResult,
    Violation,
    check_payload,
    dump_violations,
    explore,
    find_trace,
    trace_json,
)
from repro.formal.poison_model import MUTATIONS as POISON_MUTATIONS
from repro.formal.poison_model import PoisonConfig, PoisonModel

__all__ = [
    "CheckResult",
    "Violation",
    "explore",
    "find_trace",
    "trace_json",
    "check_payload",
    "dump_violations",
    "CommitConfig",
    "CommitModel",
    "PoisonConfig",
    "PoisonModel",
    "MUTATIONS",
    "build_mutant",
]

#: Every shipped mutation: name -> (model kind, description).  Model
#: construction goes through :func:`build_mutant` so the CLI and CI can
#: enumerate and run them uniformly.
MUTATIONS = {
    **{name: ("commit", desc) for name, desc in COMMIT_MUTATIONS.items()},
    **{name: ("poison", desc) for name, desc in POISON_MUTATIONS.items()},
}


def build_mutant(name: str, commit_config=None, poison_config=None):
    """The mutated model for ``name`` (see :data:`MUTATIONS`)."""
    if name not in MUTATIONS:
        raise ValueError(
            f"unknown mutation {name!r}; known: {', '.join(sorted(MUTATIONS))}"
        )
    kind, _ = MUTATIONS[name]
    if kind == "commit":
        return CommitModel(commit_config or CommitConfig(), mutation=name)
    return PoisonModel(poison_config or PoisonConfig(), mutation=name)
