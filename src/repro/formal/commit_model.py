"""Model of the shard-commit protocol: generations, shipments, recovery.

This is an abstraction of one ``ParallelBackend`` dispatch (see
``src/repro/exec/parallel.py``): ``S`` shards submitted to ``W``
single-process workers with deterministic affinity (shard ``i`` to worker
``i % W``), collected strictly in shard order, with a bounded fault budget
driving nondeterministic kill / hang / corrupt actions against whichever
shard a worker is currently running.  The model mirrors the real recovery
ladder transition for transition:

* tier 1 — same-worker retry (corrupt result, cancelled future, or any
  failure whose submission generation is stale: the worker was already
  replaced by a sibling shard's recovery, so the fresh process gets the
  resubmission and the retry is not charged when stale);
* tier 2 — respawn (dead or wedged process; bumps the worker generation,
  wipes both the worker's actual state and the parent's belief);
* tier 3 — serial fallback (ladder exhausted: every worker is reset and
  the launch re-runs serially);
* tier 4 — poison (a fault fired on the serial path too).

The protocol-critical state the model tracks and the real code must get
right:

* ``actual[k]`` — what worker ``k``'s process really holds (grows when a
  shard's install phase runs, vanishes on respawn);
* ``belief[k]`` — what the parent *thinks* it holds (``pool.caches``:
  grows only at commit, vanishes on respawn);
* ``shipments`` — ``(worker, generation, shard)`` cache-delta claims,
  stamped with the generation **at submit time**, filtered against the
  worker's current generation at commit.

The central safety invariant is **cache coherence**: ``belief[k] ⊆
actual[k]`` always — the parent must never believe a worker holds state it
does not, or the next launch ships a delta the worker cannot apply.  The
``collect-time-gen-stamp`` mutation reproduces a real bug this model
found in the pre-PR-6 backend: stamping shipments with the generation at
*collect* time launders state banked by an already-respawned process past
the commit-side generation filter.

Abstractions (deliberate): faults target only the shard a worker is
currently running (killing an idle worker is invisible until the next
submit, which the real backend already handles with a bounded
submit-path respawn); ``hang`` wedges the worker until the parent's
timeout converts it into a respawn; the items a shard installs are
identified with the shard id itself.
"""

from __future__ import annotations

from typing import FrozenSet, List, NamedTuple, Optional, Tuple

__all__ = ["CommitConfig", "CommitModel", "CommitState", "MUTATIONS",
           "PHASES"]

#: Shard-pipeline phases, in pipeline order — the index of a phase in this
#: tuple is the ``pord`` ordinal stamped on fault actions.
PHASES = ("install", "execution")

#: Mutation name -> one-line description of the seeded protocol bug.
MUTATIONS = {
    "skip-commit-gen-check": (
        "commit merges every shipment without checking the worker's "
        "current generation against the shipment's stamp"
    ),
    "collect-time-gen-stamp": (
        "shipments are stamped with the generation at collect time "
        "instead of submit time (the real pre-PR-6 bug)"
    ),
    "respawn-despite-stale": (
        "the ladder respawns on broken/timeout even when the failure's "
        "generation is stale, double-killing an already-fresh worker"
    ),
}


class CommitConfig(NamedTuple):
    #: The default bound covers all three terminal outcomes (a budget of 4
    #: is the smallest that exhausts one shard's full ladder into serial
    #: fallback, and the leftover firing then reaches poisoned) while
    #: exploring in well under a second.
    workers: int = 2
    shards: int = 3
    faults: int = 4
    same_worker_retries: int = 1
    respawns: int = 2

    @staticmethod
    def parse(text: str) -> "CommitConfig":
        """``WxSxF`` (e.g. ``2x3x2``) -> workers, shards, fault budget."""
        parts = text.lower().split("x")
        if len(parts) != 3:
            raise ValueError(f"bad config {text!r}: want WxSxF, e.g. 2x3x2")
        try:
            w, s, f = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad config {text!r}: want integers WxSxF")
        if w < 1 or s < 1 or f < 0:
            raise ValueError(f"bad config {text!r}: need W>=1, S>=1, F>=0")
        return CommitConfig(workers=w, shards=s, faults=f)

    def describe(self) -> str:
        return (
            f"{self.workers} worker(s) x {self.shards} shard(s) x "
            f"{self.faults} fault(s), retries<={self.same_worker_retries}, "
            f"respawns<={self.respawns}"
        )


class _Shard(NamedTuple):
    status: str      # inflight | ok | corrupt | dead | cancelled | collected
    worker: int
    gen: int         # worker generation stamped at submit time
    retries: int
    respawns: int


class CommitState(NamedTuple):
    cursor: int                                  # next shard to collect
    shards: Tuple[_Shard, ...]
    queues: Tuple[Tuple[int, ...], ...]          # per worker, head runs first
    gens: Tuple[int, ...]                        # per worker generation
    alive: Tuple[bool, ...]
    wedged: Tuple[bool, ...]                     # hung (until respawn)
    actual: Tuple[FrozenSet[int], ...]           # worker really holds
    belief: Tuple[FrozenSet[int], ...]           # parent thinks it holds
    shipments: Tuple[Tuple[int, int, int], ...]  # (worker, gen, shard)
    budget: int                                  # faults left to inject
    outcome: str   # '' | serial_pending | committed | serial | poisoned
    flags: FrozenSet[str]                        # mutation-tripped markers

_FAILURE_KIND = {
    "corrupt": "corrupt",
    "dead": "broken",
    "cancelled": "cancelled",
}

_CLASSIFY = {
    "committed": "committed",
    "serial": "serial-fallback",
    "poisoned": "poisoned",
}


class CommitModel:
    """The commit/recovery protocol as a checkable transition system."""

    TERMINALS = ("committed", "serial-fallback", "poisoned")

    def __init__(self, config: CommitConfig = CommitConfig(),
                 mutation: Optional[str] = None):
        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}")
        self.cfg = config
        self.mutation = mutation

    # -------------------------------------------------------------- protocol
    def initial_state(self) -> CommitState:
        cfg = self.cfg
        empty = frozenset()
        return CommitState(
            cursor=0,
            shards=tuple(
                _Shard("inflight", i % cfg.workers, 0, 0, 0)
                for i in range(cfg.shards)
            ),
            queues=tuple(
                tuple(i for i in range(cfg.shards) if i % cfg.workers == k)
                for k in range(cfg.workers)
            ),
            gens=(0,) * cfg.workers,
            alive=(True,) * cfg.workers,
            wedged=(False,) * cfg.workers,
            actual=(empty,) * cfg.workers,
            belief=(empty,) * cfg.workers,
            shipments=(),
            budget=cfg.faults,
            outcome="",
            flags=frozenset(),
        )

    def invariants(self):
        def cache_coherence(s: CommitState) -> bool:
            return all(b <= a for b, a in zip(s.belief, s.actual))

        def no_stale_commit(s: CommitState) -> bool:
            return "stale_commit" not in s.flags

        def no_double_respawn(s: CommitState) -> bool:
            return "double_respawn" not in s.flags

        return [
            ("cache-coherence", cache_coherence),
            ("no-stale-commit", no_stale_commit),
            ("no-double-respawn", no_double_respawn),
        ]

    def classify(self, s: CommitState) -> Optional[str]:
        return _CLASSIFY.get(s.outcome)

    # --------------------------------------------------------------- actions
    def actions(self, s: CommitState) -> List[Tuple[str, CommitState]]:
        if s.outcome in _CLASSIFY:
            return []
        if s.outcome == "serial_pending":
            acts = [("serial.complete", s._replace(outcome="serial"))]
            if s.budget > 0:
                acts.append((
                    "serial.fault",
                    s._replace(outcome="poisoned", budget=s.budget - 1),
                ))
            return acts

        acts: List[Tuple[str, CommitState]] = []
        for k in range(self.cfg.workers):
            if not (s.alive[k] and not s.wedged[k] and s.queues[k]):
                continue
            head = s.queues[k][0]
            acts.append((
                f"work.complete w{k} shard{head}", self._complete(s, k)
            ))
            if s.budget > 0:
                att = s.shards[head].retries + s.shards[head].respawns
                for pord, phase in enumerate(PHASES):
                    # ``pord`` stamps the shard-pipeline phase ordinal so
                    # trace consumers can tell collect-deterministic
                    # execution-phase faults (pord=1: the worker dies only
                    # after every sibling submit has long completed) from
                    # install-phase ones (pord=0: the death can race the
                    # parent's remaining submits).
                    acts.append((
                        f"fault.kill w{k} shard{head} attempt{att} "
                        f"phase={phase} pord={pord}",
                        self._kill(s, k, phase),
                    ))
                    acts.append((
                        f"fault.corrupt w{k} shard{head} attempt{att} "
                        f"phase={phase} pord={pord}",
                        self._corrupt(s, k, phase),
                    ))
                acts.append((
                    f"fault.hang w{k} shard{head} attempt{att}",
                    self._hang(s, k),
                ))
        if s.cursor < self.cfg.shards:
            collect = self._collect(s)
            if collect is not None:
                acts.append(collect)
        elif s.outcome == "":
            acts.append(("commit", self._commit(s)))
        return acts

    # ------------------------------------------------------- worker actions
    @staticmethod
    def _tup(t, i, v):
        return t[:i] + (v,) + t[i + 1:]

    def _complete(self, s: CommitState, k: int) -> CommitState:
        head = s.queues[k][0]
        return s._replace(
            shards=self._tup(s.shards, head,
                             s.shards[head]._replace(status="ok")),
            actual=self._tup(s.actual, k, s.actual[k] | {head}),
            queues=self._tup(s.queues, k, s.queues[k][1:]),
        )

    def _kill(self, s: CommitState, k: int, phase: str) -> CommitState:
        head = s.queues[k][0]
        shards = list(s.shards)
        for q in s.queues[k]:
            shards[q] = shards[q]._replace(status="dead")
        actual = s.actual[k]
        if phase != "install":
            actual = actual | {head}
        return s._replace(
            shards=tuple(shards),
            queues=self._tup(s.queues, k, ()),
            alive=self._tup(s.alive, k, False),
            actual=self._tup(s.actual, k, actual),
            budget=s.budget - 1,
        )

    def _corrupt(self, s: CommitState, k: int, phase: str) -> CommitState:
        head = s.queues[k][0]
        actual = s.actual[k]
        if phase != "install":
            actual = actual | {head}
        return s._replace(
            shards=self._tup(s.shards, head,
                             s.shards[head]._replace(status="corrupt")),
            queues=self._tup(s.queues, k, s.queues[k][1:]),
            actual=self._tup(s.actual, k, actual),
            budget=s.budget - 1,
        )

    def _hang(self, s: CommitState, k: int) -> CommitState:
        return s._replace(
            wedged=self._tup(s.wedged, k, True),
            budget=s.budget - 1,
        )

    # ------------------------------------------------------- parent actions
    def _collect(self, s: CommitState):
        """The collect step for the cursor shard, or ``None`` if the
        parent is still blocked on an undecided future."""
        i = s.cursor
        sh = s.shards[i]
        k = sh.worker
        if sh.status == "ok":
            stamp = (
                s.gens[k] if self.mutation == "collect-time-gen-stamp"
                else sh.gen
            )
            return (
                f"collect.ok shard{i}",
                s._replace(
                    cursor=i + 1,
                    shards=self._tup(s.shards, i,
                                     sh._replace(status="collected")),
                    shipments=s.shipments + ((k, stamp, i),),
                ),
            )
        if sh.status in _FAILURE_KIND:
            kind = _FAILURE_KIND[sh.status]
        elif sh.status == "inflight" and s.wedged[k]:
            kind = "timeout"
        else:
            return None  # future not done: parent blocks

        cfg = self.cfg
        stale = s.gens[k] != sh.gen
        need_respawn = kind in ("broken", "timeout") and (
            not stale or self.mutation == "respawn-despite-stale"
        )
        if need_respawn:
            if sh.respawns >= cfg.respawns:
                return self._bail(s, i, kind)
            return self._respawn(s, i, kind)
        if sh.retries < cfg.same_worker_retries or stale:
            return self._retry(s, i, kind)
        if sh.respawns < cfg.respawns:
            return self._respawn(s, i, kind)
        return self._bail(s, i, kind)

    def _respawn(self, s: CommitState, i: int, kind: str):
        sh = s.shards[i]
        k = sh.worker
        flags = s.flags
        if s.gens[k] != sh.gen:
            # Only reachable under respawn-despite-stale: the failure came
            # from a generation that was already replaced, and the ladder
            # is about to kill the fresh process for its ancestor's crime.
            flags = flags | {"double_respawn"}
        gen = s.gens[k] + 1
        shards = list(s.shards)
        # The retired worker's pending results are cancelled: queued
        # siblings die.
        for q in s.queues[k]:
            if q != i:
                shards[q] = shards[q]._replace(status="cancelled")
        shards[i] = sh._replace(status="inflight", gen=gen,
                                respawns=sh.respawns + 1)
        return (
            f"collect.respawn shard{i} kind={kind}",
            s._replace(
                shards=tuple(shards),
                queues=self._tup(s.queues, k, (i,)),
                gens=self._tup(s.gens, k, gen),
                alive=self._tup(s.alive, k, True),
                wedged=self._tup(s.wedged, k, False),
                actual=self._tup(s.actual, k, frozenset()),
                belief=self._tup(s.belief, k, frozenset()),
                flags=flags,
            ),
        )

    def _retry(self, s: CommitState, i: int, kind: str):
        sh = s.shards[i]
        k = sh.worker
        gens, alive, actual, belief = s.gens, s.alive, s.actual, s.belief
        if not s.alive[k]:
            # Submitting to a dead worker surfaces WorkerLost at
            # submit time; the real backend revives it out-of-ladder
            # (bounded submit-path respawn) and resubmits.
            gens = self._tup(gens, k, s.gens[k] + 1)
            alive = self._tup(alive, k, True)
            actual = self._tup(actual, k, frozenset())
            belief = self._tup(belief, k, frozenset())
        return (
            f"collect.retry shard{i} kind={kind}",
            s._replace(
                shards=self._tup(
                    s.shards, i,
                    sh._replace(status="inflight", gen=gens[k],
                                retries=sh.retries + 1),
                ),
                queues=self._tup(s.queues, k, s.queues[k] + (i,)),
                gens=gens,
                alive=alive,
                actual=actual,
                belief=belief,
            ),
        )

    def _bail(self, s: CommitState, i: int, kind: str):
        # Tier 3: every worker reset, dispatch abandoned.  Normalize the
        # now-irrelevant dispatch state so all bail paths converge.
        cfg = self.cfg
        empty = frozenset()
        return (
            f"collect.bail shard{i} kind={kind}",
            s._replace(
                cursor=cfg.shards,
                shards=(),
                queues=((),) * cfg.workers,
                gens=(0,) * cfg.workers,
                alive=(True,) * cfg.workers,
                wedged=(False,) * cfg.workers,
                actual=(empty,) * cfg.workers,
                belief=(empty,) * cfg.workers,
                shipments=(),
                outcome="serial_pending",
            ),
        )

    def _commit(self, s: CommitState) -> CommitState:
        belief = list(s.belief)
        flags = s.flags
        for k, gen, shard_id in s.shipments:
            if self.mutation == "skip-commit-gen-check":
                if s.gens[k] != gen:
                    flags = flags | {"stale_commit"}
                belief[k] = belief[k] | {shard_id}
            elif s.gens[k] == gen:
                belief[k] = belief[k] | {shard_id}
            # else: stale shipment dropped (the correct protocol)
        return s._replace(
            outcome="committed", belief=tuple(belief), flags=flags
        )

    # ------------------------------------------------------------ rendering
    def state_json(self, s: CommitState) -> dict:
        return {
            "cursor": s.cursor,
            "outcome": s.outcome or "dispatching",
            "budget": s.budget,
            "shards": [
                {
                    "shard": i,
                    "status": sh.status,
                    "worker": sh.worker,
                    "gen": sh.gen,
                    "retries": sh.retries,
                    "respawns": sh.respawns,
                }
                for i, sh in enumerate(s.shards)
            ],
            "workers": [
                {
                    "worker": k,
                    "gen": s.gens[k],
                    "alive": s.alive[k],
                    "wedged": s.wedged[k],
                    "queue": list(s.queues[k]),
                    "actual": sorted(s.actual[k]),
                    "belief": sorted(s.belief[k]),
                }
                for k in range(len(s.gens))
            ],
            "shipments": [
                {"worker": k, "gen": g, "shard": sid}
                for k, g, sid in s.shipments
            ],
            "flags": sorted(s.flags),
        }
