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
  worker's current generation at commit;
* ``data[i]`` — how many times shard ``i``'s non-idempotent write (a
  ``+=`` body) has landed in the one region instance workers write in
  place, and ``undo[i]`` — the undo slot of its current attempt: the value
  it saved before writing, torn (a death mid-gather), or none yet;
* ``zombie[k]`` — a shard whose write a killed but not yet reaped process
  of worker ``k`` may still land.

The first safety invariant is **cache coherence**: ``belief[k] ⊆
actual[k]`` always — the parent must never believe a worker holds state it
does not, or the next launch ships a delta the worker cannot apply.  The
``collect-time-gen-stamp`` mutation reproduces a real bug this model
found in the pre-PR-6 backend: stamping shipments with the generation at
*collect* time launders state banked by an already-respawned process past
the commit-side generation filter.

The second is **exactly once**: a launch that commits, or falls back to
the serial re-run, leaves every shard's write applied exactly once.  The
protocol that keeps it (``exec/shm.py``): a worker saves a point's bytes
into its undo slot, counts the slot complete, and only then lets the body
write in place; every retry, respawn and fallback scatters the complete
undo slots back — a fallback all of them, successful siblings included —
and only once the attempt's process has replied or been killed *and
reaped*.  Four mutations break one clause each.

Abstractions (deliberate): faults target only the shard a worker is
currently running (killing an idle worker is invisible until the next
submit, which the real backend already handles with a bounded
submit-path respawn); ``hang`` wedges the worker until the parent's
timeout converts it into a respawn, and it strikes after the head saved
its undo slot and before it writes; the items a shard installs are
identified with the shard id itself, and its points with one write.
"""

from __future__ import annotations

from typing import FrozenSet, List, NamedTuple, Optional, Tuple

__all__ = ["CommitConfig", "CommitModel", "CommitState", "MUTATIONS",
           "PHASES"]

#: Shard-pipeline phases, in pipeline order — the index of a phase in this
#: tuple is the ``pord`` ordinal stamped on fault actions.
PHASES = ("install", "execution")

#: ``undo[i]`` values other than a saved count.
NO_UNDO, TORN = -1, -2
#: what scattering a torn undo slot leaves in the instance.
GARBAGE = -9

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
    "restore-before-reap": (
        "a timed-out shard is restored before its hung writer is reaped, "
        "so the zombie's write lands after the restore"
    ),
    "retry-without-restore": (
        "the ladder resubmits without restoring the attempt's undo slots, "
        "so a landed write is applied twice"
    ),
    "restore-torn-undo": (
        "recovery scatters an undo slot whose gather never completed "
        "(the progress count is ignored)"
    ),
    "fallback-restores-failed-only": (
        "a tier-3 fallback restores only the failed shard, not its "
        "siblings whose writes already landed"
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
    data: Tuple[int, ...]                        # per shard: writes landed
    undo: Tuple[int, ...]                        # per shard: current slot
    zombie: Tuple[int, ...]                      # per worker: shard | -1

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
            data=(0,) * cfg.shards,
            undo=(NO_UNDO,) * cfg.shards,
            zombie=(-1,) * cfg.workers,
        )

    def invariants(self):
        def cache_coherence(s: CommitState) -> bool:
            return all(b <= a for b, a in zip(s.belief, s.actual))

        def no_stale_commit(s: CommitState) -> bool:
            return "stale_commit" not in s.flags

        def no_double_respawn(s: CommitState) -> bool:
            return "double_respawn" not in s.flags

        def exactly_once(s: CommitState) -> bool:
            return s.outcome not in ("committed", "serial") or all(
                d == 1 for d in s.data
            )

        return [
            ("cache-coherence", cache_coherence),
            ("no-stale-commit", no_stale_commit),
            ("no-double-respawn", no_double_respawn),
            ("exactly-once", exactly_once),
        ]

    def classify(self, s: CommitState) -> Optional[str]:
        return _CLASSIFY.get(s.outcome)

    # --------------------------------------------------------------- actions
    def actions(self, s: CommitState) -> List[Tuple[str, CommitState]]:
        if s.outcome in _CLASSIFY:
            return []
        if s.outcome == "serial_pending":
            acts = [(
                "serial.complete",
                s._replace(outcome="serial",
                           data=tuple(d + 1 for d in s.data)),
            )]
            if s.budget > 0:
                acts.append((
                    "serial.fault",
                    s._replace(outcome="poisoned", budget=s.budget - 1),
                ))
            return acts

        acts = self._zombie_actions(s)
        for k in range(self.cfg.workers):
            if not (s.alive[k] and not s.wedged[k] and s.queues[k]):
                continue
            head = s.queues[k][0]
            acts.append((
                f"work.complete w{k} shard{head}", self._complete(s, k)
            ))
            if s.budget > 0:
                att = s.shards[head].retries + s.shards[head].respawns
                label = f"w{k} shard{head} attempt{att}"
                for pord, phase in enumerate(PHASES):
                    # ``pord`` stamps the shard-pipeline phase ordinal so
                    # trace consumers can tell collect-deterministic
                    # execution-phase faults (pord=1: the worker dies only
                    # after every sibling submit has long completed) from
                    # install-phase ones (pord=0: the death can race the
                    # parent's remaining submits).
                    acts.append((
                        f"fault.kill {label} phase={phase} pord={pord}",
                        self._kill(s, k, phase),
                    ))
                # An execution-phase death can also land mid-gather.
                acts.append((
                    f"fault.kill {label} phase=execution pord=1 torn",
                    self._kill(s, k, "torn"),
                ))
                # A corrupt result comes back after every write landed.
                acts.append((
                    f"fault.corrupt {label} phase=execution pord=1",
                    self._corrupt(s, k),
                ))
                acts.append((f"fault.hang {label}", self._hang(s, k)))
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

    def _write(self, s: CommitState, i: int) -> CommitState:
        """Shard ``i`` saves its bytes to its undo slot, then writes."""
        return s._replace(
            undo=self._tup(s.undo, i, s.data[i]),
            data=self._tup(s.data, i, s.data[i] + 1),
        )

    def _complete(self, s: CommitState, k: int) -> CommitState:
        head = s.queues[k][0]
        return self._write(s, head)._replace(
            shards=self._tup(s.shards, head,
                             s.shards[head]._replace(status="ok")),
            actual=self._tup(s.actual, k, s.actual[k] | {head}),
            queues=self._tup(s.queues, k, s.queues[k][1:]),
        )

    def _kill(self, s: CommitState, k: int, phase: str) -> CommitState:
        """``phase``: install (nothing ran), execution (the head's write
        landed), or torn (it died gathering the head's undo slot)."""
        head = s.queues[k][0]
        shards = list(s.shards)
        for q in s.queues[k]:
            shards[q] = shards[q]._replace(status="dead")
        actual = s.actual[k]
        if phase != "install":
            actual = actual | {head}
        if phase == "execution":
            s = self._write(s, head)
        elif phase == "torn":
            s = s._replace(undo=self._tup(s.undo, head, TORN))
        return s._replace(
            shards=tuple(shards),
            queues=self._tup(s.queues, k, ()),
            alive=self._tup(s.alive, k, False),
            actual=self._tup(s.actual, k, actual),
            budget=s.budget - 1,
        )

    def _corrupt(self, s: CommitState, k: int) -> CommitState:
        head = s.queues[k][0]
        return self._write(s, head)._replace(
            shards=self._tup(s.shards, head,
                             s.shards[head]._replace(status="corrupt")),
            queues=self._tup(s.queues, k, s.queues[k][1:]),
            actual=self._tup(s.actual, k, s.actual[k] | {head}),
            budget=s.budget - 1,
        )

    def _hang(self, s: CommitState, k: int) -> CommitState:
        """The head saved its undo slot and hangs before its write, which
        lands if the process ever wakes up unreaped."""
        head = s.queues[k][0]
        return s._replace(
            undo=self._tup(s.undo, head, s.data[head]),
            wedged=self._tup(s.wedged, k, True),
            budget=s.budget - 1,
        )

    def _zombie_actions(self, s: CommitState) -> List[Tuple[str, CommitState]]:
        """A killed-but-unreaped process either lands its pending write or
        is reaped first."""
        acts = []
        for k, i in enumerate(s.zombie):
            if i < 0:
                continue
            gone = self._tup(s.zombie, k, -1)
            acts.append((f"zombie.write w{k} shard{i}",
                         s._replace(zombie=gone,
                                    data=self._tup(s.data, i, s.data[i] + 1))))
            acts.append((f"zombie.reaped w{k}", s._replace(zombie=gone)))
        return acts

    def _restore(self, s: CommitState, i: int) -> CommitState:
        """Scatter shard ``i``'s complete undo slot back; its next attempt
        starts with none."""
        saved = s.undo[i]
        data = s.data
        if saved >= 0:
            data = self._tup(data, i, saved)
        elif saved == TORN and self.mutation == "restore-torn-undo":
            data = self._tup(data, i, GARBAGE)
        return s._replace(data=data, undo=self._tup(s.undo, i, NO_UNDO))

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
        zombie = s.zombie
        if self.mutation == "restore-before-reap" and s.wedged[k]:
            # Restored while the hung process is still unreaped.
            zombie = self._tup(zombie, k, s.queues[k][0])
        s = self._restore(s, i)
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
                zombie=zombie,
            ),
        )

    def _retry(self, s: CommitState, i: int, kind: str):
        # The attempt's writer replied (corrupt) or was reaped by the
        # reset that made it stale: its undo slot is safe to scatter.
        if self.mutation == "retry-without-restore":
            s = s._replace(undo=self._tup(s.undo, i, NO_UNDO))
        else:
            s = self._restore(s, i)
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
        # Tier 3: every worker reset (killed and reaped), every shard's
        # complete undo slot scattered back, dispatch abandoned.  Normalize
        # the now-irrelevant dispatch state so all bail paths converge.
        cfg = self.cfg
        empty = frozenset()
        if self.mutation == "fallback-restores-failed-only":
            s = self._restore(s, i)
        else:
            for j in range(cfg.shards):
                s = self._restore(s, j)
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
            "instance": [
                {"shard": i, "writes_landed": d,
                 "undo": {NO_UNDO: None, TORN: "torn"}.get(u, u)}
                for i, (d, u) in enumerate(zip(s.data, s.undo))
            ],
            "zombies": [
                {"worker": k, "shard": i}
                for k, i in enumerate(s.zombie) if i >= 0
            ],
        }
