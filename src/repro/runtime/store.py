"""One store for every memo of a pure analysis.

Legion memoizes sharding functors and traces because they are pure (§5),
and a memo of a pure function is invisible to results: a missing entry is
recomputed byte-identically.  So every memo the runtime keeps is a
front-end over an :class:`AnalysisStore` that keeps only its miss
computation — the launch-replay layers and the dynamic-check memo
(:mod:`repro.runtime.replay`), the sharding and slicing memos
(:class:`~repro.runtime.mapper.ShardingCache`,
:class:`~repro.runtime.distribution.SlicingCache`) — and the process tier
:data:`PROCESS_STORE` holds the check kernels and point arrays every
runtime shares (:mod:`repro.runtime.kernels`).

A store is an LRU over *groups* (a launch signature, a check key, a
``(mapper.key, domain, n_nodes[, origin])`` key, a domain), each holding
values tagged by layer.  An entry budget counts groups; the group just
stored is never evicted, so a budget of 1 still serves the launch being
issued; a byte budget charges each group per layer, the
:func:`estimate_bytes` of the value it holds, so a layer dropped on its
own stops being charged; an unbudgeted store tracks nothing, and a hit is
one dict probe and a counter.  Eviction drops a group whole and is a cold
miss.
"""

from __future__ import annotations

import sys
from collections import OrderedDict, defaultdict
from typing import Dict, List, Optional

import numpy as np

from repro.core.projection import is_value_key

__all__ = [
    "AnalysisStore",
    "PROCESS_BYTE_BUDGET",
    "PROCESS_ENTRY_BUDGET",
    "PROCESS_STORE",
    "estimate_bytes",
]

def estimate_bytes(obj, depth: int = 3) -> int:
    """Best-effort recursive size estimate for cache budgeting.

    Deliberately an *estimate*: shared substructure is double-counted and
    recursion is depth-capped, so the number bounds growth rather than
    reports exact RSS.  numpy buffers (the dominant payloads — check masks,
    sparse indices) are counted exactly via ``nbytes``, and attributes
    whether in ``__dict__`` or ``__slots__``.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96
    try:
        size = sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic objects without sizeof
        size = 64
    if depth <= 0:
        return size
    if isinstance(obj, dict):
        for k, v in obj.items():
            size += estimate_bytes(k, depth - 1)
            size += estimate_bytes(v, depth - 1)
        return size
    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += estimate_bytes(item, depth - 1)
        return size
    inner = getattr(obj, "__dict__", None)
    if inner:
        size += estimate_bytes(inner, depth - 1)
    for name in getattr(type(obj), "__slots__", ()):
        size += estimate_bytes(getattr(obj, name, None), depth - 1)
    return size


class AnalysisStore:
    """An LRU over groups of layer-tagged values (see the module doc).

    ``hits``, ``misses`` and ``evictions`` count per layer;
    ``groups_evicted`` counts whole groups.  ``value_keys_only`` makes
    :meth:`put` ignore a key that names a callable or user object
    (:func:`~repro.core.projection.is_value_key`), as a store that
    outlives a runtime must.  Stored values are never ``None``.
    """

    def __init__(self, entry_budget: Optional[int] = None,
                 byte_budget: Optional[int] = None, profiler=None,
                 value_keys_only: bool = False):
        self.entry_budget = entry_budget
        self.byte_budget = byte_budget
        self.value_keys_only = value_keys_only
        #: counts ``cache.lookups{layer, outcome}``; never a disabled one
        self._profiler = profiler if profiler and profiler.enabled else None
        self._layers: Dict[str, dict] = defaultdict(dict)
        self.hits: Dict[str, int] = defaultdict(int)
        self.misses: Dict[str, int] = defaultdict(int)
        self.evictions: Dict[str, int] = defaultdict(int)
        self.groups_evicted = 0
        #: group -> {layer: bytes charged}, least recent first; None when
        #: unbudgeted (nothing is tracked then)
        budgeted = entry_budget is not None or byte_budget is not None
        self._lru: Optional[OrderedDict] = OrderedDict() if budgeted else None
        self._bytes = 0

    def _note(self, layer: str, outcome: str) -> None:
        if self._profiler is not None:
            self._profiler.count("cache.lookups", 1.0, layer=layer,
                                 outcome=outcome)

    # ---------------------------------------------------------- lookups
    def get(self, layer: str, key):
        """The value ``layer`` holds for ``key``, or None; a hit makes the
        group the most recent."""
        found = self._layers[layer].get(key)
        if found is None:
            self.misses[layer] += 1
        else:
            self.hits[layer] += 1
            if self._lru is not None:
                self._lru.move_to_end(key)
        if self._profiler is not None:
            self._note(layer, "miss" if found is None else "hit")
        return found

    def put(self, layer: str, key, value) -> None:
        """Store ``value`` under ``key`` in ``layer``, make the group the
        most recent and evict least recent groups while over budget."""
        if self.value_keys_only and not is_value_key(key):
            return
        self._layers[layer][key] = value
        if self._profiler is not None:
            self._note(layer, "stored")
        lru = self._lru
        if lru is None:
            return
        charges = lru.get(key)
        if charges is None:  # a new group enters at the most recent end
            charges = lru[key] = {}
        else:
            lru.move_to_end(key)
        if self.byte_budget is not None:
            est = estimate_bytes(value)
            self._bytes += est - charges.get(layer, 0)
            charges[layer] = est
        while len(lru) > 1 and (
            self.entry_budget is not None and len(lru) > self.entry_budget
            or self.byte_budget is not None and self._bytes > self.byte_budget
        ):
            old, old_charges = lru.popitem(last=False)
            self._bytes -= sum(old_charges.values())
            self.groups_evicted += 1
            for name, entries in self._layers.items():
                if entries.pop(old, None) is not None:
                    self.evictions[name] += 1
                    self._note(name, "evicted")

    # ----------------------------------------------------- invalidation
    def drop(self, *layers: str) -> int:
        """Drop the named layers (every layer if none is named) of every
        group; returns how many entries went."""
        return sum(self.drop_group(key, layer)
                   for layer in layers or list(self._layers)
                   for key in list(self._layers[layer]))

    def drop_group(self, key, *layers: str) -> int:
        """Drop the named layers (every layer if none is named) of the
        group ``key``, uncharging them, and stop tracking the group once
        no layer holds it; returns how many entries went."""
        n = 0
        charges = self._lru.get(key) if self._lru is not None else None
        for layer in layers or list(self._layers):
            if self._layers[layer].pop(key, None) is not None:
                n += 1
                self._note(layer, "dropped")
                if charges is not None:
                    self._bytes -= charges.pop(layer, 0)
        held = any(key in entries for entries in self._layers.values())
        if charges is not None and not held:
            del self._lru[key]
        return n

    # ---------------------------------------------------------- queries
    def layer(self, layer: str) -> dict:
        """The live ``key -> value`` dict of one layer (do not mutate)."""
        return self._layers[layer]

    def __len__(self) -> int:
        """Distinct groups held."""
        if self._lru is not None:
            return len(self._lru)
        return len(set().union(*self._layers.values()))

    @property
    def bytes_estimate(self) -> int:
        """Estimated resident bytes of the stored values: charged as they
        are stored under a byte budget, summed when read otherwise."""
        if self.byte_budget is not None:
            return self._bytes
        return sum(estimate_bytes(value) for entries in self._layers.values()
                   for value in entries.values())

    def export(self, layer: str) -> List[tuple]:
        """``layer`` as ``[(key, value), ...]``, least recent first."""
        entries = self._layers[layer]
        order = entries if self._lru is None else self._lru
        return [(key, entries[key]) for key in order if key in entries]

    def ingest(self, layer: str, pairs) -> int:
        """Install ``(key, value)`` pairs, oldest first, uncounted; an entry
        already held wins (it is fresher).  Returns how many went in."""
        entries = self._layers[layer]
        n = 0
        for key, value in pairs:
            if key not in entries:
                self.put(layer, key, value)
                n += key in entries
        return n


#: The process tier's budgets: far above any one program's steady set of
#: check keys and domains (57 groups for ``first_issue``'s program), so
#: only keys a program stopped issuing are evicted — or point arrays of
#: launch domains too large to keep many of.
PROCESS_ENTRY_BUDGET = 1024
PROCESS_BYTE_BUDGET = 64 << 20

#: The process tier: check kernels (layer ``check``) and point arrays
#: (layer ``points``), shared by every runtime.  Both are pure in value
#: keys, so they outlive any runtime and its invalidations.
PROCESS_STORE = AnalysisStore(PROCESS_ENTRY_BUDGET, PROCESS_BYTE_BUDGET,
                              value_keys_only=True)
