"""Persistence for the analysis caches a warm restart can reuse.

Only the :class:`~repro.runtime.replay.DynamicCheckMemo` is persisted,
and only its entries whose keys — ``(domain, ((functor key, mode), ...),
color bounds, use_numpy)`` — are pure values
(:func:`~repro.core.projection.is_value_key`).  Entries keyed by a
callable or user functor are skipped and counted
(``serve.persist_skipped``): a module function whose body changed across
a restart would otherwise get its old verdict.  The other replay layers
(safety verdicts, expansion and physical templates) hold references into
a session's live region tree and are deliberately rebuilt; they are
cheap relative to the dynamic check sweep the memo captures, which is
the first-issue cost the paper's §6 measures.

Format: one pickle per tenant, ``{"magic", "version", "entries"}``, with
``entries`` the memo's value-keyed ``export_entries()`` (oldest first, so
recency order survives the round trip).  Writes are atomic (temp file +
``os.replace``) so a crash mid-save leaves the previous snapshot intact.

Invalidation rule: any mismatch — magic, format version, unreadable or
truncated pickle — silently yields a *cold* cache.  A version bump is
therefore always safe: old snapshots are ignored, never misread.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from typing import Optional

from repro.core.projection import is_value_key

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_MAGIC",
    "tenant_cache_path",
    "save_tenant_memo",
    "load_tenant_memo",
]

CACHE_MAGIC = "repro-check-memo"
#: Bump on any incompatible change to memo keys or CheckResult layout;
#: loaders treat a mismatched snapshot as absent (cold start).
CACHE_FORMAT_VERSION = 2


def tenant_cache_path(persist_dir: str, tenant: str) -> str:
    """The snapshot path for one tenant (name sanitized for the fs)."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", tenant) or "default"
    return os.path.join(persist_dir, f"tenant-{safe}.pkl")


def save_tenant_memo(persist_dir: str, tenant: str, memo,
                     metrics=None) -> Optional[str]:
    """Atomically snapshot ``memo``'s value-keyed entries for ``tenant``,
    counting the rest on ``metrics`` if given; returns the path, or
    ``None`` when the memo has nothing worth persisting."""
    exported = memo.export_entries()
    entries = [entry for entry in exported if is_value_key(entry[0])]
    if metrics is not None and len(entries) < len(exported):
        metrics.inc("serve.persist_skipped", len(exported) - len(entries),
                    tenant=tenant)
    if not entries:
        return None
    os.makedirs(persist_dir, exist_ok=True)
    path = tenant_cache_path(persist_dir, tenant)
    payload = {
        "magic": CACHE_MAGIC,
        "version": CACHE_FORMAT_VERSION,
        "entries": entries,
    }
    fd, tmp = tempfile.mkstemp(
        dir=persist_dir, prefix=".tenant-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_tenant_memo(persist_dir: str, tenant: str, memo) -> int:
    """Ingest a persisted snapshot into ``memo``; returns entries
    installed (0 on any mismatch or missing/corrupt snapshot — cold)."""
    path = tenant_cache_path(persist_dir, tenant)
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return 0
    if not isinstance(payload, dict):
        return 0
    if payload.get("magic") != CACHE_MAGIC:
        return 0
    if payload.get("version") != CACHE_FORMAT_VERSION:
        return 0
    entries = payload.get("entries")
    if not isinstance(entries, list):
        return 0
    try:
        return memo.ingest_entries(entries)
    except (TypeError, ValueError):
        return 0
