"""Persistence layer in isolation: round trip, atomicity guarantees the
caller can see, and the invalidation-on-mismatch rule (any bad snapshot
is a cold start, never a misread)."""

import os
import pickle

from repro.core.domain import Domain, Rect
from repro.core.projection import CallableFunctor, ModularFunctor
from repro.obs.metrics import MetricsRegistry
from repro.runtime.replay import DynamicCheckMemo
from repro.serve.persist import (
    CACHE_FORMAT_VERSION, CACHE_MAGIC, load_tenant_memo, save_tenant_memo,
    tenant_cache_path,
)


def _warm_memo(n=3):
    memo = DynamicCheckMemo()
    for i in range(n):
        memo.run(Domain.range(4 + i), ((ModularFunctor(4 + i, 1), "write"),),
                 Rect((0,), (3 + i,)))
    return memo


def test_empty_memo_saves_nothing(tmp_path):
    path = save_tenant_memo(str(tmp_path), "t", DynamicCheckMemo())
    assert path is None
    assert os.listdir(tmp_path) == []


def test_round_trip_restores_entries(tmp_path):
    memo = _warm_memo(3)
    path = save_tenant_memo(str(tmp_path), "t", memo)
    assert path == tenant_cache_path(str(tmp_path), "t")
    assert os.path.exists(path)

    fresh = DynamicCheckMemo()
    assert load_tenant_memo(str(tmp_path), "t", fresh) == 3
    # The restored key must serve as a hit, byte-for-byte the same value.
    before = fresh.hits
    result = fresh.run(Domain.range(4), ((ModularFunctor(4, 1), "write"),),
                       Rect((0,), (3,)))
    assert fresh.hits == before + 1
    assert fresh.misses == 0
    reference = DynamicCheckMemo().run(
        Domain.range(4), ((ModularFunctor(4, 1), "write"),),
        Rect((0,), (3,)),
    )
    assert result == reference


def test_tenant_name_sanitized(tmp_path):
    path = tenant_cache_path(str(tmp_path), "a/b c:d")
    assert os.path.dirname(path) == str(tmp_path)
    assert "/" not in os.path.basename(path)
    assert " " not in os.path.basename(path)
    # Round trip under the hostile name still works.
    save_tenant_memo(str(tmp_path), "a/b c:d", _warm_memo(1))
    fresh = DynamicCheckMemo()
    assert load_tenant_memo(str(tmp_path), "a/b c:d", fresh) == 1


def test_missing_snapshot_is_cold(tmp_path):
    assert load_tenant_memo(str(tmp_path), "nope", DynamicCheckMemo()) == 0


def _write_raw(tmp_path, tenant, data: bytes):
    path = tenant_cache_path(str(tmp_path), tenant)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def test_version_mismatch_is_cold(tmp_path):
    memo = _warm_memo(2)
    _write_raw(tmp_path, "t", pickle.dumps({
        "magic": CACHE_MAGIC,
        "version": CACHE_FORMAT_VERSION + 1,
        "entries": memo.export_entries(),
    }))
    fresh = DynamicCheckMemo()
    assert load_tenant_memo(str(tmp_path), "t", fresh) == 0
    assert len(fresh) == 0


def test_magic_mismatch_is_cold(tmp_path):
    memo = _warm_memo(2)
    _write_raw(tmp_path, "t", pickle.dumps({
        "magic": "someone-elses-pickle",
        "version": CACHE_FORMAT_VERSION,
        "entries": memo.export_entries(),
    }))
    assert load_tenant_memo(str(tmp_path), "t", DynamicCheckMemo()) == 0


def test_corrupt_snapshot_is_cold(tmp_path):
    _write_raw(tmp_path, "t", b"\x80\x05 truncated garbage")
    assert load_tenant_memo(str(tmp_path), "t", DynamicCheckMemo()) == 0


def test_wrong_shape_is_cold(tmp_path):
    _write_raw(tmp_path, "t", pickle.dumps(["not", "a", "dict"]))
    assert load_tenant_memo(str(tmp_path), "t", DynamicCheckMemo()) == 0
    _write_raw(tmp_path, "t", pickle.dumps({
        "magic": CACHE_MAGIC, "version": CACHE_FORMAT_VERSION,
        "entries": "not-a-list",
    }))
    assert load_tenant_memo(str(tmp_path), "t", DynamicCheckMemo()) == 0


def test_save_is_atomic_no_temp_residue(tmp_path):
    save_tenant_memo(str(tmp_path), "t", _warm_memo(1))
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def _rotate(i):
    return (i + 1) % 4


def test_only_value_keyed_entries_are_snapshot(tmp_path):
    """An entry keyed by a callable names a live function object: after a
    restart the same name may be bound to a different body, so it is
    skipped (and counted), never written."""
    memo = DynamicCheckMemo()
    bounds = Rect((0,), (3,))
    memo.run(Domain.range(4), ((ModularFunctor(4, 1), "write"),), bounds)
    memo.run(Domain.range(4), ((CallableFunctor(_rotate), "write"),), bounds)
    assert len(memo) == 2
    metrics = MetricsRegistry()
    path = save_tenant_memo(str(tmp_path), "t", memo, metrics)
    with open(path, "rb") as fh:
        entries = pickle.load(fh)["entries"]
    assert [key for key, _ in entries] == [memo.export_entries()[0][0]]
    assert metrics.value("serve.persist_skipped", tenant="t") == 1

    fresh = DynamicCheckMemo()
    assert load_tenant_memo(str(tmp_path), "t", fresh) == 1


def test_callable_only_memo_saves_nothing(tmp_path):
    memo = DynamicCheckMemo()
    memo.run(Domain.range(4), ((CallableFunctor(lambda i: i), "write"),),
             Rect((0,), (3,)))
    assert save_tenant_memo(str(tmp_path), "t", memo) is None
    assert os.listdir(tmp_path) == []


def test_version_1_snapshot_is_cold(tmp_path):
    """Version 1 keyed functors by their ``describe()`` text."""
    _write_raw(tmp_path, "t", pickle.dumps({
        "magic": CACHE_MAGIC,
        "version": 1,
        "entries": _warm_memo(2).export_entries(),
    }))
    fresh = DynamicCheckMemo()
    assert load_tenant_memo(str(tmp_path), "t", fresh) == 0
    assert len(fresh) == 0
