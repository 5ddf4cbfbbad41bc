"""Tiered policy/result store: LRU budgets, atomic disk tier, promotion.

The store package backs the ``repro serve`` policy store, and its
memory LRU the partial-info analysis memo, so these tests pin its
contracts directly: byte-budgeted strictly-LRU eviction (including
under thread contention), torn-write-proof disk publication,
corrupt-entry fallback, and hit promotion from disk into memory.
"""

from __future__ import annotations

import glob
import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools import telemetry
from repro.store import (
    DiskTier,
    MemoryLRU,
    StoreError,
    TieredStore,
)


def _sized(key: bytes, value: object) -> int:
    return len(key) + len(value)


class TestMemoryLRU:
    def test_roundtrip_and_miss(self):
        lru = MemoryLRU(4, 1000)
        assert lru.get(b"a") is None
        lru.put(b"a", "one")
        assert lru.get(b"a") == "one"
        assert len(lru) == 1

    def test_entry_cap_evicts_least_recently_used(self):
        lru = MemoryLRU(2, 10_000)
        lru.put(b"a", 1)
        lru.put(b"b", 2)
        assert lru.get(b"a") == 1  # refresh a; b is now LRU
        evicted = lru.put(b"c", 3)
        assert evicted == 1
        assert lru.get(b"b") is None
        assert lru.get(b"a") == 1
        assert lru.get(b"c") == 3

    def test_byte_budget_evicts(self):
        lru = MemoryLRU(100, 10, nbytes=_sized)
        lru.put(b"a", "12345")   # 6 bytes
        lru.put(b"b", "123")     # 4 bytes -> 10 total, at budget
        assert len(lru) == 2
        lru.put(b"c", "1234567")  # 8 bytes -> evicts until <= 10
        assert lru.get(b"c") == "1234567"
        assert lru.current_bytes <= 10

    def test_replacing_entry_reaccounts_bytes(self):
        lru = MemoryLRU(10, 100, nbytes=_sized)
        lru.put(b"a", "x" * 50)
        lru.put(b"a", "x" * 10)
        assert lru.current_bytes == 11
        assert len(lru) == 1

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(StoreError):
            MemoryLRU(0, 100)
        with pytest.raises(StoreError):
            MemoryLRU(10, 0)

    def test_threaded_puts_respect_budgets(self):
        lru = MemoryLRU(32, 4096, nbytes=_sized)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(300):
                    key = f"{worker}-{i % 40}".encode()
                    lru.put(key, "v" * (i % 60))
                    lru.get(key)
            except Exception as exc:  # repro-lint: disable=RL005
                # Collected and re-raised on the main thread below.
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(lru) <= 32
        assert lru.current_bytes <= 4096

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 50)),
            min_size=1, max_size=80,
        )
    )
    def test_property_budgets_always_hold(self, ops):
        lru = MemoryLRU(5, 200, nbytes=_sized)
        for key_id, size in ops:
            lru.put(f"k{key_id}".encode(), "v" * size)
            assert len(lru) <= 5
            assert lru.current_bytes <= 200
        # The most recent oversize-free put must still be present.
        last_key, last_size = ops[-1]
        if len(f"k{last_key}") + last_size <= 200:
            assert lru.get(f"k{last_key}".encode()) == "v" * last_size


class TestDiskTier:
    def test_roundtrip(self, tmp_path):
        tier = DiskTier(str(tmp_path))
        assert tier.get(b"k") is None
        assert tier.put(b"k", b"payload")
        assert tier.get(b"k") == b"payload"

    def test_write_leaves_no_temp_files(self, tmp_path):
        tier = DiskTier(str(tmp_path))
        for i in range(10):
            tier.put(b"k", bytes([i]) * 100)
        leftovers = glob.glob(str(tmp_path / "*tmp*"))
        assert leftovers == []
        assert len(list(tmp_path.iterdir())) == 1

    def test_unwritable_directory_degrades_to_false(self):
        tier = DiskTier("/proc/definitely/not/writable")
        assert tier.put(b"k", b"v") is False
        assert tier.get(b"k") is None

    def test_interleaved_partial_write_is_never_observed(self, tmp_path):
        """Regression: readers racing writers never see a torn blob.

        The pre-PR store wrote through a pid-suffixed temp name, which
        two threads of one process could race on; ``tempfile.mkstemp``
        + ``os.replace`` guarantees readers observe only complete
        published blobs.  Writers continuously republish one of eight
        known 4-KiB blobs while readers poll; any read returning bytes
        outside that set is a torn write.
        """
        tier = DiskTier(str(tmp_path))
        key = b"contended"
        blobs = [bytes([i]) * 4096 for i in range(8)]
        stop = threading.Event()
        torn = []

        def reader() -> None:
            while not stop.is_set():
                blob = tier.get(key)
                if blob is not None and blob not in blobs:
                    torn.append(len(blob))

        def writer(offset: int) -> None:
            i = 0
            while not stop.is_set():
                tier.put(key, blobs[(offset + i) % len(blobs)])
                i += 1

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads += [threading.Thread(target=writer, args=(w,))
                    for w in range(3)]
        for t in threads:
            t.start()
        timer = threading.Timer(0.4, stop.set)
        timer.start()
        for t in threads:
            t.join()
        timer.cancel()
        assert torn == []
        assert glob.glob(str(tmp_path / "*tmp*")) == []


def _json_store(tmp_path=None, prefix=None):
    return TieredStore(
        memory=MemoryLRU(8, 10_000),
        encode=lambda v: json.dumps(v, sort_keys=True).encode(),
        decode=_decode_json,
        disk_dir=None if tmp_path is None else str(tmp_path),
        counter_prefix=prefix,
        file_prefix="t-", file_suffix=".json",
    )


def _decode_json(blob):
    try:
        value = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return value if isinstance(value, dict) else None


class TestTieredStore:
    def test_miss_then_memory_hit(self):
        store = _json_store()
        value, tier = store.lookup(b"k")
        assert (value, tier) == (None, "miss")
        store.put(b"k", {"x": 1})
        value, tier = store.lookup(b"k")
        assert value == {"x": 1}
        assert tier == "memory"

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        store = _json_store(tmp_path)
        store.put(b"k", {"x": 2})
        store.clear_memory()
        value, tier = store.lookup(b"k")
        assert value == {"x": 2}
        assert tier == "disk"
        # Promotion: the next lookup is a memory hit.
        assert store.lookup(b"k")[1] == "memory"

    def test_corrupt_disk_entry_falls_through(self, tmp_path):
        store = _json_store(tmp_path, prefix="t")
        store.put(b"k", {"x": 3})
        store.clear_memory()
        # Torn/corrupt entry: overwrite the published blob in place.
        path = glob.glob(str(tmp_path / "t-*.json"))[0]
        with open(path, "wb") as handle:
            handle.write(b'{"x": 3')  # truncated JSON
        with telemetry.collect() as frame:
            value, tier = store.lookup(b"k")
        assert (value, tier) == (None, "miss")
        assert frame.counters["t.disk.corrupt"] == 1
        # A fresh put repairs the entry.
        store.put(b"k", {"x": 4})
        store.clear_memory()
        assert store.get(b"k") == {"x": 4}

    def test_counters(self, tmp_path):
        store = _json_store(tmp_path, prefix="t")
        with telemetry.collect() as frame:
            store.lookup(b"k")
            store.put(b"k", {"x": 6})
            store.lookup(b"k")
            store.clear_memory()
            store.lookup(b"k")
        counters = frame.counters
        assert counters["t.memo.miss"] == 2
        assert counters["t.memo.hit"] == 1
        assert counters["t.disk.miss"] == 1
        assert counters["t.disk.hit"] == 1

    def test_address_is_stable_sha256(self):
        assert TieredStore.address(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
