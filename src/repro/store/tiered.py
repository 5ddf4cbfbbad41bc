"""Tiered content-addressed result store: memory LRU → disk.

Two tiers, composed by the ``repro serve`` policy store
(:mod:`repro.serve.service`):

* :class:`MemoryLRU` — a byte-budgeted, thread-safe LRU over arbitrary
  Python values.  Both an entry cap and a byte cap apply; eviction is
  strictly least-recently-used.  The partial-information analysis memo
  (:mod:`repro.analysis.partial_info`) is one of these on its own.
* :class:`DiskTier` — content-addressed blobs on disk.  Entries are
  named by the SHA-256 of their key, written atomically (``tempfile``
  in the target directory + ``os.replace``) so a reader can never
  observe a torn write, and unreadable entries degrade to a miss.

:class:`TieredStore` stacks them: ``get`` walks memory → disk and
*promotes* disk hits into memory, ``put`` writes through to both
tiers.  Values cross the disk boundary through a
caller-supplied ``encode``/``decode`` codec over ``bytes``; ``decode``
returning ``None`` marks the blob corrupt (counted, treated as a miss).

Keys are raw ``bytes`` (canonical request encodings); the hex SHA-256
content address is exposed via :meth:`TieredStore.address` for
logging, coalescing maps and on-disk names.

Telemetry: with ``counter_prefix="serve.store"`` a store counts
``serve.store.memo.{hit,miss,evict}`` and
``serve.store.disk.{hit,miss,corrupt}``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

from repro.devtools import telemetry
from repro.exceptions import ReproError

__all__ = [
    "DiskTier",
    "MemoryLRU",
    "StoreError",
    "TieredStore",
]

#: Tier labels reported by :meth:`TieredStore.lookup`.
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_MISS = "miss"


class StoreError(ReproError):
    """Raised for invalid store configuration or keys."""


def _default_nbytes(key: bytes, value: Any) -> int:
    """Conservative size estimate: key length plus a fixed overhead."""
    size = len(key) + 128
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        size += nbytes
    elif isinstance(value, (bytes, bytearray, str)):
        size += len(value)
    return size


class MemoryLRU:
    """Byte-budgeted, thread-safe LRU mapping ``bytes`` keys to values.

    Eviction triggers when either the entry count exceeds
    ``max_entries`` or the accounted bytes exceed ``max_bytes``; the
    least-recently-used entries go first.  ``nbytes`` sizes each entry
    (key and value) for the byte budget.  All operations hold an
    internal lock, so concurrent readers/writers always observe a
    consistent budget (property-tested in ``tests/store``).
    """

    def __init__(
        self,
        max_entries: int,
        max_bytes: int,
        nbytes: Callable[[bytes, Any], int] = _default_nbytes,
    ) -> None:
        if max_entries < 1:
            raise StoreError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise StoreError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._nbytes = nbytes
        self._entries: "OrderedDict[bytes, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: bytes) -> Optional[Any]:
        """Return the cached value (refreshing its recency) or ``None``."""
        with self._lock:
            slot = self._entries.get(key)
            if slot is None:
                return None
            self._entries.move_to_end(key)
            return slot[0]

    def put(self, key: bytes, value: Any) -> int:
        """Store ``value`` under ``key``; returns how many entries were
        evicted to respect the entry/byte budgets."""
        size = int(self._nbytes(key, value))
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None:
                self._bytes -= previous[1]
            self._entries[key] = (value, size)
            self._entries.move_to_end(key)
            self._bytes += size
            evicted = 0
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _, (_, old_size) = self._entries.popitem(last=False)
                self._bytes -= old_size
                evicted += 1
            return evicted

    def clear(self) -> None:
        """Drop every entry and reset the byte account."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Bytes currently accounted against the budget."""
        with self._lock:
            return self._bytes


class DiskTier:
    """Content-addressed blob files with atomic, torn-write-proof writes.

    Each entry lives at ``<directory>/<prefix><sha256(key)><suffix>``.
    Writes land in a ``tempfile.mkstemp`` file *in the same directory*
    and are published with ``os.replace``, which POSIX guarantees to be
    atomic — a concurrent reader sees either the old entry, no entry,
    or the complete new entry, never a partial file (the unique temp
    name also makes concurrent writers from any mix of processes and
    threads safe; the previous in-module cache used a pid-suffixed name
    that two threads of one process could race on).  Reads degrade to a
    miss on any I/O error; content-level corruption is the codec's job
    (see :class:`TieredStore`).
    """

    def __init__(
        self,
        directory: str,
        prefix: str = "entry-",
        suffix: str = ".bin",
    ) -> None:
        if not directory:
            raise StoreError("disk tier directory must be non-empty")
        self.directory = directory
        self.prefix = prefix
        self.suffix = suffix

    def path_for(self, key: bytes) -> str:
        """Path of the entry for ``key`` (which may not exist)."""
        digest = hashlib.sha256(key).hexdigest()
        return os.path.join(
            self.directory, f"{self.prefix}{digest}{self.suffix}"
        )

    def get(self, key: bytes) -> Optional[bytes]:
        """Read the stored blob, or ``None`` when absent/unreadable."""
        try:
            with open(self.path_for(key), "rb") as handle:
                return handle.read()
        except (FileNotFoundError, IsADirectoryError):
            return None
        except OSError:
            return None

    def put(self, key: bytes, blob: bytes) -> bool:
        """Atomically publish ``blob`` under ``key``; best-effort.

        Returns ``False`` (without raising) when the filesystem refuses
        — cache tiers must never fail the computation they back.
        """
        path = self.path_for(key)
        tmp_path: Optional[str] = None
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=f"{self.prefix}tmp-", dir=self.directory
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, path)
            return True
        except OSError:
            if tmp_path is not None:
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
            return False


class TieredStore:
    """Memory LRU → disk store with promotion.

    Parameters
    ----------
    memory:
        The in-process tier (always present).
    encode / decode:
        Codec between values and ``bytes`` for the disk tier.
        ``decode`` must return ``None`` for blobs it cannot parse —
        such entries count as corrupt and fall through to a miss
        instead of raising.
    disk_dir:
        Directory for the disk tier, or ``None`` to disable it.
    counter_prefix:
        When set, tier traffic is counted through
        :mod:`repro.devtools.telemetry` as
        ``<prefix>.memo.{hit,miss,evict}`` and
        ``<prefix>.disk.{hit,miss,corrupt}``.
    file_prefix / file_suffix:
        On-disk entry naming (see :class:`DiskTier`).
    """

    def __init__(
        self,
        memory: MemoryLRU,
        encode: Callable[[Any], bytes],
        decode: Callable[[bytes], Optional[Any]],
        disk_dir: Optional[str] = None,
        counter_prefix: Optional[str] = None,
        file_prefix: str = "entry-",
        file_suffix: str = ".bin",
    ) -> None:
        self.memory = memory
        self._encode = encode
        self._decode = decode
        self._disk_dir = disk_dir
        self._prefix = counter_prefix
        self._file_prefix = file_prefix
        self._file_suffix = file_suffix

    # -- plumbing ------------------------------------------------------
    @staticmethod
    def address(key: bytes) -> str:
        """Hex SHA-256 content address of ``key``."""
        return hashlib.sha256(key).hexdigest()

    def _count(self, name: str, n: int = 1) -> None:
        if self._prefix is not None:
            telemetry.count(f"{self._prefix}.{name}", n)

    def _disk(self) -> Optional[DiskTier]:
        if not self._disk_dir:
            return None
        return DiskTier(
            self._disk_dir, prefix=self._file_prefix, suffix=self._file_suffix
        )

    # -- access --------------------------------------------------------
    def lookup(self, key: bytes) -> Tuple[Optional[Any], str]:
        """Return ``(value, tier)`` where tier names the serving tier.

        ``tier`` is ``"memory"``, ``"disk"`` or ``"miss"``.  Disk hits
        are promoted into memory.
        """
        value = self.memory.get(key)
        if value is not None:
            self._count("memo.hit")
            return value, TIER_MEMORY
        self._count("memo.miss")

        disk = self._disk()
        if disk is not None:
            blob = disk.get(key)
            if blob is not None:
                value = self._decode(blob)
                if value is not None:
                    self._count("disk.hit")
                    self._store_memory(key, value)
                    return value, TIER_DISK
                self._count("disk.corrupt")
            self._count("disk.miss")

        return None, TIER_MISS

    def get(self, key: bytes) -> Optional[Any]:
        """Value for ``key`` from the fastest tier holding it, or ``None``."""
        return self.lookup(key)[0]

    def put(self, key: bytes, value: Any) -> None:
        """Write ``value`` through every configured tier."""
        self._store_memory(key, value)
        disk = self._disk()
        if disk is not None:
            disk.put(key, self._encode(value))

    def _store_memory(self, key: bytes, value: Any) -> None:
        evicted = self.memory.put(key, value)
        if evicted:
            self._count("memo.evict", evicted)

    # -- maintenance ---------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-process tier (disk entries persist)."""
        self.memory.clear()

    def memory_len(self) -> int:
        """Number of entries currently in the memory tier."""
        return len(self.memory)
