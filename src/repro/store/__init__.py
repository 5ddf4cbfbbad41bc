"""Reusable tiered result store (memory LRU → disk).

See :mod:`repro.store.tiered` for the architecture.  The ``repro serve``
policy store (:mod:`repro.serve`) is built on :class:`TieredStore`; the
partial-information analysis memo (:mod:`repro.analysis.partial_info`)
uses a :class:`MemoryLRU` alone.
"""

from __future__ import annotations

from repro.store.tiered import (
    DiskTier,
    MemoryLRU,
    StoreError,
    TieredStore,
)

__all__ = [
    "DiskTier",
    "MemoryLRU",
    "StoreError",
    "TieredStore",
]
