"""Reusable tiered result store (memory LRU → disk).

See :mod:`repro.store.tiered` for the architecture.  The
partial-information analysis memo (:mod:`repro.analysis.partial_info`)
and the ``repro serve`` policy store (:mod:`repro.serve`) are both built
on this package.
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
