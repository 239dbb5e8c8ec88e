"""Page table for a horizontal hybrid memory: which pool holds each page.

Pages are fixed-size; each maps to :attr:`MemoryPool.DRAM` or
:attr:`MemoryPool.NVRAM`. The map is dense over the simulated address
space regions that objects occupy, stored as numpy arrays for vectorized
"which pool does this batch of addresses hit" queries — the hybrid energy
model's hot path.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import PlacementError


class MemoryPool(enum.IntEnum):
    DRAM = 0
    NVRAM = 1


class PageMap:
    """Sparse page -> pool mapping with vectorized lookup.

    Pages are keyed by page number (address // page_bytes). Unmapped pages
    default to DRAM (the safe home). The map is two parallel arrays kept
    sorted by key — ``uint64`` page numbers (pages near the top of the
    address space do not fit ``int64``) and ``int8`` pools — so a batch
    lookup is one ``searchsorted`` with nothing to rebuild.
    """

    def __init__(self, page_bytes: int = 4096) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise PlacementError("page_bytes must be a positive power of two")
        self.page_bytes = page_bytes
        self._shift = page_bytes.bit_length() - 1
        self._keys = np.empty(0, dtype=np.uint64)
        self._pools = np.empty(0, dtype=np.int8)
        self.migrations = 0

    # ------------------------------------------------------------------
    def pages_of_range(self, base: int, size: int) -> np.ndarray:
        """Page numbers covering ``[base, base+size)``.

        A zero-size range covers no pages (an empty object owns no
        memory); the range may straddle the last page of the address
        space, so the math stays in ``uint64``.
        """
        if size <= 0:
            return np.empty(0, dtype=np.uint64)
        first = base >> self._shift
        last = (base + size - 1) >> self._shift
        return np.arange(first, last + 1, dtype=np.uint64)

    def _find(self, page) -> tuple[int, bool]:
        """(insertion index, present) of one page number."""
        key = np.uint64(page)
        i = int(np.searchsorted(self._keys, key))
        return i, i < len(self._keys) and self._keys[i] == key

    # ------------------------------------------------------------------
    def assign_range(self, base: int, size: int, pool: MemoryPool) -> int:
        """Map every page of ``[base, base+size)`` to *pool*; returns pages."""
        pages = self.pages_of_range(base, size)
        if len(pages):
            # the range is contiguous, so the keys it covers are one run
            # [lo, hi) of the sorted arrays: splice the range in its place
            lo = int(np.searchsorted(self._keys, pages[0], side="left"))
            hi = int(np.searchsorted(self._keys, pages[-1], side="right"))
            self._keys = np.concatenate(
                (self._keys[:lo], pages, self._keys[hi:]))
            self._pools = np.concatenate(
                (self._pools[:lo], np.full(len(pages), int(pool), np.int8),
                 self._pools[hi:]))
        return len(pages)

    def migrate_page(self, page: int, pool: MemoryPool) -> bool:
        """Move one page; returns True if it actually changed pools.

        An unmapped page is DRAM, so moving it to NVRAM maps it."""
        pool = MemoryPool(pool)
        i, present = self._find(page)
        if present:
            if self._pools[i] == pool:
                return False
            self._pools[i] = pool
        else:
            if pool is MemoryPool.DRAM:
                return False
            self._keys = np.insert(self._keys, i, np.uint64(page))
            self._pools = np.insert(self._pools, i, np.int8(pool))
        self.migrations += 1
        return True

    def pool_of(self, addr: int) -> MemoryPool:
        return self.pool_of_page(addr >> self._shift)

    def pool_of_page(self, page: int) -> MemoryPool:
        """Pool of one page number (unmapped pages default to DRAM)."""
        i, present = self._find(page)
        return MemoryPool(int(self._pools[i])) if present else MemoryPool.DRAM

    def pool_of_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized pool lookup; returns int8 array of MemoryPool values."""
        pages = np.asarray(addrs, dtype=np.uint64) >> np.uint64(self._shift)
        if not len(self._keys):
            return np.zeros(pages.shape, dtype=np.int8)
        pos = np.minimum(np.searchsorted(self._keys, pages), len(self._keys) - 1)
        return np.where(self._keys[pos] == pages, self._pools[pos], np.int8(0))

    # ------------------------------------------------------------------
    def bytes_in_pool(self, pool: MemoryPool) -> int:
        return int(np.count_nonzero(self._pools == int(pool))) * self.page_bytes

    @property
    def mapped_pages(self) -> int:
        return len(self._keys)
