"""First-fit free-list heap allocator for the simulated address space.

The allocator reproduces the properties the paper's heap analyzer depends
on: addresses are reused after ``free`` (so a dead object can alias a live
one — hence the dead-object flag in the analyzer), ``realloc`` behaves as
free-then-malloc (paper §III-B), and every allocation reports its callsite
so signatures can be formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError, InvalidFreeError
from repro.memory.layout import Segment

_ALIGN = 16  # malloc-style alignment of returned base addresses


def _align_up(n: int, align: int = _ALIGN) -> int:
    return (n + align - 1) // align * align


@dataclass
class _FreeBlock:
    base: int
    size: int


class HeapAllocator:
    """A first-fit allocator over a heap :class:`Segment`.

    Freed blocks are coalesced with adjacent free blocks and the free list
    is kept address-ordered, so allocation patterns (and therefore address
    reuse) are deterministic.
    """

    def __init__(self, segment: Segment) -> None:
        self._segment = segment
        self._free: list[_FreeBlock] = [_FreeBlock(segment.base, segment.size)]
        self._live: dict[int, int] = {}  # base -> size
        self._bytes_allocated = 0
        self._peak_bytes = 0
        self.alloc_count = 0
        self.free_count = 0

    # ------------------------------------------------------------------
    @property
    def segment(self) -> Segment:
        return self._segment

    @property
    def bytes_allocated(self) -> int:
        """Bytes currently live."""
        return self._bytes_allocated

    @property
    def peak_bytes(self) -> int:
        """High-water mark of live bytes."""
        return self._peak_bytes

    def size_of(self, base: int) -> int:
        """Size of the live allocation at *base*."""
        try:
            return self._live[base]
        except KeyError:
            raise InvalidFreeError(f"{base:#x} is not a live allocation") from None

    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate *size* bytes; returns the base address."""
        if size <= 0:
            raise AllocationError(f"malloc size must be positive, got {size}")
        need = _align_up(size)
        for i, blk in enumerate(self._free):
            if blk.size >= need:
                base = blk.base
                if blk.size == need:
                    del self._free[i]
                else:
                    blk.base += need
                    blk.size -= need
                self._live[base] = size
                self._bytes_allocated += size
                self._peak_bytes = max(self._peak_bytes, self._bytes_allocated)
                self.alloc_count += 1
                return base
        raise AllocationError(
            f"heap exhausted: need {need} bytes, "
            f"largest free block is {max((b.size for b in self._free), default=0)}"
        )

    def free(self, base: int) -> int:
        """Free the allocation at *base*; returns its size."""
        try:
            size = self._live.pop(base)
        except KeyError:
            raise InvalidFreeError(f"free of non-live pointer {base:#x}") from None
        self._bytes_allocated -= size
        self.free_count += 1
        self._insert_free(_FreeBlock(base, _align_up(size)))
        return size

    def realloc(self, base: int, new_size: int) -> int:
        """Paper semantics: free() followed by malloc() (§III-B)."""
        self.free(base)
        return self.malloc(new_size)

    # ------------------------------------------------------------------
    def _insert_free(self, blk: _FreeBlock) -> None:
        """Insert into the address-ordered free list, coalescing neighbors."""
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].base < blk.base:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, blk)
        # coalesce with successor then predecessor
        if lo + 1 < len(self._free):
            nxt = self._free[lo + 1]
            if blk.base + blk.size == nxt.base:
                blk.size += nxt.size
                del self._free[lo + 1]
        if lo > 0:
            prv = self._free[lo - 1]
            if prv.base + prv.size == blk.base:
                prv.size += blk.size
                del self._free[lo]

    def check_invariants(self) -> None:
        """Assert free-list canonical form; used by property tests."""
        prev_end = None
        for blk in self._free:
            if blk.size <= 0:
                raise AssertionError(f"empty free block at {blk.base:#x}")
            if not self._segment.contains(blk.base):
                raise AssertionError(f"free block {blk.base:#x} outside segment")
            if prev_end is not None and blk.base < prev_end:
                raise AssertionError("free list not sorted/disjoint")
            if prev_end is not None and blk.base == prev_end:
                raise AssertionError("adjacent free blocks not coalesced")
            prev_end = blk.base + blk.size
        # live blocks must not overlap free blocks
        for base, size in self._live.items():
            for blk in self._free:
                if base < blk.base + blk.size and blk.base < base + _align_up(size):
                    raise AssertionError(
                        f"live block {base:#x}+{size} overlaps free block "
                        f"{blk.base:#x}+{blk.size}"
                    )
