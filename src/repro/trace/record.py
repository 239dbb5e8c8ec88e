"""Reference records: the unit of data exchanged between pipeline stages.

A :class:`RefBatch` holds one *batch* of memory references as parallel numpy
arrays (structure-of-arrays, per the HPC guide: no per-element Python
objects, views not copies). A batch carries the iteration index it was
collected in, because every analysis in the paper is per-timestep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError


class AccessType(enum.IntEnum):
    """Read or write; stored as uint8 in batches."""

    READ = 0
    WRITE = 1


@dataclass
class RefBatch:
    """A batch of memory references.

    Attributes
    ----------
    addr:
        Byte addresses, ``uint64``.
    is_write:
        ``bool`` array, True for stores.
    size:
        Access sizes in bytes, ``uint8`` (8 for a double, etc.).
    oid:
        Memory-object id of each reference, ``int32``; ``-1`` when the
        producer does not attribute references (attribution then happens
        in the analyzers via address lookup).
    iteration:
        Which main-loop iteration the batch belongs to (0 = pre-compute /
        post-processing phases, matching Figure 7's x-axis origin).
    """

    addr: np.ndarray
    is_write: np.ndarray
    size: np.ndarray
    oid: np.ndarray
    iteration: int = 0

    def __post_init__(self) -> None:
        self.addr = np.ascontiguousarray(self.addr, dtype=np.uint64)
        self.is_write = np.ascontiguousarray(self.is_write, dtype=bool)
        self.size = np.ascontiguousarray(self.size, dtype=np.uint8)
        self.oid = np.ascontiguousarray(self.oid, dtype=np.int32)
        n = self.addr.shape[0]
        for name in ("is_write", "size", "oid"):
            arr = getattr(self, name)
            if arr.ndim != 1 or arr.shape[0] != n:
                raise TraceError(
                    f"RefBatch field {name!r} has shape {arr.shape}, expected ({n},)"
                )
        if self.addr.ndim != 1:
            raise TraceError(f"RefBatch addr must be 1-D, got shape {self.addr.shape}")

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, iteration: int = 0) -> "RefBatch":
        return cls(
            addr=np.empty(0, np.uint64),
            is_write=np.empty(0, bool),
            size=np.empty(0, np.uint8),
            oid=np.empty(0, np.int32),
            iteration=iteration,
        )

    @classmethod
    def from_access(
        cls,
        addrs: np.ndarray,
        access: AccessType,
        size: int = 8,
        oid: int = -1,
        iteration: int = 0,
    ) -> "RefBatch":
        """Build a uniform batch (same type/size/oid for every reference)."""
        addrs = np.ascontiguousarray(addrs, dtype=np.uint64)
        n = addrs.shape[0]
        return cls(
            addr=addrs,
            is_write=np.full(n, access == AccessType.WRITE, dtype=bool),
            size=np.full(n, size, dtype=np.uint8),
            oid=np.full(n, oid, dtype=np.int32),
            iteration=iteration,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.addr.shape[0])

    @property
    def n_reads(self) -> int:
        return int((~self.is_write).sum())

    @property
    def n_writes(self) -> int:
        return int(self.is_write.sum())

    def take(self, mask_or_index: np.ndarray) -> "RefBatch":
        """Select a sub-batch by boolean mask or index array."""
        return RefBatch(
            addr=self.addr[mask_or_index],
            is_write=self.is_write[mask_or_index],
            size=self.size[mask_or_index],
            oid=self.oid[mask_or_index],
            iteration=self.iteration,
        )

    def with_oid(self, oid: np.ndarray) -> "RefBatch":
        """Return a batch sharing the other arrays but with new attribution."""
        return RefBatch(
            addr=self.addr,
            is_write=self.is_write,
            size=self.size,
            oid=oid,
            iteration=self.iteration,
        )
