"""Scalar reference implementation of the cache hierarchy.

This is the original per-reference Python loop over
:class:`~repro.cachesim.cache.SetAssociativeCache` levels. The production
:class:`~repro.cachesim.hierarchy.CacheHierarchy` simulates the same LRU
state transitions on numpy arrays; this implementation is kept as the
ground truth for differential testing (`tests/test_cachesim_vectorized.py`
drives randomized batches through both and requires bit-identical stats
and memory traces).
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.cache import AccessResult, SetAssociativeCache
from repro.cachesim.config import CacheHierarchyConfig, TABLE2_CONFIG
from repro.cachesim.hierarchy import HierarchyStats
from repro.trace.record import RefBatch


class ReferenceCacheHierarchy:
    """Drives reference batches through the levels one access at a time."""

    def __init__(self, config: CacheHierarchyConfig = TABLE2_CONFIG) -> None:
        self.config = config
        self.levels = [SetAssociativeCache(lv) for lv in config.levels]
        self._line_shift = config.line_bytes.bit_length() - 1
        self.refs = 0
        self.memory_reads = 0
        self.memory_writes = 0

    # ------------------------------------------------------------------
    def process_batch(self, batch: RefBatch) -> RefBatch:
        """Run a batch through the hierarchy; returns the memory accesses it
        caused (line-granular addresses; ``is_write`` True for writebacks).

        Oids of memory accesses are inherited from the triggering reference
        (a writeback carries the oid of the access that evicted it, which is
        the standard trace-driven approximation).
        """
        n = len(batch)
        self.refs += n
        if n == 0:
            return RefBatch.empty(batch.iteration)
        lines = (batch.addr >> np.uint64(self._line_shift)).astype(np.int64)
        is_write = batch.is_write
        oids = batch.oid
        out_lines: list[int] = []
        out_write: list[bool] = []
        out_oid: list[int] = []
        l1, l2 = self.levels[0], self.levels[-1]
        multi = len(self.levels) > 1
        for i in range(n):
            line = int(lines[i])
            w = bool(is_write[i])
            oid = int(oids[i])
            res, victim, victim_oid = l1.access_owned(line, w, oid)
            if res is AccessResult.HIT:
                continue
            if not multi:
                # single-level: misses go straight to memory
                if res is AccessResult.MISS_ALLOCATED:
                    out_lines.append(line)
                    out_write.append(False)
                    out_oid.append(oid)
                if res is AccessResult.MISS_BYPASSED:
                    out_lines.append(line)
                    out_write.append(True)
                    out_oid.append(oid)
                if victim >= 0:
                    out_lines.append(victim)
                    out_write.append(True)
                    out_oid.append(oid)
                continue
            # L1 victim is written into L2 (its owner oid travels with it)
            if victim >= 0:
                vres, vvictim, _ = l2.access_owned(victim, True, victim_oid)
                if vres is AccessResult.MISS_ALLOCATED:
                    out_lines.append(victim)
                    out_write.append(False)  # fill-on-write-allocate
                    out_oid.append(oid)
                if vvictim >= 0:
                    out_lines.append(vvictim)
                    out_write.append(True)
                    out_oid.append(oid)
            # the demand access goes to L2 (as a store when bypassed)
            demand_write = w if res is AccessResult.MISS_BYPASSED else False
            res2, victim2, _ = l2.access_owned(line, demand_write, oid)
            if res2 is not AccessResult.HIT:
                out_lines.append(line)
                out_write.append(False)  # line fill from memory
                out_oid.append(oid)
            if victim2 >= 0:
                out_lines.append(victim2)
                out_write.append(True)
                out_oid.append(oid)
        mem = self._emit(out_lines, out_write, out_oid, batch.iteration)
        self.memory_reads += mem.n_reads
        self.memory_writes += mem.n_writes
        return mem

    def flush(self, iteration: int = 0) -> RefBatch:
        """Drain all dirty lines to memory (end-of-run).

        Unlike steady-state writebacks (attributed to the triggering
        reference), flush traffic has no triggering reference; each row
        carries the drained line's *owner* oid — the object whose store
        dirtied it — so per-object attribution sees end-of-run writebacks.
        """
        mem_reads: list[tuple[int, int]] = []  # L2 fills triggered by draining L1
        mem_writes: list[tuple[int, int]] = []
        if len(self.levels) > 1:
            # L1 dirty victims land in L2 first...
            l2 = self.levels[-1]
            for line, owner in self.levels[0].flush_owned():
                res, victim, victim_oid = l2.access_owned(line, True, owner)
                if res is AccessResult.MISS_ALLOCATED:
                    mem_reads.append((line, owner))  # write-allocate fill
                if victim >= 0:
                    mem_writes.append((victim, victim_oid))
            # ...then L2 drains to memory
            mem_writes.extend(l2.flush_owned())
        else:
            mem_writes.extend(self.levels[0].flush_owned())
        lines = [line for line, _ in mem_reads] + [line for line, _ in mem_writes]
        writes = [False] * len(mem_reads) + [True] * len(mem_writes)
        oids = [o for _, o in mem_reads] + [o for _, o in mem_writes]
        mem = self._emit(lines, writes, oids, iteration)
        self.memory_reads += mem.n_reads
        self.memory_writes += mem.n_writes
        return mem

    # ------------------------------------------------------------------
    def _emit(
        self, lines: list[int], writes: list[bool], oids: list[int], iteration: int
    ) -> RefBatch:
        addr = (np.array(lines, dtype=np.uint64) << np.uint64(self._line_shift))
        return RefBatch(
            addr=addr,
            is_write=np.array(writes, dtype=bool),
            size=np.full(len(lines), min(self.config.line_bytes, 255), np.uint8),
            oid=np.array(oids, dtype=np.int32),
            iteration=iteration,
        )

    def stats(self) -> HierarchyStats:
        return HierarchyStats(
            levels={c.config.name: c.stats for c in self.levels},
            refs=self.refs,
            memory_reads=self.memory_reads,
            memory_writes=self.memory_writes,
        )


#: Alias used by the differential tests and benchmarks.
reference_impl = ReferenceCacheHierarchy
