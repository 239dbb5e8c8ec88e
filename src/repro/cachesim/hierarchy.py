"""Two-level (or N-level) cache hierarchy producing the main-memory trace.

Semantics (matching the Table II configuration):

* loads probe L1; an L1 load miss fills L1 (possibly writing back a dirty
  victim into L2) and probes L2; an L2 miss is a **memory read**;
* stores probe L1; a store hit dirties the L1 line; a store miss bypasses
  L1 (no-write-allocate) and probes L2 as a store, where write-allocate
  turns a miss into a **memory read** (line fill) with the line installed
  dirty;
* any dirty line evicted from the last level is a **memory write**;
* inclusive-of-nothing (non-inclusive, non-exclusive) like most real
  two-level designs of the era: L1 victims are written into L2 as stores.

Implementation: exact LRU simulated **on arrays** rather than per-reference
Python calls. Each level's state is per-set way matrices (``tags``, a
packed dirty/owner ``meta`` word, and a monotonic ``age`` stamp per way —
the LRU victim of a full set is its minimum-age way). A batch is
partitioned by cache set; within a set, references must be applied in
program order, but different sets are independent, so the simulator runs
in *rounds*: round *r* applies the (r+1)-th pending access of every set
simultaneously with vectorized state transitions. Per-set access sequences
are identical to the scalar walk, so hit/miss accounting, victim identity
and the emitted memory trace are all bit-identical to
:class:`~repro.cachesim.reference.ReferenceCacheHierarchy` — enforced by
the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cachesim.cache import LevelStats
from repro.cachesim.config import CacheHierarchyConfig, CacheLevelConfig, TABLE2_CONFIG
from repro.trace.record import RefBatch


@dataclass
class HierarchyStats:
    """Aggregate statistics after processing a stream."""

    levels: dict[str, LevelStats] = field(default_factory=dict)
    refs: int = 0
    memory_reads: int = 0
    memory_writes: int = 0

    @property
    def memory_accesses(self) -> int:
        return self.memory_reads + self.memory_writes

    @property
    def llc_miss_rate(self) -> float:
        llc = list(self.levels.values())[-1]
        return llc.miss_rate

    @property
    def memory_accesses_per_ref(self) -> float:
        return self.memory_accesses / self.refs if self.refs else 0.0


class ArraySetCache:
    """One LRU level as per-set way matrices.

    Way *w* of set *s* is described by three parallel matrices: ``tags[s,
    w]`` is the resident line tag (``-1`` = invalid way); ``age[s, w]`` is
    a monotonic access stamp — the LRU victim of a full set is its
    minimum-age way, and invalid ways carry negative ages ordered so empty
    ways fill left-to-right before anything is evicted; ``meta[s, w]``
    packs the dirty bit and owning oid into one word (``(owner + 1) << 1 |
    dirty``; the owner is the oid of the access that last dirtied the way,
    giving end-of-run writebacks per-object attribution).
    """

    __slots__ = ("config", "stats", "tags", "age", "meta", "_clock",
                 "_set_mask", "_set_bits")

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        n, a = config.n_sets, config.associativity
        self.tags = np.full((n, a), -1, dtype=np.int64)
        self.age = np.broadcast_to(np.arange(-a, 0, dtype=np.int64), (n, a)).copy()
        self.meta = np.zeros((n, a), dtype=np.int64)
        self._clock = 1
        self._set_mask = config.n_sets - 1
        self._set_bits = config.n_sets.bit_length() - 1
        self.stats = LevelStats()

    # ------------------------------------------------------------------
    def contains(self, line: int) -> bool:
        """Is the line resident? (inspection only; does not touch LRU)"""
        row = self.tags[line & self._set_mask]
        return bool((row == (line >> self._set_bits)).any())

    def resident_lines(self) -> int:
        return int((self.tags != -1).sum())

    # ------------------------------------------------------------------
    def run_stream(
        self,
        sets: np.ndarray,
        tags: np.ndarray,
        writes: np.ndarray,
        oids: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Apply an ordered access stream; exact LRU, set-parallel rounds.

        All inputs are parallel arrays over the stream. Returns, aligned
        with the input order: ``hit`` (bool), ``bypassed`` (bool — store
        miss on a no-write-allocate level), ``victim`` (dirty victim line
        written back, ``-1`` when none) and ``victim_oid`` (its owner).
        """
        m = len(sets)
        a = self.config.associativity
        write_allocate = self.config.write_allocate
        if m == 0:
            z = np.zeros(0, dtype=bool)
            return z, z.copy(), np.zeros(0, np.int64), np.zeros(0, np.int32)

        # --- Round schedule -------------------------------------------
        # Stable-sort by set; an access's rank within its set is the round
        # it runs in, so per-set order is program order. Touched sets are
        # then relabelled to dense *columns* ordered by multiplicity
        # (descending): round r consists of exactly columns 0..c_r-1, so
        # an access's slot in the round-major stream is plain arithmetic
        # (offset[rank] + column) and every round is a contiguous prefix
        # of the column-ordered local state — no per-round gather/scatter
        # against the full state arrays.
        sets16 = sets.astype(np.int16) if self.config.n_sets <= 1 << 15 else sets
        order = np.argsort(sets16, kind="stable")  # radix sort on int16
        ss = sets16[order]
        new_group = np.ones(m, dtype=bool)
        new_group[1:] = ss[1:] != ss[:-1]
        starts = np.nonzero(new_group)[0]
        uniq = ss[starts].astype(np.int64)  # touched sets, ascending
        ucounts = np.diff(np.append(starts, m))  # their multiplicities
        n_cols = len(uniq)
        colorder = np.argsort(-ucounts, kind="stable")
        col_of_uniq = np.empty(n_cols, dtype=np.int32)
        col_of_uniq[colorder] = np.arange(n_cols, dtype=np.int32)
        idx_m = np.arange(m, dtype=np.int32)
        group_start = np.maximum.accumulate(np.where(new_group, idx_m, 0))
        rank_sorted = idx_m - group_start
        col_sorted = np.repeat(col_of_uniq, ucounts)
        n_rounds = int(ucounts.max())
        c_arr = n_cols - np.searchsorted(
            np.sort(ucounts), np.arange(1, n_rounds + 1), side="left"
        )
        offsets = np.concatenate([[0], np.cumsum(c_arr)]).astype(np.int32)
        pos = np.empty(m, dtype=np.int32)  # program order -> round-major slot
        pos[order] = offsets[rank_sorted] + col_sorted

        # Scatter the stream into round-major order once; rounds then work
        # purely on contiguous views.
        tags_r = np.empty(m, dtype=np.int64)
        tags_r[pos] = tags
        writes_r = np.empty(m, dtype=bool)
        writes_r[pos] = writes
        notw_r = ~writes_r
        # packed meta word an access installs when it dirties the line
        wmeta_r = np.empty(m, dtype=np.int64)
        wmeta_r[pos] = (oids.astype(np.int64) + 1) << 1 | 1
        old_tag_r = np.empty(m, dtype=np.int64)  # prior tag at touched way
        old_meta_r = np.empty(m, dtype=np.int64)  # prior dirty/owner word

        # Local per-column state (contiguous copies), written back once at
        # stream end.
        uniq_by_col = uniq[colorder]
        lt = self.tags[uniq_by_col]  # [n_cols, assoc]
        la = self.age[uniq_by_col]
        lm = self.meta[uniq_by_col]
        ltf, laf, lmf = lt.reshape(-1), la.reshape(-1), lm.reshape(-1)
        way_base = np.arange(n_cols, dtype=np.int64) * a
        neg_big = np.int64(-(1 << 60))
        off_list = offsets.tolist()
        clock = self._clock
        for r in range(n_rounds):
            b0, b1 = off_list[r], off_list[r + 1]
            c = b1 - b0
            t = tags_r[b0:b1]
            # composite key: a matching way sorts below every age, so one
            # argmin yields the hit way when there is one, else the LRU
            # way a miss (re)fills
            match = lt[:c] == t[:, None]
            way = np.where(match, neg_big, la[:c]).argmin(axis=1)
            idx = way_base[:c] + way
            old_t = ltf[idx]
            old_m = lmf[idx]
            hit = old_t == t
            w = writes_r[b0:b1]
            new_m = np.where(w, wmeta_r[b0:b1], np.where(hit, old_m, 0))
            if write_allocate:
                # every access installs/promotes its line
                ltf[idx] = t
                laf[idx] = clock
                lmf[idx] = new_m
            else:
                # store misses bypass: leave the way untouched
                upd = hit | notw_r[b0:b1]
                ltf[idx] = np.where(upd, t, old_t)
                laf[idx] = np.where(upd, clock, laf[idx])
                lmf[idx] = np.where(upd, new_m, old_m)
            old_tag_r[b0:b1] = old_t
            old_meta_r[b0:b1] = old_m
            clock += 1
        self._clock = clock
        self.tags[uniq_by_col] = lt
        self.age[uniq_by_col] = la
        self.meta[uniq_by_col] = lm

        # Per-access outcomes, vectorized over the whole stream in program
        # order.
        vtag = old_tag_r[pos]
        vmeta = old_meta_r[pos]
        hit_out = vtag == tags
        miss = ~hit_out
        if write_allocate:
            byp_out = np.zeros(m, dtype=bool)
            alloc = miss
        else:
            byp_out = miss & writes
            alloc = miss & ~writes
        # allocating misses on a full set evict the LRU way; only dirty
        # victims are written back
        vic_live = alloc & (vtag >= 0) & (vmeta & 1).astype(bool)
        vic_out = np.where(vic_live, (vtag << self._set_bits) | sets, -1)
        vic_oid_out = np.where(vic_live, (vmeta >> 1) - 1, -1).astype(np.int32)

        stats = self.stats
        outcome = np.bincount(
            hit_out.view(np.uint8) << 1 | writes.view(np.uint8), minlength=4
        )
        stats.read_misses += int(outcome[0])
        stats.write_misses += int(outcome[1])
        stats.read_hits += int(outcome[2])
        stats.write_hits += int(outcome[3])
        stats.writebacks += int(vic_live.sum())
        return hit_out, byp_out, vic_out, vic_oid_out

    # ------------------------------------------------------------------
    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Evict everything; returns ``(dirty lines, owner oids)`` in
        (set index, LRU-to-MRU) order — the scalar flush order."""
        live_dirty = (self.tags != -1) & (self.meta & 1).astype(bool)
        set_idx, way = np.nonzero(live_dirty)
        # within each set, ages sort LRU -> MRU
        lru = np.lexsort((self.age[set_idx, way], set_idx))
        set_idx, way = set_idx[lru], way[lru]
        lines = (self.tags[set_idx, way] << self._set_bits) | set_idx
        owners = ((self.meta[set_idx, way] >> 1) - 1).astype(np.int32)
        self.stats.writebacks += len(lines)
        a = self.config.associativity
        self.tags.fill(-1)
        self.age[:] = np.arange(-a, 0, dtype=np.int64)
        self.meta.fill(0)
        return lines.astype(np.int64), owners


def _merge(
    idx_first: np.ndarray,
    idx_second: np.ndarray,
    cols_first: tuple[np.ndarray, ...],
    cols_second: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, ...]:
    """Merge two event streams keyed by sorted source-reference indices.

    At equal indices the *first* stream's event precedes the second's —
    e.g. a dirty victim's writeback precedes the demand probe of the L1
    miss that evicted it. Both index arrays are already sorted, so this is
    a searchsorted merge instead of an argsort.
    """
    pos_f = np.arange(len(idx_first)) + np.searchsorted(
        idx_second, idx_first, side="left"
    )
    pos_s = np.arange(len(idx_second)) + np.searchsorted(
        idx_first, idx_second, side="right"
    )
    out = []
    for cf, cs in zip(cols_first, cols_second):
        col = np.empty(len(idx_first) + len(idx_second), dtype=np.result_type(cf, cs))
        col[pos_f] = cf
        col[pos_s] = cs
        out.append(col)
    return tuple(out)


#: Version of the main-memory trace this simulator (with
#: :class:`~repro.cachesim.filtered.MemoryTraceProbe`'s per-batch split)
#: emits. Stored derived traces are keyed by it
#: (:mod:`repro.engine.memtrace`), and run-spec keys carry no code
#: version, so bump it whenever the output rows, their order, oids or
#: iteration tags, or the final :class:`HierarchyStats` change — or a
#: cache written by the old code serves the old trace.
#: ``tests/test_derived_trace.py`` pins it together with a digest of one
#: spec's filtered trace, so such a change fails until both are bumped.
FILTER_VERSION = 1


class CacheHierarchy:
    """Drives reference batches through the levels; exact, vectorized LRU."""

    def __init__(self, config: CacheHierarchyConfig = TABLE2_CONFIG) -> None:
        self.config = config
        self.levels = [ArraySetCache(lv) for lv in config.levels]
        self._line_shift = config.line_bytes.bit_length() - 1
        self.refs = 0
        self.memory_reads = 0
        self.memory_writes = 0
        #: for each row of the last :meth:`process_batch` output, the index
        #: in that input batch of the reference that caused it
        #: (non-decreasing, so a caller can split the output by input range)
        self.last_source = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def process_batch(self, batch: RefBatch) -> RefBatch:
        """Run a batch through the hierarchy; returns the memory accesses it
        caused (line-granular addresses; ``is_write`` True for writebacks).

        Oids of memory accesses are inherited from the triggering reference
        (a writeback carries the oid of the access that evicted it, which is
        the standard trace-driven approximation). Output rows appear in the
        same order the scalar reference implementation produces them, and
        :attr:`last_source` gives each row's triggering reference.
        """
        n = len(batch)
        self.refs += n
        if n == 0:
            self.last_source = np.zeros(0, dtype=np.int64)
            return RefBatch.empty(batch.iteration)
        lines = (batch.addr >> np.uint64(self._line_shift)).astype(np.int64)
        is_write = np.ascontiguousarray(batch.is_write)
        oids = np.ascontiguousarray(batch.oid)
        l1 = self.levels[0]
        hit1, byp1, vic1, vic1_oid = l1.run_stream(
            lines & l1._set_mask, lines >> l1._set_bits, is_write, oids
        )
        miss1 = ~hit1
        if len(self.levels) == 1:
            # single-level: misses go straight to memory (demand before
            # the dirty victim's writeback, as in the scalar loop)
            di = np.nonzero(miss1)[0]
            wi = np.nonzero(vic1 >= 0)[0]
            mem_lines, mem_writes, mem_oids, self.last_source = _merge(
                di,
                wi,
                (lines[di], byp1[di], oids[di], di),
                (vic1[wi], np.ones(len(wi), dtype=bool), oids[wi], wi),
            )
            mem = self._emit(mem_lines, mem_writes, mem_oids, batch.iteration)
            self.memory_reads += mem.n_reads
            self.memory_writes += mem.n_writes
            return mem

        # Build the L2 access stream in program order: for each L1 miss,
        # the dirty victim's writeback (if any) precedes the demand probe.
        vi = np.nonzero(vic1 >= 0)[0]
        di = np.nonzero(miss1)[0]
        # state oid: the dirtying access for bypassed stores, the carried
        # owner for victim writebacks
        ev_line, ev_write, ev_state_oid, ev_emit_oid, ev_is_victim, ev_src = _merge(
            vi,
            di,
            (
                vic1[vi],
                np.ones(len(vi), dtype=bool),
                vic1_oid[vi],
                oids[vi],
                np.ones(len(vi), dtype=bool),
                vi,
            ),
            (
                lines[di],
                byp1[di],
                np.where(byp1[di], oids[di], np.int32(-1)).astype(np.int32),
                oids[di],
                np.zeros(len(di), dtype=bool),
                di,
            ),
        )
        l2 = self.levels[-1]
        hit2, byp2, vic2, vic2_oid = l2.run_stream(
            ev_line & l2._set_mask, ev_line >> l2._set_bits, ev_write, ev_state_oid
        )
        # memory fills: demand probes emit on any miss; victim writebacks
        # only when they allocate (mirrors the scalar loop exactly)
        fill = np.where(ev_is_victim, ~hit2 & ~byp2, ~hit2)
        fi = np.nonzero(fill)[0]
        wi2 = np.nonzero(vic2 >= 0)[0]
        mem_lines, mem_writes, mem_oids, self.last_source = _merge(
            fi,
            wi2,
            (ev_line[fi], np.zeros(len(fi), dtype=bool), ev_emit_oid[fi],
             ev_src[fi]),
            (vic2[wi2], np.ones(len(wi2), dtype=bool), ev_emit_oid[wi2],
             ev_src[wi2]),
        )
        mem = self._emit(mem_lines, mem_writes, mem_oids, batch.iteration)
        self.memory_reads += mem.n_reads
        self.memory_writes += mem.n_writes
        return mem

    def flush(self, iteration: int = 0) -> RefBatch:
        """Drain all dirty lines to memory (end-of-run).

        Rows carry each drained line's *owner* oid — the object whose store
        dirtied it — so end-of-run writebacks are attributed to objects
        like steady-state writebacks (there is no triggering reference).
        """
        if len(self.levels) > 1:
            l2 = self.levels[-1]
            l1_lines, l1_owners = self.levels[0].drain()
            hit2, byp2, vic2, vic2_oid = l2.run_stream(
                l1_lines & l2._set_mask,
                l1_lines >> l2._set_bits,
                np.ones(len(l1_lines), dtype=bool),
                l1_owners,
            )
            alloc = ~hit2 & ~byp2  # write-allocate fills
            l2_lines, l2_owners = l2.drain()
            wmask = vic2 >= 0
            # scalar flush order: all fills first, then victim writebacks,
            # then the L2 drain
            mem_lines = np.concatenate([l1_lines[alloc], vic2[wmask], l2_lines])
            mem_writes = np.concatenate(
                [np.zeros(int(alloc.sum()), dtype=bool),
                 np.ones(int(wmask.sum()) + len(l2_lines), dtype=bool)]
            )
            mem_oids = np.concatenate(
                [l1_owners[alloc], vic2_oid[wmask], l2_owners]
            )
        else:
            mem_lines, mem_oids = self.levels[0].drain()
            mem_writes = np.ones(len(mem_lines), dtype=bool)
        mem = self._emit(mem_lines, mem_writes, mem_oids, iteration)
        self.memory_reads += mem.n_reads
        self.memory_writes += mem.n_writes
        return mem

    # ------------------------------------------------------------------
    def _emit(
        self,
        lines: np.ndarray,
        writes: np.ndarray,
        oids: np.ndarray,
        iteration: int,
    ) -> RefBatch:
        addr = lines.astype(np.uint64) << np.uint64(self._line_shift)
        return RefBatch(
            addr=addr,
            is_write=np.asarray(writes, dtype=bool),
            size=np.full(len(lines), min(self.config.line_bytes, 255), np.uint8),
            oid=np.asarray(oids, dtype=np.int32),
            iteration=iteration,
        )

    def stats(self) -> HierarchyStats:
        return HierarchyStats(
            levels={c.config.name: c.stats for c in self.levels},
            refs=self.refs,
            memory_reads=self.memory_reads,
            memory_writes=self.memory_writes,
        )
