"""Probe adapter: run the reference stream through the cache hierarchy
during instrumentation and collect/forward the filtered memory trace.

This is the paper's arrangement — "a configurable cache hierarchy simulator
within the tool ... outputs memory traces filtered by the cache hierarchy"
that "are then used by our memory power simulator".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cachesim.config import CacheHierarchyConfig, TABLE2_CONFIG
from repro.cachesim.hierarchy import CacheHierarchy, HierarchyStats
from repro.instrument.api import Probe
from repro.trace.record import RefBatch

#: Most references one ``process_batch`` call filters. Replay delivers
#: batches of a few hundred references, where the set-round LRU's fixed
#: per-round numpy cost dominates, so consecutive batches are filtered as
#: one group; the cap bounds the group's temporaries (and so peak RSS).
#: A single larger batch is filtered as a group of its own.
GROUP_REFS = 1 << 14


@dataclass(frozen=True)
class FilteredTrace:
    """A finished filter's output: the main-memory trace (one batch per
    input batch that caused memory traffic, plus the end-of-run flush)
    and the hierarchy's final counters.

    It reads like a finished :class:`MemoryTraceProbe` — ``memory_trace``
    and ``stats()`` — so consumers take either. The pipeline engine
    returns one from a stored derived trace
    (:meth:`~repro.engine.PipelineEngine.memory_trace`).
    """

    memory_trace: list[RefBatch]
    hierarchy_stats: HierarchyStats

    def stats(self) -> HierarchyStats:
        return self.hierarchy_stats


class MemoryTraceProbe(Probe):
    """Feeds every instrumented batch through a cache hierarchy.

    The resulting memory accesses are retained in ``memory_trace`` and/or
    forwarded to *sink* (e.g. a :class:`~repro.trace.TraceWriter` or the
    power simulator directly): one output batch per input batch that
    caused memory traffic, carrying that input batch's ``iteration``.

    Input batches are gathered into groups of at most :data:`GROUP_REFS`
    references and each group is filtered in one
    :meth:`CacheHierarchy.process_batch` call; its output is split back
    per input batch by each row's source reference, so the outputs equal
    a per-batch filter's. A pending group is filtered by ``on_finish``
    and ``stats``. Pending batches are held by reference, so a producer
    must not overwrite a batch's arrays after delivering it (the
    runtime's buffer hands out copies; replayed chunks are read-only).
    """

    def __init__(
        self,
        config: CacheHierarchyConfig = TABLE2_CONFIG,
        sink: Callable[[RefBatch], None] | None = None,
        keep_trace: bool = True,
        flush_at_end: bool = True,
    ) -> None:
        self.hierarchy = CacheHierarchy(config)
        self._sink = sink
        self._keep = keep_trace
        self._flush_at_end = flush_at_end
        self.memory_trace: list[RefBatch] = []
        self._group: list[RefBatch] = []
        self._group_refs = 0

    def on_batch(self, batch: RefBatch) -> None:
        n = len(batch)
        if n == 0:
            return
        if self._group_refs + n > GROUP_REFS:
            self._filter_group()
        self._group.append(batch)
        self._group_refs += n

    def _filter_group(self) -> None:
        group, self._group, self._group_refs = self._group, [], 0
        if not group:
            return
        mem = self.hierarchy.process_batch(group[0] if len(group) == 1 else RefBatch(
            addr=np.concatenate([b.addr for b in group]),
            is_write=np.concatenate([b.is_write for b in group]),
            size=np.concatenate([b.size for b in group]),
            oid=np.concatenate([b.oid for b in group]),
        ))
        ends = np.cumsum([len(b) for b in group])
        cuts = np.searchsorted(self.hierarchy.last_source, ends).tolist()
        start = 0
        for batch, stop in zip(group, cuts):
            part = mem.take(slice(start, stop))
            part.iteration = batch.iteration
            self._emit(part)
            start = stop

    def _emit(self, mem: RefBatch) -> None:
        if len(mem) == 0:
            return
        if self._keep:
            self.memory_trace.append(mem)
        if self._sink is not None:
            self._sink(mem)

    def on_finish(self) -> None:
        self._filter_group()
        if self._flush_at_end:
            self._emit(self.hierarchy.flush())

    def stats(self) -> HierarchyStats:
        self._filter_group()
        return self.hierarchy.stats()
