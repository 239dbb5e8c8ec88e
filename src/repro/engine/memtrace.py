"""Derived artifact: a recording's cache-filtered main-memory trace.

In the paper the cache simulator produces the main-memory trace (LLC
fills and dirty writebacks) once, and the power and performance
simulators consume it. :meth:`PipelineEngine.memory_trace
<repro.engine.engine.PipelineEngine.memory_trace>` does the same across
processes: the first caller filters one replay of the source recording
through :class:`~repro.cachesim.filtered.MemoryTraceProbe` and commits
the output to the artifact cache as a *derived* entry, and every later
caller, in any process, loads it.

A derived entry is an ordinary artifact directory under its own key, so
the commit protocol, key locks, pins, fsck, gc and crash checks cover
it:

* the builder holds the key's lock while it filters, and every other
  caller, fenced queue workers included, waits on that lock up to the
  cache's ``lock_timeout`` and then loads the commit. A fenced waiter
  never falls back to a staged copy (``begin(stage=False)``): a filter
  that outlasts ``fence_lock_timeout`` is a slow live sibling, not a
  frozen zombie, and a second filter would race its commit. Past
  ``lock_timeout`` the waiter filters for itself and publishes nothing;
* the key is a sha256 over the source spec's key, the hierarchy the
  filter models (:data:`~repro.cachesim.config.TABLE2_CONFIG`) and
  :data:`~repro.cachesim.hierarchy.FILTER_VERSION`. Run-spec keys carry
  no code version, so that constant, bumped whenever the filter's output
  changes, is what keeps a cache from serving a stale trace;
* ``refs.tv4/`` holds one raw chunk per output batch, tagged with its
  ``iteration``: publishing compresses nothing, and loading is a CRC
  pass plus zero-copy, read-only views;
* ``events.json`` is an empty list, and ``meta.json`` records
  ``kind: "memtrace"``, the source spec and key, the config, the filter
  version and the hierarchy's final
  :class:`~repro.cachesim.hierarchy.HierarchyStats`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass

from repro.cachesim.cache import LevelStats
from repro.cachesim.config import TABLE2_CONFIG
from repro.cachesim.filtered import FilteredTrace
from repro.cachesim.hierarchy import FILTER_VERSION, HierarchyStats
from repro.errors import TraceError

from repro.engine.artifacts import Artifact
from repro.engine.spec import RunSpec

#: ``meta["kind"]`` of a derived memory-trace artifact.
MEMTRACE_KIND = "memtrace"
#: Chunk codec of a derived trace (see the module docstring).
MEMTRACE_CODEC = "raw"


@dataclass(frozen=True)
class MemTraceSpec:
    """The identity of one derived memory trace: the recording it is
    filtered from, plus (in :meth:`canonical`) the hierarchy and the
    filter version that produced it."""

    source: RunSpec

    def canonical(self) -> dict:
        """JSON-stable form; the hash input."""
        return {
            "kind": MEMTRACE_KIND,
            "source_key": self.source.key,
            "config": dataclasses.asdict(TABLE2_CONFIG),
            "filter_version": FILTER_VERSION,
        }

    @property
    def key(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def __str__(self) -> str:
        return f"memtrace of {self.source}"


def memtrace_meta(mspec: MemTraceSpec, trace: FilteredTrace) -> dict:
    """The commit marker's payload for *trace*, filtered as *mspec*."""
    stats = trace.hierarchy_stats
    return {
        **mspec.canonical(),  # kind, source key, config, filter version
        "key": mspec.key,
        "source": mspec.source.canonical(),
        "refs": sum(len(b) for b in trace.memory_trace),
        "n_batches": len(trace.memory_trace),
        # a list of pairs: the last level is the LLC, so order matters
        "levels": [[name, dataclasses.asdict(lv)]
                   for name, lv in stats.levels.items()],
        "hierarchy_refs": stats.refs,
        "memory_reads": stats.memory_reads,
        "memory_writes": stats.memory_writes,
        "created_at": time.time(),
    }


def load_memtrace(art: Artifact) -> FilteredTrace:
    """Scrub the derived artifact *art* and return its trace.

    :meth:`~repro.engine.artifacts.Artifact.scrub` checks it (commit
    marker, the empty event log's CRC, every chunk's stored CRC32, the
    batch count), then each chunk is mapped as read-only arrays. Any
    damage raises :class:`~repro.errors.TraceError` naming the key."""
    with art.open_trace() as reader, art.named_errors():
        meta = art.scrub(reader)
        try:
            stats = HierarchyStats(
                levels={name: LevelStats(**lv) for name, lv in meta["levels"]},
                refs=int(meta["hierarchy_refs"]),
                memory_reads=int(meta["memory_reads"]),
                memory_writes=int(meta["memory_writes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"artifact {art.key[:12]}: malformed "
                             f"memory-trace meta: {exc!r}", key=art.key,
                             path=art.meta_path) from exc
        batches = [reader.read_batch(i) for i in range(reader.n_batches)]
    return FilteredTrace(batches, stats)
