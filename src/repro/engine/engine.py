"""The trace-once / replay-many pipeline engine.

``record(spec)`` executes the application *at most once per distinct
spec*: the first request instruments the app, streams its reference
batches into the crash-safe chunked v4 trace format under the
content-addressed artifact cache, and logs the discrete event stream;
later requests (and later processes pointed at the same cache root)
return the committed artifact without executing anything.
``replay(spec, probes)`` re-delivers a recorded run into any probe set —
the NV-SCAVENGER analyzers, the cache simulator, a locality analyzer —
so one execution feeds arbitrarily many consumers.

Every stage is instrumented: calls, wall time, reference counts and
derived refs/sec for ``record`` (live execution) and ``replay``, and for
the replay's phases (``map`` the container, ``verify`` stored checksums,
``decode`` chunks, ``consume`` in probes) live in
:attr:`PipelineEngine.stats`, alongside the ``app_runs`` /
``cache_hits`` / ``replays`` / ``chunks_verified`` / ``chunks_decoded``
counters the suite-level "each spec executes once" guarantee is tested
against.

Replay is **self-healing**: before an artifact's first replay through an
engine instance, both JSON files and every chunk's stored CRC32 are
scrubbed (a checksum pass over the mapped data file, no
decompression). A corrupt artifact — including one an older cache
wrote in a trace format the engine no longer reads — is quarantined
(renamed aside, structured log event) and transparently re-recorded
with bounded, exponentially backed-off retries; the ``quarantined`` /
``rerecorded`` counters surface how often that happened. Recording is
also safe across processes: the cache's per-key ``flock`` serializes
concurrent recorders, and losing the race simply returns the winner's
committed artifact as a cache hit.

The cache-filtered main-memory trace is a **derived artifact**:
:meth:`PipelineEngine.memory_trace` filters a recording once, commits
the result under its own key (:mod:`repro.engine.memtrace`), and every
later caller loads it instead of filtering again; the
``traces_filtered`` / ``traces_loaded`` counters show which happened.

Decoding is **lazy and chunk-granular**: an open artifact is held as a
:class:`_RunHandle` (memory-mapped reader + parsed event stream), and a
chunk is decoded only when a replay first touches it, landing in a
per-``(key, chunk)`` LRU memo bounded by :data:`DECODE_CACHE_BYTES`.
Each chunk is therefore decoded once across arbitrarily many replays, as
long as the memo holds it.

By default each engine gets a **fresh temporary cache root** (per
process), so repeated invocations never read stale artifacts from earlier
code versions; the process that made it removes it when it exits.
Persistence across processes is opt-in: pass ``root=`` (or an
:class:`~repro.engine.artifacts.ArtifactCache`), or set the
``NVSCAVENGER_CACHE`` environment variable.
"""

from __future__ import annotations

import atexit
import logging
import os
import shutil
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.cachesim.filtered import FilteredTrace, MemoryTraceProbe
from repro.trace.chunked import ChunkedTraceReader
from repro.trace.record import RefBatch

from repro.engine.artifacts import Artifact, ArtifactCache, PendingArtifact
from repro.engine.events import EventLogProbe, ReplayStackView, replay_events
from repro.engine.memtrace import (
    MEMTRACE_CODEC,
    MemTraceSpec,
    load_memtrace,
    memtrace_meta,
)
from repro.engine.spec import RunSpec
from repro.errors import CacheLockError, FencedOutError, TraceError
from repro.instrument.api import FanoutProbe, Probe
from repro.instrument.runtime import InstrumentedRuntime

#: Matches NVScavenger's live default, so recorded batch boundaries (and
#: therefore every extent-dependent statistic) are identical to a live run.
RECORD_BUFFER_CAPACITY = 1 << 16

#: In-memory budget for the decoded chunks one engine keeps (0 disables
#: the memo).
DECODE_CACHE_BYTES = 256 << 20

#: Self-healing replay re-records a corrupt artifact at most this often,
#: sleeping ``RERECORD_BACKOFF_S * 2**(n-1)`` before the n-th retry.
MAX_RERECORD_ATTEMPTS = 3
RERECORD_BACKOFF_S = 0.05

#: Environment variable opting into a persistent cache root.
CACHE_ENV = "NVSCAVENGER_CACHE"

_log = logging.getLogger("repro.engine.cache")


@dataclass
class StageStats:
    """Wall time and throughput accounting for one pipeline stage."""

    calls: int = 0
    wall_s: float = 0.0
    refs: int = 0

    @property
    def refs_per_s(self) -> float:
        return self.refs / self.wall_s if self.wall_s > 0 else 0.0


#: The per-stage timing keys every engine reports, in pipeline order.
STAGE_NAMES = ("record", "replay", "map", "verify", "decode", "consume")


@dataclass
class EngineStats:
    """Counters and per-stage timings for one engine instance."""

    app_runs: int = 0
    cache_hits: int = 0
    replays: int = 0
    quarantined: int = 0
    rerecorded: int = 0
    #: chunks whose stored CRC32 was checked (first scrub per handle)
    chunks_verified: int = 0
    #: chunks decoded into arrays (memo misses — the expensive path)
    chunks_decoded: int = 0
    #: memory traces filtered from a replay (then published when possible)
    traces_filtered: int = 0
    #: memory traces loaded from a stored derived artifact
    traces_loaded: int = 0
    stages: dict[str, StageStats] = field(
        default_factory=lambda: {n: StageStats() for n in STAGE_NAMES}
    )

    _COUNTERS = ("app_runs", "cache_hits", "replays", "quarantined",
                 "rerecorded", "chunks_verified", "chunks_decoded",
                 "traces_filtered", "traces_loaded")

    def snapshot(self) -> dict:
        """Flat machine-readable view (used for per-experiment deltas)."""
        out = {name: getattr(self, name) for name in self._COUNTERS}
        for name, st in self.stages.items():
            out[f"{name}_s"] = st.wall_s
            out[f"{name}_refs"] = st.refs
            out[f"{name}_calls"] = st.calls
        return out

    def delta(self, before: dict) -> dict:
        """Difference between the current snapshot and an earlier one."""
        now = self.snapshot()
        return {k: round(now[k] - before.get(k, 0), 6) for k in now}

    def merge(self, delta: dict) -> None:
        """Fold a snapshot-delta (typically from a scheduler worker's
        engine) into this instance. Counters and reference totals add up
        exactly; stage wall times add as *CPU-seconds across workers*, so
        the merged wall can exceed the suite's elapsed wall clock."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + int(delta.get(name, 0)))
        for name, st in self.stages.items():
            st.wall_s += float(delta.get(f"{name}_s", 0.0))
            st.refs += int(delta.get(f"{name}_refs", 0))
            st.calls += int(delta.get(f"{name}_calls", 0))

    def table(self) -> str:
        """Human-readable stage table for reports and the CLI view."""
        lines = [
            f"app runs: {self.app_runs}   cache hits: {self.cache_hits}   "
            f"replays: {self.replays}   quarantined: {self.quarantined}   "
            f"re-recorded: {self.rerecorded}",
            f"chunks verified: {self.chunks_verified}   "
            f"chunks decoded: {self.chunks_decoded}",
            f"traces filtered: {self.traces_filtered}   "
            f"traces loaded: {self.traces_loaded}",
            f"{'stage':8s} {'calls':>6s} {'wall (s)':>9s} {'refs':>12s} {'refs/sec':>12s}",
        ]
        for name, st in self.stages.items():
            lines.append(
                f"{name:8s} {st.calls:6d} {st.wall_s:9.3f} {st.refs:12d} "
                f"{st.refs_per_s:12.0f}"
            )
        return "\n".join(lines)


def _default_root() -> str:
    """``$NVSCAVENGER_CACHE``, else a fresh temporary root that this
    process (not a forked child sharing it) removes at exit — not when
    the engine is collected, as a derived trace it returned is a view of
    that root's files."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    root = tempfile.mkdtemp(prefix="nvscavenger-cache-")
    atexit.register(_remove_root, root, os.getpid())
    return root


def _remove_root(root: str, owner: int) -> None:
    if os.getpid() == owner:
        shutil.rmtree(root, ignore_errors=True)


@dataclass
class _DecodedChunk:
    """One chunk's batch decoded into (frozen) arrays."""

    batch: RefBatch
    nbytes: int


@dataclass
class _RunHandle:
    """An open artifact: mapped trace reader + parsed event stream.

    Holding the handle across replays means the container's index and
    data-file map stay established — re-replaying costs no re-open, and
    the per-chunk stored-CRC verification state inside the reader
    persists.
    """

    art: Artifact
    reader: ChunkedTraceReader
    events: list
    verified: bool = False


def _batch_nbytes(b: RefBatch) -> int:
    return b.addr.nbytes + b.is_write.nbytes + b.size.nbytes + b.oid.nbytes


class PipelineEngine:
    """Executes run specs once and replays their artifacts many times."""

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        root: str | os.PathLike | None = None,
        self_heal: bool = True,
    ) -> None:
        if cache is None:
            cache = ArtifactCache(root if root is not None else _default_root())
        self.cache = cache
        self.stats = EngineStats()
        self.self_heal = self_heal
        #: open artifacts, keyed by artifact key
        self._handles: dict[str, _RunHandle] = {}
        # decoded-chunk memo: replaying the same artifact many times (the
        # suite's normal shape) must not re-inflate compressed chunks
        # every time — keyed ``(key, chunk_index)`` so eviction drops
        # single chunks, oldest first
        self._decoded: OrderedDict[tuple[str, int], _DecodedChunk] = \
            OrderedDict()
        self._decoded_bytes = 0

    # ------------------------------------------------------------------
    def record(self, spec: RunSpec) -> Artifact:
        """Return the committed artifact for *spec*, executing the app only
        if no committed artifact exists yet."""
        art = self.cache.get(spec)
        if art is not None:
            self.stats.cache_hits += 1
            return art
        t0 = time.perf_counter()
        pending = self.cache.begin(spec)
        if isinstance(pending, Artifact):
            # another process committed while we waited on the key lock
            self.stats.cache_hits += 1
            return pending
        try:
            recorder = EventLogProbe(pending.writer.append)
            rt = InstrumentedRuntime(
                recorder, buffer_capacity=RECORD_BUFFER_CAPACITY)
            recorder.attach_stack(rt.space.stack)
            app = spec.instantiate()
            app(rt)
            rt.finish()
            meta = {
                "spec": spec.canonical(),
                "key": spec.key,
                "refs": recorder.refs,
                "n_batches": recorder.n_batches,
                "n_events": len(recorder.events),
                "footprint_bytes": rt.space.footprint_bytes(),
                "instructions": rt.instruction_count,
                "dependent_refs": rt.dependent_refs,
                "created_at": time.time(),
            }
            art = pending.commit(recorder.events, meta)
        except BaseException:
            pending.abort()
            raise
        stage = self.stats.stages["record"]
        stage.calls += 1
        stage.wall_s += time.perf_counter() - t0
        stage.refs += recorder.refs
        self.stats.app_runs += 1
        return art

    # -- handles and the chunk memo ------------------------------------
    def _handle(self, art: Artifact) -> _RunHandle:
        """The open :class:`_RunHandle` for *art*, opening it on first use.

        Opening reads and validates the trace container's chunk index
        (no payload I/O) and parses the event stream; the cost lands in
        the ``map`` stage."""
        h = self._handles.get(art.key)
        if h is not None:
            return h
        t0 = time.perf_counter()
        reader = art.open_trace()
        try:
            events = art.events()
        except BaseException:
            reader.close()
            raise
        stage = self.stats.stages["map"]
        stage.calls += 1
        stage.wall_s += time.perf_counter() - t0
        h = _RunHandle(art=art, reader=reader, events=events)
        self._handles[art.key] = h
        return h

    def _verify_handle(self, h: _RunHandle) -> None:
        """Scrub *h* (:meth:`~repro.engine.artifacts.Artifact.scrub`)
        before anything is delivered from it. Runs once per handle;
        raises :class:`~repro.errors.TraceError` on any corruption, so a
        bad artifact can never half-deliver into stateful probes."""
        if h.verified:
            return
        art = h.art
        t0 = time.perf_counter()
        try:
            art.scrub(h.reader)
            self.stats.chunks_verified += h.reader.n_batches
        finally:
            stage = self.stats.stages["verify"]
            stage.calls += 1
            stage.wall_s += time.perf_counter() - t0
        stage.refs += int(art.meta.get("refs", 0) or 0)
        h.verified = True

    def _chunk(self, h: _RunHandle, i: int) -> RefBatch:
        """Chunk *i* of *h*'s trace, via the decode memo when warm."""
        memo_key = (h.art.key, i)
        entry = self._decoded.get(memo_key)
        if entry is not None:
            self._decoded.move_to_end(memo_key)
            return entry.batch
        t0 = time.perf_counter()
        with h.art.named_errors():
            batch = h.reader.read_batch(i)
        stage = self.stats.stages["decode"]
        stage.calls += 1
        stage.wall_s += time.perf_counter() - t0
        stage.refs += len(batch)
        self.stats.chunks_decoded += 1
        self._remember_chunk(memo_key, batch)
        return batch

    def _remember_chunk(self, memo_key: tuple[str, int],
                        batch: RefBatch) -> None:
        """Memoize a decoded chunk, LRU-bounded by ``DECODE_CACHE_BYTES``."""
        if DECODE_CACHE_BYTES <= 0:
            return
        # a probe mutating a memoized batch would silently poison every
        # later replay; freeze the arrays so it raises instead (raw
        # chunks are mmap-backed and already read-only)
        for arr in (batch.addr, batch.is_write, batch.size, batch.oid):
            arr.setflags(write=False)
        nbytes = _batch_nbytes(batch)
        if nbytes > DECODE_CACHE_BYTES:
            return
        old = self._decoded.pop(memo_key, None)
        if old is not None:
            self._decoded_bytes -= old.nbytes
        self._decoded[memo_key] = _DecodedChunk(batch, nbytes)
        self._decoded_bytes += nbytes
        while self._decoded_bytes > DECODE_CACHE_BYTES and self._decoded:
            _, evicted = self._decoded.popitem(last=False)
            self._decoded_bytes -= evicted.nbytes

    def memoized_chunks(self, key: str) -> list[int]:
        """Chunk indices of *key* currently held in the decode memo."""
        return sorted(i for (k, i) in self._decoded if k == key)

    def _forget(self, key: str) -> None:
        """Drop everything held in memory for *key*: memoized chunks,
        the open handle (closing its mmaps), and its scrub status."""
        for memo_key in [mk for mk in self._decoded if mk[0] == key]:
            self._decoded_bytes -= self._decoded.pop(memo_key).nbytes
        h = self._handles.pop(key, None)
        if h is not None:
            try:
                h.reader.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    def verified_artifact(self, spec: RunSpec) -> Artifact:
        """Record-if-needed, then scrub the artifact before first use.

        A scrub failure (flipped bit, torn file, truncated trace)
        quarantines the artifact and falls back to a live re-record, with
        up to ``MAX_RERECORD_ATTEMPTS`` retries under exponential backoff
        (transient ``OSError`` during the re-record is retried too).
        Each committed key is scrubbed once per engine instance; the
        scrub is chunk-stored-CRC granular, so it does not decompress
        payloads — decoding stays lazy for the replay itself. With
        ``self_heal=False`` the scrub still runs but corruption raises
        directly instead of quarantining and re-recording. A key with an
        open handle is served from it without another cache lookup, so
        ``cache_hits`` counts each key once per engine."""
        h = self._handles.get(spec.key)
        if h is not None and h.verified:
            return h.art
        art = h.art if h is not None else self.record(spec)
        last_exc: Exception | None = None
        for attempt in range(MAX_RERECORD_ATTEMPTS + 1):
            if attempt:
                time.sleep(RERECORD_BACKOFF_S * (2 ** (attempt - 1)))
                try:
                    art = self.record(spec)
                except (TraceError, OSError) as exc:
                    last_exc = exc
                    continue
                self.stats.rerecorded += 1
            try:
                self._verify_handle(self._handle(art))
            except TraceError as exc:
                if not self.self_heal:
                    raise
                last_exc = exc
                self._forget(art.key)
                self.cache.quarantine(art.key, reason=str(exc))
                self.stats.quarantined += 1
                continue
            return art
        raise TraceError(
            f"artifact for {spec} still unusable after "
            f"{MAX_RERECORD_ATTEMPTS} re-record attempt(s): {last_exc}",
            key=spec.key,
        )

    def meta(self, spec: RunSpec) -> dict:
        """*spec*'s run-level facts (recording first if needed) without
        scrubbing its trace: from the scrubbed handle when this engine
        has one, else through the commit-marker check alone
        (:meth:`~repro.engine.artifacts.Artifact.verify_marker`). A
        marker that fails the check takes :meth:`verified_artifact`'s
        path (quarantine and re-record, or raise without
        ``self_heal``)."""
        h = self._handles.get(spec.key)
        try:
            if h is None:
                h = self._handle(self.record(spec))
            return h.art.meta if h.verified else h.art.verify_marker()
        except TraceError:
            return self.verified_artifact(spec).meta

    # ------------------------------------------------------------------
    def _chunk_iter(self, h: _RunHandle) -> Iterator[RefBatch]:
        for i in range(h.reader.n_batches):
            yield self._chunk(h, i)

    def replay(
        self,
        spec: RunSpec,
        probes: Probe | Iterable[Probe],
        stack: ReplayStackView | None = None,
    ) -> Artifact:
        """Replay *spec*'s recorded run into *probes* (recording first if
        needed). The artifact is integrity-scrubbed before its first
        replay through this engine — see :meth:`verified_artifact` — so
        corruption can never half-deliver a stream into stateful probes.
        Chunks decode lazily as the event stream reaches them and land in
        the per-chunk LRU memo, so replay-many costs one decode per
        chunk, not one per replay. Returns the artifact so callers can
        read ``meta``."""
        art = self.verified_artifact(spec)
        h = self._handle(art)
        self._verify_handle(h)
        probe = probes if isinstance(probes, Probe) else FanoutProbe(list(probes))
        decode = self.stats.stages["decode"]
        decode_before = decode.wall_s
        t0 = time.perf_counter()
        replay_events(h.events, self._chunk_iter(h), probe, stack=stack)
        wall = time.perf_counter() - t0
        refs = art.meta["refs"]
        stage = self.stats.stages["replay"]
        stage.calls += 1
        stage.wall_s += wall
        stage.refs += refs
        # probe-side cost: replay wall minus whatever lazy decoding
        # happened inside it
        consume = self.stats.stages["consume"]
        consume.calls += 1
        consume.wall_s += max(0.0, wall - (decode.wall_s - decode_before))
        consume.refs += refs
        self.stats.replays += 1
        return art

    # -- derived artifact: the cache-filtered memory trace ---------------
    def memory_trace(self, spec: RunSpec) -> FilteredTrace:
        """*spec*'s main-memory trace through the Table 2 hierarchy, with
        the hierarchy's final stats.

        A committed derived trace (:mod:`repro.engine.memtrace`) is
        loaded, scrubbing only its own marker and chunk CRCs; the source
        recording is not touched. Otherwise one replay of *spec* is
        filtered under the derived key's lock and committed, so every
        later call, in any process, loads it; a caller that finds the
        lock held waits for that commit, fenced or not. Publishing is
        best-effort: when the lock, the fence or the filesystem refuses
        it, the filtered trace is still returned. A corrupt stored trace
        is quarantined and rebuilt (with ``self_heal=False`` it
        raises)."""
        mspec = MemTraceSpec(spec)
        art = self.cache.get(mspec)
        if art is not None:
            trace = self._load_memtrace(art)
            if trace is not None:
                return trace
        try:
            pending = self.cache.begin(mspec, codec=MEMTRACE_CODEC,
                                       stage=False)
        except (CacheLockError, FencedOutError, OSError) as exc:
            _log.warning("memory trace %s not published: %s",
                         mspec.key[:12], exc)
            pending = None
        if isinstance(pending, Artifact):
            # another process committed it while we waited on the lock
            trace = self._load_memtrace(pending)
            if trace is not None:
                return trace
            pending = None
        try:
            probe = MemoryTraceProbe()
            self.replay(spec, probe)
            trace = FilteredTrace(probe.memory_trace, probe.stats())
        except BaseException:
            if pending is not None:
                pending.abort()
            raise
        self.stats.traces_filtered += 1
        if pending is not None:
            self._publish_memtrace(pending, mspec, trace)
        return trace

    def _load_memtrace(self, art: Artifact) -> FilteredTrace | None:
        """Load the derived trace *art*; a corrupt one is quarantined and
        None returned (raised with ``self_heal=False``)."""
        try:
            trace = load_memtrace(art)
        except TraceError as exc:
            if not self.self_heal:
                raise
            self.cache.quarantine(art.key, reason=str(exc))
            self.stats.quarantined += 1
            return None
        self.stats.traces_loaded += 1
        return trace

    def _publish_memtrace(self, pending: PendingArtifact,
                          mspec: MemTraceSpec, trace: FilteredTrace) -> None:
        """Commit *trace* as *pending*; a refused or failed publish is
        logged and dropped, leaving no committed-looking directory."""
        try:
            for batch in trace.memory_trace:
                pending.writer.append(batch)
            pending.commit([], memtrace_meta(mspec, trace))
        except (FencedOutError, OSError, TraceError) as exc:
            pending.abort()
            _log.warning("memory trace %s not published: %s",
                         mspec.key[:12], exc)
        except BaseException:
            pending.abort()
            raise
