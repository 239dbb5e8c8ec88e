"""The stored cache-filtered memory trace (``PipelineEngine.memory_trace``).

The first call for a spec filters one replay of its recording and
commits the output as a derived artifact; later calls, in any process,
load it. The contract under test:

* oracle: a loaded (and a freshly built) trace equals a fresh
  ``MemoryTraceProbe`` replay batch for batch — arrays, dtypes and
  ``iteration`` — with equal final stats, for the four apps, their
  input variants and the three workload families at two fidelities;
* keys: the derived key changes with the source spec, the hierarchy
  config and the filter version, and the filter version is pinned
  together with a digest of one spec's filtered trace;
* corruption: a damaged derived trace is quarantined and rebuilt, and
  fsck scrubs derived entries like recordings;
* races: two processes building one key at once filter it once, and a
  fenced waiter loads a slow builder's commit instead of staging its own;
* failures: a publish refused by the fence or failing with ``OSError``
  still returns the right trace and leaves nothing committed;
* the scheduled suite filters each distinct spec once across its pool.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import multiprocessing
import os
import time
import zlib

import numpy as np
import pytest

from repro import cli
from repro.apps import VARIANT_OF
from repro.cachesim import (
    FILTER_VERSION,
    TABLE2_CONFIG,
    CacheHierarchyConfig,
    CacheLevelConfig,
    MemoryTraceProbe,
)
from repro.engine import ArtifactCache, PipelineEngine, RunSpec, memtrace
from repro.engine.chaos import flip_file_bit
from repro.engine.locks import FencingToken, write_fence
from repro.engine.memtrace import MEMTRACE_KIND, MemTraceSpec
from repro.errors import TraceError
from repro.experiments.common import (
    APP_ORDER,
    ExperimentContext,
    ExperimentResult,
)
from repro.experiments.runner import run_all
from repro.trace.chunked import CODEC_RAW, ChunkedTraceReader, ChunkedTraceWriter
from repro.workloads.families import FAMILIES

FIDELITIES = {
    "tiny": dict(refs_per_iteration=1_500, scale=1.0 / 256.0, n_iterations=2),
    "small": dict(refs_per_iteration=4_000, scale=1.0 / 128.0, n_iterations=3),
}
NAMES = (list(APP_ORDER) + [f"variant:{a}" for a in sorted(VARIANT_OF)]
         + [f"workload:{w}" for w in sorted(FAMILIES)])
SPEC = dict(app="gtc", **FIDELITIES["tiny"])

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs real processes sharing a cache root",
)


def fresh_replay(engine: PipelineEngine, spec: RunSpec):
    probe = MemoryTraceProbe()
    engine.replay(spec, probe)
    return probe


def assert_same_trace(got, want) -> None:
    """*got* equals the probe *want* batch for batch, with equal stats."""
    assert len(got.memory_trace) == len(want.memory_trace)
    for a, b in zip(got.memory_trace, want.memory_trace):
        assert a.iteration == b.iteration
        for col in ("addr", "is_write", "size", "oid"):
            x, y = getattr(a, col), getattr(b, col)
            assert x.dtype == y.dtype, col
            np.testing.assert_array_equal(x, y, err_msg=col)
    assert got.stats() == want.stats()
    # dict equality ignores order, but the last level is the LLC
    assert list(got.stats().levels) == list(want.stats().levels)


def memtrace_metas(root) -> dict[str, dict]:
    """Committed derived-trace directories under a cache root, with
    their meta.json (quarantined copies left out)."""
    found = {}
    for dirpath, _dirs, files in os.walk(root):
        if "meta.json" in files and ".quarantine" not in dirpath:
            with open(os.path.join(dirpath, "meta.json")) as fh:
                meta = json.load(fh)
            if meta.get("kind") == MEMTRACE_KIND:
                found[dirpath] = meta
    return found


def memtrace_dirs(root) -> list[str]:
    return list(memtrace_metas(root))


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def caches(tmp_path_factory):
    """One shared cache root per fidelity."""
    return {f: str(tmp_path_factory.mktemp(f"cache-{f}")) for f in FIDELITIES}


@pytest.mark.parametrize("fidelity", sorted(FIDELITIES))
@pytest.mark.parametrize("name", NAMES)
def test_loaded_trace_equals_a_fresh_replay(caches, fidelity, name):
    spec = RunSpec(app=name, **FIDELITIES[fidelity])
    builder = PipelineEngine(root=caches[fidelity])
    built = builder.memory_trace(spec)
    assert (builder.stats.traces_filtered, builder.stats.traces_loaded) == (1, 0)
    loader = PipelineEngine(root=caches[fidelity])
    loaded = loader.memory_trace(spec)
    assert (loader.stats.traces_filtered, loader.stats.traces_loaded) == (0, 1)
    # loading touches neither the source recording nor the filter
    assert loader.stats.replays == loader.stats.chunks_verified == 0
    oracle = fresh_replay(loader, spec)
    assert oracle.memory_trace, "a trace with no memory traffic proves little"
    assert_same_trace(built, oracle)
    assert_same_trace(loaded, oracle)


def test_stored_raw_without_a_compression_pass(tmp_path, monkeypatch):
    codecs = []
    init = ChunkedTraceWriter.__init__

    def spy(self, path, fs=None, codec="auto"):
        codecs.append(codec)
        init(self, path, fs=fs, codec=codec)

    eng = PipelineEngine(root=tmp_path)
    spec = RunSpec(**SPEC)
    eng.record(spec)
    monkeypatch.setattr(ChunkedTraceWriter, "__init__", spy)
    trace = eng.memory_trace(spec)
    assert codecs == ["raw"]
    (path,) = memtrace_dirs(tmp_path)
    with ChunkedTraceReader(os.path.join(path, "refs.tv4")) as reader:
        assert reader.n_batches == len(trace.memory_trace)
        assert {r.codec for r in reader.records} == {CODEC_RAW}


# ----------------------------------------------------------------------
class TestKeys:
    def test_key_is_stable_and_not_the_source_key(self):
        spec = RunSpec(**SPEC)
        assert MemTraceSpec(spec).key == MemTraceSpec(RunSpec(**SPEC)).key
        assert MemTraceSpec(spec).key != spec.key

    def test_source_spec_changes_the_key(self):
        a = MemTraceSpec(RunSpec(**SPEC))
        b = MemTraceSpec(RunSpec(**{**SPEC, "seed": 1}))
        assert a.key != b.key

    def test_config_changes_the_key(self, monkeypatch):
        spec = RunSpec(**SPEC)
        l2 = TABLE2_CONFIG.levels[1]
        smaller = CacheHierarchyConfig(levels=(
            TABLE2_CONFIG.levels[0],
            dataclasses.replace(l2, size_bytes=l2.size_bytes // 2)))
        one_level = CacheHierarchyConfig(levels=(
            CacheLevelConfig(name="L1", size_bytes=16 * 1024,
                             associativity=4),))
        keys = set()
        for config in (TABLE2_CONFIG, smaller, one_level):
            monkeypatch.setattr(memtrace, "TABLE2_CONFIG", config)
            keys.add(MemTraceSpec(spec).key)
        assert len(keys) == 3

    def test_filter_version_changes_the_key(self, monkeypatch):
        spec = RunSpec(**SPEC)
        key = MemTraceSpec(spec).key
        monkeypatch.setattr(memtrace, "FILTER_VERSION", FILTER_VERSION + 1)
        assert MemTraceSpec(spec).key != key


def trace_digest(trace) -> str:
    """sha256 over a filtered trace: each batch's ``iteration``, column
    dtypes and little-endian payload CRCs, then the final stats with the
    levels in order."""
    rows = []
    for batch in trace.memory_trace:
        cols = [getattr(batch, c) for c in ("addr", "is_write", "size", "oid")]
        rows.append([int(batch.iteration)] + [
            [a.dtype.str,
             zlib.crc32(a.astype(a.dtype.newbyteorder("<")).tobytes())]
            for a in cols])
    stats = trace.stats()
    rows.append([[name, {k: int(v) for k, v in dataclasses.asdict(lv).items()}]
                 for name, lv in stats.levels.items()])
    rows.append([int(stats.refs), int(stats.memory_reads),
                 int(stats.memory_writes)])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: FILTER_VERSION and the digest of SPEC's filtered trace, pinned
#: together. Stored traces are keyed by the version, not by the code, so
#: a change to the filter's output that keeps the version lets a cache
#: serve the old trace.
GOLDEN = (1, "3689d89baf5a021880c000a6e07b099d"
             "9442a4b3002891581a652207ebcc6c48")


def test_filter_output_is_pinned_to_filter_version(tmp_path):
    """If this fails, the filtered trace changed: bump FILTER_VERSION
    (cachesim/hierarchy.py) and update both halves of GOLDEN together.
    The digest also moves when SPEC's recording changes; bump then too,
    since stored traces are keyed by the recording's spec, not its
    content. The failure message shows the new digest."""
    trace = fresh_replay(PipelineEngine(root=tmp_path), RunSpec(**SPEC))
    assert (FILTER_VERSION, trace_digest(trace)) == GOLDEN


# ----------------------------------------------------------------------
class TestCorruption:
    def _built(self, root):
        spec = RunSpec(**SPEC)
        eng = PipelineEngine(root=root)
        eng.memory_trace(spec)
        art = eng.cache.get(MemTraceSpec(spec))
        assert art is not None
        return spec, art

    @pytest.mark.parametrize("target", ["refs.tv4", "meta.json"])
    def test_bit_flip_is_quarantined_and_rebuilt(self, tmp_path, target):
        spec, art = self._built(tmp_path)
        flip_file_bit(os.path.join(art.directory, target), seed=5)
        eng = PipelineEngine(root=tmp_path)
        got = eng.memory_trace(spec)
        assert eng.stats.quarantined == 1
        assert (eng.stats.traces_filtered, eng.stats.traces_loaded) == (1, 0)
        assert_same_trace(got, fresh_replay(eng, spec))
        assert len(memtrace_dirs(tmp_path)) == 1  # rebuilt and committed
        assert any(".quarantine" in n
                   for n in os.listdir(os.path.dirname(art.directory)))
        again = PipelineEngine(root=tmp_path)
        again.memory_trace(spec)
        assert again.stats.traces_loaded == 1

    def test_engine_ls_leaves_quarantined_copies_out(self, tmp_path, capsys):
        spec, art = self._built(tmp_path)
        flip_file_bit(art.refs_path, seed=5)
        PipelineEngine(root=tmp_path).memory_trace(spec)  # heals
        assert cli.main(["engine", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert sum(ln.startswith(art.key[:12]) for ln in out.splitlines()) == 1
        assert "2 artifact(s)" in out
        assert "1 quarantined copy(ies) not listed" in out

    def test_corruption_raises_without_self_heal(self, tmp_path):
        spec, art = self._built(tmp_path)
        flip_file_bit(art.refs_path, seed=2)
        eng = PipelineEngine(root=tmp_path, self_heal=False)
        with pytest.raises(TraceError) as info:
            eng.memory_trace(spec)
        assert info.value.key == art.key

    def test_fsck_lists_derived_entries_ok(self, tmp_path, capsys):
        spec, art = self._built(tmp_path)
        report = ArtifactCache(tmp_path).fsck()
        assert {e.key for e in report.ok} == {spec.key, art.key}
        assert report.clean
        assert cli.main(["engine", "fsck", "--cache-dir", str(tmp_path)]) == 0
        assert "2 ok, 0 partial, 0 corrupt" in capsys.readouterr().out
        flip_file_bit(art.refs_path, seed=4)
        assert cli.main(["engine", "fsck", "--cache-dir", str(tmp_path)]) == 1
        assert art.key[:12] in capsys.readouterr().out

    def test_engine_ls_labels_derived_entries(self, tmp_path, capsys):
        spec, art = self._built(tmp_path)
        assert cli.main(["engine", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        (row,) = [ln for ln in out.splitlines() if ln.startswith(art.key[:12])]
        assert f"memtrace(gtc@{spec.key[:8]})" in row
        assert "?" not in row
        assert "2 artifact(s)" in out


# ----------------------------------------------------------------------
def _race_memory_trace(root: str, entered, q) -> None:
    kinds = []
    begin = ArtifactCache.begin

    def spy(self, spec, **kw):
        entered.set()
        out = begin(self, spec, **kw)
        kinds.append(type(out).__name__)
        return out

    ArtifactCache.begin = spy
    eng = PipelineEngine(root=root)
    trace = eng.memory_trace(RunSpec(**SPEC))
    q.put((eng.stats.snapshot(), kinds, trace_digest(trace)))


@needs_fork
def test_two_processes_filter_one_key_once(tmp_path):
    """Both racers queue on the derived key's lock (held here until they
    are under way); the winner filters and commits, the loser loads."""
    root = str(tmp_path / "cache")
    PipelineEngine(root=root).record(RunSpec(**SPEC))
    gate = ArtifactCache(root).lock_for(MemTraceSpec(RunSpec(**SPEC)).key)
    gate.acquire()
    mp = multiprocessing.get_context("fork")
    q = mp.Queue()
    entered = [mp.Event() for _ in range(2)]
    procs = [mp.Process(target=_race_memory_trace, args=(root, e, q))
             for e in entered]
    try:
        for p in procs:
            p.start()
        for e in entered:
            assert e.wait(timeout=60)
        time.sleep(0.3)  # both are polling the lock by now
    finally:
        gate.release()
    out = [q.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=30)
        assert p.exitcode == 0
    assert sum(s["traces_filtered"] for s, *_ in out) == 1
    assert sum(s["traces_loaded"] for s, *_ in out) == 1
    # each asked for the lock; one was handed the other's commit
    assert sorted(k for _, kinds, *_ in out for k in kinds) == [
        "Artifact", "PendingArtifact"]
    assert out[0][2] == out[1][2]
    assert len(memtrace_dirs(root)) == 1


def _slow_builder(root: str, filtering, q) -> None:
    """Build SPEC's trace, holding the derived key's lock for 1.5 s after
    *filtering* is set."""
    finish = MemoryTraceProbe.on_finish

    def slow_finish(self):
        filtering.set()
        time.sleep(1.5)
        finish(self)

    MemoryTraceProbe.on_finish = slow_finish
    eng = PipelineEngine(root=root)
    trace = eng.memory_trace(RunSpec(**SPEC))
    q.put(("builder", eng.stats.snapshot(), trace_digest(trace), 0.0))


def _fenced_waiter(root: str, fence: str, filtering, q) -> None:
    """Ask for SPEC's trace as a queue worker would, with a valid fencing
    token and a fence_lock_timeout far shorter than the builder's filter."""
    assert filtering.wait(timeout=60)
    eng = PipelineEngine(root=root)
    eng.cache.fence = FencingToken(fence, epoch=1)
    eng.cache.fence_lock_timeout = 0.1
    t0 = time.monotonic()
    trace = eng.memory_trace(RunSpec(**SPEC))
    q.put(("waiter", eng.stats.snapshot(), trace_digest(trace),
           time.monotonic() - t0))


@needs_fork
def test_fenced_waiter_loads_a_slow_builders_commit(tmp_path):
    """A fenced caller that finds a live sibling filtering the same spec
    waits for its commit past fence_lock_timeout: it stages no second
    filter, which would publish over the builder's directory and lose
    its own files to the builder's abort."""
    root = str(tmp_path / "cache")
    PipelineEngine(root=root).record(RunSpec(**SPEC))
    fence = str(tmp_path / "fence")
    write_fence(fence, 1)
    mp = multiprocessing.get_context("fork")
    q = mp.Queue()
    filtering = mp.Event()
    procs = [mp.Process(target=_slow_builder, args=(root, filtering, q)),
             mp.Process(target=_fenced_waiter,
                        args=(root, fence, filtering, q))]
    for p in procs:
        p.start()
    out = {}
    for _ in procs:
        who, snap, digest, waited = q.get(timeout=120)
        out[who] = (snap, digest, waited)
    for p in procs:
        p.join(timeout=30)
        assert p.exitcode == 0
    (built, b_digest, _), (got, w_digest, waited) = (out["builder"],
                                                     out["waiter"])
    assert waited > 0.5  # it outwaited fence_lock_timeout many times over
    assert (built["traces_filtered"], got["traces_filtered"]) == (1, 0)
    assert got["traces_loaded"] == 1
    assert w_digest == b_digest
    # the builder's commit stands, and no staged copy was made
    assert not [d for d, _, _ in os.walk(root) if ".stage." in d]
    assert len(memtrace_dirs(root)) == 1
    again = PipelineEngine(root=root)
    assert trace_digest(again.memory_trace(RunSpec(**SPEC))) == b_digest
    assert again.stats.traces_loaded == 1


# ----------------------------------------------------------------------
class TestBestEffortPublish:
    def _check_unpublished(self, eng, spec, got):
        assert eng.stats.traces_filtered == 1
        assert_same_trace(got, fresh_replay(PipelineEngine(cache=eng.cache),
                                            spec))
        assert eng.cache.get(MemTraceSpec(spec)) is None
        # nothing half-published, and the key lock was released: the
        # next caller builds and commits it
        nxt = PipelineEngine(root=eng.cache.root)
        assert_same_trace(nxt.memory_trace(spec), got)
        assert nxt.stats.traces_filtered == 1
        assert len(memtrace_dirs(eng.cache.root)) == 1

    def test_fenced_out_before_begin(self, tmp_path):
        spec = RunSpec(**SPEC)
        PipelineEngine(root=tmp_path).record(spec)
        eng = PipelineEngine(root=tmp_path)
        fence = str(tmp_path / "fence")
        write_fence(fence, 5)
        eng.cache.fence = FencingToken(fence, epoch=1)
        got = eng.memory_trace(spec)
        eng.cache.fence = None
        self._check_unpublished(eng, spec, got)

    def test_fenced_out_before_commit(self, tmp_path, monkeypatch):
        """The lease is revoked while the filter runs: commit refuses."""
        spec = RunSpec(**SPEC)
        PipelineEngine(root=tmp_path).record(spec)
        eng = PipelineEngine(root=tmp_path)
        fence = str(tmp_path / "fence")
        write_fence(fence, 1)
        eng.cache.fence = FencingToken(fence, epoch=1)
        finish = MemoryTraceProbe.on_finish

        def revoke_then_finish(self):
            write_fence(fence, 2)
            finish(self)

        monkeypatch.setattr(MemoryTraceProbe, "on_finish", revoke_then_finish)
        got = eng.memory_trace(spec)
        monkeypatch.undo()
        eng.cache.fence = None
        self._check_unpublished(eng, spec, got)

    def test_oserror_while_publishing(self, tmp_path, monkeypatch):
        spec = RunSpec(**SPEC)
        PipelineEngine(root=tmp_path).record(spec)
        eng = PipelineEngine(root=tmp_path)

        def full_disk(self, batch):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ChunkedTraceWriter, "append", full_disk)
        got = eng.memory_trace(spec)
        monkeypatch.undo()
        self._check_unpublished(eng, spec, got)


# ----------------------------------------------------------------------
@needs_fork
def test_scheduled_suite_filters_each_spec_once(tmp_path):
    ctx = ExperimentContext(cache_dir=str(tmp_path / "cache"),
                            **FIDELITIES["tiny"])
    results = run_all(ctx, jobs=2)
    assert all(isinstance(r, ExperimentResult) for r in results)
    stats = ctx.engine.stats
    filtered_specs = {json.dumps(meta["source"], sort_keys=True)
                      for meta in memtrace_metas(ctx.engine.cache.root).values()}
    # the four apps and the three workload families the sweep reads
    assert len(filtered_specs) == len(APP_ORDER) + len(FAMILIES)
    assert stats.traces_filtered == len(filtered_specs)
    assert stats.traces_loaded > 0
