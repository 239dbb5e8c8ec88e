"""Chaos I/O fault injection against the artifact cache.

The contract under test:

* **crash-point sweep** — for a simulated crash at *every* filesystem
  operation of a recording, a fresh cache either misses or serves a
  fully CRC-valid artifact (never a torn one), and a later engine
  transparently re-records and replays bit-identically;
* **torn writes / ENOSPC / EIO** — every error-return path of the write
  pipeline aborts cleanly, leaving no committed-looking artifact;
* **cross-process locking** — two recorders of one key serialize on the
  per-key flock; the loser gets the winner's committed artifact, never a
  clobbered directory;
* **self-healing replay** — a corrupt committed artifact is quarantined
  and re-recorded (bounded retries), with the ``quarantined`` /
  ``rerecorded`` counters surfacing it;
* **corruption is loud** — bit-flipped or truncated chunk files (and a
  doctored chunk index) raise :class:`~repro.errors.TraceError` from
  ``verify``/``batches``, and ``Artifact.meta``/``events`` wrap racy
  deletion the same way.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.cachesim import MemoryTraceProbe
from repro.engine import (
    ArtifactCache,
    ChaosFS,
    IOFault,
    PipelineEngine,
    RunSpec,
    SimulatedCrash,
)
from repro.engine import engine as engine_module
from repro.engine.chaos import flip_file_bit
from repro.errors import CacheLockError, FaultInjectionError, TraceError
from repro.resilience.faults import SCENARIOS, get_scenario

SPEC = dict(refs_per_iteration=1_000, scale=1.0 / 256.0, n_iterations=2, seed=3)


def make_spec(app="gtc", **over):
    return RunSpec(app=app, **{**SPEC, **over})


def addr_stream(probe: MemoryTraceProbe) -> np.ndarray:
    if not probe.memory_trace:
        return np.empty(0, np.uint64)
    return np.concatenate([b.addr for b in probe.memory_trace])


@pytest.fixture(scope="module")
def reference_trace(tmp_path_factory):
    """The pristine replayed address stream every recovery must match."""
    eng = PipelineEngine(root=tmp_path_factory.mktemp("ref-cache"))
    probe = MemoryTraceProbe()
    eng.replay(make_spec(), probe)
    return addr_stream(probe)


# ----------------------------------------------------------------------
class TestIOFaultConfig:
    def test_kind_validated(self):
        with pytest.raises(FaultInjectionError):
            IOFault("meteor", op="write:*")

    def test_needs_exactly_one_selector(self):
        with pytest.raises(FaultInjectionError):
            IOFault("eio")
        with pytest.raises(FaultInjectionError):
            IOFault("eio", op="write:*", index=3)

    def test_torn_needs_offset(self):
        with pytest.raises(FaultInjectionError):
            IOFault("torn", op="write:refs.npz.tmp")

    def test_io_scenarios_share_the_registry(self):
        assert {"io-torn-refs", "io-enospc-meta", "io-crash-commit",
                "io-bitflip-refs"} <= set(SCENARIOS)
        scen = get_scenario("io-crash-commit")
        assert scen.faults[0].kind == "crash"

    def test_non_io_scenario_rejected(self):
        with pytest.raises(FaultInjectionError):
            ChaosFS(scenario="crashes")


# ----------------------------------------------------------------------
class TestCrashPointSweep:
    def test_every_crash_point_leaves_none_or_valid(self, tmp_path,
                                                    reference_trace):
        """Kill the recording at every filesystem operation: the cache
        must never serve a partial artifact, and recovery must replay
        bit-identically to the pristine run."""
        spec = make_spec()
        # enumerate the op sequence of one clean recording
        probe_fs = ChaosFS()
        PipelineEngine(cache=ArtifactCache(tmp_path / "probe",
                                           fs=probe_fs)).record(spec)
        ops = list(probe_fs.ops)
        assert any(o.startswith("replace:meta.json") for o in ops)
        assert ops[-1].startswith("fsync_dir:")

        for i, label in enumerate(ops):
            root = tmp_path / f"crash-{i}"
            fs = ChaosFS(faults=[IOFault("crash", index=i)])
            eng = PipelineEngine(cache=ArtifactCache(root, fs=fs))
            with pytest.raises(SimulatedCrash):
                eng.record(spec)
            assert fs.dead, f"crash point {i} ({label}) never fired"
            # a fresh process: None or a fully verifiable artifact
            clean = ArtifactCache(root)
            art = clean.get(spec)
            if art is not None:
                assert art.verify() > 0
            # recovery re-records (if needed) and replays bit-identically
            eng2 = PipelineEngine(cache=clean)
            probe = MemoryTraceProbe()
            eng2.replay(spec, probe)
            np.testing.assert_array_equal(addr_stream(probe), reference_trace)

    def test_torn_writes_at_every_file(self, tmp_path, reference_trace):
        """Torn tmp-file writes (machine dies mid-write) never publish."""
        spec = make_spec()
        for i, name in enumerate(
                ("chunk-data.bin", "index.bin",
                 "events.json.tmp", "meta.json.tmp")):
            root = tmp_path / f"torn-{i}"
            fs = ChaosFS(faults=[IOFault("torn", op=f"write:{name}",
                                         offset=64)])
            eng = PipelineEngine(cache=ArtifactCache(root, fs=fs))
            with pytest.raises(SimulatedCrash):
                eng.record(spec)
            clean = ArtifactCache(root)
            art = clean.get(spec)
            if art is not None:
                assert art.verify() > 0
            probe = MemoryTraceProbe()
            PipelineEngine(cache=clean).replay(spec, probe)
            np.testing.assert_array_equal(addr_stream(probe), reference_trace)


# ----------------------------------------------------------------------
class TestErrorReturns:
    @pytest.mark.parametrize("scenario", ["io-enospc-meta", "io-eio-events",
                                          "io-torn-refs"])
    def test_write_errors_abort_cleanly(self, tmp_path, scenario):
        spec = make_spec()
        fs = ChaosFS(scenario=scenario)
        eng = PipelineEngine(cache=ArtifactCache(tmp_path, fs=fs))
        with pytest.raises(OSError):
            eng.record(spec)
        assert fs.fired, "the scenario's fault never triggered"
        assert ArtifactCache(tmp_path).get(spec) is None
        assert eng.stats.app_runs == 0

    def test_enospc_then_clean_record_succeeds(self, tmp_path):
        """Transient disk pressure: the same engine records fine after."""
        spec = make_spec()
        fs = ChaosFS(faults=[IOFault("enospc", op="write:meta.json.tmp")])
        cache = ArtifactCache(tmp_path, fs=fs)
        eng = PipelineEngine(cache=cache)
        with pytest.raises(OSError):
            eng.record(spec)
        art = eng.record(spec)  # the one-shot fault has been consumed
        assert art.verify() > 0

    def test_abort_poisons_writer(self, tmp_path):
        """A stray writer.close() after abort cannot resurrect files."""
        spec = make_spec()
        cache = ArtifactCache(tmp_path)
        pending = cache.begin(spec)
        pending.writer.append  # touch: the writer exists and is open
        pending.abort()
        pending.writer.close()  # must be inert after discard()
        assert not os.path.exists(
            os.path.join(pending.directory, "refs.tv4"))
        assert not os.path.exists(
            os.path.join(pending.directory, "refs.tv4.tmp"))
        with pytest.raises(TraceError):
            pending.writer.append(None)


# ----------------------------------------------------------------------
class TestCrossProcessLocking:
    def test_second_recorder_times_out_while_first_holds(self, tmp_path):
        spec = make_spec(app="s3d")
        first = ArtifactCache(tmp_path, lock_timeout=5.0)
        pending = first.begin(spec)
        second = ArtifactCache(tmp_path, lock_timeout=0.05)
        with pytest.raises(CacheLockError):
            second.begin(spec)
        pending.abort()
        # once released, the second cache can begin (and must clean up)
        handle = second.begin(spec)
        handle.abort()

    def test_loser_gets_winners_artifact(self, tmp_path):
        """If the artifact commits while a peer waits on the lock, the
        peer's begin() returns the committed artifact, not a pending one
        that would clobber it."""
        spec = make_spec(app="s3d")
        cache = ArtifactCache(tmp_path)
        eng = PipelineEngine(cache=cache)
        art = eng.record(spec)
        peer = ArtifactCache(tmp_path)
        handle = peer.begin(spec)
        assert not hasattr(handle, "writer"), "begin() clobbered a commit"
        assert handle.key == art.key
        assert handle.verify() > 0
        # and the engine counts it as a cache hit
        eng2 = PipelineEngine(cache=peer)
        eng2.record(spec)
        assert eng2.stats.app_runs == 0
        assert eng2.stats.cache_hits == 1

    def test_lock_released_on_commit(self, tmp_path):
        spec = make_spec()
        cache = ArtifactCache(tmp_path, lock_timeout=0.05)
        PipelineEngine(cache=cache).record(spec)
        lock = cache.lock_for(spec.key)
        assert lock.try_acquire()
        lock.release()

    def test_failed_recording_releases_lock(self, tmp_path):
        from repro.errors import ConfigurationError

        spec = make_spec(app="notanapp")
        cache = ArtifactCache(tmp_path, lock_timeout=0.05)
        with pytest.raises(ConfigurationError):
            PipelineEngine(cache=cache).record(spec)
        lock = cache.lock_for(spec.key)
        assert lock.try_acquire()
        lock.release()


# ----------------------------------------------------------------------
class TestSelfHealingReplay:
    def test_bitflip_quarantines_and_rerecords(self, tmp_path,
                                               reference_trace):
        spec = make_spec()
        root = tmp_path / "cache"
        eng = PipelineEngine(root=root)
        art = eng.record(spec)
        flip_file_bit(art.refs_path, seed=7)
        healer = PipelineEngine(cache=ArtifactCache(root))
        probe = MemoryTraceProbe()
        healer.replay(spec, probe)
        assert healer.stats.quarantined == 1
        assert healer.stats.rerecorded == 1
        np.testing.assert_array_equal(addr_stream(probe), reference_trace)
        # the corrupt copy is kept aside for forensics
        quarantined = [d for d in os.listdir(os.path.dirname(art.directory))
                       if ".quarantine" in d]
        assert len(quarantined) == 1
        # the healed artifact is scrubbed once per engine: a second
        # replay goes straight through
        before = healer.stats.snapshot()
        healer.replay(spec, MemoryTraceProbe())
        assert healer.stats.delta(before)["quarantined"] == 0

    def test_older_cache_container_is_quarantined_and_rerecorded(
            self, tmp_path, reference_trace):
        """An artifact an older cache wrote (its trace under
        ``refs.tv3``) reads as corrupt: replay quarantines it and
        re-records the spec."""
        spec = make_spec()
        root = tmp_path / "cache"
        art = PipelineEngine(root=root).record(spec)
        os.rename(art.refs_path, os.path.join(art.directory, "refs.tv3"))
        healer = PipelineEngine(cache=ArtifactCache(root))
        probe = MemoryTraceProbe()
        healer.replay(spec, probe)
        assert healer.stats.quarantined == healer.stats.rerecorded == 1
        np.testing.assert_array_equal(addr_stream(probe), reference_trace)

    def test_events_corruption_detected_and_healed(self, tmp_path,
                                                   reference_trace):
        spec = make_spec()
        root = tmp_path / "cache"
        eng = PipelineEngine(root=root)
        art = eng.record(spec)
        flip_file_bit(art.events_path, seed=5)
        healer = PipelineEngine(cache=ArtifactCache(root))
        probe = MemoryTraceProbe()
        healer.replay(spec, probe)
        assert healer.stats.quarantined == 1
        np.testing.assert_array_equal(addr_stream(probe), reference_trace)

    def test_persistent_corruption_gives_up_loudly(self, tmp_path,
                                                   monkeypatch):
        """Bad media corrupting every re-record: bounded retries, then a
        TraceError naming the spec — never silent bad data."""
        spec = make_spec()
        fs = ChaosFS(scenario="io-bitflip-refs-persistent")
        cache = ArtifactCache(tmp_path, fs=fs)
        monkeypatch.setattr(engine_module, "MAX_RERECORD_ATTEMPTS", 1)
        monkeypatch.setattr(engine_module, "RERECORD_BACKOFF_S", 0.0)
        eng = PipelineEngine(cache=cache)
        with pytest.raises(TraceError, match="re-record"):
            eng.replay(spec, MemoryTraceProbe())
        assert eng.stats.quarantined == 2  # initial + the retried copy
        assert eng.stats.rerecorded == 1

    def test_self_heal_off_raises_directly(self, tmp_path):
        spec = make_spec()
        root = tmp_path / "cache"
        art = PipelineEngine(root=root).record(spec)
        flip_file_bit(art.refs_path, seed=7)
        eng = PipelineEngine(cache=ArtifactCache(root), self_heal=False)
        with pytest.raises(TraceError):
            eng.replay(spec, MemoryTraceProbe())
        assert eng.stats.quarantined == 0

    def test_counters_surface_in_stats_table(self, tmp_path):
        eng = PipelineEngine(root=tmp_path)
        assert "quarantined" in eng.stats.table()
        snap = eng.stats.snapshot()
        assert snap["quarantined"] == 0 and snap["rerecorded"] == 0


# ----------------------------------------------------------------------
class TestCorruptionIsLoud:
    """The full scrub (``verify``) and the stored-CRC one every reader
    runs (``scrub``) against flipped and truncated traces."""

    @pytest.fixture()
    def committed(self, tmp_path):
        spec = make_spec()
        cache = ArtifactCache(tmp_path)
        PipelineEngine(cache=cache).record(spec)
        return spec, cache

    @staticmethod
    def scrub(art):
        with art.open_trace() as reader:
            return art.scrub(reader)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_single_bitflip_raises(self, committed, seed):
        spec, cache = committed
        art = cache.get(spec)
        flip_file_bit(art.refs_path, seed=seed)
        with pytest.raises(TraceError):
            art.verify()
        with pytest.raises(TraceError):
            self.scrub(art)

    @pytest.mark.parametrize("keep", [0, 10, 1000])
    def test_truncated_refs_raises(self, committed, keep):
        """A truncated data file is caught before any decode (the
        mapped size no longer covers the chunks the index declares)."""
        spec, cache = committed
        art = cache.get(spec)
        chunk = os.path.join(art.refs_path, "chunk-data.bin")
        data = open(chunk, "rb").read()
        assert keep < len(data)
        with open(chunk, "wb") as fh:
            fh.write(data[:keep])
        with pytest.raises(TraceError):
            art.verify()
        with pytest.raises(TraceError):
            self.scrub(art)

    @pytest.mark.parametrize("keep", [0, 10, 63, 100])
    def test_truncated_index_raises(self, committed, keep):
        """A torn chunk index never parses as a shorter-but-valid one."""
        spec, cache = committed
        art = cache.get(spec)
        index = os.path.join(art.refs_path, "index.bin")
        data = open(index, "rb").read()
        assert keep < len(data)
        with open(index, "wb") as fh:
            fh.write(data[:keep])
        with pytest.raises(TraceError):
            art.verify()

    def test_missing_batches_vs_meta_detected(self, committed):
        """A trace that silently lost whole batches fails the meta
        cross-check even though every remaining chunk CRC passes."""
        from repro.trace.chunked import ChunkedTraceReader, _pack_index

        spec, cache = committed
        art = cache.get(spec)
        with ChunkedTraceReader(art.refs_path) as reader:
            records = list(reader.records)
            total = reader.total_refs
        assert len(records) > 1
        dropped = records.pop()
        # a self-consistent index (valid CRCs) that simply lost a chunk
        blob = _pack_index(records, total - dropped.n_refs)
        with open(os.path.join(art.refs_path, "index.bin"), "wb") as fh:
            fh.write(blob)
        with pytest.raises(TraceError, match="declares"):
            art.verify()

    def test_meta_read_errors_wrapped(self, committed):
        spec, cache = committed
        art = cache.get(spec)
        # corrupt JSON: parse failure carries the key and the path
        with open(art.meta_path, "w") as fh:
            fh.write("{not json")
        fresh = cache.get(spec)
        with pytest.raises(TraceError) as ei:
            fresh.meta
        assert ei.value.key == spec.key
        assert ei.value.path == art.meta_path
        # racy deletion of the whole directory after get()
        handle = cache.get(spec)
        shutil.rmtree(handle.directory)
        with pytest.raises(TraceError):
            handle.meta
        with pytest.raises(TraceError):
            handle.events()
        # and get() itself tolerates the vanished directory
        assert cache.get(spec) is None

    def test_replay_never_delivers_bad_batches_to_probes(self, committed,
                                                         monkeypatch):
        """The probe set sees either the full valid stream or nothing —
        quarantine happens before delivery, not mid-stream."""
        spec, cache = committed
        art = cache.get(spec)
        flip_file_bit(art.refs_path, seed=11)
        monkeypatch.setattr(engine_module, "MAX_RERECORD_ATTEMPTS", 0)
        eng = PipelineEngine(cache=cache)
        probe = MemoryTraceProbe()
        with pytest.raises(TraceError):
            eng.replay(spec, probe)
        assert probe.memory_trace == []


# ----------------------------------------------------------------------
class TestDurabilityDetails:
    def test_commit_fsyncs_directory(self, tmp_path):
        spec = make_spec()
        fs = ChaosFS()
        PipelineEngine(cache=ArtifactCache(tmp_path, fs=fs)).record(spec)
        assert fs.ops[-1].startswith("fsync_dir:"), fs.ops

    def test_meta_is_written_last(self, tmp_path):
        spec = make_spec()
        fs = ChaosFS()
        PipelineEngine(cache=ArtifactCache(tmp_path, fs=fs)).record(spec)
        publishes = [o for o in fs.ops if o.startswith("replace:")]
        assert publishes[-1] == "replace:meta.json"

    def test_quarantine_log_event_is_structured(self, tmp_path, caplog):
        spec = make_spec()
        cache = ArtifactCache(tmp_path)
        PipelineEngine(cache=cache).record(spec)
        with caplog.at_level("WARNING", logger="repro.engine.cache"):
            cache.quarantine(spec.key, reason="test scrub")
        payloads = [json.loads(r.getMessage().split(": ", 1)[1])
                    for r in caplog.records]
        assert any(p["event"] == "artifact.quarantined"
                   and p["key"] == spec.key for p in payloads)
