"""Trace-once / replay-many pipeline engine: caching, durability, fidelity.

The contract under test:

* each distinct :class:`~repro.engine.RunSpec` executes the application at
  most once per cache root — in-process *and* across engine instances
  sharing a persistent root;
* replaying a recorded artifact into the NV-SCAVENGER analyzers yields a
  result bit-identical to a live instrumented run;
* partially written artifacts (no ``meta.json`` commit marker) are treated
  as absent, never served;
* each stage counts the calls and refs it handled, and a worker engine's
  snapshot delta merges into another engine's stats without loss;
* ``run_all`` drives the whole experiment suite off one recording pass.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.cachesim import MemoryTraceProbe
from repro.engine import EngineStats, PipelineEngine, RunSpec, VARIANT_PREFIX
from repro.engine import engine as engine_module
from repro.engine.engine import STAGE_NAMES
from repro.errors import ConfigurationError
from repro.scavenger import NVScavenger

SPEC = dict(refs_per_iteration=2_000, scale=1.0 / 256.0, n_iterations=3, seed=11)


def make_engine(tmp_path):
    return PipelineEngine(root=tmp_path / "cache")


# ----------------------------------------------------------------------
class TestRunSpec:
    def test_key_is_stable_and_canonical(self):
        a = RunSpec(app="gtc", **SPEC)
        b = RunSpec(app="gtc", **SPEC)
        assert a.key == b.key
        assert len(a.key) == 64
        assert a.canonical()["app"] == "gtc"

    def test_key_distinguishes_every_knob(self):
        base = RunSpec(app="gtc", **SPEC)
        others = [
            RunSpec(app="s3d", **SPEC),
            RunSpec(app="gtc", **{**SPEC, "seed": 12}),
            RunSpec(app="gtc", **{**SPEC, "refs_per_iteration": 2_001}),
            RunSpec(app="gtc", **{**SPEC, "scale": 1.0 / 128.0}),
            RunSpec(app="gtc", **{**SPEC, "n_iterations": 4}),
        ]
        assert len({base.key, *(o.key for o in others)}) == 6

    def test_variant_spec_instantiates(self):
        app = RunSpec(app=f"{VARIANT_PREFIX}nek5000", **SPEC).instantiate()
        assert "nek5000" in type(app).__name__.lower() or app.info.name

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(app="notanapp", **SPEC).instantiate()
        with pytest.raises(ConfigurationError):
            RunSpec(app=f"{VARIANT_PREFIX}notanapp", **SPEC).instantiate()


# ----------------------------------------------------------------------
class TestCaching:
    def test_record_executes_once(self, tmp_path):
        eng = make_engine(tmp_path)
        spec = RunSpec(app="gtc", **SPEC)
        a1 = eng.record(spec)
        a2 = eng.record(spec)
        assert eng.stats.app_runs == 1
        assert eng.stats.cache_hits == 1
        assert a1.meta["refs"] == a2.meta["refs"] > 0

    def test_persists_across_engine_instances(self, tmp_path):
        spec = RunSpec(app="gtc", **SPEC)
        make_engine(tmp_path).record(spec)
        # a "second process": fresh engine, same root, zero executions
        eng2 = make_engine(tmp_path)
        probe = MemoryTraceProbe()
        art = eng2.replay(spec, probe)
        assert eng2.stats.app_runs == 0
        assert eng2.stats.cache_hits == 1
        assert sum(len(b) for b in probe.memory_trace) <= art.meta["refs"]

    def test_repeat_replays_count_one_cache_hit(self, tmp_path):
        spec = RunSpec(app="gtc", **SPEC)
        make_engine(tmp_path).record(spec)
        eng = make_engine(tmp_path)
        for _ in range(3):
            eng.replay(spec, MemoryTraceProbe())
        assert (eng.stats.cache_hits, eng.stats.replays) == (1, 3)

    def test_partial_artifact_is_a_miss(self, tmp_path):
        eng = make_engine(tmp_path)
        spec = RunSpec(app="gtc", **SPEC)
        art = eng.record(spec)
        # simulate a crash between trace write and commit marker
        import os

        os.unlink(art.meta_path)
        eng2 = make_engine(tmp_path)
        eng2.record(spec)
        assert eng2.stats.app_runs == 1  # re-recorded, not served corrupt

    def test_distinct_specs_recorded_separately(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.record(RunSpec(app="gtc", **SPEC))
        eng.record(RunSpec(app="gtc", **{**SPEC, "seed": 12}))
        assert eng.stats.app_runs == 2

    def test_failed_recording_leaves_no_artifact(self, tmp_path):
        eng = make_engine(tmp_path)
        spec = RunSpec(app="notanapp", **SPEC)
        with pytest.raises(ConfigurationError):
            eng.record(spec)
        assert eng.cache.get(spec) is None
        assert eng.stats.app_runs == 0


# ----------------------------------------------------------------------
class TestReplayFidelity:
    @pytest.fixture(scope="class", params=["gtc", "cam"])
    def pair(self, request, tmp_path_factory):
        """(live result, replayed result) for one app."""
        name = request.param
        spec = RunSpec(app=name, **SPEC)
        live = NVScavenger().analyze(
            spec.instantiate(), n_main_iterations=spec.n_iterations
        )
        eng = PipelineEngine(root=tmp_path_factory.mktemp("cache"))
        session = NVScavenger().replay_session()
        art = eng.replay(spec, session.probe, stack=session.stack)
        replayed = session.result(
            footprint_bytes=art.meta["footprint_bytes"],
            n_main_iterations=spec.n_iterations,
        )
        return live, replayed

    def test_totals_identical(self, pair):
        live, rep = pair
        assert (live.total_refs, live.total_reads, live.total_writes) == (
            rep.total_refs, rep.total_reads, rep.total_writes
        )
        assert live.footprint_bytes == rep.footprint_bytes

    def test_stack_summary_identical(self, pair):
        live, rep = pair
        np.testing.assert_array_equal(
            live.stack_summary.stack_reads, rep.stack_summary.stack_reads
        )
        np.testing.assert_array_equal(
            live.stack_summary.stack_writes, rep.stack_summary.stack_writes
        )
        np.testing.assert_array_equal(
            live.stack_summary.total_refs, rep.stack_summary.total_refs
        )

    def test_frame_stats_identical(self, pair):
        live, rep = pair
        assert [
            (f.routine, f.reads, f.writes, f.refs, f.max_frame_bytes)
            for f in live.frame_stats
        ] == [
            (f.routine, f.reads, f.writes, f.refs, f.max_frame_bytes)
            for f in rep.frame_stats
        ]

    def test_object_metrics_identical(self, pair):
        live, rep = pair
        key = lambda m: (m.oid, m.name, m.size, m.reads, m.writes)  # noqa: E731
        assert sorted(map(key, live.object_metrics)) == sorted(
            map(key, rep.object_metrics)
        )

    def test_classification_identical(self, pair):
        live, rep = pair
        cls = lambda r: sorted(  # noqa: E731
            (c.metrics.oid, c.nvram_class.name, c.placement.name)
            for c in r.classified
        )
        assert cls(live) == cls(rep)

    def test_hierarchy_stats_and_memory_trace_identical(self, tmp_path):
        """Live fan-out run vs replay: the cache filter sees the same
        stream and produces identical HierarchyStats and memory trace."""
        spec = RunSpec(app="gtc", **SPEC)
        live_probe = MemoryTraceProbe()
        NVScavenger(extra_probes=[live_probe]).analyze(
            spec.instantiate(), n_main_iterations=spec.n_iterations
        )
        rep_probe = MemoryTraceProbe()
        session = NVScavenger(extra_probes=[rep_probe]).replay_session()
        make_engine(tmp_path).replay(spec, session.probe, stack=session.stack)
        assert live_probe.stats() == rep_probe.stats()
        live_trace = np.concatenate([b.addr for b in live_probe.memory_trace])
        rep_trace = np.concatenate([b.addr for b in rep_probe.memory_trace])
        np.testing.assert_array_equal(live_trace, rep_trace)
        live_w = np.concatenate([b.is_write for b in live_probe.memory_trace])
        rep_w = np.concatenate([b.is_write for b in rep_probe.memory_trace])
        np.testing.assert_array_equal(live_w, rep_w)

    def test_replay_many_is_deterministic(self, tmp_path):
        spec = RunSpec(app="s3d", **SPEC)
        eng = make_engine(tmp_path)
        traces = []
        for _ in range(2):
            probe = MemoryTraceProbe()
            eng.replay(spec, probe)
            traces.append(
                np.concatenate([b.addr for b in probe.memory_trace])
                if probe.memory_trace else np.empty(0, np.uint64)
            )
        assert eng.stats.app_runs == 1
        assert eng.stats.replays == 2
        np.testing.assert_array_equal(traces[0], traces[1])


# ----------------------------------------------------------------------
class TestSuiteIntegration:
    def test_run_all_records_each_spec_once(self, tmp_path):
        from repro.experiments import table1, table5
        from repro.experiments.common import ExperimentContext
        from repro.experiments.runner import run_all

        ctx = ExperimentContext(
            refs_per_iteration=2_000,
            scale=1.0 / 256.0,
            n_iterations=3,
            seed=0,
            apps=("gtc", "s3d"),
            cache_dir=str(tmp_path / "cache"),
        )
        exps = {"table1": table1.run, "table5": table5.run}
        results = run_all(ctx, experiments=exps, retries=0)
        # two experiments over two shared apps: exactly one execution per app
        assert ctx.engine.stats.app_runs == len(ctx.apps)
        assert len(results) == 2
        # the harness attributed engine deltas to each experiment
        assert all("experiment_wall_s" in r.timings for r in results)
        # a second suite invocation replays entirely from cache
        run_all(ctx, experiments=exps, retries=0)
        assert ctx.engine.stats.app_runs == len(ctx.apps)

    def test_engine_stats_snapshot_delta(self, tmp_path):
        eng = make_engine(tmp_path)
        before = eng.stats.snapshot()
        eng.replay(RunSpec(app="gtc", **SPEC), MemoryTraceProbe())
        d = eng.stats.delta(before)
        assert d["app_runs"] == 1 and d["replays"] == 1
        assert d["record_refs"] == d["replay_refs"] > 0
        assert "replay" in eng.stats.table()


# ----------------------------------------------------------------------
class TestStageAccounting:
    """Per-stage calls and refs of a cold and a warm replay, and the
    snapshot/delta/merge fold the suite applies to worker engines."""

    COUNTERS = ("app_runs", "cache_hits", "replays", "quarantined",
                "rerecorded", "chunks_verified", "chunks_decoded",
                "traces_filtered", "traces_loaded")

    def _calls_and_refs(self, stats):
        return {name: (st.calls, st.refs) for name, st in stats.stages.items()}

    def test_replay_stage_counts(self, tmp_path, monkeypatch):
        spec = RunSpec(app="gtc", **SPEC)
        # small chunks, so "one decode call per chunk" is checked over many
        with monkeypatch.context() as m:
            m.setattr(engine_module, "RECORD_BUFFER_CAPACITY", 1_024)
            art = PipelineEngine(root=tmp_path / "cache").record(spec)
        refs, n_chunks = art.meta["refs"], art.meta["n_batches"]
        assert n_chunks > 1

        eng = make_engine(tmp_path)
        eng.replay(spec, MemoryTraceProbe())
        cold = self._calls_and_refs(eng.stats)
        assert cold["record"] == (0, 0)
        assert cold["map"][0] == 1
        assert cold["verify"] == (1, refs)
        assert cold["decode"] == (n_chunks, refs)
        assert cold["replay"] == (1, refs)
        assert cold["consume"] == (1, refs)
        assert eng.stats.chunks_verified == eng.stats.chunks_decoded == n_chunks

        # a warm replay reuses the handle, its scrub and the decode memo
        eng.replay(spec, MemoryTraceProbe())
        warm = self._calls_and_refs(eng.stats)
        for name in ("record", "map", "verify", "decode"):
            assert warm[name] == cold[name], name
        assert warm["replay"] == (2, 2 * refs)
        assert warm["consume"] == (2, 2 * refs)

    def test_snapshot_delta_merge_reproduces_every_count(self, tmp_path):
        spec = RunSpec(app="gtc", **SPEC)
        recorder, replayer = make_engine(tmp_path), make_engine(tmp_path)
        before = [recorder.stats.snapshot(), replayer.stats.snapshot()]
        recorder.record(spec)
        recorder.memory_trace(spec)  # filters and publishes
        replayer.replay(spec, MemoryTraceProbe())
        replayer.replay(spec, MemoryTraceProbe())
        replayer.memory_trace(spec)  # loads the published trace

        merged = EngineStats()
        for eng, snap in zip((recorder, replayer), before):
            merged.merge(eng.stats.delta(snap))
        for name in self.COUNTERS:
            want = (getattr(recorder.stats, name)
                    + getattr(replayer.stats, name))
            assert getattr(merged, name) == want, name
        assert (merged.traces_filtered, merged.traces_loaded) == (1, 1)
        assert "traces filtered: 1   traces loaded: 1" in merged.table()
        got = self._calls_and_refs(merged)
        rec = self._calls_and_refs(recorder.stats)
        rep = self._calls_and_refs(replayer.stats)
        for name in STAGE_NAMES:
            assert got[name] == (rec[name][0] + rep[name][0],
                                 rec[name][1] + rep[name][1]), name
        # every stage saw work, so the check covers all six
        assert all(calls > 0 for calls, _refs in got.values())


# ----------------------------------------------------------------------
class TestDecodeMemo:
    """The in-memory per-chunk decode memo behind warm replays."""

    def test_first_replay_seeds_memo_and_warm_replay_hits_it(self, tmp_path):
        spec = RunSpec(app="gtc", **SPEC)
        eng = make_engine(tmp_path)
        eng.replay(spec, MemoryTraceProbe())
        n_chunks = eng.cache.get(spec).meta["n_batches"]
        # first replay decoded every chunk once and memoized them all
        assert eng.memoized_chunks(spec.key) == list(range(n_chunks))
        assert eng.stats.chunks_decoded == n_chunks
        traces = []
        for _ in range(2):
            probe = MemoryTraceProbe()
            eng.replay(spec, probe)
            traces.append(np.concatenate([b.addr for b in probe.memory_trace]))
        np.testing.assert_array_equal(traces[0], traces[1])
        assert eng.stats.replays == 3
        # warm replays hit the memo: no further decodes
        assert eng.stats.chunks_decoded == n_chunks

    def test_memoized_batches_are_frozen(self, tmp_path):
        spec = RunSpec(app="gtc", **SPEC)
        eng = make_engine(tmp_path)
        eng.replay(spec, MemoryTraceProbe())
        chunks = eng.memoized_chunks(spec.key)
        assert chunks
        handle = eng._handles[spec.key]
        for i in chunks:
            batch = eng._chunk(handle, i)
            assert not batch.addr.flags.writeable
            with pytest.raises(ValueError):
                batch.addr[0] = 0

    def test_zero_budget_disables_memo(self, tmp_path, monkeypatch):
        spec = RunSpec(app="gtc", **SPEC)
        monkeypatch.setattr(engine_module, "DECODE_CACHE_BYTES", 0)
        eng = PipelineEngine(root=tmp_path / "cache")
        eng.replay(spec, MemoryTraceProbe())
        assert eng.memoized_chunks(spec.key) == []
        # cold path still replays correctly
        probe = MemoryTraceProbe()
        eng.replay(spec, probe)
        assert probe.memory_trace

    def test_lru_eviction_under_budget_pressure(self, tmp_path, monkeypatch):
        a = RunSpec(app="gtc", **SPEC)
        b = RunSpec(app="s3d", **SPEC)
        eng = make_engine(tmp_path)
        eng.replay(a, MemoryTraceProbe())
        n_a = len(eng.memoized_chunks(a.key))
        size_a = sum(entry.nbytes for entry in eng._decoded.values())
        # budget fits one decoded run but not two
        monkeypatch.setattr(engine_module, "DECODE_CACHE_BYTES",
                            int(size_a * 1.5))
        eng.replay(b, MemoryTraceProbe())
        n_b = eng.cache.get(b).meta["n_batches"]
        # b's chunks are all resident; a was partially evicted, oldest
        # chunks first — eviction is chunk-granular now, not whole-run
        assert eng.memoized_chunks(b.key) == list(range(n_b))
        assert len(eng.memoized_chunks(a.key)) < n_a
        # evicted chunks replay fine (cold path) and re-enter the memo
        probe = MemoryTraceProbe()
        eng.replay(a, probe)
        assert probe.memory_trace
        assert eng.memoized_chunks(a.key)

    def test_quarantine_forgets_memoized_run(self, tmp_path):
        spec = RunSpec(app="gtc", **SPEC)
        eng = make_engine(tmp_path)
        eng.replay(spec, MemoryTraceProbe())
        assert eng.memoized_chunks(spec.key)
        eng.cache.quarantine(spec.key, reason="test")
        eng._forget(spec.key)
        assert eng.memoized_chunks(spec.key) == []
        assert spec.key not in eng._handles


# ----------------------------------------------------------------------
def test_default_root_is_removed_when_its_process_exits(tmp_path):
    """A context without ``cache_dir`` caches under a fresh temporary
    root, which the process that made it removes when it exits — not
    when the engine is collected, as the memory trace it returned is a
    view of that root's files."""
    code = textwrap.dedent("""
        import gc, os
        from repro.experiments.common import ExperimentContext
        ctx = ExperimentContext(refs_per_iteration=1000, scale=1 / 256,
                                n_iterations=2)
        run = ctx.run("gtc")
        assert run.result is not None
        trace = run.memory_trace
        root = ctx.engine.cache.root
        del ctx, run
        gc.collect()
        assert os.path.isdir(root)
        assert sum(len(b) for b in trace) > 0
        print(root)
    """)
    env = {k: v for k, v in os.environ.items() if k != "NVSCAVENGER_CACHE"}
    env["TMPDIR"] = str(tmp_path)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().startswith(str(tmp_path))
    assert not [n for n in os.listdir(tmp_path)
                if n.startswith("nvscavenger-cache-")]
