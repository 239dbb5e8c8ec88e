"""Lazy AppRun: each analysis replays the recorded artifact only when an
experiment first reads it, at most once per context, and equals the
combined replay (scavenger analyzers and cache filter side by side)."""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.cachesim import CacheHierarchy, MemoryTraceProbe
from repro.experiments import ExperimentContext, run_experiment
from repro.scavenger import NVScavenger
from repro.scavenger.global_analysis import GlobalAnalyzer
from repro.scavenger.heap_analysis import HeapAnalyzer
from repro.scavenger.stackfast import FastStackAnalyzer
from repro.scavenger.stackslow import SlowStackAnalyzer

ANALYZERS = (FastStackAnalyzer, SlowStackAnalyzer, HeapAnalyzer, GlobalAnalyzer)


@pytest.fixture
def ctx(tmp_path):
    return ExperimentContext(refs_per_iteration=2_000, scale=1.0 / 256.0,
                             n_iterations=3, apps=("gtc", "s3d"),
                             cache_dir=str(tmp_path / "cache"))


@pytest.fixture
def calls():
    """Counts ``CacheHierarchy.process_batch`` calls and scavenger
    analyzer batches while the test runs."""
    counts = {"filter": 0, "scavenger": 0}

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    with mock.patch.object(CacheHierarchy, "process_batch",
                           counting("filter", CacheHierarchy.process_batch)):
        patches = [mock.patch.object(cls, "on_batch",
                                     counting("scavenger", cls.on_batch))
                   for cls in ANALYZERS]
        for p in patches:
            p.start()
        try:
            yield counts
        finally:
            for p in patches:
                p.stop()


def test_result_alone_never_filters(ctx, calls):
    assert ctx.run("gtc").result.total_refs > 0
    assert calls["filter"] == 0
    assert calls["scavenger"] > 0


def test_result_only_experiment_never_filters(ctx, calls):
    run_experiment("table5", ctx)
    assert calls["filter"] == 0


def test_memory_trace_alone_runs_no_scavenger_analyzer(ctx, calls):
    run = ctx.run("gtc")
    assert run.memory_trace
    assert run.cache_probe.stats().refs > 0
    assert run.instructions > 0
    assert calls["scavenger"] == 0
    assert calls["filter"] > 0


def test_each_field_replays_at_most_once(ctx):
    stats = ctx.engine.stats
    run = ctx.run("gtc")
    assert stats.replays == 0
    for _ in range(2):
        run.result
        run.memory_trace
        run.cache_probe.stats()
        run.instructions
        ctx.run("gtc").result
    assert ctx.run("gtc") is run
    assert stats.replays == 2
    assert stats.app_runs == 1


def plain(x):
    """A comparable rendering of a result: arrays as lists, floats by
    repr (so NaN equals NaN)."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,
                [plain(getattr(x, f.name)) for f in dataclasses.fields(x)])
    if isinstance(x, np.ndarray):
        return (x.dtype.str, plain(x.tolist()))
    if isinstance(x, dict):
        return sorted((repr(k), plain(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(map(repr, x))
    if isinstance(x, float):
        return repr(x)
    return x


@pytest.mark.parametrize("app", ["gtc", "s3d"])
def test_lazy_fields_equal_one_combined_replay(ctx, app):
    run = ctx.run(app)
    probe = MemoryTraceProbe()
    session = NVScavenger(extra_probes=[probe]).replay_session()
    art = ctx.engine.replay(ctx.spec_for(app), session.probe,
                            stack=session.stack)
    combined = session.result(footprint_bytes=art.meta["footprint_bytes"],
                              n_main_iterations=ctx.n_iterations)
    assert plain(run.result) == plain(combined)
    assert len(run.memory_trace) == len(probe.memory_trace)
    for got, want in zip(run.memory_trace, probe.memory_trace):
        assert plain(got) == plain(want)
    assert plain(run.cache_probe.stats()) == plain(probe.stats())
    assert run.instructions == art.meta["instructions"]


def test_instructions_check_the_marker_not_the_recording(ctx):
    """On a warm cache, ``instructions`` beside a stored memory trace
    checksums none of the recording's chunks, and a torn marker is
    healed like any other corruption."""
    def same_cache():
        return ExperimentContext(refs_per_iteration=2_000, scale=1.0 / 256.0,
                                 n_iterations=3, apps=("gtc", "s3d"),
                                 cache_dir=ctx.engine.cache.root)

    warm = ctx.run("gtc")
    expected = warm.instructions
    warm.cache_probe  # records, filters and stores the memory trace
    fresh = same_cache()
    run = fresh.run("gtc")
    run.cache_probe
    assert run.instructions == expected
    assert fresh.engine.stats.chunks_verified == 0
    art = fresh.engine.cache.get(fresh.spec_for("gtc"))
    with open(art.meta_path, "r+b") as fh:
        fh.seek(5)
        fh.write(b"#")
    healed = same_cache()
    assert healed.run("gtc").instructions == expected
    assert healed.engine.stats.quarantined == 1
