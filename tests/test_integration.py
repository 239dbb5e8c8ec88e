"""Cross-module integration tests: the full pipelines of Figure 1.

instrumented program -> analyzers -> classification -> placement
instrumented program -> cache filter -> trace file -> power simulator
instrumented program -> cache filter -> counts -> performance model
"""

import pytest

from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.hybrid.placement import StaticPlacer
from repro.instrument import InstrumentedRuntime, SamplingProbe
from repro.instrument.api import FanoutProbe, Probe
from repro.nvram import PCRAM, STTRAM
from repro.perfsim import PerformanceSimulator
from repro.policies import ObjectSpan, create_policy, evaluate_policy
from repro.powersim import simulate_power
from repro.scavenger import NVScavenger
from repro.trace.io import write_trace
from tests.conftest import make_app


def test_trace_file_roundtrip_through_power_sim(tmp_path, analyzed_apps):
    """The paper's exact flow: NV-SCAVENGER trace files feed DRAMSim."""
    _, _, probe, _ = analyzed_apps["gtc"]
    path = tmp_path / "gtc_mem.npz"
    write_trace(path, probe.memory_trace)
    rep_file = simulate_power(path, PCRAM)
    rep_mem = simulate_power(probe.memory_trace, PCRAM)
    assert rep_file.average_power_mw == pytest.approx(rep_mem.average_power_mw)
    assert rep_file.stats.accesses == rep_mem.stats.accesses


def test_classification_to_placement_to_pagemap(analyzed_apps):
    """Analysis drives placement; placement covers the whole object set."""
    _, res, _, _ = analyzed_apps["cam"]
    pm = PageMap()
    plan = StaticPlacer(STTRAM).place(res.classified, page_map=pm)
    assert plan.total_bytes == sum(m.size for m in res.object_metrics)
    # every NVRAM object's base address is NVRAM-resident in the page map
    by_oid = {m.oid: m for m in res.object_metrics}
    for oid in plan.nvram_oids:
        assert pm.pool_of(by_oid[oid].base) is MemoryPool.NVRAM


def test_migration_on_live_trace(analyzed_apps):
    """Ramos-style dynamic migration consumes the real reference stream."""
    _, res, probe, _ = analyzed_apps["gtc"]
    objects = [ObjectSpan(m.oid, m.name, m.base, m.size)
               for m in res.object_metrics]
    s = evaluate_policy(create_policy("ramos", write_hot=32, read_popular=64),
                        probe.memory_trace, objects, PCRAM, 1_000_000)
    assert s.accesses == sum(len(b) for b in probe.memory_trace)
    # GTC's write-heavy pages produce DRAM migrations
    assert s.to_dram > 0


def test_perf_counts_consistent_with_cache_stats(analyzed_apps):
    _, _, probe, instructions = analyzed_apps["s3d"]
    sim = PerformanceSimulator()
    counts = sim.counts_from_run(instructions, probe)
    stats = probe.stats()
    assert counts.l1_misses == stats.levels["L1D"].misses
    assert counts.llc_misses == stats.levels["L2"].misses
    assert 1.0 <= counts.mlp <= 64.0


def test_sampling_underestimates_objects():
    """Ablation (paper §III-D): periodic sampling loses objects entirely."""
    def run(sampled):
        captured = {}

        def build_program(rt):
            make_app("cam", refs=4000, iters=3)(rt)

        if sampled:
            # sample 1% in 100-ref windows
            sc = NVScavenger()
            fan_inner = FanoutProbe([])
            # construct manually: SamplingProbe wraps the analyzer fanout
            from repro.scavenger.global_analysis import GlobalAnalyzer
            from repro.scavenger.heap_analysis import HeapAnalyzer

            outer = FanoutProbe([])
            rt = InstrumentedRuntime(outer)
            heap = HeapAnalyzer(rt.space.layout.heap_segment)
            glob = GlobalAnalyzer(rt.space.layout.global_segment)
            inner = FanoutProbe([heap, glob])
            sampler = SamplingProbe(inner, period_refs=2000, sample_refs=20)
            outer.add(sampler)
            build_program(rt)
            rt.finish()
            reads_g, writes_g = glob.stats.totals_per_object()
            reads_h, writes_h = heap.stats.totals_per_object()
            observed = int(((reads_g + writes_g) > 0).sum())
            observed += int(((reads_h + writes_h) > 0).sum())
            registered = len(glob.objects) + len(heap.objects)
            return observed, registered
        res = NVScavenger().analyze(lambda rt: build_program(rt), n_main_iterations=3)
        observed = sum(1 for m in res.object_metrics if m.refs > 0)
        return observed, len(res.object_metrics)

    full_observed, full_total = run(sampled=False)
    sampled_observed, sampled_total = run(sampled=True)
    assert sampled_total == full_total  # allocation events always seen
    assert sampled_observed < full_observed  # access info lost


def test_scaling_invariance_of_ratios():
    """Aggregate r/w ratios are scale-invariant (footprint-only knob)."""
    r_small = NVScavenger().analyze(make_app("s3d", refs=4000, iters=3),
                                    n_main_iterations=3)
    big = make_app("s3d", refs=4000, iters=3)
    big.scale = 1.0 / 64.0
    r_big = NVScavenger().analyze(big, n_main_iterations=3)
    assert r_small.stack_summary.rw_ratio() == pytest.approx(
        r_big.stack_summary.rw_ratio(), rel=0.02
    )


def test_probe_counts_agree_across_consumers(analyzed_apps):
    """Every probe on the fanout sees the identical reference stream."""
    class CountProbe(Probe):
        def __init__(self):
            self.n = 0

        def on_batch(self, b):
            self.n += len(b)

    c1, c2 = CountProbe(), CountProbe()
    rt = InstrumentedRuntime(FanoutProbe([c1, c2]))
    make_app("nek5000", refs=3000, iters=2)(rt)
    rt.finish()
    assert c1.n == c2.n == rt.refs_emitted


def test_cli_analyze_smoke(capsys):
    from repro.cli import main

    rc = main(["analyze", "gtc", "--refs", "2000", "--iterations", "2",
               "--scale", "0.004"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stack" in out
    assert "classification" in out


def test_cli_power_smoke(capsys):
    from repro.cli import main

    rc = main(["power", "s3d", "--refs", "2000", "--iterations", "2",
               "--scale", "0.004"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PCRAM" in out


def test_cli_perf_smoke(capsys):
    from repro.cli import main

    rc = main(["perf", "cam", "--refs", "2000", "--iterations", "2",
               "--scale", "0.004"])
    assert rc == 0
    assert "MLP" in capsys.readouterr().out


def test_cli_experiments_smoke(capsys):
    from repro.cli import main

    rc = main(["experiments", "table5", "--refs", "2000", "--scale", "0.004"])
    assert rc == 0
    assert "Stack data analysis" in capsys.readouterr().out
