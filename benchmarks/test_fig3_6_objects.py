"""Bench: Figures 3-6 — per-object metrics for global and heap data."""

from repro.experiments.fig3_6 import run_one
from repro.scavenger.metrics import high_rw_bytes, read_only_bytes
from repro.util.units import MiB


def test_fig3_nek5000(benchmark, ctx):
    res = benchmark.pedantic(run_one, args=(ctx, "nek5000"), rounds=3, iterations=1)
    run = ctx.run("nek5000")
    rows = run.result.object_metrics
    fp = sum(m.size for m in rows)
    assert abs(read_only_bytes(rows) / fp - 0.071) < 0.02
    # the paper's 38.6 MB of r/w>50 data, at paper scale
    rw50_mb = high_rw_bytes(rows) / ctx.scale / MiB
    assert abs(rw50_mb - 38.6) < 10.0
    print()
    print(res)


def test_fig4_cam(benchmark, ctx):
    res = benchmark.pedantic(run_one, args=(ctx, "cam"), rounds=3, iterations=1)
    rows = ctx.run("cam").result.object_metrics
    fp = sum(m.size for m in rows)
    assert abs(read_only_bytes(rows) / fp - 0.155) < 0.03
    rw50_mb = high_rw_bytes(rows) / ctx.scale / MiB
    assert abs(rw50_mb - 4.8) < 3.0
    print()
    print(res)


def test_fig5_gtc(benchmark, ctx):
    res = benchmark.pedantic(run_one, args=(ctx, "gtc"), rounds=3, iterations=1)
    rows = [m for m in ctx.run("gtc").result.object_metrics if m.refs > 0]
    # GTC: the write-heavy outlier — a large share of objects at r/w <= ~1.3
    low = sum(1 for m in rows if not m.read_only and m.rw_ratio <= 1.3)
    assert low / len(rows) > 0.4
    print()
    print(res)


def test_fig6_s3d(benchmark, ctx):
    res = benchmark.pedantic(run_one, args=(ctx, "s3d"), rounds=3, iterations=1)
    rows = [m for m in ctx.run("s3d").result.object_metrics if m.refs > 0]
    # most S3D objects have more reads than writes (r/w > 1)
    gt1 = sum(1 for m in rows if m.read_only or m.rw_ratio > 1)
    assert gt1 / len(rows) > 0.6
    print()
    print(res)
