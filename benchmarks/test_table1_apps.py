"""Bench: Table I — application characteristics."""

from repro.experiments import run_experiment


def test_table1(benchmark, ctx):
    res = benchmark.pedantic(
        run_experiment, args=("table1", ctx), rounds=3, iterations=1
    )
    assert len(res.rows) == 4
    for row in res.rows:
        ratio = row["measured_footprint_mb"] / (row["paper_footprint_mb"] * ctx.scale)
        assert 0.8 < ratio < 1.3, row["application"]
    print()
    print(res)


def test_config_tables(benchmark, ctx):
    res = benchmark.pedantic(
        run_experiment, args=("config", ctx), rounds=3, iterations=1
    )
    assert "Table II" in res.text and "Table IV" in res.text
    print()
    print(res)
