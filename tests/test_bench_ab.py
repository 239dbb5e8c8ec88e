"""The A/B driver's verdicts (``tools/bench_ab.py``), on hand-made
perfbench results: ok, OVER BOUND, unresolved, gain, and wins counted
against every pair run."""

from __future__ import annotations

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "bench_ab", os.path.join(os.path.dirname(HERE), "tools", "bench_ab.py"))
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.10}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.10}


def run(**metrics) -> dict:
    return {"correct": True, "failed": 0,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


def pairs_of(metric: str, base: list[float], change: list[float]):
    return [(run(**{metric: b}), run(**{metric: c}))
            for b, c in zip(base, change)]


def test_within_bound_is_ok_without_gain():
    pairs = pairs_of("wall_s", [1.00, 1.02, 0.98, 1.01], [1.05, 1.03, 1.04, 1.06])
    row = bench_ab.compare(pairs, WALL)
    assert row["verdict"] == "ok"
    assert row["wins"] == 0 and row["pairs"] == 4
    assert not row["gain"]


def test_median_worse_than_bound_is_over_bound():
    pairs = pairs_of("peak_rss_mb", [60.0, 61.0, 60.5], [68.0, 67.5, 68.2])
    row = bench_ab.compare(pairs, RSS)
    assert row["verdict"] == "OVER BOUND"
    assert row["rel"] == pytest.approx(68.0 / 60.5 - 1)


def test_higher_is_better_metric_reads_a_fall_as_worse():
    pairs = pairs_of("ops_per_s", [100.0, 101.0, 99.0], [80.0, 81.0, 79.0])
    assert bench_ab.compare(pairs, HIGHER)["verdict"] == "OVER BOUND"
    pairs = pairs_of("ops_per_s", [100.0, 101.0, 99.0], [120.0, 121.0, 119.0])
    row = bench_ab.compare(pairs, HIGHER)
    assert row["verdict"] == "ok" and row["wins"] == 3


def test_spread_wider_than_bound_is_unresolved():
    # base quartiles span ~14% of its median against a 10% bound
    pairs = pairs_of("peak_rss_mb", [50.0, 60.0, 55.0, 58.0, 52.0],
                     [55.0, 54.0, 56.0, 55.5, 54.5])
    assert bench_ab.compare(pairs, RSS)["verdict"] == "unresolved"
    # the change's own spread counts too
    pairs = pairs_of("peak_rss_mb", [55.0, 55.1, 55.2, 55.0, 55.1],
                     [50.0, 60.0, 55.0, 58.0, 52.0])
    assert bench_ab.compare(pairs, RSS)["verdict"] == "unresolved"


def test_wide_spread_is_ok_when_every_change_run_beats_every_base_run():
    pairs = pairs_of("peak_rss_mb", [70.0, 80.0, 75.0, 78.0, 72.0],
                     [50.0, 60.0, 55.0, 58.0, 52.0])
    assert bench_ab.compare(pairs, RSS)["verdict"] == "ok"


def test_gain_needs_ten_pairs_nine_wins_and_a_gap_over_the_base_iqr():
    base = [3.30, 3.35, 3.32, 3.38, 3.31, 3.36, 3.34, 3.33, 3.37, 3.29]
    change = [1.66, 1.65, 1.67, 1.64, 1.66, 1.65, 1.68, 1.66, 1.64, 1.67]
    row = bench_ab.compare(pairs_of("wall_s", base, change), WALL)
    assert row["verdict"] == "ok" and row["wins"] == 10 and row["gain"]
    # nine pairs are too few, however clear
    assert not bench_ab.compare(pairs_of("wall_s", base[:9], change[:9]),
                                WALL)["gain"]
    # 8 wins in 10 is not enough
    lost = change[:8] + [3.40, 3.40]
    assert not bench_ab.compare(pairs_of("wall_s", base, lost), WALL)["gain"]
    # a median gap inside the base's spread is not a gain
    noisy = [1.0, 2.0, 1.5, 1.8, 1.2, 1.9, 1.1, 1.7, 1.3, 1.6]
    close = [b - 0.05 for b in noisy]
    row = bench_ab.compare(pairs_of("wall_s", noisy, close), WALL)
    assert row["wins"] == 10 and not row["gain"]


def test_wins_are_counted_against_every_pair_run():
    base = [3.30, 3.35, 3.32, 3.38, 3.31, 3.36, 3.34, 3.33, 3.37, 3.29]
    change = [1.66] * 10
    pairs = pairs_of("wall_s", base, change)
    # one failed change run: 9 wins in 10 pairs still counts
    pairs[3] = (pairs[3][0], bench_ab.failed_run("boom"))
    row = bench_ab.compare(pairs, WALL)
    assert row["wins"] == 9 and row["pairs"] == 10 and row["gain"]
    # a second failed run leaves 8 wins in 10, not 8 in 8
    pairs[6] = (bench_ab.failed_run("boom"), pairs[6][1])
    row = bench_ab.compare(pairs, WALL)
    assert row["wins"] == 8 and row["pairs"] == 10 and not row["gain"]


def test_metric_missing_on_one_side_has_no_verdict():
    pairs = [(run(wall_s=1.0), bench_ab.failed_run("boom"))]
    assert bench_ab.compare(pairs, WALL)["verdict"] == "no values"


def test_change_tree_reads_the_digests_the_base_learned(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    bench_ab.share_digests(str(base), str(change))
    learned = base / ".perfbench_state" / "suite-baseline-seed1.json"
    learned.write_text('{"exp:table1": "abc"}')
    assert (change / ".perfbench_state" / learned.name).read_text() == \
        learned.read_text()
