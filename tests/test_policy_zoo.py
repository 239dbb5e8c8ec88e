"""The policy_zoo sweep: grid shape, caching, parallel/queue identity, CLI.

The sweep's contract is trace-once/replay-many taken one level further:
each workload trace is one content-addressed recording, each cell is a
pure function of it, so a second run replays everything and a parallel
or queue-transport run is bit-identical to the sequential one.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cli import main as cli_main
from repro.experiments import policy_zoo
from repro.experiments.common import ExperimentContext, ExperimentResult
from repro.experiments.runner import EXPERIMENTS, run_all

# full 10-iteration runs: the threshold-vs-baseline margin the
# acceptance tests assert needs enough per-epoch traffic to cross the
# promotion thresholds
FAST = dict(refs_per_iteration=6_000, scale=1.0 / 256.0, n_iterations=10)

N_CELLS = (len(policy_zoo.POLICY_GRID) * len(policy_zoo.WORKLOADS)
           * len(policy_zoo.DEVICES) * len(policy_zoo.BUDGET_FACTORS))

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel suite tests exercise the fork start method",
)


def make_ctx(path, **kw):
    return ExperimentContext(cache_dir=str(path / "cache"), apps=(),
                             **{**FAST, **kw})


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One sequential sweep plus its context, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("zoo")
    ctx = make_ctx(root)
    return policy_zoo.run(ctx), ctx, root


class TestSweep:
    def test_registered(self):
        assert EXPERIMENTS["policy_zoo"] is policy_zoo.run

    def test_full_grid(self, sweep):
        res, _, _ = sweep
        assert isinstance(res, ExperimentResult)
        assert len(res.rows) == N_CELLS
        combos = {(r["workload"], r["policy"], r["device"], r["budget_factor"])
                  for r in res.rows}
        assert len(combos) == N_CELLS

    def test_cells_are_content_addressed(self, sweep):
        res, _, _ = sweep
        keys = {r["cell"] for r in res.rows}
        assert len(keys) == N_CELLS
        assert all(len(k) == 64 for k in keys)

    def test_three_recordings_only(self, sweep):
        _, ctx, _ = sweep
        assert ctx.engine.stats.app_runs == len(policy_zoo.ARTIFACTS)

    def test_acceptance_margins(self, sweep):
        res, _, _ = sweep
        tight = {(r["workload"], r["policy"]): r for r in res.rows
                 if r["device"] == "PCRAM" and r["budget_factor"] == 2.0}
        assert (tight[("kvcache", "threshold")]["nvm_write_traffic"]
                < tight[("kvcache", "no_migration")]["nvm_write_traffic"])
        for w in policy_zoo.WORKLOADS:
            assert tight[(w, "endurance_aware")]["endurance_headroom"] >= 0.0

    def test_warm_cache_replays_everything(self, sweep):
        _, _, root = sweep
        warm = make_ctx(root)
        res = policy_zoo.run(warm)
        assert len(res.rows) == N_CELLS
        assert warm.engine.stats.app_runs == 0
        assert warm.engine.stats.cache_hits >= len(policy_zoo.ARTIFACTS)

    def test_warm_rows_bit_identical(self, sweep):
        cold, _, root = sweep
        res = policy_zoo.run(make_ctx(root))
        assert res.rows == cold.rows
        assert res.text == cold.text


@needs_fork
class TestParallelIdentity:
    def test_jobs2_bit_identical(self, sweep, tmp_path):
        cold, _, _ = sweep
        ctx = make_ctx(tmp_path)
        results = run_all(ctx, experiments={"policy_zoo": policy_zoo.run},
                          jobs=2)
        (res,) = results
        assert isinstance(res, ExperimentResult)
        assert res.rows == cold.rows
        assert res.text == cold.text

    def test_queue_transport_bit_identical(self, sweep, tmp_path):
        cold, _, _ = sweep
        ctx = make_ctx(tmp_path)
        results = run_all(ctx, experiments={"policy_zoo": policy_zoo.run},
                          jobs=2)
        (res,) = results
        assert isinstance(res, ExperimentResult)
        assert res.rows == cold.rows


class TestCLI:
    def test_policies_ls(self, capsys):
        assert cli_main(["policies", "ls"]) == 0
        out = capsys.readouterr().out
        for name in ("no_migration", "static_oracle", "threshold",
                     "predictive", "endurance_aware"):
            assert name in out

    def test_sweep_runs_and_reuses_cache(self, tmp_path, capsys):
        argv = ["policies", "sweep", "--refs", "2000", "--scale",
                str(1.0 / 256.0), "--iterations", "3",
                "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        assert "60 cells" in cold
        assert cli_main(argv) == 0
        warm = capsys.readouterr().out
        assert "app runs: 0" in warm
        # the sweep table itself is identical run-to-run
        assert cold.split("app runs:")[0] == warm.split("app runs:")[0]

    @pytest.mark.parametrize("argv", [
        ["policies", "sweep", "--refs", "0"],
        ["policies", "sweep", "--scale", "-1"],
        ["policies", "sweep", "--jobs", "-2"],
    ])
    def test_bad_flags_exit_2(self, argv, capsys):
        assert cli_main(argv) == 2
        assert "error" in capsys.readouterr().err
