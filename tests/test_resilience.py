"""Fault injection, the checkpoint/restart engine, and the hardened runner."""

import math

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ExperimentAbortedError,
    FaultInjectionError,
)
from repro.experiments import ExperimentContext, ExperimentResult
from repro.experiments.runner import experiments_markdown, run_all
from repro.hybrid.checkpoint import NVRAM_LOCAL, PFS_DISK, plan_checkpoints
from repro.resilience import (
    SCENARIOS,
    CheckpointEngine,
    FaultInjector,
    FaultScenario,
    SyntheticTimestepApp,
    get_scenario,
    measure_efficiency,
    register_scenario,
)
from repro.util.units import GiB


class TestFaultInjector:
    def test_crash_times_deterministic(self):
        a = FaultInjector("crashes", seed=42)
        b = FaultInjector("crashes", seed=42)
        times_a = [a.next_crash_time(0.0) for _ in range(10)]
        times_b = [b.next_crash_time(0.0) for _ in range(10)]
        assert times_a == times_b
        assert all(t > 0 for t in times_a)

    def test_different_seeds_differ(self):
        a = FaultInjector("crashes", seed=1)
        b = FaultInjector("crashes", seed=2)
        assert a.next_crash_time(0.0) != b.next_crash_time(0.0)

    def test_no_mtbf_means_no_crashes(self):
        inj = FaultInjector("none", seed=0)
        assert inj.next_crash_time(0.0) == math.inf
        assert not inj.corrupts_checkpoint(1 * GiB)

    def test_scenario_registry(self):
        assert {"none", "crashes", "bitflips", "wearout", "hostile"} <= set(SCENARIOS)
        assert get_scenario("hostile").bitflip_per_gib > 0
        with pytest.raises(FaultInjectionError):
            get_scenario("nope")
        with pytest.raises(FaultInjectionError):
            register_scenario(FaultScenario("crashes", "dup", mtbf_s=1.0))

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultScenario("bad", "x", mtbf_s=0.0)
        with pytest.raises(FaultInjectionError):
            FaultScenario("bad", "x", bitflip_per_gib=-1.0)
        with pytest.raises(FaultInjectionError):
            FaultScenario("bad", "x", endurance_writes=0)
        with pytest.raises(FaultInjectionError):
            FaultInjector(object())  # type: ignore[arg-type]

    def test_flip_random_byte_flips_exactly_one_bit(self):
        inj = FaultInjector("bitflips", seed=0)
        buf = np.zeros(16, np.float64)
        inj.flip_random_byte(buf)
        raw = buf.view(np.uint8)
        assert int(np.unpackbits(raw).sum()) == 1

    def test_wearout_mask(self):
        inj = FaultInjector("wearout", seed=0)
        endurance = SCENARIOS["wearout"].endurance_writes
        counts = np.array([0, endurance - 1, endurance, endurance + 5])
        assert inj.wearout_failed_lines(counts).tolist() == [False, False, True, True]
        none = FaultInjector("none", seed=0)
        assert not none.wearout_failed_lines(counts).any()


class TestCheckpointEngine:
    def test_fault_free_run_measures_pure_overhead(self):
        engine = CheckpointEngine(
            NVRAM_LOCAL, FaultInjector("none", seed=0),
            footprint_bytes=1 * GiB, timestep_s=10.0, interval_s=100.0)
        report = engine.run(SyntheticTimestepApp(1000, seed=0))
        assert report.n_crashes == 0
        delta = NVRAM_LOCAL.checkpoint_seconds(1 * GiB)
        expected = 100.0 / (100.0 + delta)
        assert report.measured_efficiency == pytest.approx(expected, rel=1e-6)

    def test_measured_matches_analytic_within_10pct(self):
        # The acceptance criterion: with crashes injected at a given MTBF,
        # the simulated efficiency validates plan_checkpoints() for both
        # targets within 10% relative error.
        for target in (PFS_DISK, NVRAM_LOCAL):
            report = measure_efficiency(
                target, 1 * GiB, scenario="crashes", seed=0, useful_s=400_000.0)
            analytic = plan_checkpoints(
                1 * GiB, SCENARIOS["crashes"].mtbf_s, target).efficiency
            assert report.analytic_efficiency == pytest.approx(analytic)
            assert report.n_crashes > 5
            assert report.relative_error < 0.10, target.name

    def test_nvram_beats_disk_under_faults(self):
        disk = measure_efficiency(PFS_DISK, 1 * GiB, seed=0, useful_s=400_000.0)
        nv = measure_efficiency(NVRAM_LOCAL, 1 * GiB, seed=1, useful_s=400_000.0)
        assert nv.measured_efficiency > disk.measured_efficiency

    def test_restore_and_replay_is_consistent(self):
        # Two apps executing the same logical steps must end bit-identical,
        # no matter how many crashes/restores interrupted one of them.
        reference = SyntheticTimestepApp(5000, seed=7)
        for step in range(reference.n_steps):
            reference.advance(step)
        engine = CheckpointEngine(
            PFS_DISK, FaultInjector("bitflips", seed=5),
            footprint_bytes=1 * GiB, timestep_s=40.0)
        faulted = SyntheticTimestepApp(5000, seed=7)
        report = engine.run(faulted)
        assert report.n_crashes > 0
        assert faulted.digest() == reference.digest()
        assert report.wall_s > report.useful_s

    def test_corrupt_checkpoints_fall_back_to_older_buffer(self):
        # A ~30%-per-image bit-flip rate corrupts many checkpoints; the
        # CRC check at restore must detect it and fall back (or restart
        # from scratch) — and the run must still finish consistently.
        scenario = FaultScenario(
            "test-heavy-bitflips", "test", mtbf_s=10_000.0, bitflip_per_gib=0.36)
        engine = CheckpointEngine(
            PFS_DISK, FaultInjector(scenario, seed=0),
            footprint_bytes=1 * GiB, timestep_s=40.0)
        app = SyntheticTimestepApp(1000, seed=3)
        report = engine.run(app)
        reference = SyntheticTimestepApp(1000, seed=3)
        for step in range(reference.n_steps):
            reference.advance(step)
        assert report.n_corrupt_injected > 0
        assert report.n_fallback_restores + report.n_scratch_restarts > 0
        assert app.digest() == reference.digest()

    def test_wearout_exhausts_both_buffers(self):
        with pytest.raises(CheckpointError, match="worn out"):
            measure_efficiency(
                NVRAM_LOCAL, 1 * GiB, scenario="hostile", seed=1,
                useful_s=400_000.0)

    def test_no_progress_guard(self):
        # MTBF far below one checkpoint write: the engine must abort with
        # CheckpointError, not loop forever.
        scenario = FaultScenario("test-thrash", "test", mtbf_s=1.0)
        engine = CheckpointEngine(
            PFS_DISK, FaultInjector(scenario, seed=0),
            footprint_bytes=1 * GiB, timestep_s=40.0, interval_s=40.0,
            max_crashes=200)
        with pytest.raises(CheckpointError, match="forward progress"):
            engine.run(SyntheticTimestepApp(1000, seed=0))

    def test_interval_required_without_mtbf(self):
        with pytest.raises(CheckpointError):
            CheckpointEngine(
                NVRAM_LOCAL, FaultInjector("none", seed=0),
                footprint_bytes=1 * GiB, timestep_s=1.0)

    def test_validates_configuration(self):
        inj = FaultInjector("crashes", seed=0)
        with pytest.raises(ConfigurationError):
            CheckpointEngine(NVRAM_LOCAL, inj, footprint_bytes=0, timestep_s=1.0)
        with pytest.raises(ConfigurationError):
            CheckpointEngine(NVRAM_LOCAL, inj, footprint_bytes=1, timestep_s=0.0)
        with pytest.raises(ConfigurationError):
            SyntheticTimestepApp(0)


def _ok_experiment(exp_id):
    def run(ctx):
        return ExperimentResult(exp_id, "ok", "fine", [{"v": ctx.seed}])
    return run


def _failing_experiment(ctx):
    raise RuntimeError("injected mid-suite failure")


class TestHardenedRunner:
    def test_failure_is_isolated_and_rendered(self):
        ctx = ExperimentContext()
        experiments = {
            "a": _ok_experiment("a"),
            "boom": _failing_experiment,
            "b": _ok_experiment("b"),
        }
        results = run_all(ctx, experiments=experiments, retries=1)
        assert len(results) == 3
        ok = [r for r in results if isinstance(r, ExperimentResult)]
        assert [r.exp_id for r in ok] == ["a", "b"]
        failure = results[1]
        assert failure.exp_id == "boom"
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2  # original + one reseeded retry
        md = experiments_markdown(results, ctx)
        assert "## boom: FAILED" in md
        assert "injected mid-suite failure" in md
        assert "## a: ok" in md and "## b: ok" in md

    def test_retry_reseeds_deterministically(self):
        ctx = ExperimentContext(seed=0)
        seen = []

        def flaky(actx):
            seen.append(actx.seed)
            if actx.seed == 0:
                raise RuntimeError("bad seed")
            return ExperimentResult("flaky", "ok", "recovered", [])

        (result,) = run_all(ctx, experiments={"flaky": flaky}, retries=1)
        assert isinstance(result, ExperimentResult)
        assert seen == [0, 1000]  # seed + attempt * reseed_stride

    def test_strict_raises_experiment_aborted(self):
        ctx = ExperimentContext()
        with pytest.raises(ExperimentAbortedError):
            run_all(ctx, experiments={"boom": _failing_experiment},
                    retries=0, strict=True)

    def test_budget_degrades_refs(self):
        import time

        ctx = ExperimentContext(refs_per_iteration=8000, seed=0)

        def slow_at_full_fidelity(actx):
            if actx.refs_per_iteration >= 8000:
                time.sleep(0.05)
            return ExperimentResult(
                "slow", "ok", "done", [{"refs": actx.refs_per_iteration}])

        (result,) = run_all(
            ctx, experiments={"slow": slow_at_full_fidelity},
            retries=0, budget_s=0.01)
        assert isinstance(result, ExperimentResult)
        assert result.rows[0]["refs"] == 2000  # 8000 / degrade_factor
        assert any("budget" in note for note in result.notes)

    def test_within_budget_untouched(self):
        ctx = ExperimentContext()
        (result,) = run_all(
            ctx, experiments={"a": _ok_experiment("a")}, budget_s=30.0)
        assert result.notes == []


class TestResilienceExperiment:
    def test_agreement_and_paper_claim(self, _resilience_result):
        res = _resilience_result
        assert res.exp_id == "resilience"
        assert len(res.rows) == 4
        for row in res.rows:
            # acceptance: measured vs analytic within 10% for both targets
            assert row["disk_rel_error"] < 0.10
            assert row["nvram_rel_error"] < 0.10
            # the paper's resiliency claim survives measurement
            assert row["nvram_measured"] > row["disk_measured"]
            assert row["disk_crashes"] > 10

    def test_registered_and_in_markdown(self, _resilience_result):
        from repro.experiments.runner import EXPERIMENTS

        assert "resilience" in EXPERIMENTS
        ctx = ExperimentContext()
        md = experiments_markdown([_resilience_result], ctx)
        assert "## resilience:" in md

    def test_reads_footprints_without_replaying(self, tmp_path):
        # Only each app's paper-scale footprint is needed, and that comes
        # from the run spec: neither experiment records nor replays.
        from repro.experiments import extensions, resilience_ext

        knobs = dict(refs_per_iteration=2_000, scale=1.0 / 256.0, n_iterations=3,
                     cache_dir=str(tmp_path / "cache"))
        ExperimentContext(**knobs).prefetch()  # a warm cache
        ctx = ExperimentContext(**knobs)
        resilience_ext.run(ctx)
        extensions.run_checkpoint(ctx)
        assert ctx.engine.stats.app_runs == 0
        assert ctx.engine.stats.replays == 0

    def test_suite_graph_starts_it_without_records(self):
        from repro.experiments.runner import EXPERIMENTS
        from repro.sched import build_suite_graph

        graph = build_suite_graph(ExperimentContext(), EXPERIMENTS)
        assert graph.tasks["exp:resilience"].deps == ()


@pytest.fixture(scope="module")
def _resilience_result():
    from repro.experiments import run_experiment

    ctx = ExperimentContext(refs_per_iteration=5_000, scale=1.0 / 256.0)
    return run_experiment("resilience", ctx)
