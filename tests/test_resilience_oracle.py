"""Differential tests: the windowed checkpoint engine vs the scalar loop.

:meth:`repro.resilience.engine.CheckpointEngine.run` must give the same
:class:`~repro.resilience.engine.EngineReport` — every field, compared
exactly — as :class:`repro.resilience.reference.ReferenceCheckpointEngine`,
the original per-step loop, leave the app in the same final state, and
raise the same :class:`~repro.errors.CheckpointError` (type and message)
when a run cannot finish. Equality, not a tolerance, is the contract:
every simulated time is produced by the same float additions in the same
order, and every fault draw comes from the injector's stream in the same
order.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import CheckpointError
from repro.experiments import resilience_ext
from repro.experiments.common import APP_ORDER, ExperimentContext
from repro.hybrid.checkpoint import NVRAM_LOCAL, PFS_DISK, CheckpointTarget
from repro.resilience import engine as engine_mod
from repro.resilience.engine import CheckpointEngine, SyntheticTimestepApp
from repro.resilience.faults import SCENARIOS, FaultInjector, FaultScenario
from repro.resilience.reference import ReferenceCheckpointEngine
from repro.util.units import GiB, MiB

#: between PFS-disk and node-local NVRAM on both bandwidth and latency
BURST_BUFFER = CheckpointTarget(name="burst-buffer", bandwidth_gbs=0.5, latency_s=0.5)
TARGETS = (PFS_DISK, NVRAM_LOCAL, BURST_BUFFER)
INTERVALS = (None, 40.0, 123.0)

#: scenario name -> (scenario, max_crashes): the registered ones plus
#: three that stress one mechanism each
GRID_SCENARIOS = {
    **{name: (SCENARIOS[name], 100_000)
       for name in ("none", "crashes", "bitflips", "wearout", "hostile")},
    "heavy-bitflips": (FaultScenario(
        "heavy-bitflips", "~30% of 1 GiB images corrupted",
        mtbf_s=1e4, bitflip_per_gib=0.36), 100_000),
    "thrash": (FaultScenario(
        "thrash", "MTBF far below one disk checkpoint", mtbf_s=1.0), 200),
    "low-endurance": (FaultScenario(
        "low-endurance", "buffers wear out within a run",
        mtbf_s=6 * 3600.0, endurance_writes=50), 100_000),
}
FOOTPRINTS = (218 * MiB, 1 * GiB)
SEEDS = range(7)


def outcome(engine_cls, target, scenario, *, seed, footprint, timestep_s,
            interval_s, n_steps, max_crashes=100_000):
    """Run one configuration; what it reports (or raises), plus the
    app's final state digest either way."""
    engine = engine_cls(
        target, FaultInjector(scenario, seed=seed), footprint_bytes=footprint,
        timestep_s=timestep_s, interval_s=interval_s, max_crashes=max_crashes)
    app = SyntheticTimestepApp(n_steps, seed=seed)
    try:
        report = engine.run(app)
    except CheckpointError as exc:
        return ("error", type(exc), str(exc), app.digest())
    return ("report", dataclasses.asdict(report), app.digest())


def assert_engines_agree(target, scenario, **config):
    new = outcome(CheckpointEngine, target, scenario, **config)
    ref = outcome(ReferenceCheckpointEngine, target, scenario, **config)
    assert new == ref, (target.name, scenario, config)
    return new


GRID = [
    pytest.param(name, target, interval, id=f"{name}-{target.name}-{interval}")
    for name in GRID_SCENARIOS
    for target in TARGETS
    for interval in INTERVALS
    # no MTBF and no interval: the engine refuses to be built at all
    if not (GRID_SCENARIOS[name][0].mtbf_s is None and interval is None)
]


@pytest.mark.parametrize("name, target, interval", GRID)
def test_grid_matches_reference(name, target, interval):
    scenario, max_crashes = GRID_SCENARIOS[name]
    for footprint in FOOTPRINTS:
        for seed in SEEDS:
            assert_engines_agree(
                target, scenario, seed=seed, footprint=footprint,
                timestep_s=40.0, interval_s=interval, n_steps=1000,
                max_crashes=max_crashes)


def test_grid_covers_every_outcome():
    # the grid reaches the paths the windowed engine treats specially
    seen = []
    for name in ("hostile", "heavy-bitflips", "thrash", "low-endurance"):
        scenario, max_crashes = GRID_SCENARIOS[name]
        for target in TARGETS:
            seen.append(assert_engines_agree(
                target, scenario, seed=0, footprint=1 * GiB, timestep_s=40.0,
                interval_s=None, n_steps=1000, max_crashes=max_crashes))
    reports = [o[1] for o in seen if o[0] == "report"]
    errors = [o[2] for o in seen if o[0] == "error"]
    assert any(r["n_fallback_restores"] for r in reports)
    assert any(r["n_scratch_restarts"] for r in reports)
    assert any(r["n_corrupt_injected"] for r in reports)
    assert any("forward progress" in e for e in errors)
    assert any("worn out" in e for e in errors)


def test_stale_slot_after_fallback():
    # After a fallback restore the other buffer keeps a stale, higher
    # step, so the next writes go to the restored buffer again instead
    # of alternating. An engine that assumes alternation reports 2
    # fallback restores here instead of 3.
    _, report, _ = assert_engines_agree(
        PFS_DISK, SCENARIOS["hostile"], seed=0, footprint=824 * MiB,
        timestep_s=40.0, interval_s=123.0, n_steps=1000)
    assert report["n_fallback_restores"] == 3


@pytest.mark.parametrize("entries", [1, 7, 64])
def test_window_size_does_not_matter(monkeypatch, entries):
    # Capping every window at a period or a few splits each fault-free
    # segment into many windows; nothing observable may change.
    monkeypatch.setattr(engine_mod, "_WINDOW_ENTRIES", entries)
    for name in ("hostile", "heavy-bitflips", "none"):
        scenario, max_crashes = GRID_SCENARIOS[name]
        for target in TARGETS:
            for seed in range(3):
                assert_engines_agree(
                    target, scenario, seed=seed, footprint=1 * GiB,
                    timestep_s=40.0, interval_s=123.0, n_steps=700,
                    max_crashes=max_crashes)


@pytest.mark.parametrize("app", APP_ORDER)
@pytest.mark.parametrize("target, seed", [(PFS_DISK, 0), (NVRAM_LOCAL, 1)],
                         ids=["PFS-disk", "NVRAM"])
def test_resilience_experiment_runs_match(app, target, seed):
    # the eight full-size runs of the ``resilience`` experiment at seed 0
    spec = ExperimentContext().spec_for(app)
    scenario = FaultScenario(
        "exascale-crashes", "2 h MTBF node crashes", mtbf_s=resilience_ext._MTBF_S)
    kind, report, _ = assert_engines_agree(
        target, scenario, seed=seed,
        footprint=int(spec.instantiate().info.paper_footprint_mb * MiB),
        timestep_s=resilience_ext._TIMESTEP_S, interval_s=None,
        n_steps=int(resilience_ext._USEFUL_S / resilience_ext._TIMESTEP_S))
    assert kind == "report" and report["n_crashes"] > 100


@settings(max_examples=200, deadline=None)
@given(
    mtbf=st.one_of(st.none(), st.floats(1.0, 1e5)),
    bitflip=st.sampled_from([0.0, 0.05, 0.36, 2.0]),
    endurance=st.one_of(st.none(), st.integers(1, 3000)),
    interval=st.one_of(st.none(), st.floats(1.0, 2000.0)),
    timestep=st.floats(0.5, 200.0),
    n_steps=st.integers(1, 600),
    seed=st.integers(0, 2**16),
    target=st.sampled_from(TARGETS),
    footprint=st.sampled_from([1 * MiB, 824 * MiB, 4 * GiB]),
)
def test_generated_configurations_match(mtbf, bitflip, endurance, interval,
                                        timestep, n_steps, seed, target,
                                        footprint):
    if mtbf is None and interval is None:
        interval = timestep
    scenario = FaultScenario("generated", "hypothesis", mtbf_s=mtbf,
                             bitflip_per_gib=bitflip, endurance_writes=endurance)
    assert_engines_agree(
        target, scenario, seed=seed, footprint=footprint, timestep_s=timestep,
        interval_s=interval, n_steps=n_steps, max_crashes=300)


def test_package_import_leaves_the_oracle_out():
    # Every process, the serve daemon included, imports the package; the
    # oracle is for tests only and must not add to that start-up.
    code = ("import sys, repro, repro.resilience; "
            "print('repro.resilience.reference' in sys.modules)")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
