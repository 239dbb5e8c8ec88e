"""Fault injection and checkpoint/restart resilience (paper intro's
resiliency motivation, made executable).

* :mod:`repro.resilience.faults` — seeded, deterministic fault model:
  node crashes (exponential MTBF), NVRAM bit flips, wear-out from
  per-line write counts; named scenarios in :data:`SCENARIOS`.
* :mod:`repro.resilience.engine` — discrete-event checkpoint/restart
  simulator that *measures* the efficiency the Young/Daly planner in
  :mod:`repro.hybrid.checkpoint` *predicts*; its original per-step loop
  is the test oracle in :mod:`repro.resilience.reference` (imported by
  tests only, not re-exported here).
* :mod:`repro.resilience.harness` — hardened experiment execution
  (isolation, deterministic retry-with-reseed, wall-clock budgets) used
  by :func:`repro.experiments.run_all`.
"""

from repro.resilience.faults import (
    SCENARIOS,
    FaultInjector,
    FaultScenario,
    get_scenario,
    register_scenario,
)
from repro.resilience.engine import (
    CheckpointEngine,
    EngineReport,
    SyntheticTimestepApp,
    measure_efficiency,
)
from repro.resilience.harness import (
    ExperimentBudget,
    ExperimentFailure,
    HardenedRunner,
    RetryPolicy,
)

__all__ = [
    "SCENARIOS",
    "FaultInjector",
    "FaultScenario",
    "get_scenario",
    "register_scenario",
    "CheckpointEngine",
    "EngineReport",
    "SyntheticTimestepApp",
    "measure_efficiency",
    "ExperimentBudget",
    "ExperimentFailure",
    "HardenedRunner",
    "RetryPolicy",
]
