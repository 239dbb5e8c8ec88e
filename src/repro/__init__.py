"""repro — a full reproduction of *Identifying Opportunities for
Byte-Addressable Non-Volatile Memory in Extreme-Scale Scientific
Applications* (Li, Vetter, Marin, McCurdy, Cira, Liu, Yu — IPDPS 2012).

The package implements NV-SCAVENGER (per-memory-object access-pattern
analysis over stack, heap and global data), the cache-hierarchy filter, a
DRAMSim2-style memory power simulator, a PTLsim-style latency-sensitivity
model, NVRAM technology/endurance models, a hybrid DRAM+NVRAM placement
engine, and scaled model versions of the paper's four applications
(Nek5000, CAM, GTC, S3D).

Quickstart
----------
>>> from repro import NVScavenger, create_app
>>> result = NVScavenger().analyze(create_app("cam"))
>>> round(result.stack_summary.reference_percentage, 2)
0.76
"""

from repro.version import __version__
from repro.errors import ReproError
from repro.instrument import InstrumentedRuntime, Probe, FanoutProbe
from repro.scavenger import NVScavenger, ScavengerResult, ScavengerConfig
from repro.cachesim import CacheHierarchy, MemoryTraceProbe, TABLE2_CONFIG
from repro.nvram import (
    DRAM_DDR3,
    PCRAM,
    STTRAM,
    MRAM,
    MemoryTechnology,
    NVRAMCategory,
    technology,
)
from repro.powersim import MemorySystem, simulate_power, normalized_power
from repro.perfsim import PerformanceSimulator, IntervalCoreModel
from repro.hybrid import StaticPlacer, HybridEnergyModel
from repro.resilience import (
    CheckpointEngine,
    FaultInjector,
    FaultScenario,
    HardenedRunner,
    measure_efficiency,
)
from repro.apps import create_app, APPLICATIONS
from repro.experiments import run_experiment, run_all

__all__ = [
    "__version__",
    "ReproError",
    "InstrumentedRuntime",
    "Probe",
    "FanoutProbe",
    "NVScavenger",
    "ScavengerResult",
    "ScavengerConfig",
    "CacheHierarchy",
    "MemoryTraceProbe",
    "TABLE2_CONFIG",
    "DRAM_DDR3",
    "PCRAM",
    "STTRAM",
    "MRAM",
    "MemoryTechnology",
    "NVRAMCategory",
    "technology",
    "MemorySystem",
    "simulate_power",
    "normalized_power",
    "PerformanceSimulator",
    "IntervalCoreModel",
    "StaticPlacer",
    "HybridEnergyModel",
    "CheckpointEngine",
    "FaultInjector",
    "FaultScenario",
    "HardenedRunner",
    "measure_efficiency",
    "create_app",
    "APPLICATIONS",
    "run_experiment",
    "run_all",
]
