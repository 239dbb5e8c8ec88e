"""Hybrid DRAM + NVRAM main memory (paper §II's horizontal organization).

The paper's analysis exists to drive data placement in a side-by-side
DRAM/NVRAM system. This package turns NV-SCAVENGER classifications into
object placements (static) and accounts the resulting memory energy. The
Ramos-style dynamic page migration it is compared against is the
``ramos`` policy of :mod:`repro.policies`, priced on the same cost model
as every other placement policy.
"""

from repro.hybrid.pagemap import PageMap, MemoryPool
from repro.hybrid.placement import StaticPlacer, PlacementPlan
from repro.hybrid.energy import HybridEnergyModel, EnergyReport
from repro.hybrid.dramcache import DRAMCacheModel, HorizontalModel, HierarchicalResult, HorizontalResult
from repro.hybrid.checkpoint import (
    CheckpointTarget,
    CheckpointPlan,
    PFS_DISK,
    NVRAM_LOCAL,
    plan_checkpoints,
    compare_targets,
)

__all__ = [
    "PageMap",
    "MemoryPool",
    "StaticPlacer",
    "PlacementPlan",
    "HybridEnergyModel",
    "EnergyReport",
    "DRAMCacheModel",
    "HorizontalModel",
    "HierarchicalResult",
    "HorizontalResult",
    "CheckpointTarget",
    "CheckpointPlan",
    "PFS_DISK",
    "NVRAM_LOCAL",
    "plan_checkpoints",
    "compare_targets",
]
