"""Configurable cache-hierarchy simulator (paper §III, Table II).

Filters the raw reference stream into a *main-memory trace*: the accesses
that reach memory are last-level-cache fills (reads) and dirty evictions /
writebacks (writes). The filtered trace feeds the power simulator, and its
statistics (miss rates, memory-level parallelism) feed the performance
model.
"""

from repro.cachesim.config import CacheLevelConfig, CacheHierarchyConfig, TABLE2_CONFIG
from repro.cachesim.cache import SetAssociativeCache, AccessResult
from repro.cachesim.hierarchy import (
    FILTER_VERSION,
    ArraySetCache,
    CacheHierarchy,
    HierarchyStats,
)
from repro.cachesim.reference import ReferenceCacheHierarchy, reference_impl
from repro.cachesim.filtered import FilteredTrace, MemoryTraceProbe
from repro.cachesim.sampled import SetSampledHierarchy, SampledStats

__all__ = [
    "CacheLevelConfig",
    "CacheHierarchyConfig",
    "TABLE2_CONFIG",
    "SetAssociativeCache",
    "AccessResult",
    "ArraySetCache",
    "CacheHierarchy",
    "FILTER_VERSION",
    "FilteredTrace",
    "HierarchyStats",
    "ReferenceCacheHierarchy",
    "reference_impl",
    "MemoryTraceProbe",
    "SetSampledHierarchy",
    "SampledStats",
]
