"""NV-SCAVENGER: the paper's core contribution.

Statistically reports NVRAM-related access patterns per *memory object*
(stack frame / heap allocation / global symbol), per main-loop iteration:
read/write ratios, memory reference rates, object sizes, cross-iteration
variance, and cumulative memory-usage distributions — then classifies each
object's NVRAM friendliness for a horizontal hybrid DRAM+NVRAM system.
"""

from repro.scavenger.config import ScavengerConfig
from repro.scavenger.object_stats import ObjectStatsTable
from repro.scavenger.buckets import SortedRangeIndex, BucketIndex, LinearScanIndex
from repro.scavenger.lru import LRUObjectCache
from repro.scavenger.stackfast import FastStackAnalyzer
from repro.scavenger.stackslow import SlowStackAnalyzer
from repro.scavenger.heap_analysis import HeapAnalyzer
from repro.scavenger.global_analysis import GlobalAnalyzer
from repro.scavenger.metrics import ObjectMetrics, compute_object_metrics
from repro.scavenger.variance import VarianceAnalysis, compute_variance
from repro.scavenger.usage import UsageAnalysis, compute_usage
from repro.scavenger.classify import Placement, NVRAMClass, classify_objects
from repro.scavenger.locality import LocalityAnalyzer, LocalityScores
from repro.scavenger.compare import (
    compare_results,
    ComparisonReport,
    ObjectDelta,
    normalize_object_name,
)
from repro.scavenger.scavenger import (
    NVScavenger,
    ScavengerReplaySession,
    ScavengerResult,
)

__all__ = [
    "ScavengerConfig",
    "ObjectStatsTable",
    "SortedRangeIndex",
    "BucketIndex",
    "LinearScanIndex",
    "LRUObjectCache",
    "FastStackAnalyzer",
    "SlowStackAnalyzer",
    "HeapAnalyzer",
    "GlobalAnalyzer",
    "ObjectMetrics",
    "compute_object_metrics",
    "VarianceAnalysis",
    "compute_variance",
    "UsageAnalysis",
    "compute_usage",
    "Placement",
    "NVRAMClass",
    "classify_objects",
    "NVScavenger",
    "ScavengerReplaySession",
    "ScavengerResult",
    "LocalityAnalyzer",
    "LocalityScores",
    "compare_results",
    "ComparisonReport",
    "ObjectDelta",
    "normalize_object_name",
]
