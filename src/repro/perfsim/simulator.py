"""Latency-sweep driver: Figure 12.

Runs one instrumented iteration of an application (the paper simulates a
single time step of one task "to save simulation time"), extracts workload
counts through the cache hierarchy, and sweeps the Table IV latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cachesim.config import CacheHierarchyConfig, TABLE2_CONFIG
from repro.cachesim.filtered import FilteredTrace, MemoryTraceProbe
from repro.nvram.technology import MemoryTechnology
from repro.perfsim.config import CoreConfig, TABLE3_CORE
from repro.perfsim.core import IntervalCoreModel, WorkloadCounts, estimate_mlp


@dataclass
class LatencySweepResult:
    """Figure 12 for one application."""

    app_name: str
    counts: WorkloadCounts
    #: technology name -> (latency_ns, relative runtime vs DRAM)
    points: dict[str, tuple[float, float]] = field(default_factory=dict)

    def slowdown(self, tech_name: str) -> float:
        return self.points[tech_name][1]

    def performance_loss(self, tech_name: str) -> float:
        """Fractional runtime increase over the DRAM baseline."""
        return self.points[tech_name][1] - 1.0


class PerformanceSimulator:
    """Extracts workload counts from an instrumented run and sweeps latency."""

    def __init__(
        self,
        core: CoreConfig = TABLE3_CORE,
        cache_config: CacheHierarchyConfig = TABLE2_CONFIG,
    ) -> None:
        self.core = core
        self.cache_config = cache_config
        self.model = IntervalCoreModel(core)

    # ------------------------------------------------------------------
    def counts_from_run(
        self,
        instructions: int,
        memory_probe: MemoryTraceProbe | FilteredTrace,
        dependent_fraction: float = 0.0,
    ) -> WorkloadCounts:
        """Derive :class:`WorkloadCounts` from a cache-filtered run.

        *dependent_fraction* is the share of references the program declared
        as serialized chains (``rt.dependent_refs / rt.refs_emitted``);
        those misses get MLP 1 and the effective MLP is the harmonic blend
        — address streams alone cannot reveal dependence.
        """
        if not (0.0 <= dependent_fraction <= 1.0):
            raise ValueError("dependent_fraction must be in [0, 1]")
        stats = memory_probe.stats()
        l1 = stats.levels[self.cache_config.levels[0].name]
        llc = stats.levels[self.cache_config.levels[-1].name]
        miss_addrs = np.concatenate(
            [b.addr[~b.is_write] for b in memory_probe.memory_trace]
            or [np.empty(0, np.uint64)]
        )
        mlp = estimate_mlp(miss_addrs, max_mlp=float(self.core.miss_buffer))
        if dependent_fraction > 0.0:
            mlp = 1.0 / (
                (1.0 - dependent_fraction) / mlp + dependent_fraction / 1.0
            )
        return WorkloadCounts(
            instructions=instructions,
            memory_refs=l1.accesses,
            l1_misses=l1.misses,
            llc_misses=llc.read_misses + llc.write_misses,
            mlp=max(1.0, mlp),
        )

    # ------------------------------------------------------------------
    def sweep(
        self,
        app_name: str,
        counts: WorkloadCounts,
        techs: list[MemoryTechnology],
        baseline_latency_ns: float = 10.0,
    ) -> LatencySweepResult:
        """Relative runtimes at each technology's performance-sim latency."""
        result = LatencySweepResult(app_name=app_name, counts=counts)
        for tech in techs:
            lat = tech.perf_sim_latency_ns
            rel = self.model.slowdown(counts, lat, baseline_latency_ns)
            result.points[tech.name] = (lat, rel)
        return result

    def sweep_latencies(
        self,
        counts: WorkloadCounts,
        latencies_ns: list[float],
        baseline_latency_ns: float = 10.0,
    ) -> list[tuple[float, float]]:
        """Raw (latency, relative runtime) curve for arbitrary latencies."""
        return [
            (lat, self.model.slowdown(counts, lat, baseline_latency_ns))
            for lat in latencies_ns
        ]
