"""Memory system facade (paper §IV, module 1).

Integrates the controller and ranks; interfaces to trace files or live
batches. In trace-driven mode "memory requests are processed by the memory
system at full speed" and the simulation "reports the average memory
power"; when coupled to a timing simulator the same machinery accepts
timestamped batches (we expose full-speed mode, which is what the paper's
results use).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.nvram.technology import MemoryTechnology, TECHNOLOGIES
from repro.powersim.config import DeviceConfig, PowerModelConfig, TABLE3_DEVICE
from repro.powersim.controller import ControllerStats, MemoryController
from repro.powersim.power import PowerBreakdown, compute_power
from repro.trace.io import TraceReader
from repro.trace.record import RefBatch


@dataclass
class PowerReport:
    """Result of one power simulation."""

    tech_name: str
    breakdown: PowerBreakdown
    stats: ControllerStats
    elapsed_ns: float

    @property
    def average_power_mw(self) -> float:
        return self.breakdown.total_mw

    @property
    def bandwidth_gbs(self) -> float:
        """Achieved data bandwidth over the run."""
        if self.elapsed_ns <= 0:
            return 0.0
        data_bytes = self.stats.accesses * 64
        return data_bytes / self.elapsed_ns  # B/ns == GB/s


class MemorySystem:
    """One memory system instance bound to a technology."""

    def __init__(
        self,
        tech: MemoryTechnology,
        device: DeviceConfig = TABLE3_DEVICE,
        model: PowerModelConfig | None = None,
    ) -> None:
        self.tech = tech
        self.device = device
        self.model = model or PowerModelConfig()
        self.controller = MemoryController(device, tech)

    def process_batch(self, batch: RefBatch) -> None:
        self.controller.process_batch(batch)

    def report(self) -> PowerReport:
        stats = self.controller.stats
        busy_total = sum(r.activity.busy_ns for r in self.controller.ranks)
        breakdown = compute_power(stats, self.tech, self.device, self.model, busy_total)
        return PowerReport(
            tech_name=self.tech.name,
            breakdown=breakdown,
            stats=stats,
            elapsed_ns=stats.elapsed_ns,
        )


def simulate_power(
    trace: Iterable[RefBatch] | str | os.PathLike,
    tech: MemoryTechnology | str,
    device: DeviceConfig = TABLE3_DEVICE,
    model: PowerModelConfig | None = None,
) -> PowerReport:
    """Run a full trace (batches or a trace file path) at full speed."""
    if isinstance(tech, str):
        tech = TECHNOLOGIES[tech] if tech in TECHNOLOGIES else _lookup(tech)
    system = MemorySystem(tech, device, model)
    if isinstance(trace, (str, os.PathLike)):
        with TraceReader(trace) as reader:
            for batch in reader:
                system.process_batch(batch)
    else:
        system.process_batch(_one_batch(trace))
    return system.report()


def _one_batch(trace: Iterable[RefBatch]) -> RefBatch:
    """The trace as one batch. The controller carries all its state across
    batch boundaries, so one call yields the same report as one call per
    batch, and classifies the trace once."""
    batches = list(trace)
    if not batches:
        return RefBatch.empty()
    return RefBatch(
        addr=np.concatenate([b.addr for b in batches]),
        is_write=np.concatenate([b.is_write for b in batches]),
        size=np.concatenate([b.size for b in batches]),
        oid=np.concatenate([b.oid for b in batches]),
    )


def normalized_power(
    trace: list[RefBatch],
    techs: list[MemoryTechnology],
    baseline: MemoryTechnology,
    device: DeviceConfig = TABLE3_DEVICE,
    model: PowerModelConfig | None = None,
) -> dict[str, float]:
    """Table VI: average power of each technology normalized to *baseline*."""
    base = simulate_power(trace, baseline, device, model)
    out = {baseline.name: 1.0}
    for tech in techs:
        if tech.name == baseline.name:
            continue
        rep = simulate_power(trace, tech, device, model)
        out[tech.name] = rep.average_power_mw / base.average_power_mw
    return out


def _lookup(name: str):
    from repro.nvram.technology import technology

    return technology(name)
