"""Timing-coupled power simulation (paper §IV, the accurate mode).

"When the power simulator is integrated with a full system simulator that
provides timing information, power estimates can be accurately computed.
In the absence of timing information ... memory requests are processed by
the memory system at full speed." Table VI uses full-speed mode; this
module supplies the other half: batches arrive with *arrival timestamps*
(e.g. from the interval core model), the channel idles between them, and
idle ranks drop into power-down — so average power now reflects the
workload's real memory intensity instead of a saturated channel.

Both modes run the same controller loop: full speed is the case where
every access arrives at time 0, so the channel never idles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.nvram.technology import MemoryTechnology
from repro.powersim.config import DeviceConfig, PowerModelConfig, TABLE3_DEVICE
from repro.powersim.controller import MemoryController
from repro.powersim.power import PowerBreakdown, compute_power
from repro.trace.record import RefBatch


@dataclass
class TimedPowerReport:
    """Average power with channel utilization and power-down accounting."""

    tech_name: str
    breakdown: PowerBreakdown
    elapsed_ns: float
    busy_ns: float
    idle_ns: float
    powerdown_savings_mw: float

    @property
    def average_power_mw(self) -> float:
        return self.breakdown.total_mw - self.powerdown_savings_mw

    @property
    def utilization(self) -> float:
        return self.busy_ns / self.elapsed_ns if self.elapsed_ns > 0 else 0.0


class TimedMemorySystem:
    """A memory system driven by (batch, arrival-time) pairs."""

    def __init__(
        self,
        tech: MemoryTechnology,
        device: DeviceConfig = TABLE3_DEVICE,
        model: PowerModelConfig | None = None,
        powerdown_fraction: float = 0.4,
    ) -> None:
        """*powerdown_fraction* — share of background power still drawn
        while a rank sits in power-down (CKE low)."""
        if not (0.0 <= powerdown_fraction <= 1.0):
            raise ConfigurationError("powerdown_fraction must be in [0, 1]")
        self.tech = tech
        self.device = device
        self.model = model or PowerModelConfig()
        self.controller = MemoryController(device, tech)
        self.powerdown_fraction = powerdown_fraction
        self._idle_ns = 0.0

    # ------------------------------------------------------------------
    def process_timed(self, batch: RefBatch, arrival_ns: np.ndarray) -> None:
        """Feed one batch whose references arrive at *arrival_ns*.

        Arrivals must be non-decreasing; idle gaps (arrival beyond the
        channel cursor) advance the clock and accumulate as idle time.
        The controller compares each access's arrival with its cursor as
        it runs the batch.
        """
        arrival_ns = np.asarray(arrival_ns, dtype=np.float64)
        if arrival_ns.shape != batch.addr.shape:
            raise SimulationError("arrival array must match the batch")
        if np.any(np.diff(arrival_ns) < 0):
            raise SimulationError("arrivals must be non-decreasing")
        self._idle_ns = self.controller.process_arrivals(batch, arrival_ns.tolist(),
                                                         self._idle_ns)

    # ------------------------------------------------------------------
    def report(self) -> TimedPowerReport:
        stats = self.controller.stats
        busy_total = sum(r.activity.busy_ns for r in self.controller.ranks)
        breakdown = compute_power(stats, self.tech, self.device, self.model, busy_total)
        elapsed = stats.elapsed_ns
        idle_fraction = self._idle_ns / elapsed if elapsed > 0 else 0.0
        # while idle, background (DRAM leakage + peripheral) drops to the
        # power-down fraction; refresh must continue regardless
        reducible_mw = breakdown.background_mw
        savings = reducible_mw * idle_fraction * (1.0 - self.powerdown_fraction)
        return TimedPowerReport(
            tech_name=self.tech.name,
            breakdown=breakdown,
            elapsed_ns=elapsed,
            busy_ns=elapsed - self._idle_ns,
            idle_ns=self._idle_ns,
            powerdown_savings_mw=savings,
        )


def simulate_timed_power(
    trace: list[RefBatch],
    arrivals: list[np.ndarray],
    tech: MemoryTechnology,
    device: DeviceConfig = TABLE3_DEVICE,
    model: PowerModelConfig | None = None,
    powerdown_fraction: float = 0.4,
) -> TimedPowerReport:
    """Run a timestamped trace; one arrival array per batch."""
    if len(trace) != len(arrivals):
        raise SimulationError("need one arrival array per batch")
    system = TimedMemorySystem(tech, device, model, powerdown_fraction)
    for batch, arr in zip(trace, arrivals):
        system.process_timed(batch, arr)
    return system.report()


def arrivals_from_rate(trace: list[RefBatch], accesses_per_us: float) -> list[np.ndarray]:
    """Synthesize arrival timestamps at a constant request rate."""
    if accesses_per_us <= 0:
        raise ConfigurationError("rate must be positive")
    gap = 1e3 / accesses_per_us  # ns between arrivals
    out = []
    t = 0.0
    for batch in trace:
        n = len(batch)
        out.append(t + np.arange(n, dtype=np.float64) * gap)
        t += n * gap
    return out
