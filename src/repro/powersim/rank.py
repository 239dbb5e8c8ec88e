"""Rank module: services commands, tracks per-rank activity windows.

In DRAMSim2 the rank module handles command transactions issued by the
controller and powers banks up and down; here it accounts how long the
rank was actively bursting (needed to split background power into
active-standby and idle components, and to attribute per-rank
utilization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RankActivity:
    """Accumulated activity of one rank."""

    reads: int = 0
    writes: int = 0
    activations: int = 0
    busy_ns: float = 0.0  # total time the rank's banks were bursting


class Rank:
    """One rank's activity counters."""

    def __init__(self, rank_id: int) -> None:
        self.rank_id = rank_id
        self.activity = RankActivity()

    def record_access(self, is_write: bool, burst_ns: float, activated: bool) -> None:
        if is_write:
            self.activity.writes += 1
        else:
            self.activity.reads += 1
        if activated:
            self.activity.activations += 1
        self.activity.busy_ns += burst_ns

    def record_batch(self, reads: int, writes: int, activations: int, burst_ns: float) -> None:
        """Account *reads + writes* bursts at once, as that many
        :meth:`record_access` calls would: busy time grows one burst at a
        time, so it rounds exactly as the sequential sum does."""
        act = self.activity
        act.reads += reads
        act.writes += writes
        act.activations += activations
        n = reads + writes
        if n:
            steps = np.full(n + 1, burst_ns)
            steps[0] = act.busy_ns
            act.busy_ns = float(np.add.accumulate(steps)[-1])

    def utilization(self, total_ns: float) -> float:
        """Fraction of wall time this rank spent bursting."""
        return self.activity.busy_ns / total_ns if total_ns > 0 else 0.0
