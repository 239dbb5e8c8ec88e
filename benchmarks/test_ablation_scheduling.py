"""Ablation: FR-FCFS scheduling vs in-order issue.

The Table VI pipeline uses in-order (FCFS) issue; DRAMSim2's production
scheduler is FR-FCFS. The bench quantifies the row-hit and runtime gap on
the real application traces so the simplification is a *measured*
approximation, not an assumption.
"""

import pytest

from repro.nvram.technology import DRAM_DDR3
from repro.powersim.config import TABLE3_DEVICE
from repro.powersim.controller import MemoryController
from repro.powersim.scheduler import FRFCFSController


def run_fcfs(trace):
    ctl = MemoryController(TABLE3_DEVICE, DRAM_DDR3)
    for b in trace:
        ctl.process_batch(b)
    return ctl


def run_frfcfs(trace):
    ctl = FRFCFSController(TABLE3_DEVICE, DRAM_DDR3, window=16)
    for b in trace:
        ctl.process_batch(b)
    ctl.drain()
    return ctl


@pytest.mark.parametrize("app", ["gtc", "cam"])
def test_scheduling_gap_on_app_traces(benchmark, ctx, app):
    trace = ctx.run(app).memory_trace
    frfcfs = benchmark.pedantic(run_frfcfs, args=(trace,), rounds=1, iterations=1)
    fcfs = run_fcfs(trace)
    assert frfcfs.stats.accesses == fcfs.stats.accesses
    # FR-FCFS never hurts the row-hit rate
    assert frfcfs.row_hit_rate >= fcfs.stats.row_hit_rate - 1e-9
    gap = frfcfs.row_hit_rate - fcfs.stats.row_hit_rate
    print(f"\n{app}: FCFS row-hit {fcfs.stats.row_hit_rate:.3f}, "
          f"FR-FCFS {frfcfs.row_hit_rate:.3f} (gap {gap:+.3f}, "
          f"{frfcfs.reorders} reorders)")
