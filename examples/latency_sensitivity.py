#!/usr/bin/env python3
"""Latency-sensitivity curves (Figure 12, extended).

The paper sweeps four latency points; here the interval core model sweeps
a fine grid from DRAM-class 10 ns to PCRAM-class 100 ns and beyond for all
four applications, printing the relative-runtime curve and locating the
"5% loss" latency (how much NVRAM latency each code can absorb).

Run:  python examples/latency_sensitivity.py
"""

import numpy as np

from repro import MemoryTraceProbe, PerformanceSimulator, create_app
from repro.instrument import InstrumentedRuntime

LATENCIES = [10, 12, 15, 20, 30, 50, 75, 100, 150, 200]


def main() -> None:
    sim = PerformanceSimulator()
    print("relative runtime vs memory latency (DRAM 10 ns = 1.00):")
    header = f"{'latency':>8s}" + "".join(f"{n:>10s}" for n in
                                          ("nek5000", "cam", "gtc", "s3d"))
    print(header)
    print("-" * len(header))

    curves = {}
    for name in ("nek5000", "cam", "gtc", "s3d"):
        # one main-loop iteration, as in the paper's §VII-E protocol
        app = create_app(name, refs_per_iteration=30_000, n_iterations=1)
        probe = MemoryTraceProbe()
        rt = InstrumentedRuntime(probe)
        app(rt)
        rt.finish()
        counts = sim.counts_from_run(rt.instruction_count, probe)
        curves[name] = dict(sim.sweep_latencies(counts, LATENCIES))

    for lat in LATENCIES:
        row = f"{lat:6.0f}ns"
        for name in ("nek5000", "cam", "gtc", "s3d"):
            row += f"{curves[name][lat]:10.3f}"
        marks = {10: "DRAM", 12: "MRAM", 20: "STTRAM", 100: "PCRAM"}
        if lat in marks:
            row += f"   <- {marks[lat]}"
        print(row)

    print()
    print("latency each code absorbs at <= 5% loss:")
    fine = np.arange(10.0, 300.0, 1.0)
    for name, curve in curves.items():
        app = create_app(name, refs_per_iteration=30_000, n_iterations=1)
        probe = MemoryTraceProbe()
        rt = InstrumentedRuntime(probe)
        app(rt)
        rt.finish()
        counts = sim.counts_from_run(rt.instruction_count, probe)
        rel = np.array([sim.model.slowdown(counts, float(l)) for l in fine])
        over = fine[rel > 1.05]
        budget = over[0] if over.size else fine[-1]
        print(f"  {name:8s}: ~{budget:.0f} ns "
              f"(MLP {counts.mlp:.1f}, {counts.llc_misses:,} LLC misses/iter)")

    print()
    print("paper: negligible loss at 12 ns (MRAM), <5% at 20 ns (STTRAM), "
          "up to ~25% at 100 ns (PCRAM) — long-latency NVRAM needs a hybrid "
          "design; STTRAM-class NVRAM does not.")


if __name__ == "__main__":
    main()
