#!/usr/bin/env python3
"""Characterize YOUR OWN code with NV-SCAVENGER.

The analyzers accept any `Program` — a callable driving an
:class:`~repro.instrument.InstrumentedRuntime`. This example writes a small
conjugate-gradient solver against the runtime: the matrix stencil, vectors
and scalars live in simulated memory, the numerics run in numpy, and every
memory reference is observable. NV-SCAVENGER then reports which of the
solver's structures belong in NVRAM.

Run:  python examples/characterize_custom_app.py
"""

import numpy as np

from repro import NVScavenger
from repro.instrument import InstrumentedRuntime
from repro.scavenger.report import classification_table, objects_table

N = 64  # grid is N x N; matrix-free 5-point Laplacian
ITERATIONS = 8  # outer "time steps"
CG_STEPS = 12  # inner CG steps per time step


def cg_solver(rt: InstrumentedRuntime) -> None:
    """2-D Poisson solve by CG, instrumented."""
    n = N * N
    # read-only problem definition: stencil coefficients + boundary mask
    stencil = rt.global_array("stencil_coeffs", 5, tags=frozenset({"read_only"}))
    boundary = rt.global_array("boundary_mask", n, tags=frozenset({"read_only"}))
    rhs = rt.global_array("rhs", n, tags=frozenset({"read_only"}))
    # solution and CG work vectors
    x = rt.global_array("solution", n)
    r = rt.malloc(n, "cg.py:residual")
    p = rt.malloc(n, "cg.py:direction")
    ap = rt.malloc(n, "cg.py:A_times_p")
    # diagnostics written once per outer step, read only at the end
    residual_history = rt.global_array("residual_history", ITERATIONS * CG_STEPS)

    seq = np.arange(n)
    for step in range(1, ITERATIONS + 1):
        rt.begin_iteration(step)
        # r = b - A x ; p = r
        rt.load(rhs, seq)
        rt.load(x, seq)
        rt.store(r, seq)
        rt.store(p, seq)
        for k in range(CG_STEPS):
            with rt.call("apply_stencil", frame_bytes=4096):
                row = rt.local_array("row_buffer", N)
                # 5-point stencil: 5 reads of p per point + coefficient reads
                rt.load(stencil, np.tile(np.arange(5), N))
                for off in (-N, -1, 0, 1, N):
                    rt.load(p, (seq + off) % n)
                rt.store(row, np.arange(N), repeat=N // 4)
                rt.store(ap, seq)
            with rt.call("dot_products", frame_bytes=1024):
                acc = rt.local_array("partials", 16)
                rt.load(r, seq)
                rt.load(ap, seq)
                rt.store(acc, np.arange(16))
                rt.load(acc, np.arange(16), repeat=4)
            with rt.call("axpy_updates", frame_bytes=512):
                rt.load(p, seq)
                rt.store(x, seq)
                rt.load(ap, seq)
                rt.store(r, seq)
                rt.load(boundary, seq)
            rt.store(residual_history, np.array([(step - 1) * CG_STEPS + k]))
        rt.compute(60 * n)
    # post-processing (reporting residual_history) is iteration 0, outside
    # the instrumented window: its reads would not be recorded, so the
    # solver issues none
    rt.begin_iteration(0)


def main() -> None:
    result = NVScavenger().analyze(cg_solver, n_main_iterations=ITERATIONS)

    print(f"CG solver: {result.total_refs:,} references, "
          f"overall r/w ratio {result.rw_ratio:.2f}")
    print(f"stack share: {result.stack_summary.reference_percentage:.1%}, "
          f"stack r/w {result.stack_summary.rw_ratio():.2f}")
    print()
    print("per-object metrics:")
    print(objects_table(result.object_metrics))
    print()
    print("placement recommendation:")
    print(classification_table(result.classified))
    print()
    ro = [c.metrics.name for c in result.classified
          if c.nvram_class.value == "read_only"]
    print(f"read-only structures (ideal NVRAM residents): {', '.join(ro)}")


if __name__ == "__main__":
    main()
