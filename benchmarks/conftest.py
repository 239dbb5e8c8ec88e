"""Shared benchmark fixtures.

One session-scoped :class:`ExperimentContext` instruments each application
once at benchmark fidelity; the per-table/figure benches then time the
regeneration of their table from the shared runs and assert the paper's
shape (the same acceptance criteria as DESIGN.md §5).
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentContext

#: benchmark fidelity: the default experiment configuration
BENCH_REFS = 20_000
BENCH_SCALE = 1.0 / 64.0


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    c = ExperimentContext(refs_per_iteration=BENCH_REFS, scale=BENCH_SCALE)
    # record all four apps and replay both analyses once, up front
    for run in c.all_runs().values():
        run.result, run.memory_trace
    return c
