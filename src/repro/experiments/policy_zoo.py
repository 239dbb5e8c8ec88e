"""``policy_zoo`` — sweep the policy registry over the workload families.

The grid is policy x workload x device x endurance budget. Each
workload's trace is one content-addressed ``workload:<name>`` RunSpec —
recorded once, replayed from the artifact cache — and each cell is a
deterministic pure function of that trace (see
:mod:`repro.policies.eval`), so the whole 60-cell sweep costs three
recordings on a cold cache and zero on a warm one. Each trace is folded
onto its objects' page index once (a
:class:`~repro.policies.eval.PageTrace`) and shared by that workload's
20 cells. Cells carry their own :func:`~repro.policies.eval.cell_key`
content address in the row data.

Budgets are scale-invariant: ``factor x`` the workload's mean memory-level
writes per object page, so "tight" (2x) and "loose" (64x) mean the same
thing at smoke and paper fidelity.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentContext, ExperimentResult
from repro.nvram.technology import PCRAM, STTRAM
from repro.policies import (
    ObjectSpan,
    PageTrace,
    cell_key,
    create_policy,
    evaluate_policy,
)
from repro.scavenger.report import format_table

#: recorded at context fidelity through the engine (the sweep's record
#: tasks under --jobs)
ARTIFACTS = ("workload:kvcache", "workload:graph", "workload:checkpoint")

WORKLOADS = ("kvcache", "graph", "checkpoint")
DEVICES = (PCRAM, STTRAM)
#: endurance budget = factor x mean writes per object page (tight, loose)
BUDGET_FACTORS = (2.0, 64.0)
#: (registry name, params) — defaults; params are part of each cell key
POLICY_GRID = (
    ("no_migration", {}),
    ("static_oracle", {}),
    ("threshold", {}),
    ("predictive", {}),
    ("endurance_aware", {}),
)


def _budget(trace, objects, factor: float) -> int:
    total_writes = sum(int(b.is_write.sum()) for b in trace)
    n_pages = sum(max(1, (o.size + 4095) // 4096) for o in objects)
    return max(1, int(round(total_writes / max(1, n_pages) * factor)))


def run(ctx: ExperimentContext) -> ExperimentResult:
    rows = []
    for wname in WORKLOADS:
        app_run = ctx.run("workload:" + wname)
        spec = ctx.spec_for("workload:" + wname)
        objects = [ObjectSpan(m.oid, m.name, m.base, m.size)
                   for m in app_run.result.object_metrics]
        trace = app_run.memory_trace
        classified = app_run.result.classified
        index = PageTrace.build(trace, objects)
        for device in DEVICES:
            for factor in BUDGET_FACTORS:
                budget = _budget(trace, objects, factor)
                for pname, params in POLICY_GRID:
                    policy = create_policy(pname, **params)
                    stats = evaluate_policy(
                        policy, index, objects, device, budget,
                        classified=classified, seed=ctx.seed,
                        workload=wname, n_iterations=ctx.n_iterations)
                    row = stats.as_row()
                    row["budget_factor"] = factor
                    row["cell"] = cell_key(spec.key, pname, policy.params(),
                                           device.name, budget)
                    rows.append(row)
        # one workload's index alive at a time
        del index

    # the rendered table shows the PCRAM / tight-budget slice; the full
    # grid (including STTRAM and the loose budget) is in the row data
    shown = [r for r in rows
             if r["device"] == PCRAM.name and r["budget_factor"] == BUDGET_FACTORS[0]]
    data = [
        (r["workload"], r["policy"], r["nvm_write_traffic"],
         f"{r['dram_hit_ratio']:.3f}", r["migrations"],
         f"{r['endurance_headroom']:+.2f}", f"{r['energy_savings']:+.3f}")
        for r in shown
    ]
    text = format_table(
        ["workload", "policy", "nvm writes", "dram hit", "migrations",
         "headroom", "energy save"],
        data,
    )
    text += (
        f"\n\n{len(rows)} cells: {len(POLICY_GRID)} policies x "
        f"{len(WORKLOADS)} workloads x {len(DEVICES)} devices x "
        f"{len(BUDGET_FACTORS)} endurance budgets "
        "(table: PCRAM, tight budget).\n"
        "threshold/predictive trade migration copies for NVM write "
        "reduction; endurance_aware holds headroom >= 0 by construction; "
        "static_oracle's NVM share collapses on category-1 devices."
    )
    return ExperimentResult(
        "policy_zoo",
        "Placement/migration policy zoo over new workload families",
        text,
        rows,
        notes=[
            "Extends the paper's single static placement with the policy "
            "design space related NVM studies argue about (app-direct vs "
            "managed placement, persistence-aware checkpointing).",
            "Every cell is content-addressed: the workload trace by its "
            "RunSpec key, the cell by cell_key(spec, policy, params, "
            "device, budget) — a warm cache re-runs the sweep without "
            "executing any workload.",
        ],
    )
