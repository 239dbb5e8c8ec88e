"""Run experiments by id; regenerate EXPERIMENTS.md.

``run_all`` runs the suite over the :mod:`repro.sched` work queue, each
experiment under the hardened harness from
:mod:`repro.resilience.harness`: a failing experiment becomes a
structured :class:`~repro.resilience.harness.ExperimentFailure` row in
EXPERIMENTS.md instead of aborting the suite, transient failures are
retried against a deterministically reseeded context, and an optional
wall-clock budget degrades fidelity instead of hanging.
"""

from __future__ import annotations

import io
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments import (
    capacity,
    configs,
    extensions,
    fig2,
    inputs,
    fig3_6,
    fig7,
    fig8_11,
    fig12,
    fig12x,
    hybrid_ext,
    policy_zoo,
    prefetch_ext,
    resilience_ext,
    table1,
    table5,
    table6,
)
from repro.experiments.common import ExperimentContext, ExperimentResult
from repro.resilience.harness import ExperimentFailure

#: id -> runner
EXPERIMENTS: dict[str, Callable[[ExperimentContext], ExperimentResult]] = {
    "table1": table1.run,
    "config": configs.run,
    "table5": table5.run,
    "table6": table6.run,
    "fig2": fig2.run,
    "fig3-6": fig3_6.run,
    "fig7": fig7.run,
    "fig8-11": fig8_11.run,
    "fig12": fig12.run,
    "hybrid": hybrid_ext.run,
    "locality": extensions.run_locality,
    "dramcache": extensions.run_dramcache,
    "wear": extensions.run_wear,
    "checkpoint": extensions.run_checkpoint,
    "fig12x": fig12x.run,
    "capacity": capacity.run,
    "inputs": inputs.run,
    "prefetch": prefetch_ext.run,
    "resilience": resilience_ext.run,
    "policy_zoo": policy_zoo.run,
}

#: aliases for individual figures in grouped experiments
_ALIASES = {
    "fig3": "fig3-6",
    "fig4": "fig3-6",
    "fig5": "fig3-6",
    "fig6": "fig3-6",
    "fig8": "fig8-11",
    "fig9": "fig8-11",
    "fig10": "fig8-11",
    "fig11": "fig8-11",
    "table2": "config",
    "table3": "config",
    "table4": "config",
}


def run_experiment(name: str, ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Run one experiment by id (aliases like 'fig4' resolve to groups)."""
    ctx = ctx or ExperimentContext()
    key = _ALIASES.get(name, name)
    fn = EXPERIMENTS.get(key)
    if fn is None:
        raise ConfigurationError(
            f"unknown experiment {name!r}; know {sorted(EXPERIMENTS)} "
            f"(+aliases {sorted(_ALIASES)})"
        )
    return fn(ctx)


def run_all(
    ctx: ExperimentContext | None = None,
    *,
    experiments: dict[str, Callable[[ExperimentContext], ExperimentResult]] | None = None,
    retries: int = 1,
    budget_s: float | None = None,
    strict: bool = False,
    jobs: int = 1,
    on_sched_event: Callable | None = None,
    run_id: str | None = None,
    resume: str | None = None,
    drain_grace_s: float = 10.0,
    lease_ttl_s: float | None = None,
) -> list[ExperimentResult | ExperimentFailure]:
    """Run every experiment over the :mod:`repro.sched` work queue.

    Record tasks (one per distinct run spec) run first and experiments
    as their dependencies land, so each spec executes at most once per
    suite; results come back in canonical order, the same for any
    ``jobs``. At the default ``jobs=1`` the coordinator runs every task
    itself against one context; ``jobs > 1`` runs each in a fresh
    worker process, which alone isolates a task that crashes or hangs
    (``jobs=0``: one per CPU). See
    :func:`~repro.sched.suite.run_suite_parallel` for ``on_sched_event``,
    ``lease_ttl_s`` and the journal: every run journals under
    ``<cache-root>/runs/<run_id>/``, and ``resume`` reruns only a
    previous run's unfinished tasks. An interrupt raises
    :class:`~repro.errors.SuiteInterrupted` (``exit_code = 128 +
    signum``) after draining workers for ``drain_grace_s``.

    An experiment that raises yields an :class:`ExperimentFailure` row
    after ``retries`` reseeded re-runs; ``strict`` then raises
    :class:`~repro.errors.ExperimentAbortedError` once the suite has
    finished. ``budget_s`` bounds each experiment's wall-clock time;
    overruns are re-run once at reduced ``refs_per_iteration``.
    """
    from repro.sched.suite import run_suite_parallel

    ctx = ctx or ExperimentContext()
    # jobs passes through raw: run_suite_parallel resolves 0 with the
    # graph in hand, clamping auto-sizing to the suite's useful width
    results, _report = run_suite_parallel(
        ctx, EXPERIMENTS if experiments is None else experiments,
        jobs=jobs,
        retries=retries,
        budget_s=budget_s,
        strict=strict,
        on_event=on_sched_event,
        run_id=run_id,
        resume=resume,
        drain_grace_s=drain_grace_s,
        lease_ttl_s=lease_ttl_s,
    )
    return results


def experiments_markdown(
    results: list[ExperimentResult | ExperimentFailure], ctx: ExperimentContext
) -> str:
    """Render EXPERIMENTS.md from a full run."""
    out = io.StringIO()
    out.write("# EXPERIMENTS — paper vs. measured\n\n")
    out.write(
        "Regenerated with `python -m repro.experiments all --write` "
        f"(refs/iteration={ctx.refs_per_iteration}, scale={ctx.scale:.5f}, "
        f"iterations={ctx.n_iterations}, seed={ctx.seed}).\n\n"
        "Absolute magnitudes are not expected to match the paper (the\n"
        "substrate is a simulator, not the authors' testbed); the *shape* —\n"
        "who wins, by what factor, where crossovers fall — is the\n"
        "reproduction target. Each section lists the paper's number next to\n"
        "the measured one.\n\n"
    )
    for res in results:
        if isinstance(res, ExperimentFailure):
            out.write(f"## {res.exp_id}: {res.title}\n\n")
            out.write(res.markdown_row())
            out.write("\n\n")
            if res.traceback_tail:
                out.write("```\n")
                out.write(res.traceback_tail.rstrip())
                out.write("\n```\n\n")
            continue
        out.write(f"## {res.exp_id}: {res.title}\n\n")
        out.write("```\n")
        out.write(res.text.rstrip())
        out.write("\n```\n\n")
        for note in res.notes:
            out.write(f"- {note}\n")
        if res.notes:
            out.write("\n")
    out.write("## engine: trace-once / replay-many accounting\n\n")
    out.write(
        "Each distinct run spec is executed once, recorded into the\n"
        "artifact cache, and replayed into every analysis that needs it.\n"
        "Artifacts are integrity-scrubbed before first replay; a corrupt\n"
        "one is quarantined and transparently re-recorded (the\n"
        "`quarantined` / `re-recorded` counters below stay at zero on a\n"
        "healthy cache).\n\n"
    )
    out.write("```\n")
    out.write(ctx.engine.stats.table())
    out.write("\n```\n\n")
    timed = [r for r in results
             if isinstance(r, ExperimentResult) and r.timings]
    if timed:
        out.write("| experiment | wall (s) | app runs | replays "
                  "| replayed refs | re-records |\n")
        out.write("|---|---|---|---|---|---|\n")
        for res in timed:
            t = res.timings
            out.write(
                f"| {res.exp_id} | {t.get('experiment_wall_s', 0.0):.3f} "
                f"| {int(t.get('app_runs', 0))} | {int(t.get('replays', 0))} "
                f"| {int(t.get('replay_refs', 0))} "
                f"| {int(t.get('rerecorded', 0))} |\n"
            )
        out.write("\n")
    return out.getvalue()
