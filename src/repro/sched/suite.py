"""Suite-level entry point: run the experiment suite over the work queue.

:func:`run_suite_parallel` is what every
:func:`repro.experiments.runner.run_all` delegates to. It expands the
suite into a :class:`~repro.sched.graph.TaskGraph` (record tasks
feeding experiment tasks), runs it on a
:class:`~repro.sched.queue.QueueCoordinator` — which at ``jobs=1`` runs
each task itself and otherwise forks up to ``jobs`` one-task worker
processes — folds every task's engine-stage deltas back into the parent
context's :class:`~repro.engine.engine.EngineStats` (in deterministic
graph order), and returns results in the suite's canonical experiment
order — so the output is bit-identical regardless of ``jobs`` or
scheduling interleavings. Any run can also be joined by ``nvscavenger
work --run-id`` agents on other hosts sharing the cache.

Every run is **journaled and resumable**: task
transitions and completed payloads land in an fsync'd write-ahead log
under ``<cache-root>/runs/<run-id>/journal.jsonl`` (see
:mod:`repro.sched.journal`). ``resume="<run-id>"`` replays that journal
— after validating the graph fingerprint, so a *changed* suite refuses
to resume — and launches only the tasks that never finished; the
already-journaled results come back exactly as the interrupted run
produced them. SIGINT/SIGTERM trigger a graceful drain (grace period,
then terminate→kill; at ``jobs=1`` the running task is abandoned at
once) and surface as :class:`~repro.errors.SuiteInterrupted` carrying
the run id to resume — or, on a temporary cache root that is removed at
exit with the journal, saying that the run cannot be resumed.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Mapping

from repro.errors import (
    ConfigurationError,
    ExperimentAbortedError,
    JournalError,
    SuiteInterrupted,
)
from repro.resilience.harness import ExperimentFailure
from repro.sched.events import SchedEvent, SchedulerReport
from repro.sched.graph import EXPERIMENT_PREFIX, TaskGraph
from repro.sched.journal import (
    RunJournal,
    journal_path,
    new_run_id,
    read_journal,
    replay_state,
)
from repro.sched.queue import DEFAULT_LEASE_TTL_S, QueueCoordinator
from repro.sched.workers import WorkerConfig

def resolve_jobs(jobs: int, ready_width: int | None = None) -> int:
    """Normalize a ``--jobs`` value: ``0`` means auto-size.

    Auto-sizing picks one worker per CPU, clamped to *ready_width* (the
    task graph's maximum useful parallelism) when given — on a 1-CPU
    container, or for a suite whose graph is narrower than the machine,
    extra workers can never all be busy and only add fork/IPC overhead.
    An explicit ``jobs > 0`` is always honoured verbatim; the clamp is
    an auto-sizing policy, not a cap.
    """
    if jobs == 0:
        auto = max(1, os.cpu_count() or 1)
        if ready_width is not None:
            auto = min(auto, max(1, ready_width))
        return auto
    if jobs < 0:
        raise ConfigurationError(
            f"--jobs must be >= 0 (0 = one worker per CPU, clamped to the "
            f"suite's useful parallelism), got {jobs}")
    return jobs


def declared_artifacts(
    exps: Mapping[str, Callable],
    apps: tuple[str, ...],
) -> dict[str, tuple[str, ...] | None]:
    """Experiment id -> artifact names its module declares via
    ``ARTIFACTS`` (filtered to *apps*; ``workload:<family>`` names pass
    unconditionally), or ``None`` when the module declares nothing and
    must be ordered after every base-app record."""
    from repro.engine.spec import WORKLOAD_PREFIX

    allowed = set(apps)
    out: dict[str, tuple[str, ...] | None] = {}
    for exp_id, fn in exps.items():
        mod = sys.modules.get(getattr(fn, "__module__", ""), None)
        declared = getattr(mod, "ARTIFACTS", None)
        if declared is None:
            out[exp_id] = None
            continue
        out[exp_id] = tuple(
            name for name in declared
            if name.startswith(WORKLOAD_PREFIX)
            or (name.split(":", 1)[1] if ":" in name else name) in allowed
        )
    return out


def build_suite_graph(ctx, exps: Mapping[str, Callable]) -> TaskGraph:
    """The task graph one ``run_all`` invocation expands into."""
    return TaskGraph.for_suite(
        declared_artifacts(exps, ctx.apps), ctx.spec_for, ctx.apps)


def _failure_from_task(exp_id: str, info: dict) -> ExperimentFailure:
    reason = info.get("reason", "worker failed")
    error_type = ("WorkerTimeout" if "wall-clock allowance" in reason
                  else "WorkerCrash")
    return ExperimentFailure(
        exp_id=exp_id,
        error_type=error_type,
        message=reason,
        attempts=int(info.get("attempts", 1)),
        elapsed_s=0.0,
    )


def _failure_from_skip(exp_id: str, info: dict) -> ExperimentFailure:
    return ExperimentFailure(
        exp_id=exp_id,
        error_type="DependencySkipped",
        message=(f"never launched: dependency {info.get('root_cause', '?')} "
                 f"failed ({info.get('reason', 'unknown reason')})"),
        attempts=0,
        elapsed_s=0.0,
    )


def _load_resume_state(cache_root: str, run_id: str, graph: TaskGraph):
    """Replay *run_id*'s journal into scheduler seeds, refusing a
    journal recorded for a different graph."""
    path = journal_path(cache_root, run_id)
    state = replay_state(read_journal(path), run_id)
    fp = graph.fingerprint()
    if state.fingerprint != fp:
        raise JournalError(
            f"refusing to resume run {run_id!r}: the journal was recorded "
            f"for graph {state.fingerprint[:12]} but this suite expands to "
            f"graph {fp[:12]} — the experiment set, apps, or fidelity knobs "
            f"changed; start a fresh run instead",
            run_id=run_id, path=path,
        )
    return state


def run_suite_parallel(
    ctx,
    exps: Mapping[str, Callable],
    *,
    jobs: int,
    retries: int = 1,
    budget_s: float | None = None,
    strict: bool = False,
    on_event: Callable[[SchedEvent], None] | None = None,
    task_timeout_s: float | None = None,
    run_id: str | None = None,
    resume: str | None = None,
    drain_grace_s: float = 10.0,
    handle_signals: bool = True,
    lease_ttl_s: float | None = None,
    heartbeat_s: float | None = None,
) -> tuple[list, SchedulerReport]:
    """Run *exps* against *ctx*: at ``jobs=1`` in this process, else on
    up to ``jobs`` worker processes.

    Returns ``(results, report)``: *results* in the canonical
    ``exps.items()`` order (each an ``ExperimentResult`` or
    :class:`ExperimentFailure`), *report* the coordinator's structured
    account of the run. The parent context's engine stats absorb every
    worker's stage deltas, so ``ctx.engine.stats.table()`` reads the
    same as after a sequential run.

    The run publishes its tasks to the filesystem work queue under
    ``<cache-root>/runs/<run-id>/queue/`` (:mod:`repro.sched.queue`);
    at ``jobs=1`` the coordinator runs each task itself (no crash
    isolation, no ``task_timeout_s``), otherwise it forks one local
    worker per claimable task, at most ``jobs`` at a time;
    ``nvscavenger work`` agents on other hosts may join. Registry
    experiments cross hosts by id; other callables reach only the local
    workers (inherited at fork, pickled under spawn). ``lease_ttl_s`` /
    ``heartbeat_s`` tune crash detection.

    ``run_id`` names this run's journal and queue under the
    artifact-cache root (default: a fresh timestamped id); ``resume``
    replays a previous run's journal instead — finished tasks are
    seeded as done (their journaled payloads are returned verbatim),
    failed and skipped tasks get a fresh chance, and the graph
    fingerprint must match or :class:`~repro.errors.JournalError`
    refuses the resume. ``handle_signals`` (default on, main thread
    only) arms the graceful SIGINT/SIGTERM drain: tasks in flight get
    ``drain_grace_s`` seconds to finish and journal (at ``jobs=1`` the
    running task is abandoned at once), then the run raises
    :class:`~repro.errors.SuiteInterrupted` whose ``exit_code`` is
    ``128 + signum``. ``strict`` raises for the first failed experiment
    once every task has finished.

    ``jobs=0`` means one worker per CPU, clamped to the graph's useful
    width.
    """
    from repro.experiments.runner import EXPERIMENTS

    graph = build_suite_graph(ctx, exps)
    jobs = resolve_jobs(jobs, ready_width=graph.width())
    cfg = WorkerConfig(
        cache_root=ctx.engine.cache.root,
        refs_per_iteration=ctx.refs_per_iteration,
        scale=ctx.scale,
        n_iterations=ctx.n_iterations,
        seed=ctx.seed,
        apps=ctx.apps,
        self_heal=ctx.engine.self_heal,
        retries=retries,
        budget_s=budget_s,
    )
    # registry experiments cross the process boundary as ids; only the
    # other callables are handed to the local workers
    exp_fns = {exp_id: fn for exp_id, fn in exps.items()
               if EXPERIMENTS.get(exp_id) is not fn}
    if task_timeout_s is None and budget_s is not None:
        # the in-worker HardenedRunner gets retries+1 attempts plus one
        # degraded rerun, each nominally within budget_s; pad for startup
        task_timeout_s = budget_s * (retries + 2) + 30.0

    cache_root = ctx.engine.cache.root
    seed_done: set[str] = set()
    seed_payloads: dict[str, dict] = {}
    if resume is not None:
        if run_id is not None and run_id != resume:
            raise ConfigurationError(
                f"--resume {resume!r} conflicts with --run-id {run_id!r}")
        run_id = resume
        rstate = _load_resume_state(cache_root, resume, graph)
        seed_done = rstate.done
        seed_payloads = rstate.payloads
    if run_id is None:
        # names the journal and the queue directory workers rendezvous at
        run_id = new_run_id(seed=ctx.seed)
    jnl = RunJournal.open(cache_root, run_id)
    if resume is not None:
        jnl.append("run_resumed", jobs=jobs, n_done=len(seed_done))
    else:
        jnl.append("run_started", run_id=run_id,
                   fingerprint=graph.fingerprint(), jobs=jobs,
                   seed=ctx.seed, apps=list(ctx.apps),
                   refs_per_iteration=ctx.refs_per_iteration,
                   scale=ctx.scale, n_iterations=ctx.n_iterations)

    try:
        outcome = QueueCoordinator(
            graph,
            cfg,
            cache_root=cache_root,
            run_id=run_id,
            jobs=jobs,
            reseed_stride=cfg.reseed_stride,
            lease_ttl_s=(lease_ttl_s if lease_ttl_s is not None
                         else DEFAULT_LEASE_TTL_S),
            heartbeat_s=heartbeat_s,
            task_timeout_s=task_timeout_s,
            on_event=on_event,
            journal=jnl,
            seed_done=seed_done,
            seed_payloads=seed_payloads,
            drain_grace_s=drain_grace_s,
            handle_signals=handle_signals,
            exp_fns=exp_fns,
        ).run()
    except BaseException:
        jnl.close()
        raise

    assert outcome.report is not None
    report = outcome.report

    # Fold worker engine deltas into the parent in deterministic graph
    # order so the suite-level accounting is jobs-independent (resumed
    # payloads carry the interrupted run's deltas, so the totals match
    # an uninterrupted run).
    for tid in graph.order:
        payload = outcome.payloads.get(tid)
        if payload is not None:
            ctx.engine.stats.merge(payload.get("stats", {}))

    if report.interrupted:
        jnl.close()
        signum = int(report.signum or 0)
        n_done = sum(1 for t in graph.experiment_tasks
                     if t.task_id in outcome.payloads)
        raise SuiteInterrupted(
            f"suite interrupted by signal {signum} after "
            f"{n_done}/{len(graph.experiment_tasks)} experiment(s); "
            f"{report.resume_hint()}",
            signum=signum, run_id=run_id, report=report, completed=n_done,
        )
    jnl.run_finished(n_failed=report.n_failed,
                     n_skipped=report.n_skipped)
    jnl.close()

    results: list = []
    for exp_id in exps:
        tid = EXPERIMENT_PREFIX + exp_id
        payload = outcome.payloads.get(tid)
        if payload is not None:
            results.append(payload["result"])
        elif tid in outcome.skipped:
            results.append(_failure_from_skip(exp_id, outcome.skipped[tid]))
        else:
            results.append(_failure_from_task(
                exp_id, outcome.failures.get(tid, {})))
    if strict:
        for res in results:
            if isinstance(res, ExperimentFailure):
                raise ExperimentAbortedError(
                    f"experiment {res.exp_id!r} failed {res.attempts} "
                    f"attempt(s): {res.message}")
    return results, report
