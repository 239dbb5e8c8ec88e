"""repro.sched — dependency-aware, multi-process execution of the suite.

The subsystem has these layers:

* :mod:`repro.sched.graph` — expands one suite invocation into a
  deterministic DAG: one record task per *distinct* run spec
  (content-addressed dedup), one experiment task per experiment,
  depending on the records for the artifacts its module declares;
* :mod:`repro.sched.workers` — spawn-safe task execution
  (:func:`~repro.sched.workers.task_process_main`); workers coordinate
  through the shared artifact cache's per-key ``flock`` so a spec is
  executed once cluster-wide no matter how tasks land;
* :mod:`repro.sched.journal` — the per-run write-ahead log: CRC32'd
  fsync'd JSONL appends under ``<cache-root>/runs/<run-id>/``, torn-tail
  truncation, and the replay that turns a journal back into scheduler
  state for ``resume=``;
* :mod:`repro.sched.queue` — the executor: a crash-consistent
  filesystem work queue under the run directory, with ``O_EXCL`` lease
  claims, heartbeat liveness, and monotonic fencing epochs so a revoked
  (zombie) worker can never commit over its successor. Its coordinator
  forks one-task local workers on demand, retries crashed or timed-out
  tasks with a deterministic reseed, skips the dependents of a task out
  of retries, and drains gracefully on SIGINT/SIGTERM; any host sharing
  the cache joins a run via ``nvscavenger work``;
* :mod:`repro.sched.suite` — the ``run_all(jobs=N)`` entry point:
  canonical result ordering and parent-side stats merging, so a
  parallel suite run is bit-identical to a sequential one — resumed or
  not. ``jobs=N`` is the pool size; ``jobs=0`` sizes it to the CPU
  count, clamped to the graph's useful width.
"""

from repro.sched.events import (
    TASK_FAILED,
    TASK_FINISHED,
    TASK_RETRIED,
    TASK_SKIPPED,
    TASK_STARTED,
    EventLog,
    SchedEvent,
    SchedulerReport,
)
from repro.sched.graph import (
    EXPERIMENT_PREFIX,
    RECORD_PREFIX,
    ExperimentTask,
    RecordTask,
    TaskGraph,
)
from repro.sched.journal import (
    JournalState,
    ReplayState,
    RunJournal,
    journal_path,
    new_run_id,
    read_journal,
    replay_state,
    run_dir,
)
from repro.sched.queue import (
    EXIT_FENCED,
    QueueCoordinator,
    QueueWorker,
    SchedulerOutcome,
    WorkQueue,
    safe_task_id,
)
from repro.sched.suite import (
    build_suite_graph,
    declared_artifacts,
    resolve_jobs,
    run_suite_parallel,
)
from repro.sched.workers import (
    WorkerConfig,
    default_start_method,
    run_experiment_task,
    run_record_task,
)

__all__ = [
    "TASK_FAILED",
    "TASK_FINISHED",
    "TASK_RETRIED",
    "TASK_SKIPPED",
    "TASK_STARTED",
    "EventLog",
    "SchedEvent",
    "SchedulerReport",
    "EXPERIMENT_PREFIX",
    "RECORD_PREFIX",
    "ExperimentTask",
    "RecordTask",
    "TaskGraph",
    "JournalState",
    "ReplayState",
    "RunJournal",
    "journal_path",
    "new_run_id",
    "read_journal",
    "replay_state",
    "run_dir",
    "EXIT_FENCED",
    "QueueCoordinator",
    "QueueWorker",
    "SchedulerOutcome",
    "WorkQueue",
    "safe_task_id",
    "build_suite_graph",
    "declared_artifacts",
    "resolve_jobs",
    "run_suite_parallel",
    "WorkerConfig",
    "default_start_method",
    "run_experiment_task",
    "run_record_task",
]
