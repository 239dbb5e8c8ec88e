"""repro.sched — dependency-aware, journaled execution of the suite.

Layers, each described in its module:

* :mod:`repro.sched.graph` — the suite as a deterministic DAG: one
  record task per distinct run spec, one experiment task per
  experiment, depending on the records its module declares;
* :mod:`repro.sched.workers` — task execution; tasks coordinate only
  through the shared artifact cache's per-key ``flock``;
* :mod:`repro.sched.journal` — the per-run write-ahead log under
  ``<cache-root>/runs/<run-id>/`` and its replay for ``resume=``;
* :mod:`repro.sched.queue` — the executor: a crash-consistent
  filesystem work queue with ``O_EXCL`` leases and fencing epochs; at
  ``jobs=1`` its coordinator runs each task itself, otherwise it forks
  one-task workers, and ``nvscavenger work`` agents may join;
* :mod:`repro.sched.suite` — every ``run_all``'s entry point: canonical
  result order and stats merging, bit-identical for any ``jobs``.
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
