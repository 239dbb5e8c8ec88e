"""Crash-consistent, filesystem-backed work queue: the suite executor.

Every suite run (every ``run_all``) goes through here. The coordinator
(:class:`QueueCoordinator`, behind
:func:`~repro.sched.suite.run_suite_parallel`) publishes the task graph
and per-task *ready files* under ``<cache-root>/runs/<run-id>/queue/``
and forks up to ``jobs`` local workers (at ``jobs=1`` it runs each task
itself); worker agents on any host that can see the artifact-cache
filesystem (:class:`QueueWorker`, behind ``nvscavenger work``) may join.
Workers claim tasks, run them against the shared cache, and publish
results — all through ordinary files with the same durability
discipline the cache itself uses (tmp + fsync + atomic rename).

Layout under ``runs/<run-id>/queue/``::

    manifest.json            run header: serialized task graph, worker
                             config, lease TTL / heartbeat knobs
    tasks/<tid>.json         ready file: {task_id, epoch, attempt,
                             seed_offset[, local]} — present means
                             claimable; ``local`` marks an experiment
                             callable only the coordinator's own
                             workers hold
    leases/<tid>.<e>.json    claim at epoch e: created with O_EXCL (the
                             atomic claim), rewritten by the holder's
                             heartbeat (mtime = liveness)
    fence/<tid>              durable minimum-valid fencing epoch
    results/<tid>.<e>.json   the epoch-e attempt's outcome payload
    STOP                     coordinator tells workers to exit

Lease protocol (docs/architecture.md §15 draws the state machine): a
claim ``O_EXCL``-creates the epoch-named lease file and is checked
against the task's fence after it lands (:meth:`WorkQueue.try_claim`);
the holder's heartbeat rewrites it (mtime = liveness); a revocation
bumps the fence durably *before* republishing at ``epoch + 1``, so the
old holder — a SIGSTOPped zombie that thaws later included — is refused
at every write path with :class:`~repro.errors.FencedOutError`
(:meth:`QueueCoordinator._attempt_failed`); retries reseed
deterministically, and a task out of retries dooms its dependents
(:func:`skip_dependents`); a resume fences off every epoch the earlier
run used (:meth:`QueueCoordinator._retire_earlier_run`).

Local workers run **one task each** (a process keeps the memory of
every task it has run): the coordinator forks one only when a published
task is unclaimed, and sleeps on their process sentinels, so a finished
task's dependents start without waiting out a poll. At ``jobs=1`` it
runs each task through :meth:`QueueWorker.run_claimed` against one
shared context: no crash isolation, no timeout, and an interrupt
abandons the task at once.

Results stay bit-identical to a sequential ``jobs=1`` run under
arbitrary worker SIGKILLs: workers coordinate through the
content-addressed cache (record tasks are idempotent cluster-wide),
results fold in deterministic graph order, and only the
coordinator-accepted epoch's payload is used.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import re
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from multiprocessing.connection import wait as wait_for_exits
from typing import Callable

from repro.engine.artifacts import (
    QUEUE_DIR,
    QUEUE_LEASES_DIR,
    QUEUE_MANIFEST_FILE,
)
from repro.engine.locks import (
    FencingToken,
    pid_alive,
    read_fence,
    write_fence,
)
from repro.errors import FencedOutError, QueueError, SchedulerError
from repro.sched.events import (
    TASK_FAILED,
    TASK_FINISHED,
    TASK_RETRIED,
    TASK_SKIPPED,
    TASK_STARTED,
    EventLog,
    SchedulerReport,
)
from repro.sched.graph import RecordTask, TaskGraph
from repro.sched.journal import (
    RunJournal,
    decode_payload,
    encode_payload,
    run_dir,
)
from repro.sched.workers import (
    WorkerConfig,
    default_start_method,
    task_process_main,
    worker_context,
)
from repro.trace.fsio import (
    OsFS,
    ensure_dir_chain,
    publish_file,
    read_json_or_none,
)

#: Queue sub-directories / files (the leases dir and the manifest are
#: shared with ``engine gc``'s liveness probe via
#: :mod:`repro.engine.artifacts`).
TASKS_DIR = "tasks"
LEASES_DIR = QUEUE_LEASES_DIR
FENCE_DIR = "fence"
RESULTS_DIR = "results"
MANIFEST_FILE = QUEUE_MANIFEST_FILE
STOP_FILE = "STOP"

#: Exit code of a worker that was fenced out of its (only) task —
#: distinct from crash/usage codes so the fencing tests can assert the
#: zombie actually hit the fence rather than dying some other way.
EXIT_FENCED = 7

#: Default lease knobs (suite/CLI override them; tests shrink them).
DEFAULT_LEASE_TTL_S = 15.0
DEFAULT_POLL_S = 0.25

#: Signals that trigger the graceful stop-claiming-and-drain path.
INTERRUPT_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@functools.lru_cache(maxsize=4096)  # every queue path of a task
def safe_task_id(task_id: str) -> str:
    """A filesystem-safe, collision-free name for *task_id*.

    Task ids contain ``:`` (``record:cam``), which is legal on POSIX but
    hostile elsewhere; sanitize and suffix with a short content hash so
    two ids that sanitize identically still get distinct files."""
    clean = re.sub(r"[^A-Za-z0-9._-]", "_", task_id)[:80]
    return f"{clean}-{hashlib.sha256(task_id.encode()).hexdigest()[:8]}"


@dataclass
class SchedulerOutcome:
    """Everything one scheduled run produced."""

    #: task_id -> worker payload of the successful attempt
    payloads: dict[str, dict] = field(default_factory=dict)
    #: task_id -> structured failure info (every retry exhausted)
    failures: dict[str, dict] = field(default_factory=dict)
    #: task_id -> skip info (never launched; a dependency hard-failed)
    skipped: dict[str, dict] = field(default_factory=dict)
    report: SchedulerReport | None = None


def skip_dependents(graph: TaskGraph, task_id: str, reason: str,
                    done: set, outcome: SchedulerOutcome, log: EventLog,
                    journal: RunJournal | None = None) -> None:
    """Propagate a permanent task failure to its transitive dependents.

    Everything downstream of *task_id* that has not already finished is
    doomed — report and journal it as skipped instead of launching it to
    fail slowly against a missing artifact.
    """
    for tid in graph.transitive_dependents(task_id):
        if tid in done or tid in outcome.skipped:
            continue
        done.add(tid)
        outcome.skipped[tid] = {
            "task_id": tid,
            "root_cause": task_id,
            "reason": reason,
        }
        log.emit(TASK_SKIPPED, tid,
                 detail=f"dependency {task_id} failed: {reason}")
        if journal is not None:
            journal.task_skipped(tid, task_id, reason)


# ----------------------------------------------------------------------
class WorkQueue:
    """Path layout + atomic file operations of one run's queue.

    Shared by the coordinator and every worker; holds no state beyond
    the paths, so any number of processes on any number of hosts can
    instantiate it against the same cache root. Every queue file has one
    writer — the coordinator (manifest, ready files), or the holder of
    the epoch named in the file (lease heartbeats, results) — as
    :func:`~repro.trace.fsio.publish_file`'s fixed temporary requires.
    """

    def __init__(self, cache_root: str, run_id: str,
                 fs: OsFS | None = None) -> None:
        self.cache_root = os.fspath(cache_root)
        self.run_id = run_id
        self.fs = fs if fs is not None else OsFS()
        self.root = os.path.join(run_dir(self.cache_root, run_id), QUEUE_DIR)
        self.tasks_dir = os.path.join(self.root, TASKS_DIR)
        self.leases_dir = os.path.join(self.root, LEASES_DIR)
        self.fence_dir = os.path.join(self.root, FENCE_DIR)
        self.results_dir = os.path.join(self.root, RESULTS_DIR)
        self.manifest_path = os.path.join(self.root, MANIFEST_FILE)
        self.stop_path = os.path.join(self.root, STOP_FILE)

    # -- paths ----------------------------------------------------------
    def ready_path(self, task_id: str) -> str:
        return os.path.join(self.tasks_dir, safe_task_id(task_id) + ".json")

    def lease_path(self, task_id: str, epoch: int) -> str:
        return os.path.join(self.leases_dir,
                            f"{safe_task_id(task_id)}.{epoch}.json")

    def fence_path(self, task_id: str) -> str:
        return os.path.join(self.fence_dir, safe_task_id(task_id))

    def result_path(self, task_id: str, epoch: int) -> str:
        return os.path.join(self.results_dir,
                            f"{safe_task_id(task_id)}.{epoch}.json")

    def token(self, task_id: str, epoch: int, owner: str = "") -> FencingToken:
        return FencingToken(path=self.fence_path(task_id), epoch=epoch,
                            owner=owner)

    # -- setup ----------------------------------------------------------
    def init_dirs(self) -> None:
        # the whole new chain up to the cache root: without it a crash
        # could drop e.g. the results/ dir — and every durably-published
        # result in it — in one stroke; one chain covers all four
        for d in (self.leases_dir, self.fence_dir, self.results_dir):
            self.fs.makedirs(d)
        ensure_dir_chain(self.tasks_dir, self.cache_root, self.fs)

    def write_manifest(self, payload: dict) -> None:
        self.init_dirs()
        publish_file(self.manifest_path, json.dumps(payload), self.fs)

    def read_manifest(self) -> dict:
        if not os.path.isdir(self.root):
            raise QueueError(
                f"run {self.run_id!r} has no queue under {self.root} — "
                f"wrong --cache-dir/--run-id, or the coordinator never "
                f"published one")
        manifest = read_json_or_none(self.manifest_path)
        if manifest is None:
            raise QueueError(
                f"queue manifest missing or unreadable: {self.manifest_path}")
        for field in ("graph", "cfg", "run_id"):
            if field not in manifest:
                raise QueueError(
                    f"queue manifest {self.manifest_path} lacks "
                    f"{field!r} — written by an incompatible version?")
        return manifest

    # -- ready files ----------------------------------------------------
    def publish_ready(self, task_id: str, epoch: int, attempt: int,
                      seed_offset: int, local: bool = False) -> None:
        rec = {"task_id": task_id, "epoch": int(epoch),
               "attempt": int(attempt), "seed_offset": int(seed_offset)}
        if local:
            rec["local"] = True
        publish_file(self.ready_path(task_id), json.dumps(rec), self.fs)

    def clear_ready(self, task_id: str) -> None:
        try:
            os.unlink(self.ready_path(task_id))
        except OSError:
            pass

    def ready_entries(self) -> list[dict]:
        """Every parseable ready file, in sorted filename order."""
        try:
            names = sorted(os.listdir(self.tasks_dir))
        except OSError:
            return []
        out = []
        for name in names:
            if not name.endswith(".json"):
                continue
            rec = read_json_or_none(os.path.join(self.tasks_dir, name))
            if rec and "task_id" in rec and "epoch" in rec:
                out.append(rec)
        return out

    def used_epochs(self) -> dict[str, int]:
        """Safe task id -> the highest epoch a lease or result file names:
        how far an earlier run under this run id got with each task."""
        used: dict[str, int] = {}
        for directory in (self.leases_dir, self.results_dir):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                try:
                    stem, epoch, _ext = name.rsplit(".", 2)
                    used[stem] = max(used.get(stem, 0), int(epoch))
                except ValueError:  # a publish temporary, or garbage
                    continue
        return used

    # -- leases ---------------------------------------------------------
    def try_claim(self, entry: dict, worker_id: str) -> dict | None:
        """Atomically claim *entry*'s task at its advertised epoch.

        Returns the lease record on success, None when someone else holds
        the epoch, the epoch is already fenced off, or it already has a
        result. The fence is re-checked *after* the ``O_EXCL`` create
        lands: a revocation that raced us bumped the fence before
        republishing, so the late claim self-cancels instead of
        resurrecting a revoked epoch. So does a claim that won only
        because the epoch's holder published its result and released the
        lease before the coordinator retired the ready file.
        """
        task_id, epoch = entry["task_id"], int(entry["epoch"])
        fence = self.fence_path(task_id)
        if epoch < read_fence(fence):
            return None
        rec = {
            "task_id": task_id, "epoch": epoch,
            "attempt": int(entry.get("attempt", 0)),
            "worker_id": worker_id, "pid": os.getpid(),
            "host": socket.gethostname(), "t": time.time(),
        }
        path = self.lease_path(task_id, epoch)
        try:
            fh = self.fs.open_excl(path)
        except OSError:
            return None  # FileExistsError: epoch already claimed
        try:
            with fh:
                fh.write(json.dumps(rec, separators=(",", ":")))
                self.fs.fsync(fh)
            self.fs.fsync_dir(self.leases_dir)
        except OSError:
            self.release(rec)
            return None
        if (read_fence(fence) > epoch
                or os.path.exists(self.result_path(task_id, epoch))):
            self.release(rec)
            return None
        return rec

    def heartbeat(self, lease: dict) -> None:
        """Refresh the holder's lease file (atomic rewrite; the file's
        mtime is the liveness signal). Epoch-named, so a zombie only
        ever touches its *own* obsolete file — never the new holder's."""
        rec = dict(lease, t=time.time())
        publish_file(self.lease_path(rec["task_id"], int(rec["epoch"])),
                     json.dumps(rec), self.fs)

    def release(self, lease: dict) -> None:
        try:
            os.unlink(self.lease_path(lease["task_id"], int(lease["epoch"])))
        except OSError:
            pass

    # -- results --------------------------------------------------------
    def write_result(self, task_id: str, epoch: int, rec: dict) -> None:
        publish_file(self.result_path(task_id, epoch), json.dumps(rec),
                     self.fs)

    # -- stop -----------------------------------------------------------
    def stop(self) -> None:
        try:
            with open(self.stop_path, "w"):
                pass
        except OSError:
            pass

    def stopped(self) -> bool:
        return os.path.exists(self.stop_path)


# ----------------------------------------------------------------------
class QueueWorker:
    """One worker agent: claim ready tasks, run them, publish results.

    Runs anywhere the cache filesystem is mounted. Everything it needs —
    the task graph (specs included), fidelity knobs, lease TTL — comes
    from the queue manifest, so joining a run is just
    ``nvscavenger work --cache-dir D --run-id R``. A local worker forked
    by the coordinator gets *graph*, *cfg* and the experiment callables
    that are not in the registry (*exp_fns*) straight from it instead.
    """

    def __init__(
        self,
        cache_root: str,
        run_id: str,
        worker_id: str | None = None,
        poll_s: float = DEFAULT_POLL_S,
        heartbeat_s: float | None = None,
        max_tasks: int | None = None,
        chaos_scenario: str | None = None,
        chaos_seed: int | None = None,
        *,
        graph: TaskGraph | None = None,
        cfg: WorkerConfig | None = None,
        exp_fns: dict[str, Callable] | None = None,
        ctx=None,
    ) -> None:
        self.queue = WorkQueue(cache_root, run_id)
        ttl = DEFAULT_LEASE_TTL_S
        if graph is None or cfg is None:
            manifest = self.queue.read_manifest()
            graph = TaskGraph.from_dict(manifest["graph"])
            cfg_fields = dict(manifest["cfg"])
            cfg_fields["apps"] = tuple(cfg_fields.get("apps", ()))
            cfg = WorkerConfig(**cfg_fields)
            ttl = float(manifest.get("lease_ttl_s", DEFAULT_LEASE_TTL_S))
        if chaos_scenario is not None:
            cfg = replace(cfg, chaos_scenario=chaos_scenario)
        if chaos_seed is not None:
            cfg = replace(cfg, chaos_seed=int(chaos_seed))
        self.graph = graph
        self.cfg = cfg
        self.exp_fns = dict(exp_fns or {})
        #: the context all tasks share (at jobs=1); None: one per task
        self.ctx = ctx
        #: claim order: a task's position in the graph (records first)
        self._rank = {tid: i for i, tid in enumerate(graph.order)}
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}")
        self.poll_s = float(poll_s)
        self.heartbeat_s = (float(heartbeat_s) if heartbeat_s is not None
                            else max(0.05, ttl / 4.0))
        self.max_tasks = max_tasks
        #: tasks completed / fenced by this worker (observability + exit
        #: code policy)
        self.completed = 0
        self.fenced = 0

    # ------------------------------------------------------------------
    def claim_next(self) -> tuple[dict, dict] | None:
        """Claim the first available ready task in graph order (record
        tasks before the experiments that wait on them); returns
        ``(entry, lease)`` or None. A ready file marked ``local`` names
        an experiment callable only the coordinator's own workers hold,
        so other agents pass it by."""
        last = len(self._rank)
        entries = sorted(self.queue.ready_entries(),
                         key=lambda e: self._rank.get(e["task_id"], last))
        for entry in entries:
            if entry.get("local") and not self.exp_fns:
                continue
            lease = self.queue.try_claim(entry, self.worker_id)
            if lease is not None:
                return entry, lease
        return None

    def _heartbeat_loop(self, lease: dict, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_s):
            try:
                self.queue.heartbeat(lease)
            except OSError:  # transient fs trouble: mtime just ages
                pass

    def run_claimed(self, entry: dict, lease: dict) -> str:
        """Execute one claimed task end-to-end; returns ``"ok"``,
        ``"error"``, or ``"fenced"``.

        The lease's fencing token is installed on the task's engine
        cache, so every lock acquisition and artifact commit the task
        performs is validated against the fence — being revoked
        mid-flight surfaces as :class:`~repro.errors.FencedOutError`
        and the worker publishes nothing. A ``KeyboardInterrupt``
        abandons the task: it propagates, never an error result.
        """
        task_id, epoch = entry["task_id"], int(entry["epoch"])
        attempt = int(entry.get("attempt", 0))
        seed_offset = int(entry.get("seed_offset", 0))
        token = self.queue.token(task_id, epoch, owner=self.worker_id)
        # the coordinator's own lease (shared context) needs no heartbeat:
        # it is the only judge of liveness and judges none while it runs
        hb = stop = None
        if self.ctx is None:
            stop = threading.Event()
            hb = threading.Thread(target=self._heartbeat_loop,
                                  args=(lease, stop), daemon=True)
            hb.start()
        t0 = time.perf_counter()
        status, payload, info = "ok", None, None
        try:
            task = self.graph.tasks.get(task_id)
            if task is None:
                raise QueueError(
                    f"queue advertised task {task_id!r} but the manifest "
                    f"graph has no such task")
            payload = task_process_main(
                task_id, task, replace(self.cfg, fence=token), seed_offset,
                self.exp_fns.get(getattr(task, "exp_id", "")), self.ctx)
            # the last line of defense: even a task that never touched
            # the cache must not publish a result for a revoked epoch
            token.check(f"result publish for task {task_id}")
        except FencedOutError:
            status = "fenced"
            self.fenced += 1
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 — report, stay alive
            status = "error"
            tb = traceback.format_exc().strip().splitlines()
            info = {
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback_tail": "\n".join(tb[-3:]),
                "pid": os.getpid(),
            }
        finally:
            if hb is not None:
                stop.set()
                hb.join(timeout=2.0)
        if status == "ok":
            self.queue.write_result(task_id, epoch, {
                "task_id": task_id, "epoch": epoch, "attempt": attempt,
                "worker_id": self.worker_id, "status": "ok",
                "wall_s": round(time.perf_counter() - t0, 6),
                "payload": encode_payload(payload),
            })
            self.completed += 1
        elif status == "error":
            self.queue.write_result(task_id, epoch, {
                "task_id": task_id, "epoch": epoch, "attempt": attempt,
                "worker_id": self.worker_id, "status": "error",
                "wall_s": round(time.perf_counter() - t0, 6),
                "info": info,
            })
        # fenced: publish nothing — the winner's epoch owns the result
        self.queue.release(lease)
        return status

    # ------------------------------------------------------------------
    def run(self) -> int:
        """The worker main loop: claim-run-repeat until the coordinator
        writes STOP (exit 0) or ``max_tasks`` tasks ran. Exits
        :data:`EXIT_FENCED` when a bounded run (``--once``/``--max-tasks``)
        was fenced out of a task — the signal the fencing tests assert."""
        ran = 0
        while True:
            if self.queue.stopped():
                break
            if self.max_tasks is not None and ran >= self.max_tasks:
                break
            claimed = self.claim_next()
            if claimed is None:
                time.sleep(self.poll_s)
                continue
            self.run_claimed(*claimed)
            ran += 1
        if self.fenced and self.max_tasks is not None:
            return EXIT_FENCED
        return 0


def _local_worker_main(cache_root: str, run_id: str, worker_id: str,
                       poll_s: float, heartbeat_s: float, graph: TaskGraph,
                       cfg: WorkerConfig, exp_fns: dict) -> None:
    """Entry point of a coordinator-forked local worker: claim one task,
    run it, publish its result, exit."""
    try:
        # workers ignore SIGINT: a terminal Ctrl-C reaches the whole
        # process group, and the coordinator alone decides when a worker
        # stops (its graceful drain, then terminate()); a forked worker
        # inherits the coordinator's SIGTERM handler, so restore the
        # default for terminate() to terminate
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        pass
    worker = QueueWorker(cache_root, run_id, worker_id=worker_id,
                         poll_s=poll_s, heartbeat_s=heartbeat_s, max_tasks=1,
                         graph=graph, cfg=cfg, exp_fns=exp_fns)
    sys.exit(worker.run())


def _terminate(proc) -> None:
    """Stop a local worker: SIGTERM, then SIGKILL if it lingers."""
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=2.0)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=2.0)


# ----------------------------------------------------------------------
class QueueCoordinator:
    """Drives one suite run over the filesystem queue.

    Publishes the manifest and ready files, forks up to ``jobs`` local
    one-task workers as tasks become claimable (``jobs=1``: runs each
    task itself; ``jobs=0``: remote agents only), collects
    epoch-validated results, revokes stale leases
    (heartbeat older than ``lease_ttl_s``, dead local pid, or past
    ``task_timeout_s``), retries with a deterministic reseed, and skips
    the dependents of a task out of retries. *exp_fns* maps the id of an
    experiment that is not in the registry to its callable; only local
    workers can run those.
    """

    def __init__(
        self,
        graph: TaskGraph,
        cfg: WorkerConfig,
        *,
        cache_root: str,
        run_id: str,
        jobs: int,
        max_task_retries: int = 1,
        reseed_stride: int = 1000,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float | None = None,
        poll_s: float = 0.1,
        worker_poll_s: float = DEFAULT_POLL_S,
        task_timeout_s: float | None = None,
        on_event=None,
        journal: RunJournal | None = None,
        seed_done=(),
        seed_payloads=None,
        drain_grace_s: float = 10.0,
        handle_signals: bool = False,
        exp_fns: dict[str, Callable] | None = None,
    ) -> None:
        if jobs < 0:
            raise SchedulerError(
                f"queue coordinator needs jobs >= 0 (0 = no local workers, "
                f"remote agents only), got {jobs}")
        self.graph = graph
        self.cfg = cfg
        self.queue = WorkQueue(cache_root, run_id)
        self.run_id = run_id
        self.jobs = jobs
        self.max_task_retries = max_task_retries
        self.reseed_stride = reseed_stride
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_s = (float(heartbeat_s) if heartbeat_s is not None
                            else max(0.05, self.lease_ttl_s / 4.0))
        self.poll_s = poll_s
        self.worker_poll_s = worker_poll_s
        self.task_timeout_s = task_timeout_s
        self.on_event = on_event
        self.journal = journal
        self.seed_done = {t for t in seed_done if t in graph.tasks}
        self.seed_payloads = {
            tid: p for tid, p in (seed_payloads or {}).items()
            if tid in self.seed_done
        }
        self.drain_grace_s = drain_grace_s
        self.handle_signals = handle_signals
        self.exp_fns = dict(exp_fns or {})
        self.host = socket.gethostname()
        self._signum: int | None = None
        self._force = False
        self._spawned = 0
        #: live local workers by worker id
        self._workers: dict[str, multiprocessing.Process] = {}
        #: every worker id seen holding a lease or publishing a result
        self._claimed: set[str] = set()
        #: at jobs=1, the worker running tasks in this process
        self._here: QueueWorker | None = None
        self._running_here = False

    # -- signal plumbing -------------------------------------------------
    def _on_signal(self, signum, frame) -> None:  # noqa: ARG002
        if self._signum is None:
            self._signum = signum
        else:
            self._force = True  # second signal: skip the grace drain
        if self._running_here:  # abandon the task running here, once
            self._running_here = False
            raise KeyboardInterrupt

    def _install_handlers(self) -> dict:
        """Install the drain handlers; returns what to restore."""
        previous: dict = {}
        if not self.handle_signals:
            return previous
        if threading.current_thread() is not threading.main_thread():
            return previous  # signal.signal only works on the main thread
        for sig in INTERRUPT_SIGNALS:
            try:
                previous[sig] = signal.signal(sig, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover — platform
                pass
        return previous

    # -- local workers ---------------------------------------------------
    def _fork_workers(self, mp_ctx, done: set, published: dict) -> None:
        """Fork a one-task worker per unclaimed task that no idle worker
        can take, keeping at most ``jobs`` alive."""
        unclaimed = sum(1 for tid, pub in published.items()
                        if tid not in done and not pub["granted"])
        idle = sum(1 for wid in self._workers if wid not in self._claimed)
        for _ in range(min(self.jobs - len(self._workers), unclaimed - idle)):
            self._spawned += 1
            wid = f"local-{self.host}-{os.getpid()}-{self._spawned}"
            proc = mp_ctx.Process(
                target=_local_worker_main,
                args=(self.queue.cache_root, self.run_id, wid,
                      self.worker_poll_s, self.heartbeat_s, self.graph,
                      self.cfg, self.exp_fns),
                daemon=True,
            )
            proc.start()
            self._workers[wid] = proc
            if self.journal is not None:
                self.journal.worker_joined(wid)

    def _run_here(self, done: set, published: dict, log) -> bool:
        """At ``jobs=1``: claim the first published, unclaimed task in
        graph order and run it here; an interrupt abandons it (or, first,
        starts nothing). Whether to go round again at once."""
        if self._signum is not None:
            return True
        if self._here is None:
            self._here = QueueWorker(
                self.queue.cache_root, self.run_id,
                worker_id=f"coordinator-{self.host}-{os.getpid()}",
                graph=self.graph, cfg=self.cfg, exp_fns=self.exp_fns,
                ctx=worker_context(self.cfg))
        for tid in self.graph.order:
            pub = published.get(tid)
            if pub is None or pub["granted"] or tid in done:
                continue
            entry = {"task_id": tid, "epoch": pub["epoch"],
                     "attempt": pub["attempt"],
                     "seed_offset": self._seed_offset(tid, pub["attempt"])}
            lease = self.queue.try_claim(entry, self._here.worker_id)
            if lease is None:
                continue  # a work agent holds it
            self._grant(tid, pub, lease, log)
            try:
                self._running_here = True
                if self._signum is not None:  # signalled while claiming
                    raise KeyboardInterrupt
                self._here.run_claimed(entry, lease)
                self._running_here = False
            except KeyboardInterrupt:
                self._running_here = False
                if self._signum is None:  # raised by the task itself
                    self._signum = int(signal.SIGINT)
                del published[tid]
            return True
        return False

    def _reap(self, exited: list, done: set, published: dict,
              attempts: dict, outcome, log) -> None:
        """Account for local workers that exited. *exited* is taken
        before the round reads grants and results, so whatever a worker
        published before exiting has been seen. A task it still held
        failed its attempt (while draining, it is left pending for a
        resume); a worker that never claimed a task failed at start-up,
        which forking another would only repeat."""
        for wid, proc in exited:
            del self._workers[wid]
            held = [tid for tid, pub in published.items()
                    if tid not in done and pub["granted"]
                    and pub["worker"] == wid]
            for tid in held:
                if self._signum is None:
                    self._revoke(
                        tid, f"worker died (exitcode {proc.exitcode}) "
                             f"before reporting a result",
                        done, published, attempts, outcome, log)
                else:
                    del published[tid]
            if wid not in self._claimed and self._signum is None:
                raise SchedulerError(
                    f"local worker {wid} exited (exitcode {proc.exitcode}) "
                    f"before claiming a task: it failed at start-up")

    def _wait(self) -> None:
        """Sleep one poll interval, waking as soon as a local worker
        exits (its result is then collected and its dependents started
        at once)."""
        if self._workers:
            wait_for_exits([p.sentinel for p in self._workers.values()],
                           timeout=self.poll_s)
        else:
            time.sleep(self.poll_s)

    # -- publishing -----------------------------------------------------
    def _seed_offset(self, task_id: str, attempt: int) -> int:
        task = self.graph.tasks[task_id]
        if isinstance(task, RecordTask):
            return 0  # the spec is the cache key; reseeding would fork it
        return attempt * self.reseed_stride

    def _publish(self, task_id: str, epoch: int, attempt: int,
                 published: dict) -> None:
        exp_id = getattr(self.graph.tasks[task_id], "exp_id", None)
        self.queue.publish_ready(task_id, epoch, attempt,
                                 self._seed_offset(task_id, attempt),
                                 local=exp_id in self.exp_fns)
        published[task_id] = {
            "epoch": epoch, "attempt": attempt, "granted": False,
            "t_grant": None, "worker": "", "pid": None, "host": "",
        }

    def _publish_ready(self, done: set, published: dict, attempts: dict,
                       outcome, log) -> None:
        if self._signum is not None:
            return
        running = set(published) - done
        for tid in self.graph.ready(done, running):
            epoch = max(read_fence(self.queue.fence_path(tid)), 1)
            self._publish(tid, epoch, attempts.get(tid, 0), published)

    def _check_stall(self, done: set, published: dict) -> None:
        """Pending tasks with nothing published, running or ready can
        never finish: name what each one waits on instead of spinning."""
        if self._signum is not None or any(tid not in done
                                           for tid in published):
            return
        pending = [tid for tid in self.graph.order if tid not in done]
        if pending:
            waits = "; ".join(
                f"{tid} waits on "
                f"[{', '.join(self.graph.unmet_deps(tid, done))}]"
                for tid in pending)
            raise SchedulerError(
                f"scheduler stalled with {len(pending)} pending task(s): "
                f"{waits}")

    def _retire_earlier_run(self) -> None:
        """Make a run directory an earlier coordinator left behind safe
        to run again (a resume): drop its STOP marker and ready files,
        then move each unfinished task's fence past every epoch that run
        used. The task is then published afresh at attempt 0, and a
        worker still holding one of the earlier leases is fenced out."""
        q = self.queue
        if q.stopped():
            os.unlink(q.stop_path)
        for name in os.listdir(q.tasks_dir):
            os.unlink(os.path.join(q.tasks_dir, name))
        used = q.used_epochs()
        for tid in self.graph.order:
            if tid in self.seed_done:
                continue
            last = max(used.get(safe_task_id(tid), 0),
                       read_fence(q.fence_path(tid)))
            if last:
                write_fence(q.fence_path(tid), last + 1, fs=q.fs)

    # -- grants ---------------------------------------------------------
    def _grant(self, tid: str, pub: dict, rec: dict, log) -> None:
        """*rec*'s worker holds *tid*: retire the ready file (released,
        its epoch would be claimable again), then emit and journal the
        start."""
        pub.update(granted=True, t_grant=time.monotonic(),
                   worker=str(rec.get("worker_id", "")),
                   pid=rec.get("pid"), host=str(rec.get("host", "")))
        self._claimed.add(pub["worker"])
        self.queue.clear_ready(tid)
        log.emit(TASK_STARTED, tid, attempt=pub["attempt"],
                 pid=pub["pid"], detail=f"lease -> {pub['worker']}")
        if self.journal is not None:
            self.journal.task_granted(tid, pub["worker"], pub["epoch"],
                                      pub["attempt"])

    def _observe_grants(self, done: set, published: dict, log) -> None:
        for tid, pub in published.items():
            if tid in done or pub["granted"]:
                continue
            rec = read_json_or_none(self.queue.lease_path(tid, pub["epoch"]))
            if rec is not None:
                self._grant(tid, pub, rec, log)

    # -- results --------------------------------------------------------
    def _collect(self, done: set, published: dict, attempts: dict,
                 outcome, log) -> None:
        for tid, pub in list(published.items()):
            if tid in done:
                continue
            rec = read_json_or_none(self.queue.result_path(tid, pub["epoch"]))
            if rec is None:
                continue
            # the grant seen may have been a later claimant's lease that
            # backed off from this finished epoch: credit the publisher
            self._claimed.add(str(rec.get("worker_id", "")))
            if not pub["granted"]:
                # the worker claimed and finished between two polls
                self._grant(tid, pub, rec, log)
            if rec.get("status") != "ok":
                info = rec.get("info") or {}
                self._attempt_failed(
                    tid,
                    f"{info.get('error_type', 'Error')}: "
                    f"{info.get('message', '')}",
                    done, published, attempts, outcome, log)
                continue
            encoded = rec.get("payload", {})
            try:
                payload = decode_payload(encoded)
            except Exception as exc:  # torn/garbled result: re-run
                self._attempt_failed(
                    tid, f"undecodable result payload: {exc}",
                    done, published, attempts, outcome, log)
                continue
            done.add(tid)
            outcome.payloads[tid] = payload
            wall = float(rec.get("wall_s", 0.0))
            log.emit(TASK_FINISHED, tid, attempt=pub["attempt"],
                     pid=pub["pid"],
                     wall_s=round(float(
                         payload.get("wall_s", wall)
                         if isinstance(payload, dict) else wall), 6),
                     detail=(payload.get("error", "")
                             if isinstance(payload, dict) else ""))
            if self.journal is not None:
                self.journal.task_finished(tid, pub["attempt"], encoded)

    # -- revocation / retry ---------------------------------------------
    def _check_leases(self, done: set, published: dict, attempts: dict,
                      outcome, log) -> None:
        now_wall = time.time()
        now_mono = time.monotonic()
        for tid, pub in list(published.items()):
            if tid in done or not pub["granted"]:
                continue
            lease_file = self.queue.lease_path(tid, pub["epoch"])
            try:
                age = now_wall - os.stat(lease_file).st_mtime
            except OSError:
                # lease gone without a collected result: if the result
                # file exists we'll pick it up next _collect; otherwise
                # the worker vanished mid-release — revoke now
                if os.path.exists(self.queue.result_path(tid, pub["epoch"])):
                    continue
                self._revoke(tid, "lease file vanished without a result",
                             done, published, attempts, outcome, log)
                continue
            reason = None
            if age > self.lease_ttl_s:
                reason = (f"lease heartbeat stale ({age:.1f}s > "
                          f"TTL {self.lease_ttl_s:.1f}s)")
            elif (pub["host"] == self.host and pub["pid"]
                    and not pid_alive(int(pub["pid"]))):
                reason = f"worker pid {pub['pid']} died on {self.host}"
            elif (self.task_timeout_s is not None and pub["t_grant"]
                    and now_mono - pub["t_grant"] > self.task_timeout_s):
                reason = (f"task exceeded {self.task_timeout_s:.1f}s "
                          f"wall-clock allowance")
            if reason is not None:
                self._revoke(tid, reason, done, published, attempts,
                             outcome, log)

    def _revoke(self, tid: str, reason: str, done: set, published: dict,
                attempts: dict, outcome, log) -> None:
        pub = published[tid]
        proc = self._workers.pop(pub["worker"], None)
        if proc is not None:  # a local worker: stop it, freeing its slot
            _terminate(proc)
        if self.journal is not None:
            self.journal.lease_revoked(tid, pub["worker"], pub["epoch"],
                                       reason)
        self._attempt_failed(tid, reason, done, published, attempts,
                             outcome, log)

    def _attempt_failed(self, tid: str, reason: str, done: set,
                        published: dict, attempts: dict, outcome,
                        log) -> None:
        """One grant of *tid* is lost (stale, dead, timed out, or the
        worker reported an error): fence the old epoch off, then retry
        or fail permanently. **Ordering matters**: the fence bump is
        durable before the task is republished, so the revoked holder
        can never commit over its successor."""
        pub = published[tid]
        epoch = pub["epoch"]
        write_fence(self.queue.fence_path(tid), epoch + 1,
                    fs=self.queue.fs)
        self.queue.clear_ready(tid)
        attempts[tid] = pub["attempt"] + 1
        if attempts[tid] <= self.max_task_retries:
            log.emit(TASK_RETRIED, tid, attempt=pub["attempt"],
                     pid=pub["pid"], detail=reason)
            self._publish(tid, epoch + 1, attempts[tid], published)
            return
        done.add(tid)
        outcome.failures[tid] = {
            "task_id": tid,
            "attempts": attempts[tid],
            "reason": reason,
        }
        log.emit(TASK_FAILED, tid, attempt=pub["attempt"], pid=pub["pid"],
                 detail=reason)
        if self.journal is not None:
            self.journal.task_failed(tid, attempts[tid], reason)
        skip_dependents(self.graph, tid, reason, done, outcome, log,
                        journal=self.journal)

    # -- one round, drain, shutdown ----------------------------------------
    def _settle(self, done: set, published: dict, attempts: dict, outcome,
                log) -> None:
        """Take in everything workers did since the last round: grants,
        results, exited local workers, lapsed leases."""
        exited = [(wid, p) for wid, p in self._workers.items()
                  if not p.is_alive()]
        self._observe_grants(done, published, log)
        self._collect(done, published, attempts, outcome, log)
        self._reap(exited, done, published, attempts, outcome, log)
        self._check_leases(done, published, attempts, outcome, log)

    def _drain_on_interrupt(self, done, published, attempts, outcome,
                            log) -> None:
        """Stop claims (STOP), give tasks in flight ``drain_grace_s`` to
        finish — their results are collected and journaled normally —
        and leave the rest pending for a resume. A second signal cuts
        the grace short."""
        self.queue.stop()
        deadline = time.monotonic() + max(0.0, self.drain_grace_s)
        while True:
            self._settle(done, published, attempts, outcome, log)
            if (self._force or time.monotonic() >= deadline
                    or not any(tid not in done and pub["granted"]
                               for tid, pub in published.items())):
                break
            self._wait()
        if self.journal is not None:
            self.journal.run_interrupted(int(self._signum or 0))

    def _shutdown_workers(self) -> None:
        self.queue.stop()
        deadline = time.monotonic() + 2.0
        for p in self._workers.values():
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in self._workers.values():
            _terminate(p)
        self._workers.clear()

    # ------------------------------------------------------------------
    def publish(self) -> None:
        """Write the manifest (graph + worker config + lease knobs) so
        workers anywhere can join. Idempotent."""
        cfg = asdict(self.cfg)
        cfg["apps"] = list(cfg["apps"])
        self.queue.write_manifest({
            "run_id": self.run_id,
            "fingerprint": self.graph.fingerprint(),
            "graph": self.graph.to_dict(),
            "cfg": cfg,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_s": self.heartbeat_s,
            "reseed_stride": self.reseed_stride,
        })

    def run(self) -> SchedulerOutcome:
        earlier = os.path.isdir(self.queue.root)
        self.publish()
        if earlier:
            self._retire_earlier_run()
        mp_ctx = multiprocessing.get_context(default_start_method())
        log = EventLog(self.on_event)
        outcome = SchedulerOutcome()
        outcome.payloads.update(self.seed_payloads)
        done: set[str] = set(self.seed_done)
        published: dict[str, dict] = {}
        attempts: dict[str, int] = {}
        t_start = time.monotonic()
        previous_handlers = self._install_handlers()
        try:
            while self._signum is None:
                self._settle(done, published, attempts, outcome, log)
                if len(done) == len(self.graph) or self._signum is not None:
                    break
                self._publish_ready(done, published, attempts, outcome, log)
                self._check_stall(done, published)
                if self.jobs == 1:
                    if self._run_here(done, published, log):
                        continue
                else:
                    self._fork_workers(mp_ctx, done, published)
                self._wait()
            if self._signum is not None:
                self._drain_on_interrupt(done, published, attempts,
                                         outcome, log)
        finally:
            for sig, handler in previous_handlers.items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            self._shutdown_workers()
        outcome.report = SchedulerReport(
            jobs=self.jobs,
            wall_s=time.monotonic() - t_start,
            n_tasks=len(self.graph),
            n_records=len(self.graph.record_tasks),
            n_experiments=len(self.graph.experiment_tasks),
            n_retries=log.count(TASK_RETRIED),
            n_failed=len(outcome.failures),
            n_skipped=len(outcome.skipped),
            n_resumed=len(self.seed_done),
            interrupted=self._signum is not None,
            signum=self._signum,
            run_id=self.run_id,
            cache_root=self.queue.cache_root,
            task_wall_s={
                tid: float(p.get("wall_s", 0.0))
                for tid, p in outcome.payloads.items()
                if isinstance(p, dict)
            },
            events=log.events,
        )
        return outcome
