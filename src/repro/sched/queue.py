"""Crash-consistent, filesystem-backed distributed work queue.

Any host that can see the artifact-cache filesystem can join a suite
run: the coordinator (:class:`QueueCoordinator`, behind
``run_suite_parallel(transport="queue")``) publishes the task graph and
per-task *ready files* under ``<cache-root>/runs/<run-id>/queue/``, and
worker agents (:class:`QueueWorker`, behind ``nvscavenger work``) claim
tasks, run them against the shared cache, and publish results — all
through ordinary files with the same durability discipline the cache
itself uses (tmp + fsync + atomic rename).

Layout under ``runs/<run-id>/queue/``::

    manifest.json            run header: serialized task graph, worker
                             config, lease TTL / heartbeat knobs
    tasks/<tid>.json         ready file: {task_id, epoch, attempt,
                             seed_offset} — present means claimable
    leases/<tid>.<e>.json    claim at epoch e: created with O_EXCL (the
                             atomic claim), rewritten by the holder's
                             heartbeat thread (mtime = liveness)
    fence/<tid>              durable minimum-valid fencing epoch
    results/<tid>.<e>.json   the epoch-e attempt's outcome payload
    STOP                     coordinator tells workers to exit

Lease protocol and the zombie problem:

* **claim** — ``O_EXCL``-create the epoch-named lease file; exactly one
  worker can win an epoch. The claim is validated against the fence
  *after* it lands, so a claim racing a revocation loses even though
  its ``O_EXCL`` succeeded.
* **heartbeat** — the holder atomically rewrites its lease file every
  ``heartbeat_s``; the coordinator treats a lease whose mtime is older
  than ``lease_ttl_s`` as dead. A worker on the coordinator's own host
  whose pid is gone is revoked immediately (no need to wait out the
  TTL).
* **revoke** — the coordinator bumps the task's fence file **before**
  republishing the task at ``epoch + 1``. Ordering is the whole
  protocol: once the fence moves, the old epoch's holder cannot take a
  key lock, commit an artifact, or publish a result, *no matter when it
  wakes up* — a SIGSTOPped zombie that thaws after its task was
  reassigned and finished is refused at every write path with
  :class:`~repro.errors.FencedOutError`.
* **retry** — a revoked or crashed attempt requeues with the scheduler's
  deterministic reseed policy (``seed + attempt * reseed_stride``;
  record tasks never reseed because the spec *is* their cache key), and
  a task out of retries dooms its transitive dependents exactly like
  the process transport (:func:`repro.sched.scheduler.skip_dependents`).

Results stay bit-identical to a sequential ``jobs=1`` run under
arbitrary worker SIGKILLs for the same reason the process pool's do:
workers coordinate through the content-addressed cache (record tasks
are idempotent cluster-wide), results fold in deterministic graph
order, and only the coordinator-accepted epoch's payload is used.
"""

from __future__ import annotations

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
from dataclasses import asdict

from repro.engine.artifacts import QUEUE_DIR, QUEUE_LEASES_DIR
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
from repro.sched.scheduler import (
    INTERRUPT_SIGNALS,
    SchedulerOutcome,
    default_start_method,
    skip_dependents,
)
from repro.sched.workers import (
    WorkerConfig,
    run_experiment_task,
    run_record_task,
)
from repro.trace.fsio import (
    OsFS,
    ensure_dir_chain,
    publish_file,
    read_json_or_none,
)

#: Queue sub-directories / files (leases dir name is shared with
#: ``engine gc``'s liveness probe via :mod:`repro.engine.artifacts`).
TASKS_DIR = "tasks"
LEASES_DIR = QUEUE_LEASES_DIR
FENCE_DIR = "fence"
RESULTS_DIR = "results"
MANIFEST_FILE = "manifest.json"
STOP_FILE = "STOP"

#: Exit code of a worker that was fenced out of its (only) task —
#: distinct from crash/usage codes so the fencing tests can assert the
#: zombie actually hit the fence rather than dying some other way.
EXIT_FENCED = 7

#: Default lease knobs (suite/CLI override them; tests shrink them).
DEFAULT_LEASE_TTL_S = 15.0
DEFAULT_POLL_S = 0.25


def safe_task_id(task_id: str) -> str:
    """A filesystem-safe, collision-free name for *task_id*.

    Task ids contain ``:`` (``record:cam``), which is legal on POSIX but
    hostile elsewhere; sanitize and suffix with a short content hash so
    two ids that sanitize identically still get distinct files."""
    clean = re.sub(r"[^A-Za-z0-9._-]", "_", task_id)[:80]
    return f"{clean}-{hashlib.sha256(task_id.encode()).hexdigest()[:8]}"


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

    # -- paths ----------------------------------------------------------
    @property
    def tasks_dir(self) -> str:
        return os.path.join(self.root, TASKS_DIR)

    @property
    def leases_dir(self) -> str:
        return os.path.join(self.root, LEASES_DIR)

    @property
    def fence_dir(self) -> str:
        return os.path.join(self.root, FENCE_DIR)

    @property
    def results_dir(self) -> str:
        return os.path.join(self.root, RESULTS_DIR)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_FILE)

    @property
    def stop_path(self) -> str:
        return os.path.join(self.root, STOP_FILE)

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
        # result in it — in one stroke
        for d in (self.tasks_dir, self.leases_dir, self.fence_dir,
                  self.results_dir):
            ensure_dir_chain(d, self.cache_root, self.fs)

    def write_manifest(self, payload: dict) -> None:
        self.init_dirs()
        publish_file(self.manifest_path, json.dumps(payload), self.fs)

    def read_manifest(self) -> dict:
        if not os.path.isdir(self.root):
            raise QueueError(
                f"run {self.run_id!r} has no queue under {self.root} — "
                f"wrong --cache-dir/--run-id, or the coordinator never "
                f"published one (transport='queue')")
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
                      seed_offset: int) -> None:
        publish_file(self.ready_path(task_id), json.dumps({
            "task_id": task_id, "epoch": int(epoch),
            "attempt": int(attempt), "seed_offset": int(seed_offset),
        }), self.fs)

    def clear_ready(self, task_id: str) -> None:
        try:
            os.unlink(self.ready_path(task_id))
        except OSError:
            pass

    def ready_entries(self) -> list[dict]:
        """Every parseable ready file, in sorted filename order (the
        deterministic claim order workers scan in)."""
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

    # -- leases ---------------------------------------------------------
    def try_claim(self, entry: dict, worker_id: str) -> dict | None:
        """Atomically claim *entry*'s task at its advertised epoch.

        Returns the lease record on success, None when someone else holds
        the epoch or the epoch is already fenced off. The fence is
        re-checked *after* the ``O_EXCL`` create lands: a revocation that
        raced us bumped the fence before republishing, so the late claim
        self-cancels instead of resurrecting a revoked epoch.
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
                json.dump(rec, fh, separators=(",", ":"))
                self.fs.fsync(fh)
            self.fs.fsync_dir(self.leases_dir)
        except OSError:
            self.release(rec)
            return None
        if read_fence(fence) > epoch:
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
    ``nvscavenger work --cache-dir D --run-id R``.
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
    ) -> None:
        self.queue = WorkQueue(cache_root, run_id)
        manifest = self.queue.read_manifest()
        self.graph = TaskGraph.from_dict(manifest["graph"])
        cfg_fields = dict(manifest["cfg"])
        cfg_fields["apps"] = tuple(cfg_fields.get("apps", ()))
        if chaos_scenario is not None:
            cfg_fields["chaos_scenario"] = chaos_scenario
        if chaos_seed is not None:
            cfg_fields["chaos_seed"] = int(chaos_seed)
        self.cfg = WorkerConfig(**cfg_fields)
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}")
        self.poll_s = float(poll_s)
        ttl = float(manifest.get("lease_ttl_s", DEFAULT_LEASE_TTL_S))
        self.heartbeat_s = (float(heartbeat_s) if heartbeat_s is not None
                            else max(0.05, ttl / 4.0))
        self.max_tasks = max_tasks
        #: tasks completed / fenced by this worker (observability + exit
        #: code policy)
        self.completed = 0
        self.fenced = 0

    # ------------------------------------------------------------------
    def claim_next(self) -> tuple[dict, dict] | None:
        """Scan ready files in deterministic order and claim the first
        available task; returns ``(entry, lease)`` or None."""
        for entry in self.queue.ready_entries():
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
        and the worker publishes nothing.
        """
        task_id, epoch = entry["task_id"], int(entry["epoch"])
        attempt = int(entry.get("attempt", 0))
        seed_offset = int(entry.get("seed_offset", 0))
        token = self.queue.token(task_id, epoch, owner=self.worker_id)
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
            if isinstance(task, RecordTask):
                payload = run_record_task(task.spec, self.cfg, fence=token)
            else:
                payload = run_experiment_task(task.exp_id, None, self.cfg,
                                              seed_offset, fence=token)
            # the last line of defense: even a task that never touched
            # the cache must not publish a result for a revoked epoch
            token.check(f"result publish for task {task_id}")
        except FencedOutError:
            status = "fenced"
            self.fenced += 1
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
                       poll_s: float) -> None:
    """Entry point of a coordinator-spawned local worker process."""
    try:
        # same rationale as the process transport's workers: the
        # coordinator drains on SIGINT/SIGTERM; workers only stop when
        # told (STOP file / terminate())
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        pass
    worker = QueueWorker(cache_root, run_id, worker_id=worker_id,
                         poll_s=poll_s)
    sys.exit(worker.run())


# ----------------------------------------------------------------------
class QueueCoordinator:
    """Drives one suite run over the filesystem queue.

    Publishes the manifest and ready files, optionally spawns ``jobs``
    local worker processes (any number of remote ``nvscavenger work``
    agents may join too), collects epoch-validated results, revokes
    stale leases (heartbeat older than ``lease_ttl_s``, dead local pid,
    or past ``task_timeout_s``), and applies the same retry /
    dependency-skip policy as the process transport. Produces the same
    :class:`~repro.sched.scheduler.SchedulerOutcome` shape, so the
    suite layer treats both transports identically.
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
        start_method: str | None = None,
        max_respawns: int = 64,
        stall_timeout_s: float | None = 60.0,
    ) -> None:
        if jobs < 0:
            raise SchedulerError(
                f"queue transport needs jobs >= 0 (0 = no local workers, "
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
        self.start_method = start_method or default_start_method()
        self.max_respawns = max_respawns
        self.stall_timeout_s = stall_timeout_s
        self.host = socket.gethostname()
        self._signum: int | None = None
        self._force = False
        self._spawned = 0

    # -- signal plumbing (same contract as the process Scheduler) ------
    def _on_signal(self, signum, frame) -> None:  # noqa: ARG002
        if self._signum is None:
            self._signum = signum
        else:
            self._force = True

    def _install_handlers(self) -> dict:
        previous: dict = {}
        if not self.handle_signals:
            return previous
        if threading.current_thread() is not threading.main_thread():
            return previous
        for sig in INTERRUPT_SIGNALS:
            try:
                previous[sig] = signal.signal(sig, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover — platform
                pass
        return previous

    # -- local worker pool ---------------------------------------------
    def _spawn_worker(self, mp_ctx, procs: list) -> None:
        self._spawned += 1
        wid = f"local-{self.host}-{os.getpid()}-{self._spawned}"
        proc = mp_ctx.Process(
            target=_local_worker_main,
            args=(self.queue.cache_root, self.run_id, wid,
                  self.worker_poll_s),
            daemon=True,
        )
        proc.start()
        procs.append(proc)
        if self.journal is not None:
            self.journal.worker_joined(wid)

    def _maintain_pool(self, mp_ctx, procs: list) -> None:
        alive = [p for p in procs if p.is_alive()]
        dead = len(procs) - len(alive)
        procs[:] = alive
        if dead:
            for _ in range(dead):
                if (len(procs) < self.jobs
                        and self._spawned < self.jobs + self.max_respawns):
                    self._spawn_worker(mp_ctx, procs)

    # -- publishing -----------------------------------------------------
    def _seed_offset(self, task_id: str, attempt: int) -> int:
        task = self.graph.tasks[task_id]
        if isinstance(task, RecordTask):
            return 0  # the spec is the cache key; reseeding would fork it
        return attempt * self.reseed_stride

    def _publish(self, task_id: str, epoch: int, attempt: int,
                 published: dict) -> None:
        self.queue.publish_ready(task_id, epoch, attempt,
                                 self._seed_offset(task_id, attempt))
        published[task_id] = {
            "epoch": epoch, "attempt": attempt, "granted": False,
            "t_pub": time.monotonic(), "t_grant": None,
            "worker": "", "pid": None, "host": "",
        }

    def _publish_ready(self, done: set, published: dict, attempts: dict,
                       outcome, log) -> None:
        if self._signum is not None:
            return
        running = set(published) - done
        for tid in self.graph.ready(done, running):
            epoch = max(read_fence(self.queue.fence_path(tid)), 1)
            self._publish(tid, epoch, attempts.get(tid, 0), published)

    # -- grants ---------------------------------------------------------
    def _observe_grants(self, done: set, published: dict, log) -> None:
        for tid, pub in published.items():
            if tid in done or pub["granted"]:
                continue
            rec = read_json_or_none(self.queue.lease_path(tid, pub["epoch"]))
            if rec is None:
                continue
            pub.update(granted=True, t_grant=time.monotonic(),
                       worker=str(rec.get("worker_id", "")),
                       pid=rec.get("pid"), host=str(rec.get("host", "")))
            self.queue.clear_ready(tid)
            log.emit(TASK_STARTED, tid, attempt=pub["attempt"],
                     pid=pub["pid"], detail=f"lease -> {pub['worker']}")
            if self.journal is not None:
                self.journal.lease_granted(tid, pub["worker"], pub["epoch"])
                self.journal.task_started(tid, pub["attempt"])

    # -- results --------------------------------------------------------
    def _collect(self, done: set, published: dict, attempts: dict,
                 outcome, log) -> int:
        handled = 0
        for tid, pub in list(published.items()):
            if tid in done:
                continue
            rec = read_json_or_none(self.queue.result_path(tid, pub["epoch"]))
            if rec is None:
                continue
            handled += 1
            if rec.get("status") == "ok":
                try:
                    payload = decode_payload(rec.get("payload", {}))
                except Exception as exc:  # torn/garbled result: re-run
                    self._attempt_failed(
                        tid, f"undecodable result payload: {exc}",
                        done, published, attempts, outcome, log)
                    continue
                if not pub["granted"]:
                    # the worker claimed + finished between two polls;
                    # backfill the start event so streams stay paired
                    log.emit(TASK_STARTED, tid, attempt=pub["attempt"],
                             detail=f"lease -> {rec.get('worker_id', '')}")
                    if self.journal is not None:
                        self.journal.lease_granted(
                            tid, str(rec.get("worker_id", "")), pub["epoch"])
                        self.journal.task_started(tid, pub["attempt"])
                    pub["granted"] = True
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
                    self.journal.task_finished(tid, pub["attempt"], payload)
            else:
                info = rec.get("info") or {}
                self._attempt_failed(
                    tid,
                    f"{info.get('error_type', 'Error')}: "
                    f"{info.get('message', '')}",
                    done, published, attempts, outcome, log)
        return handled

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

    # -- stall detection -------------------------------------------------
    def _check_stall(self, done: set, published: dict, procs: list) -> None:
        if self.jobs == 0 or self.stall_timeout_s is None:
            return  # remote-only mode: waiting is the operator's choice
        if procs:
            return
        if self._spawned < self.jobs + self.max_respawns:
            return  # _maintain_pool will respawn
        now = time.monotonic()
        unclaimed = [
            tid for tid, pub in published.items()
            if tid not in done and not pub["granted"]
            and now - pub["t_pub"] > self.stall_timeout_s
        ]
        if unclaimed:
            raise SchedulerError(
                f"queue stalled: every local worker is dead, the respawn "
                f"budget ({self.max_respawns}) is exhausted, and "
                f"{len(unclaimed)} published task(s) went unclaimed for "
                f"{self.stall_timeout_s:.0f}s (first: {unclaimed[0]})")

    # -- shutdown --------------------------------------------------------
    def _shutdown_workers(self, procs: list) -> None:
        self.queue.stop()
        deadline = time.monotonic() + 2.0
        for p in procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=2.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=2.0)

    def _drain_on_interrupt(self, done, published, attempts, outcome,
                            log) -> None:
        deadline = time.monotonic() + max(0.0, self.drain_grace_s)
        while (not self._force and time.monotonic() < deadline
               and any(tid not in done and pub["granted"]
                       for tid, pub in published.items())):
            self._collect(done, published, attempts, outcome, log)
            time.sleep(self.poll_s)
        self._collect(done, published, attempts, outcome, log)
        if self.journal is not None:
            self.journal.run_interrupted(int(self._signum or 0))

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
        self.publish()
        mp_ctx = multiprocessing.get_context(self.start_method)
        log = EventLog(self.on_event)
        outcome = SchedulerOutcome()
        outcome.payloads.update(self.seed_payloads)
        done: set[str] = set(self.seed_done)
        published: dict[str, dict] = {}
        attempts: dict[str, int] = {}
        procs: list = []
        t_start = time.monotonic()
        previous_handlers = self._install_handlers()
        try:
            for _ in range(self.jobs):
                self._spawn_worker(mp_ctx, procs)
            while len(done) < len(self.graph):
                if self._signum is not None:
                    break
                self._publish_ready(done, published, attempts, outcome, log)
                self._observe_grants(done, published, log)
                handled = self._collect(done, published, attempts, outcome,
                                        log)
                self._check_leases(done, published, attempts, outcome, log)
                self._maintain_pool(mp_ctx, procs)
                self._check_stall(done, published, procs)
                if not handled:
                    time.sleep(self.poll_s)
            if self._signum is not None:
                self._drain_on_interrupt(done, published, attempts,
                                         outcome, log)
        finally:
            for sig, handler in previous_handlers.items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            self._shutdown_workers(procs)
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
            task_wall_s={
                tid: float(p.get("wall_s", 0.0))
                for tid, p in outcome.payloads.items()
                if isinstance(p, dict)
            },
            events=log.events,
        )
        return outcome
