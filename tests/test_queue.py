"""Distributed queue transport: leases, fencing, zombies, gc.

The contract under test (PR 8's tentpole):

* claims are exclusive per epoch (``O_EXCL``) and validated against the
  durable fence even when the claim races a revocation;
* revoking a lease bumps the fence *before* the task is republished, so
  a holder that wakes up after reassignment — the SIGSTOP zombie — is
  refused at every write path: lock acquisition, artifact commit,
  result publish. The winner's committed artifact survives the zombie's
  thaw bit-for-bit;
* the queue transport returns results bit-identical to a sequential
  ``jobs=1`` run;
* ``engine gc`` never evicts a run directory whose queue shows live
  lease heartbeats (the fence files in there are load-bearing).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import asdict

import pytest

from repro.apps import APPLICATIONS
from repro.engine.artifacts import (
    QUEUE_DIR,
    QUEUE_LEASES_DIR,
    ArtifactCache,
    PendingArtifact,
)
from repro.engine.locks import FencingToken, KeyLock, read_fence, write_fence
from repro.engine.spec import RunSpec
from repro.errors import FencedOutError, QueueError
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.sched.events import TASK_RETRIED, TASK_STARTED, EventLog
from repro.sched.graph import (
    ExperimentTask,
    RecordTask,
    TaskGraph,
)
from repro.sched.journal import (
    RunJournal,
    journal_path,
    read_journal,
    replay_state,
)
from repro.sched.queue import (
    EXIT_FENCED,
    QueueCoordinator,
    QueueWorker,
    SchedulerOutcome,
    WorkQueue,
    safe_task_id,
)
from repro.sched.suite import run_suite_parallel
from repro.sched.workers import WorkerConfig
from tests.test_sched import FAST, make_ctx, run_bounded

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="queue tests exercise the fork start method",
)


# ----------------------------------------------------------------------
class TestFencePrimitives:
    def test_missing_fence_accepts_every_epoch(self, tmp_path):
        assert read_fence(str(tmp_path / "fence")) == 0

    def test_write_fence_is_monotonic(self, tmp_path):
        path = str(tmp_path / "fence")
        write_fence(path, 3)
        assert read_fence(path) == 3
        write_fence(path, 2)  # never moves backwards
        assert read_fence(path) == 3
        write_fence(path, 7)
        assert read_fence(path) == 7

    def test_torn_fence_fails_safe_and_is_repairable(self, tmp_path):
        path = str(tmp_path / "fence")
        with open(path, "w") as fh:
            fh.write("not-an-epoch")
        # garbage reads as maximally restrictive: no stale holder slips
        assert read_fence(path) >= (1 << 62)
        assert not FencingToken(path=path, epoch=10**9).valid()
        # rewriting the fence is the repair
        write_fence(path, 5)
        assert read_fence(path) == 5

    def test_token_check_raises_once_fence_moves(self, tmp_path):
        path = str(tmp_path / "fence")
        token = FencingToken(path=path, epoch=2, owner="w1")
        write_fence(path, 2)
        token.check("still valid")  # epoch == fence: fine
        write_fence(path, 3)
        assert not token.valid()
        with pytest.raises(FencedOutError) as exc:
            token.check("commit")
        assert exc.value.epoch == 2
        assert exc.value.current == 3

    def test_keylock_refuses_stale_token(self, tmp_path):
        fence = str(tmp_path / "fence")
        write_fence(fence, 5)
        stale = FencingToken(path=fence, epoch=4)
        lock = KeyLock(str(tmp_path / "k.lock"), fence=stale)
        with pytest.raises(FencedOutError):
            lock.acquire(timeout=1.0)
        assert not lock.held
        # the refused acquire released the flock: a valid holder gets it
        fresh = KeyLock(str(tmp_path / "k.lock"),
                        fence=FencingToken(path=fence, epoch=5))
        with fresh:
            assert fresh.held


class TestSafeTaskId:
    def test_filesystem_safe_and_collision_free(self):
        a = safe_task_id("record:cam")
        b = safe_task_id("record_cam")  # sanitizes to the same stem
        assert a != b
        for sid in (a, b):
            assert "/" not in sid and ":" not in sid
        assert safe_task_id("record:cam") == a  # deterministic


# ----------------------------------------------------------------------
def _queue(tmp_path) -> WorkQueue:
    q = WorkQueue(str(tmp_path / "cache"), "r1")
    q.init_dirs()
    return q


class TestWorkQueueClaims:
    def test_claim_is_exclusive_per_epoch(self, tmp_path):
        q = _queue(tmp_path)
        q.publish_ready("record:cam", epoch=1, attempt=0, seed_offset=0)
        (entry,) = q.ready_entries()
        lease = q.try_claim(entry, "w1")
        assert lease is not None and lease["worker_id"] == "w1"
        assert q.try_claim(entry, "w2") is None

    def test_claim_refuses_fenced_epoch(self, tmp_path):
        q = _queue(tmp_path)
        q.publish_ready("record:cam", epoch=1, attempt=0, seed_offset=0)
        write_fence(q.fence_path("record:cam"), 2)  # revoked before claim
        (entry,) = q.ready_entries()
        assert q.try_claim(entry, "w1") is None
        assert not os.path.exists(q.lease_path("record:cam", 1))

    def test_claim_racing_revocation_self_cancels(self, tmp_path, monkeypatch):
        # the fence moves between the pre-check and the O_EXCL create:
        # the claim must notice post-create and withdraw its lease
        import repro.sched.queue as qmod

        q = _queue(tmp_path)
        q.publish_ready("record:cam", epoch=1, attempt=0, seed_offset=0)
        (entry,) = q.ready_entries()
        reads = iter([0, 2])  # pre-check passes, post-check sees the bump
        monkeypatch.setattr(qmod, "read_fence", lambda _p: next(reads))
        assert q.try_claim(entry, "w1") is None
        assert not os.path.exists(q.lease_path("record:cam", 1))

    def test_finished_epoch_is_not_claimed_again(self, tmp_path):
        # the holder published its result and released the lease before
        # the coordinator retired the ready file: a second worker's
        # O_EXCL create succeeds, but it must back off, not re-run
        q = _queue(tmp_path)
        q.publish_ready("record:cam", epoch=1, attempt=0, seed_offset=0)
        (entry,) = q.ready_entries()
        lease = q.try_claim(entry, "w1")
        q.write_result("record:cam", 1, {"task_id": "record:cam",
                                         "status": "ok"})
        q.release(lease)
        assert q.try_claim(entry, "w2") is None
        assert not os.path.exists(q.lease_path("record:cam", 1))

    def test_release_and_heartbeat_touch_only_own_epoch(self, tmp_path):
        q = _queue(tmp_path)
        q.publish_ready("record:cam", epoch=1, attempt=0, seed_offset=0)
        (entry,) = q.ready_entries()
        lease = q.try_claim(entry, "w1")
        old_t = lease["t"]
        time.sleep(0.02)
        q.heartbeat(lease)
        rec = json.load(open(q.lease_path("record:cam", 1)))
        assert rec["t"] > old_t
        q.release(lease)
        assert not os.path.exists(q.lease_path("record:cam", 1))

    def test_ready_entries_sorted_and_garbage_tolerant(self, tmp_path):
        q = _queue(tmp_path)
        q.publish_ready("record:b", epoch=1, attempt=0, seed_offset=0)
        q.publish_ready("record:a", epoch=1, attempt=0, seed_offset=0)
        with open(os.path.join(q.tasks_dir, "garbage.json"), "w") as fh:
            fh.write("{torn")
        ids = [e["task_id"] for e in q.ready_entries()]
        assert sorted(ids) == ids == ["record:a", "record:b"]

    def test_claims_follow_graph_order(self, tmp_path):
        # every exp_* ready file sorts before every record_* one; a
        # worker must still take the record the experiment waits on
        ctx = make_ctx(tmp_path)
        graph = TaskGraph([
            RecordTask(task_id="record:gtc", name="gtc",
                       spec=ctx.spec_for("gtc")),
            ExperimentTask(task_id="exp:table1", exp_id="table1"),
        ])
        cfg = WorkerConfig(cache_root=ctx.engine.cache.root, seed=0,
                           apps=("gtc",), **FAST)
        coord = QueueCoordinator(graph, cfg, cache_root=cfg.cache_root,
                                 run_id="order", jobs=0)
        coord.publish()
        for tid in ("exp:table1", "record:gtc"):
            coord.queue.publish_ready(tid, epoch=1, attempt=0, seed_offset=0)
        worker = QueueWorker(cfg.cache_root, "order", worker_id="w1")
        entry, _lease = worker.claim_next()
        assert entry["task_id"] == "record:gtc"

    def test_local_ready_files_are_left_to_local_workers(self, tmp_path):
        # a callable outside the registry cannot cross hosts: the
        # coordinator marks its ready file, and only a worker holding
        # the callable claims it
        cache_root = str(tmp_path / "cache")
        graph = TaskGraph([ExperimentTask(task_id="exp:probe",
                                          exp_id="probe")])
        cfg = WorkerConfig(cache_root=cache_root, seed=0, apps=("gtc",),
                           **FAST)
        fns = {"probe": _seed_probe}
        coord = QueueCoordinator(graph, cfg, cache_root=cache_root,
                                 run_id="local", jobs=0, exp_fns=fns)
        coord.publish()
        coord._publish_ready(set(), {}, {}, SchedulerOutcome(), EventLog())
        agent = QueueWorker(cache_root, "local", worker_id="agent")
        assert agent.claim_next() is None
        local = QueueWorker(cache_root, "local", worker_id="local",
                            graph=graph, cfg=cfg, exp_fns=fns)
        entry, _lease = local.claim_next()
        assert entry["task_id"] == "exp:probe" and entry["local"]

    def test_read_manifest_errors(self, tmp_path):
        q = WorkQueue(str(tmp_path / "cache"), "nope")
        with pytest.raises(QueueError, match="no queue"):
            q.read_manifest()
        q.write_manifest({"run_id": "nope", "cfg": {}})  # missing "graph"
        with pytest.raises(QueueError, match="graph"):
            q.read_manifest()


# ----------------------------------------------------------------------
class TestFencedCommit:
    """Artifact-level fencing: the cache refuses stale writers."""

    def _spec(self):
        return RunSpec(app=sorted(APPLICATIONS)[0], refs_per_iteration=500,
                       scale=1.0 / 256.0, n_iterations=1, seed=0)

    def test_begin_refused_up_front_on_stale_token(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        fence = str(tmp_path / "fence")
        write_fence(fence, 2)
        cache.fence = FencingToken(path=fence, epoch=1)
        with pytest.raises(FencedOutError):
            cache.begin(self._spec())

    def test_commit_refused_when_revoked_mid_record(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        fence = str(tmp_path / "fence")
        write_fence(fence, 1)
        cache.fence = FencingToken(path=fence, epoch=1)
        spec = self._spec()
        pending = cache.begin(spec)
        write_fence(fence, 2)  # the lease is revoked mid-record
        with pytest.raises(FencedOutError):
            pending.commit([], {"spec": spec.canonical(), "key": spec.key})
        # nothing committed: no marker, the spec still reads as absent
        assert not os.path.exists(
            os.path.join(cache.dir_for(spec.key), "meta.json"))
        assert cache.get(spec) is None

    def test_abort_after_revocation_leaves_directory_alone(self, tmp_path):
        # a revoked recorder that *aborts* (its write failed after the
        # winner republished into the same directory) must not clean
        # "its" files — they may be the winner's committed artifact now
        cache = ArtifactCache(str(tmp_path / "cache"))
        fence = str(tmp_path / "fence")
        write_fence(fence, 1)
        cache.fence = FencingToken(path=fence, epoch=1)
        spec = self._spec()
        pending = cache.begin(spec)
        write_fence(fence, 2)
        marker = os.path.join(cache.dir_for(spec.key), "meta.json")
        with open(marker, "w") as fh:  # the winner's commit marker
            fh.write("{}")
        pending.abort()
        assert os.path.exists(marker)

    def test_stale_recorder_does_not_clear_a_committed_artifact(self, tmp_path):
        # a worker frozen between taking the key flock and clearing the
        # key's partial files thaws after a staged winner published into
        # the same directory: it must refuse before deleting anything
        cache = ArtifactCache(str(tmp_path / "cache"))
        fence = str(tmp_path / "fence")
        write_fence(fence, 2)
        cache.fence = FencingToken(path=fence, epoch=2)
        spec = self._spec()
        cache.begin(spec).commit([], {"spec": spec.canonical(), "key": spec.key})
        directory = cache.dir_for(spec.key)
        before = _snapshot(directory)
        assert {"meta.json", "events.json"} <= set(before)
        assert any(name.startswith("refs.tv4") for name in before)
        lock = KeyLock(cache.lock_for(spec.key).path).acquire()
        with pytest.raises(FencedOutError):
            PendingArtifact(spec.key, directory, fs=cache.fs, lock=lock,
                            fence=FencingToken(path=fence, epoch=1))
        assert not lock.held
        assert _snapshot(directory) == before
        assert cache.get(spec) is not None


# ----------------------------------------------------------------------
def _worker_entry(cache_root: str, run_id: str, max_tasks: int) -> None:
    """Module-level so the fork context can run it as a Process target."""
    worker = QueueWorker(cache_root, run_id, worker_id=f"w{os.getpid()}",
                         poll_s=0.02, max_tasks=max_tasks)
    sys.exit(worker.run())


def _wait_for(predicate, deadline_s: float, what: str) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    pytest.fail(f"timed out after {deadline_s}s waiting for {what}")


def _snapshot(directory: str) -> dict[str, bytes]:
    """Every committed artifact byte, keyed by relative path."""
    out: dict[str, bytes] = {}
    for dirpath, _dirnames, filenames in os.walk(directory):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


class TestZombieFencing:
    """The PR's acceptance criterion, end to end with real processes:
    SIGSTOP a worker past lease expiry, let the task be reassigned and
    committed, SIGCONT the zombie — its commit must be refused and the
    cache artifact must be the winner's, bit-identical."""

    def test_zombie_commit_refused_winner_preserved(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        os.makedirs(cache_root)
        app = sorted(APPLICATIONS)[0]
        # heavy enough that the record reliably outlives the SIGSTOP
        # window between begin() (artifact dir appears) and commit:
        # recording runs ~1M refs/s, so 400k refs keeps the window a
        # few hundred ms wide even when this (1-core) test process is
        # descheduled between spotting the directory and the kill
        spec = RunSpec(app=app, refs_per_iteration=50_000,
                       scale=1.0 / 64.0, n_iterations=8, seed=0)
        tid = f"record:{app}"
        graph = TaskGraph([RecordTask(task_id=tid, name=app, spec=spec)])
        cfg = WorkerConfig(
            cache_root=cache_root,
            refs_per_iteration=spec.refs_per_iteration,
            scale=spec.scale, n_iterations=spec.n_iterations,
            seed=0, apps=(app,),
        )
        cfg_d = asdict(cfg)
        cfg_d["apps"] = list(cfg_d["apps"])
        queue = WorkQueue(cache_root, "zrun")
        queue.write_manifest({
            "run_id": "zrun", "fingerprint": graph.fingerprint(),
            "graph": graph.to_dict(), "cfg": cfg_d,
            "lease_ttl_s": 1.0, "heartbeat_s": 0.25, "reseed_stride": 1000,
        })
        queue.publish_ready(tid, epoch=1, attempt=0, seed_offset=0)

        mp = multiprocessing.get_context("fork")
        artifact_dir = ArtifactCache(cache_root).dir_for(spec.key)
        zombie = mp.Process(target=_worker_entry,
                            args=(cache_root, "zrun", 1), daemon=True)
        zombie.start()
        try:
            # wait until the zombie has claimed the lease AND passed
            # begin() — the artifact directory existing proves it is
            # mid-record, not pre-claim (a pre-claim SIGSTOP would let
            # it later win a clean cache hit instead of hitting the
            # fence, which is not the scenario under test)
            _wait_for(lambda: (os.path.exists(queue.lease_path(tid, 1))
                               and os.path.isdir(artifact_dir)),
                      30.0, "zombie to claim and start recording")
            assert not os.path.exists(queue.result_path(tid, 1)), \
                "record finished before it could be frozen; raise the spec"
            os.kill(zombie.pid, signal.SIGSTOP)

            # lease TTL (1s) expires while the holder is frozen; revoke
            # exactly as the coordinator does: fence bump FIRST, then
            # republish at the next epoch
            time.sleep(1.2)
            write_fence(queue.fence_path(tid), 2)
            queue.publish_ready(tid, epoch=2, attempt=1, seed_offset=0)

            winner = mp.Process(target=_worker_entry,
                                args=(cache_root, "zrun", 1), daemon=True)
            winner.start()
            # the winner waits out the zombie's still-held flock
            # (fence_lock_timeout, 5s), falls back to a staged
            # recording, and publishes with one fence-validated rename
            _wait_for(lambda: os.path.exists(queue.result_path(tid, 2)),
                      90.0, "winner to record and publish at epoch 2")
            winner.join(timeout=30.0)
            assert winner.exitcode == 0
            result = json.load(open(queue.result_path(tid, 2)))
            assert result["status"] == "ok"
            assert os.path.exists(os.path.join(artifact_dir, "meta.json"))
            committed = _snapshot(artifact_dir)

            # thaw the zombie: it resumes mid-record under epoch 1 and
            # must be fenced out of its commit, publishing nothing
            os.kill(zombie.pid, signal.SIGCONT)
            zombie.join(timeout=90.0)
            assert zombie.exitcode == EXIT_FENCED
        finally:
            for proc in (zombie,):
                if proc.is_alive():
                    try:
                        os.kill(proc.pid, signal.SIGCONT)
                    except OSError:
                        pass
                    proc.kill()
                    proc.join(timeout=5.0)

        assert not os.path.exists(queue.result_path(tid, 1)), \
            "the fenced zombie must not publish a result"
        assert _snapshot(artifact_dir) == committed, \
            "the winner's artifact changed after the zombie thawed"


# ----------------------------------------------------------------------
class TestQueueTransportEndToEnd:
    def test_results_bit_identical_to_sequential(self, tmp_path):
        exps = {k: EXPERIMENTS[k] for k in ("table1", "fig2")}
        base_ctx = make_ctx(tmp_path / "base")
        baseline = run_all(base_ctx, experiments=exps, jobs=1)

        ctx = make_ctx(tmp_path / "queue")
        results, report = run_suite_parallel(
            ctx, exps, jobs=2, lease_ttl_s=10.0,
            handle_signals=False)
        assert report.n_failed == 0 and report.n_skipped == 0
        assert report.run_id
        for want, got in zip(baseline, results):
            assert got.text == want.text
            assert got.rows == want.rows
            assert got.notes == want.notes

    def test_task_finished_between_polls_is_not_claimed_again(self, tmp_path):
        # a worker can claim, run and release a task before the
        # coordinator ever sees its lease; collecting the result must
        # retire the ready file, or workers re-run that task forever and
        # never reach the tasks sorted after it
        cache_root = str(tmp_path / "cache")
        os.makedirs(cache_root)
        graph = TaskGraph([ExperimentTask(task_id="exp:config",
                                          exp_id="config")])
        cfg = WorkerConfig(cache_root=cache_root, seed=0, apps=("cam",),
                           **FAST)
        coord = QueueCoordinator(graph, cfg, cache_root=cache_root,
                                 run_id="fast", jobs=0)
        coord.publish()
        done, published, attempts = set(), {}, {}
        outcome, log = SchedulerOutcome(), EventLog()
        coord._publish_ready(done, published, attempts, outcome, log)
        worker = QueueWorker(cache_root, "fast", worker_id="w1", poll_s=0.01)
        entry, lease = worker.claim_next()
        assert worker.run_claimed(entry, lease) == "ok"
        coord._collect(done, published, attempts, outcome, log)
        assert done == {"exp:config"}
        assert worker.claim_next() is None

    def test_worker_error_retries_then_skips_dependents(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        os.makedirs(cache_root)
        boom = ExperimentTask(task_id="exp:boom", exp_id="no-such-exp")
        child = ExperimentTask(task_id="exp:child", exp_id="table1",
                               deps=("exp:boom",))
        graph = TaskGraph([boom, child])
        cfg = WorkerConfig(cache_root=cache_root, seed=0,
                           apps=("cam",), **FAST)
        outcome = QueueCoordinator(
            graph, cfg, cache_root=cache_root, run_id="errs", jobs=1,
            max_task_retries=1, lease_ttl_s=10.0, poll_s=0.02,
            worker_poll_s=0.02, handle_signals=False,
        ).run()
        assert set(outcome.failures) == {"exp:boom"}
        assert outcome.failures["exp:boom"]["attempts"] == 2
        assert set(outcome.skipped) == {"exp:child"}
        assert outcome.report.n_retries == 1


# ----------------------------------------------------------------------
def _seed_probe(ctx):
    return ExperimentResult(exp_id="probe", title="seed probe",
                            text=f"s@{ctx.seed}")


class TestQueueResume:
    def test_interrupted_task_resumes_at_attempt_zero(self, tmp_path,
                                                       monkeypatch):
        # fork workers inherit the patched registry
        monkeypatch.setitem(EXPERIMENTS, "probe", _seed_probe)
        cache_root = str(tmp_path / "cache")
        os.makedirs(cache_root)
        graph = TaskGraph([
            ExperimentTask(task_id="exp:first", exp_id="probe"),
            ExperimentTask(task_id="exp:probe", exp_id="probe"),
        ])
        cfg = WorkerConfig(cache_root=cache_root, seed=0, apps=("gtc",),
                           **FAST)

        def coordinator(run_id, **kw):
            return QueueCoordinator(
                graph, cfg, cache_root=cache_root, run_id=run_id, jobs=1,
                lease_ttl_s=10.0, poll_s=0.02, worker_poll_s=0.02, **kw)

        fresh = run_bounded(coordinator("fresh").run, 60.0)
        want = fresh.payloads["exp:probe"]["result"]

        # what an interrupted run leaves behind: exp:first journaled as
        # finished, exp:probe's worker dead with its epoch-1 lease
        # unreleased, and the STOP marker of the drain
        with RunJournal.open(cache_root, "cut") as jnl:
            jnl.append("run_started", run_id="cut",
                       fingerprint=graph.fingerprint(), jobs=1)
            jnl.task_started("exp:first", 0)
            jnl.task_finished("exp:first", 0, fresh.payloads["exp:first"])
            jnl.task_started("exp:probe", 0)
            jnl.run_interrupted(int(signal.SIGTERM))
        cut = coordinator("cut")
        cut.publish()
        queue = cut.queue
        queue.publish_ready("exp:probe", epoch=1, attempt=0, seed_offset=0)
        (entry,) = queue.ready_entries()
        lease = queue.try_claim(entry, "w-gone")
        gone = multiprocessing.get_context("fork").Process(
            target=os._exit, args=(0,))
        gone.start()
        gone.join()
        queue.heartbeat(dict(lease, pid=gone.pid))
        queue.clear_ready("exp:probe")
        queue.stop()

        state = replay_state(
            read_journal(journal_path(cache_root, "cut")), "cut")
        assert state.done == {"exp:first"}
        events = []
        outcome = run_bounded(coordinator(
            "cut", seed_done=state.done, seed_payloads=state.payloads,
            on_event=events.append).run, 30.0)
        assert [ev for ev in events if ev.kind == TASK_RETRIED] == []
        assert [ev.task_id for ev in events
                if ev.kind == TASK_STARTED] == ["exp:probe"]
        got = outcome.payloads["exp:probe"]["result"]
        assert got.text == want.text == "s@0"


# ----------------------------------------------------------------------
class TestGcKeepsLiveQueues:
    def _run_with_queue(self, cache: ArtifactCache, run_id: str,
                        lease_age_s: float) -> str:
        jnl = RunJournal.open(cache.root, run_id)
        jnl.append("run_started", run_id=run_id, fingerprint="x", jobs=1)
        jnl.run_finished()  # drops the DONE marker: run is evictable
        jnl.close()
        qdir = os.path.join(cache.root, "runs", run_id, QUEUE_DIR)
        leases = os.path.join(qdir, QUEUE_LEASES_DIR)
        os.makedirs(leases)
        with open(os.path.join(qdir, "manifest.json"), "w") as fh:
            json.dump({"lease_ttl_s": 1.0}, fh)
        lease = os.path.join(leases, "record_x-00000000.3.json")
        with open(lease, "w") as fh:
            json.dump({"task_id": "record:x", "epoch": 3}, fh)
        when = time.time() - lease_age_s
        os.utime(lease, (when, when))
        return run_id

    def test_fresh_lease_protects_finished_run(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        self._run_with_queue(cache, "live", lease_age_s=0.0)
        report = cache.gc(max_bytes=0)
        assert report.kept_queues == ["live"]
        assert "live" not in report.evicted_runs
        assert os.path.isdir(os.path.join(cache.root, "runs", "live"))

    def test_stale_lease_releases_the_run(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        # grace is max(60, 4*ttl) with ttl=1 → 60s; age well past it
        self._run_with_queue(cache, "dead", lease_age_s=3600.0)
        report = cache.gc(max_bytes=0)
        assert report.kept_queues == []
        assert "dead" in report.evicted_runs
