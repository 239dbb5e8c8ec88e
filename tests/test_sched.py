"""repro.sched: task graph, worker pool, exactly-once, crash recovery.

The contract under test:

* the suite expands into a deterministic task graph — one record task
  per *distinct* run spec (content-addressed dedup), experiment tasks
  ordered after the records they declare;
* ``run_all(jobs=N)`` returns results bit-identical to ``jobs=1`` —
  same order, same texts/rows/notes — for any N;
* each distinct spec executes its application exactly once across the
  whole worker pool (merged ``app_runs`` equals the number of distinct
  specs);
* a worker that dies or hangs mid-task is retried on a fresh worker
  with a deterministic reseed; exhausted retries become a structured
  :class:`ExperimentFailure` (strict mode raises instead).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import ConfigurationError, ExperimentAbortedError, SchedulerError
from repro.experiments.common import ExperimentContext, ExperimentResult
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.resilience.harness import ExperimentFailure
from repro.sched import (
    TASK_FINISHED,
    TASK_RETRIED,
    TASK_STARTED,
    ExperimentTask,
    RecordTask,
    TaskGraph,
    build_suite_graph,
    resolve_jobs,
    run_suite_parallel,
)
from repro.sched.graph import EXPERIMENT_PREFIX, RECORD_PREFIX

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="scheduler tests exercise the fork start method",
)

FAST = dict(refs_per_iteration=3_000, scale=1.0 / 256.0, n_iterations=3)


def make_ctx(tmp_path, **kw):
    merged = {**FAST, **kw}
    return ExperimentContext(cache_dir=str(tmp_path / "cache"), **merged)


def run_bounded(fn, timeout_s: float):
    """``fn()``, failing the test if it is still running after
    *timeout_s* (a hung executor must fail the test, not hang the whole
    run, and pytest-timeout is not installed everywhere)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        pytest.fail(f"still running after {timeout_s:.0f}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# ----------------------------------------------------------------------
class TestTaskGraph:
    def test_duplicate_task_id_rejected(self):
        t = ExperimentTask(task_id="exp:a", exp_id="a")
        with pytest.raises(SchedulerError, match="duplicate"):
            TaskGraph([t, t])

    def test_unknown_dependency_rejected(self):
        t = ExperimentTask(task_id="exp:a", exp_id="a", deps=("record:ghost",))
        with pytest.raises(SchedulerError, match="unknown task"):
            TaskGraph([t])

    def test_cycle_rejected(self):
        a = ExperimentTask(task_id="exp:a", exp_id="a", deps=("exp:b",))
        b = ExperimentTask(task_id="exp:b", exp_id="b", deps=("exp:a",))
        with pytest.raises(SchedulerError, match="cycle"):
            TaskGraph([a, b])

    def test_ready_respects_deps_and_insertion_order(self):
        r = RecordTask(task_id="record:x", name="x", spec=None)
        a = ExperimentTask(task_id="exp:a", exp_id="a", deps=("record:x",))
        b = ExperimentTask(task_id="exp:b", exp_id="b")
        g = TaskGraph([r, a, b])
        assert g.ready(done=(), running=()) == ["record:x", "exp:b"]
        assert g.ready(done=("record:x",), running=("exp:b",)) == ["exp:a"]
        assert g.ready(done=("record:x", "exp:a", "exp:b"), running=()) == []

    def test_suite_graph_dedups_specs_by_key(self, tmp_path):
        ctx = make_ctx(tmp_path)
        exps = {k: EXPERIMENTS[k] for k in ("table1", "fig2", "fig8-11")}
        g = build_suite_graph(ctx, exps)
        specs = [t.spec.key for t in g.record_tasks]
        assert len(specs) == len(set(specs))
        # every context app is recorded; experiments come after records
        names = {t.name for t in g.record_tasks}
        assert set(ctx.apps) <= names
        for t in g.experiment_tasks:
            assert t.task_id == EXPERIMENT_PREFIX + t.exp_id
            for dep in t.deps:
                assert dep.startswith(RECORD_PREFIX)

    def test_undeclared_experiment_depends_on_all_base_apps(self, tmp_path):
        ctx = make_ctx(tmp_path)

        def anonymous(ctx):  # no module-level ARTIFACTS declaration
            return None

        g = build_suite_graph(ctx, {"anon": anonymous})
        (task,) = g.experiment_tasks
        assert set(task.deps) == {RECORD_PREFIX + a for a in ctx.apps}

    def test_width_is_widest_level(self):
        r1 = RecordTask(task_id="record:x", name="x", spec=None)
        r2 = RecordTask(task_id="record:y", name="y", spec=None)
        a = ExperimentTask(task_id="exp:a", exp_id="a",
                           deps=("record:x", "record:y"))
        # level 0: {x, y}; level 1: {a} -> width 2
        assert TaskGraph([r1, r2, a]).width() == 2
        # a pure chain has width 1 regardless of length
        c1 = RecordTask(task_id="record:c1", name="c1", spec=None)
        e1 = ExperimentTask(task_id="exp:e1", exp_id="e1",
                            deps=("record:c1",))
        e2 = ExperimentTask(task_id="exp:e2", exp_id="e2", deps=("exp:e1",))
        assert TaskGraph([c1, e1, e2]).width() == 1
        assert TaskGraph([]).width() == 0

    def test_suite_graph_width_bounds_useful_parallelism(self, tmp_path):
        ctx = make_ctx(tmp_path)
        g = build_suite_graph(ctx, EXPERIMENTS)
        # the record layer is the suite's widest level: every worker
        # beyond that can never be simultaneously busy
        assert 1 <= g.width() <= len(g)
        assert g.width() >= len(ctx.apps)


# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_is_cpu_count(self):
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="--jobs"):
            resolve_jobs(-2)

    def test_zero_clamps_to_graph_width(self):
        # auto-sizing never spawns more workers than the graph can keep
        # busy at once...
        assert resolve_jobs(0, ready_width=1) == 1
        cpus = max(1, os.cpu_count() or 1)
        assert resolve_jobs(0, ready_width=10_000) == cpus
        # ...and an empty/degenerate width still yields one worker
        assert resolve_jobs(0, ready_width=0) == 1

    def test_explicit_jobs_never_clamped(self):
        # an explicit worker count is an operator decision, not a hint
        assert resolve_jobs(4, ready_width=1) == 4


# ----------------------------------------------------------------------
SUBSET = ("table1", "fig2", "fig7", "capacity")


def run_directly(ctx, exps):
    """The reference a suite run is held to: each experiment called on
    one context, in order — no task graph, payload round trip or stats
    merge."""
    return [fn(ctx) for fn in exps.values()]


class TestParallelSuite:
    def test_jobs2_bit_identical_to_sequential(self, tmp_path):
        exps = {k: EXPERIMENTS[k] for k in SUBSET}
        ref_ctx = make_ctx(tmp_path / "ref")
        ref = run_directly(ref_ctx, exps)
        for jobs in (1, 2):
            ctx = make_ctx(tmp_path / f"jobs{jobs}")
            events = []
            got = run_all(ctx, experiments=exps, jobs=jobs,
                          on_sched_event=events.append)
            assert [r.exp_id for r in got] == list(exps)
            for a, b in zip(ref, got):
                assert isinstance(b, ExperimentResult)
                assert a.text == b.text
                assert a.rows == b.rows
                assert a.notes == b.notes
            # each distinct spec executed exactly once, for any jobs
            assert ctx.engine.stats.app_runs == ref_ctx.engine.stats.app_runs
            # the event stream saw every task start and finish
            kinds = [ev.kind for ev in events]
            assert kinds.count(TASK_STARTED) == kinds.count(TASK_FINISHED)
            assert kinds.count(TASK_FINISHED) >= len(SUBSET)

    def test_full_suite_bit_identical_within_bound(self, tmp_path):
        ref_ctx = make_ctx(tmp_path / "ref")
        ref = run_directly(ref_ctx, EXPERIMENTS)
        for jobs in (1, 2):
            ctx = make_ctx(tmp_path / f"jobs{jobs}")
            got = run_bounded(lambda: run_all(ctx, jobs=jobs), 120.0)
            assert [r.exp_id for r in got] == list(EXPERIMENTS)
            for a, b in zip(ref, got):
                assert isinstance(b, ExperimentResult), b
                assert (a.text, a.rows, a.notes) == (b.text, b.rows, b.notes)
            assert ctx.engine.stats.app_runs == ref_ctx.engine.stats.app_runs

    def test_report_accounts_for_every_task(self, tmp_path):
        exps = {"table1": EXPERIMENTS["table1"]}
        ctx = make_ctx(tmp_path)
        results, report = run_suite_parallel(ctx, exps, jobs=2)
        assert len(results) == 1 and isinstance(results[0], ExperimentResult)
        assert report.jobs == 2
        assert report.n_experiments == 1
        assert report.n_tasks == report.n_records + report.n_experiments
        assert report.n_failed == 0
        assert len(report.task_wall_s) == report.n_tasks
        assert report.summary().startswith("sched:")
        assert report.to_dict()["wall_s"] > 0


# ----------------------------------------------------------------------
def _crash_first_attempt(ctx):
    """Dies like a segfault unless the scheduler reseeded the context."""
    if ctx.seed < 1000:
        os._exit(17)
    return ExperimentResult(
        exp_id="crashy", title="crash-recovery probe",
        text=f"survived with seed={ctx.seed}")


def _hang_forever(ctx):
    time.sleep(3600)


def _always_crash(ctx):
    os._exit(23)


class TestWorkerFailure:
    # a task that kills or hangs its process is isolated only in a
    # forked worker (jobs >= 2): at jobs=1 it runs in the coordinator
    def test_killed_worker_is_retried_with_reseed(self, tmp_path):
        ctx = make_ctx(tmp_path, apps=("gtc",))
        events = []
        results, report = run_suite_parallel(
            ctx, {"crashy": _crash_first_attempt}, jobs=2,
            on_event=events.append)
        (res,) = results
        assert isinstance(res, ExperimentResult)
        assert res.text == "survived with seed=1000"
        assert report.n_retries == 1
        retried = [ev for ev in events if ev.kind == TASK_RETRIED]
        assert retried and "exitcode" in retried[0].detail

    def test_exhausted_retries_become_structured_failure(self, tmp_path):
        ctx = make_ctx(tmp_path, apps=("gtc",))
        results, report = run_suite_parallel(
            ctx, {"doomed": _always_crash}, jobs=2)
        (res,) = results
        assert isinstance(res, ExperimentFailure)
        assert res.exp_id == "doomed"
        assert res.error_type == "WorkerCrash"
        assert res.attempts == 2  # first run + one retry
        assert report.n_failed == 1

    def test_hung_worker_is_killed_at_timeout(self, tmp_path):
        ctx = make_ctx(tmp_path, apps=("gtc",))
        t0 = time.monotonic()
        results, report = run_suite_parallel(
            ctx, {"hung": _hang_forever}, jobs=2, task_timeout_s=1.0)
        assert time.monotonic() - t0 < 60
        (res,) = results
        assert isinstance(res, ExperimentFailure)
        assert res.error_type == "WorkerTimeout"
        assert report.n_failed == 1

    def test_strict_mode_raises_on_worker_failure(self, tmp_path):
        ctx = make_ctx(tmp_path, apps=("gtc",))
        with pytest.raises(ExperimentAbortedError, match="doomed"):
            run_suite_parallel(ctx, {"doomed": _always_crash}, jobs=2,
                               strict=True)

    def test_in_experiment_exception_is_isolated(self, tmp_path):
        def broken(ctx):
            raise ValueError("injected experiment bug")

        ctx = make_ctx(tmp_path, apps=("gtc",))
        results, report = run_suite_parallel(ctx, {"broken": broken}, jobs=1)
        (res,) = results
        # handled by the in-worker HardenedRunner, not the scheduler
        assert isinstance(res, ExperimentFailure)
        assert res.error_type == "ValueError"
        assert report.n_failed == 0
