"""repro.sched journal + resume: crash-consistent suite recovery.

The contract under test:

* every journal line is independently verifiable (CRC32 over the
  record's canonical JSON); a torn or bit-flipped line truncates the
  journal at that point — it is never fatal, and nothing before it is
  lost;
* ``run_suite_parallel(resume=run_id)`` re-executes **zero** tasks that
  the journal records as finished, and the resumed results are
  bit-identical to an uninterrupted run — verified end-to-end with a
  real SIGTERM delivered to a ``jobs=2`` subprocess mid-suite;
* a resume against a *changed* suite (different graph fingerprint) is
  refused with :class:`JournalError` instead of silently mixing runs;
* a task that exhausts its retries dooms its transitive dependents:
  they are journaled/reported as ``task_skipped`` with the root-cause
  task id and never launched;
* ``KeyboardInterrupt`` aborts the sequential suite cleanly
  (:class:`SuiteInterrupted`, exit code 130) instead of being retried
  or swallowed into a failure row, and the CLI maps interruption and
  journal/usage errors to the documented exit codes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.errors import JournalError, SchedulerError, SuiteInterrupted
from repro.experiments.common import ExperimentContext, ExperimentResult
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.experiments.__main__ import main as experiments_main
from repro.resilience.harness import ExperimentFailure
from repro.sched import (
    ExperimentTask,
    QueueCoordinator,
    RecordTask,
    TaskGraph,
    WorkerConfig,
    build_suite_graph,
    journal_path,
    read_journal,
    replay_state,
    run_suite_parallel,
)
from repro.sched import journal as jn
from repro.sched.journal import RunJournal, decode_payload, encode_payload

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="scheduler tests exercise the fork start method",
)

FAST = dict(refs_per_iteration=3_000, scale=1.0 / 256.0, n_iterations=3)


def make_ctx(tmp_path, **kw):
    merged = {**FAST, **kw}
    return ExperimentContext(cache_dir=str(tmp_path / "cache"), **merged)


# ----------------------------------------------------------------------
class TestJournalFormat:
    def test_payload_json_roundtrip(self):
        payload = {"stats": {"app_runs": 2}, "wall_s": 0.5, "error": ""}
        enc = encode_payload(payload)
        assert "json" in enc  # plain dicts take the JSON path
        assert decode_payload(enc) == payload

    def test_payload_pickle_roundtrip(self):
        res = ExperimentResult(exp_id="x", title="t", text="body",
                               rows=[{"k": (1, 2)}], notes=["n"])
        enc = encode_payload({"result": res})
        assert "pickle" in enc  # tuples don't JSON-roundtrip
        back = decode_payload(enc)["result"]
        assert back == res
        assert back.rows[0]["k"] == (1, 2)  # type preserved, not a list

    def test_missing_journal_reads_empty(self, tmp_path):
        state = read_journal(str(tmp_path / "nope.jsonl"))
        assert state.records == [] and not state.torn

    def test_append_read_roundtrip(self, tmp_path):
        with RunJournal.open(str(tmp_path), "r1") as jnl:
            jnl.append(jn.RUN_STARTED, run_id="r1", fingerprint="f")
            jnl.task_started("record:x", 0)
            jnl.task_finished("record:x", 0, {"wall_s": 1.0})
        state = read_journal(journal_path(str(tmp_path), "r1"))
        assert not state.torn
        assert state.kinds() == [
            jn.RUN_STARTED, jn.TASK_STARTED, jn.TASK_FINISHED]

    def test_torn_final_line_is_truncated_not_fatal(self, tmp_path):
        path = journal_path(str(tmp_path), "r1")
        with RunJournal.open(str(tmp_path), "r1") as jnl:
            jnl.append(jn.RUN_STARTED, run_id="r1", fingerprint="f")
            jnl.task_finished("record:x", 0, {"wall_s": 1.0})
        good = os.path.getsize(path)
        with open(path, "ab") as fh:  # a torn append: no trailing newline
            fh.write(b'{"crc32": 1, "rec": {"kind": "task_fin')
        state = read_journal(path)
        assert state.torn and "torn final line" in state.torn_detail
        assert state.good_bytes == good
        assert state.kinds() == [jn.RUN_STARTED, jn.TASK_FINISHED]
        # reopening for append physically removes the garbage...
        with RunJournal.open(str(tmp_path), "r1") as jnl:
            assert os.path.getsize(path) == good
            jnl.task_started("exp:a", 0)
        # ...so later appends parse cleanly
        state = read_journal(path)
        assert not state.torn
        assert state.kinds()[-1] == jn.TASK_STARTED

    def test_bitflipped_line_truncates_rest(self, tmp_path):
        path = journal_path(str(tmp_path), "r1")
        with RunJournal.open(str(tmp_path), "r1") as jnl:
            jnl.append(jn.RUN_STARTED, run_id="r1", fingerprint="f")
            jnl.task_finished("record:x", 0, {"wall_s": 1.0})
            jnl.task_finished("exp:a", 0, {"wall_s": 2.0})
        lines = open(path, "rb").read().splitlines(keepends=True)
        corrupt = lines[1].replace(b"record:x", b"recorc:x")
        with open(path, "wb") as fh:
            fh.writelines([lines[0], corrupt, lines[2]])
        state = read_journal(path)
        assert state.torn and "CRC mismatch" in state.torn_detail
        # everything before the flipped line is trusted, nothing after
        assert state.kinds() == [jn.RUN_STARTED]

    def test_replay_seeds_only_finished_tasks(self, tmp_path):
        with RunJournal.open(str(tmp_path), "r1") as jnl:
            jnl.append(jn.RUN_STARTED, run_id="r1", fingerprint="fp")
            jnl.task_finished("record:x", 0, {"wall_s": 1.0})
            jnl.task_failed("record:y", 2, "worker died")
            jnl.task_skipped("exp:b", "record:y", "worker died")
            jnl.task_started("exp:a", 0)  # started but never finished
        rs = replay_state(read_journal(journal_path(str(tmp_path), "r1")), "r1")
        assert rs.fingerprint == "fp"
        assert rs.done == {"record:x"}
        assert rs.payloads["record:x"] == {"wall_s": 1.0}
        # failed and skipped tasks get a fresh chance on resume
        assert rs.failed == {"record:y"} and rs.skipped == {"exp:b"}
        assert not rs.finished and not rs.interrupted

    def test_replay_late_finish_clears_earlier_failure(self, tmp_path):
        with RunJournal.open(str(tmp_path), "r1") as jnl:
            jnl.append(jn.RUN_STARTED, run_id="r1", fingerprint="fp")
            jnl.task_failed("record:x", 2, "flaky")
            jnl.task_finished("record:x", 0, {"wall_s": 1.0})
        rs = replay_state(read_journal(journal_path(str(tmp_path), "r1")), "r1")
        assert rs.done == {"record:x"} and rs.failed == set()

    def test_replay_refuses_missing_or_headless_journal(self, tmp_path):
        with pytest.raises(JournalError, match="no resumable journal"):
            replay_state(read_journal(str(tmp_path / "missing.jsonl")), "r1")
        with RunJournal.open(str(tmp_path), "r2") as jnl:
            jnl.task_started("record:x", 0)  # no run_started header
        with pytest.raises(JournalError, match="does not begin"):
            replay_state(
                read_journal(journal_path(str(tmp_path), "r2")), "r2")


# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_rebuilds_sensitive_to_suite(self, tmp_path):
        ctx = make_ctx(tmp_path)
        exps = {k: EXPERIMENTS[k] for k in ("table1", "fig2")}
        fp = build_suite_graph(ctx, exps).fingerprint()
        assert fp == build_suite_graph(ctx, exps).fingerprint()
        smaller = {"table1": EXPERIMENTS["table1"]}
        assert build_suite_graph(ctx, smaller).fingerprint() != fp
        # fidelity knobs change the run specs, hence the fingerprint
        coarse = make_ctx(tmp_path, refs_per_iteration=4_000)
        assert build_suite_graph(coarse, exps).fingerprint() != fp


class TestStallDiagnostics:
    def test_stall_error_names_unmet_dependencies(self, tmp_path, monkeypatch):
        spec = make_ctx(tmp_path, apps=("gtc",)).spec_for("gtc")
        graph = TaskGraph([
            RecordTask(task_id="record:x", name="x", spec=spec),
            ExperimentTask(task_id="exp:a", exp_id="a", deps=("record:x",)),
        ])
        monkeypatch.setattr(TaskGraph, "ready",
                            lambda self, done, running: [])
        cfg = WorkerConfig(cache_root=str(tmp_path), seed=0, apps=("gtc",),
                           **FAST)
        with pytest.raises(SchedulerError) as ei:
            QueueCoordinator(graph, cfg, cache_root=str(tmp_path),
                             run_id="stall", jobs=1).run()
        msg = str(ei.value)
        assert "2 pending task(s)" in msg
        assert "exp:a waits on [record:x]" in msg
        assert "record:x waits on []" in msg


# ----------------------------------------------------------------------
@needs_fork
class TestResume:
    def test_resume_reexecutes_nothing_and_matches(self, tmp_path):
        exps = {"table1": EXPERIMENTS["table1"]}
        ctx = make_ctx(tmp_path, apps=("gtc",))
        first, rep1 = run_suite_parallel(
            ctx, exps, jobs=2, run_id="t1", handle_signals=False)
        cache_root = ctx.engine.cache.root
        state = read_journal(journal_path(cache_root, "t1"))
        assert state.kinds()[0] == jn.RUN_STARTED
        assert state.kinds()[-1] == jn.RUN_FINISHED
        assert not state.torn

        ctx2 = make_ctx(tmp_path, apps=("gtc",))  # same cache root
        second, rep2 = run_suite_parallel(
            ctx2, exps, jobs=2, resume="t1", handle_signals=False)
        assert rep2.n_resumed == rep2.n_tasks  # everything seeded
        (a,), (b,) = first, second
        assert isinstance(b, ExperimentResult)
        assert (a.text, a.rows, a.notes) == (b.text, b.rows, b.notes)
        # the resumed run launched zero tasks: no task_started after
        # the run_resumed marker
        kinds = read_journal(journal_path(cache_root, "t1")).kinds()
        tail = kinds[kinds.index(jn.RUN_RESUMED):]
        assert jn.TASK_STARTED not in tail
        assert tail[-1] == jn.RUN_FINISHED

    def test_changed_suite_refuses_to_resume(self, tmp_path):
        ctx = make_ctx(tmp_path, apps=("gtc",))
        run_suite_parallel(ctx, {"table1": EXPERIMENTS["table1"]},
                           jobs=1, run_id="t1", handle_signals=False)
        ctx2 = make_ctx(tmp_path, apps=("gtc",))
        with pytest.raises(JournalError, match="refusing to resume"):
            run_suite_parallel(ctx2, {"fig2": EXPERIMENTS["fig2"]},
                               jobs=1, resume="t1", handle_signals=False)


# ----------------------------------------------------------------------
def _die_recording(spec, cfg):
    os._exit(11)


@needs_fork
class TestSkipPropagation:
    def test_failed_record_skips_dependents(self, tmp_path, monkeypatch):
        # fork workers inherit the patched module, so every record
        # attempt dies like a segfault and exhausts its retries
        monkeypatch.setattr("repro.sched.workers.run_record_task",
                            _die_recording)

        def anonymous(ctx):  # undeclared: depends on every base record
            return ExperimentResult(exp_id="anon", title="a", text="never")

        ctx = make_ctx(tmp_path, apps=("gtc",))
        results, report = run_suite_parallel(
            ctx, {"anon": anonymous}, jobs=1, run_id="t1",
            handle_signals=False)
        (res,) = results
        assert isinstance(res, ExperimentFailure)
        assert res.error_type == "DependencySkipped"
        assert res.attempts == 0  # never launched
        assert "record:gtc" in res.message
        assert report.n_failed == 1 and report.n_skipped == 1
        # the journal shows the failure and the skip, and the doomed
        # experiment never started
        state = read_journal(journal_path(ctx.engine.cache.root, "t1"))
        started = [r["task_id"] for r in state.records
                   if r["kind"] == jn.TASK_STARTED]
        assert "exp:anon" not in started
        skips = [r for r in state.records if r["kind"] == jn.TASK_SKIPPED]
        assert [s["task_id"] for s in skips] == ["exp:anon"]
        assert skips[0]["root_cause"] == "record:gtc"


# ----------------------------------------------------------------------
class TestKeyboardInterrupt:
    def test_sequential_ctrl_c_aborts_suite(self, tmp_path):
        calls = []

        def first(ctx):
            calls.append("first")
            return ExperimentResult(exp_id="first", title="f", text="ok")

        def boom(ctx):
            calls.append("boom")
            raise KeyboardInterrupt

        def never(ctx):
            calls.append("never")

        ctx = make_ctx(tmp_path, apps=("gtc",))
        with pytest.raises(SuiteInterrupted) as ei:
            run_all(ctx, experiments={
                "first": first, "boom": boom, "never": never})
        exc = ei.value
        assert exc.exit_code == 130 and exc.signum == int(signal.SIGINT)
        assert exc.completed == 1
        # aborted on the spot: no harness retry, no later experiments
        assert calls == ["first", "boom"]

    def test_cli_maps_interruption_to_exit_code(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise SuiteInterrupted("killed mid-suite",
                                   signum=int(signal.SIGTERM))

        monkeypatch.setattr("repro.experiments.__main__.run_all",
                            interrupted)
        assert experiments_main(["all"]) == 143
        assert "killed mid-suite" in capsys.readouterr().err

    def test_cli_usage_and_journal_exit_codes(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.delenv("NVSCAVENGER_CACHE", raising=False)
        # --resume and --run-id are mutually exclusive
        assert experiments_main(["all", "--resume", "a",
                                 "--run-id", "b"]) == 2
        # --resume without a persistent cache cannot find a journal
        assert experiments_main(["all", "--resume", "a"]) == 2
        # a negative grace period is a usage error
        assert experiments_main(["all", "--grace", "-1"]) == 2
        # resuming a run that never started is a JournalError, exit 2
        assert experiments_main(
            ["all", "--resume", "ghost",
             "--cache-dir", str(tmp_path / "cache")]) == 2
        err = capsys.readouterr().err
        assert "no resumable journal" in err


# ----------------------------------------------------------------------
_SUITE_SCRIPT = textwrap.dedent("""\
    import os, pickle, sys, time

    from repro.errors import SuiteInterrupted
    from repro.experiments.common import ExperimentContext, ExperimentResult
    from repro.experiments.runner import run_all

    mode, cache, out = sys.argv[1], sys.argv[2], sys.argv[3]

    def quick_a(ctx):
        return ExperimentResult(exp_id="quick_a", title="a",
                                text=f"a@{ctx.seed}",
                                rows=[{"seed": ctx.seed}], notes=["na"])

    def quick_b(ctx):
        return ExperimentResult(exp_id="quick_b", title="b",
                                text=f"b@{ctx.seed}",
                                rows=[{"seed": ctx.seed}], notes=["nb"])

    def gated(ctx):
        if os.environ.get("RESUME_TEST_BLOCK") == "1":
            with open(os.path.join(cache, "gated-started"), "w"):
                pass
            time.sleep(300)  # parked until the parent SIGTERMs us
        return ExperimentResult(exp_id="gated", title="g",
                                text=f"g@{ctx.seed}")

    EXPS = {"quick_a": quick_a, "quick_b": quick_b, "gated": gated}
    ctx = ExperimentContext(refs_per_iteration=3_000, scale=1.0 / 256.0,
                            n_iterations=3, seed=0, apps=("gtc",),
                            cache_dir=cache)
    kwargs = {}
    if mode == "run":
        kwargs = dict(jobs=2, run_id="r1", drain_grace_s=1.0)
    elif mode == "resume":
        kwargs = dict(jobs=2, resume="r1", drain_grace_s=1.0)
    try:
        results = run_all(ctx, experiments=EXPS, **kwargs)
    except SuiteInterrupted as exc:
        sys.exit(exc.exit_code)
    with open(out, "wb") as fh:
        pickle.dump([(r.exp_id, r.text, r.rows, r.notes)
                     for r in results], fh)
    sys.exit(0)
""")


@needs_fork
class TestRealSignalRecovery:
    """SIGTERM a jobs=2 suite mid-run, resume it, compare to jobs=1."""

    def _run(self, script, mode, cache, out, block=False, wait_s=120.0):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("RESUME_TEST_BLOCK", None)
        if block:
            env["RESUME_TEST_BLOCK"] = "1"
        return subprocess.Popen(
            [sys.executable, script, mode, cache, out], env=env), wait_s

    def test_sigterm_resume_bit_identical(self, tmp_path):
        script = str(tmp_path / "suite.py")
        with open(script, "w") as fh:
            fh.write(_SUITE_SCRIPT)
        cache = str(tmp_path / "cache")
        os.makedirs(cache, exist_ok=True)
        out = str(tmp_path / "resumed.pkl")

        # phase 1: start jobs=2, wait for the long task to be in
        # flight (everything quick has been journaled by then or will
        # finish inside the drain grace), then SIGTERM the suite
        proc, wait_s = self._run(script, "run", cache, out, block=True)
        sentinel = os.path.join(cache, "gated-started")
        deadline = time.monotonic() + 90.0
        while not os.path.exists(sentinel):
            assert proc.poll() is None, "suite died before the gated task"
            assert time.monotonic() < deadline, "gated task never launched"
            time.sleep(0.1)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=wait_s) == 143  # 128 + SIGTERM

        # the interrupted journal is well-formed and records the signal
        jpath = journal_path(cache, "r1")
        state = read_journal(jpath)
        assert not state.torn
        kinds = state.kinds()
        assert kinds[0] == jn.RUN_STARTED
        assert jn.RUN_INTERRUPTED in kinds
        assert jn.RUN_FINISHED not in kinds
        finished = [r["task_id"] for r in state.records
                    if r["kind"] == jn.TASK_FINISHED]
        assert finished, "drain journaled no completed task"
        assert "exp:gated" not in finished
        n_lines = len(state.records)

        # a torn tail (the crash the fsync'd append protocol tolerates)
        # must not block the resume
        with open(jpath, "ab") as fh:
            fh.write(b'{"crc32": 99, "rec": {"kind": "task_')

        # phase 2: resume — only unfinished tasks may launch
        proc, wait_s = self._run(script, "resume", cache, out)
        assert proc.wait(timeout=wait_s) == 0
        state = read_journal(jpath)
        assert not state.torn  # reopen truncated the garbage
        kinds = state.kinds()
        resumed_at = kinds.index(jn.RUN_RESUMED)
        assert resumed_at >= n_lines - 1  # prior records kept verbatim
        restarted = [r["task_id"] for r in state.records[resumed_at:]
                     if r["kind"] == jn.TASK_STARTED]
        assert not set(restarted) & set(finished), (
            f"resume re-executed already-journaled tasks: "
            f"{sorted(set(restarted) & set(finished))}")
        assert kinds[-1] == jn.RUN_FINISHED

        # phase 3: an uninterrupted sequential run in a fresh cache
        # must be bit-identical to interrupted-then-resumed jobs=2
        seq_out = str(tmp_path / "seq.pkl")
        proc, wait_s = self._run(
            script, "seq", str(tmp_path / "cache-seq"), seq_out)
        assert proc.wait(timeout=wait_s) == 0
        with open(out, "rb") as fh:
            resumed = pickle.load(fh)
        with open(seq_out, "rb") as fh:
            sequential = pickle.load(fh)
        assert resumed == sequential
