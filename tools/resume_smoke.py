"""End-to-end resume smoke: kill a real suite run, resume it, verify.

Drives the actual CLI (``python -m repro.experiments``) the way an
operator would, once at ``--jobs 1`` (the coordinator runs every task
itself) and once at ``--jobs 2`` (forked workers):

1. start ``all`` at test fidelity with a fixed ``--run-id``, journaling
   into a throwaway cache;
2. wait until the journal shows at least two finished tasks, then
   SIGTERM the process and check it exits 143 after the graceful drain;
3. rerun with ``--resume`` and check it exits 0, re-executes zero
   already-journaled tasks, and leaves a finished, untorn journal.

Exit 0 on success, 1 with a diagnostic on any violated expectation.
Used by ``make resume-smoke`` and the CI ``resume`` job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.sched.journal import (  # noqa: E402
    RUN_FINISHED,
    RUN_RESUMED,
    TASK_FINISHED,
    TASK_STARTED,
    journal_path,
    read_journal,
)

RUN_ID = "smoke"
FIDELITY = ["--refs", "3000", "--scale", "0.00390625", "--iterations", "3"]


def _cmd(jobs: int, cache: str, *extra: str) -> list[str]:
    return [sys.executable, "-m", "repro.experiments", "all",
            "--jobs", str(jobs), "--cache-dir", cache, "--grace", "2",
            *FIDELITY, *extra]


def fail(msg: str) -> "None":
    print(f"resume smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    for jobs in (1, 2):
        smoke(jobs, env)
    return 0


def smoke(jobs: int, env: dict) -> None:
    with tempfile.TemporaryDirectory(prefix="resume-smoke-") as cache:
        jpath = journal_path(cache, RUN_ID)

        proc = subprocess.Popen(
            _cmd(jobs, cache, "--run-id", RUN_ID), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # wait for enough journaled progress to make the resume
        # meaningful, then interrupt mid-suite
        deadline = time.monotonic() + 300.0
        while True:
            state = read_journal(jpath)
            n_finished = state.kinds().count(TASK_FINISHED)
            if n_finished >= 2:
                break
            if proc.poll() is not None:
                fail(f"suite exited early (rc {proc.returncode}) with only "
                     f"{n_finished} finished task(s)")
            if time.monotonic() > deadline:
                proc.kill()
                fail("timed out waiting for 2 journaled tasks")
            time.sleep(0.1)
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=120)
        if rc == 0:
            # lost the race: the suite finished before the signal
            # landed — the resume below still must be a pure no-op
            print("note: suite finished before SIGTERM landed")
        elif rc != 143:
            fail(f"interrupted suite exited {rc}, want 143 (128+SIGTERM)")

        state = read_journal(jpath)
        if state.torn:
            fail(f"journal torn after drain: {state.torn_detail}")
        finished = {r["task_id"] for r in state.records
                    if r["kind"] == TASK_FINISHED}

        rc = subprocess.run(
            _cmd(jobs, cache, "--resume", RUN_ID), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=600).returncode
        if rc != 0:
            fail(f"resume exited {rc}, want 0")
        state = read_journal(jpath)
        kinds = state.kinds()
        if state.torn or kinds[-1] != RUN_FINISHED:
            fail(f"resumed journal not cleanly finished (torn={state.torn}, "
                 f"tail={kinds[-1] if kinds else 'empty'})")
        resumed_at = kinds.index(RUN_RESUMED)
        restarted = {r["task_id"] for r in state.records[resumed_at:]
                     if r["kind"] == TASK_STARTED}
        overlap = restarted & finished
        if overlap:
            fail(f"resume re-executed journaled tasks: {sorted(overlap)}")
        print(f"resume smoke OK (jobs={jobs}): {len(finished)} task(s) "
              f"journaled before SIGTERM, {len(restarted)} launched on "
              f"resume, none twice")


if __name__ == "__main__":
    sys.exit(main())
