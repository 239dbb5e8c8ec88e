"""Deadline-aware recording workers for the analysis service.

A recording is CPU-bound, uninterruptible Python work, so the only way
to honour a request deadline *mid-record* is to put the recording in a
child process and kill it when the deadline expires. That is safe by
construction here: the artifact cache's per-key ``flock`` is released
by the kernel when the child dies, the commit-marker protocol makes the
half-written files invisible, and the next recorder's
:class:`~repro.engine.artifacts.PendingArtifact` clears them — a
cancelled request *leaks nothing* and leaves the cache recordable.

:func:`run_record_worker` is a blocking function meant to run on an
executor thread: it spawns the child, polls for a result while watching
a shared :class:`RecordHandle` (deadline, which coalesced waiters may
*extend*, and a cancel flag the drain path sets), kills the child on
expiry/cancel, and retries once when the child dies without reporting
(a chaos kill or OOM), mirroring the suite scheduler's crash-retry
behavior.
"""

from __future__ import annotations

import signal
import threading
import time

from repro.engine.artifacts import ArtifactCache
from repro.engine.engine import PipelineEngine
from repro.engine.locks import drop_inherited_pins
from repro.errors import ReproError

#: Poll interval while waiting on a worker's result pipe.
_POLL_S = 0.02
#: How long a terminated child gets before escalation to SIGKILL.
_KILL_GRACE_S = 2.0
#: How long to wait for an in-flight result after the child exited.
_EXIT_DRAIN_S = 0.5


class RecordHandle:
    """Shared view of one in-flight recording.

    ``deadline`` is an absolute ``time.monotonic()`` timestamp;
    :meth:`extend_deadline` lets coalesced waiters with more patience
    keep the record alive past the winner's own deadline. ``cancel()``
    (the drain path) kills the worker regardless.
    """

    def __init__(self, deadline: float) -> None:
        self._lock = threading.Lock()
        self._deadline = deadline
        self.cancelled = False

    @property
    def deadline(self) -> float:
        with self._lock:
            return self._deadline

    def extend_deadline(self, deadline: float) -> None:
        with self._lock:
            self._deadline = max(self._deadline, deadline)

    def cancel(self) -> None:
        self.cancelled = True


def _record_child(spec, cache_root: str, chaos_scenario: str | None,
                  chaos_seed: int, conn) -> None:
    """Child-process body: record/verify one spec, reply on *conn*.

    Every expected failure becomes a structured payload; only a kill
    leaves the parent without a message (which it treats as a crash).
    """
    # A fork copies the daemon's pins on other keys; holding them would
    # keep those keys from gc until this recording ends.
    drop_inherited_pins()
    # Undo the signal plumbing a fork child inherits from the daemon's
    # asyncio loop. The loop's ``add_signal_handler`` installs a no-op
    # disposition plus a ``set_wakeup_fd`` socketpair — both survive the
    # fork, so without this reset a SIGTERM aimed at THIS child (a
    # deadline or drain kill) is (a) ignored by the child and (b)
    # forwarded through the *shared* wakeup socket into the parent's
    # loop, which reads it as the daemon itself being told to shut down.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (OSError, ValueError):  # pragma: no cover
            pass
    try:
        if chaos_scenario is not None:
            from repro.engine.chaos import ChaosFS

            fs = ChaosFS(scenario=chaos_scenario, seed=chaos_seed)
            cache = ArtifactCache(cache_root, fs=fs)
        else:
            cache = ArtifactCache(cache_root)
        engine = PipelineEngine(cache=cache)
        art = engine.verified_artifact(spec)
        conn.send({
            "ok": True,
            "key": art.key,
            "meta": art.meta,
            "digest": art.content_digest(),
            "engine": engine.stats.snapshot(),
        })
    except (ReproError, OSError) as exc:
        try:
            conn.send({
                "ok": False,
                "code": "record_failed",
                "error_type": type(exc).__name__,
                "message": str(exc),
            })
        except (OSError, ValueError):  # parent gone; nothing to report to
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _kill(proc) -> None:
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=_KILL_GRACE_S)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=_KILL_GRACE_S)


def run_record_worker(
    spec,
    cache_root: str,
    handle: RecordHandle,
    *,
    mp_context=None,
    chaos_scenario: str | None = None,
    chaos_seed: int = 0,
    crash_retries: int = 1,
    clock=time.monotonic,
) -> dict:
    """Record *spec* in a killable child; blocking (run on an executor).

    Returns a structured payload dict: the child's own message, or
    ``deadline_exceeded`` / ``shutting_down`` / ``record_failed`` when
    the child was killed or died. A child that dies without reporting
    (SIGKILL, OOM) is retried up to ``crash_retries`` times while the
    deadline allows, with a note in the payload.
    """
    if mp_context is None:
        import multiprocessing

        from repro.sched.workers import default_start_method

        mp_context = multiprocessing.get_context(default_start_method())
    attempt = 0
    while True:
        recv, send = mp_context.Pipe(duplex=False)
        proc = mp_context.Process(
            target=_record_child,
            args=(spec, cache_root, chaos_scenario, chaos_seed, send),
            daemon=True,
        )
        proc.start()
        send.close()  # child holds the write end; EOF tracks its death
        result: dict | None = None
        try:
            while True:
                if handle.cancelled:
                    _kill(proc)
                    return {
                        "ok": False,
                        "code": "shutting_down",
                        "message": "recording cancelled by service drain",
                        "attempts": attempt + 1,
                    }
                if clock() >= handle.deadline:
                    _kill(proc)
                    return {
                        "ok": False,
                        "code": "deadline_exceeded",
                        "message": "deadline expired mid-record; "
                                   "recording attempt cancelled",
                        "attempts": attempt + 1,
                    }
                if recv.poll(_POLL_S):
                    try:
                        result = recv.recv()
                    except (EOFError, OSError):
                        result = None
                    break
                if not proc.is_alive():
                    # the message may still be in flight: drain briefly
                    if recv.poll(_EXIT_DRAIN_S):
                        try:
                            result = recv.recv()
                        except (EOFError, OSError):
                            result = None
                    break
        finally:
            recv.close()
        proc.join(timeout=_KILL_GRACE_S)
        if result is not None:
            if attempt:
                result = dict(result, retried_after_crash=attempt)
            return result
        # died without a word: crash. Retry while deadline allows.
        attempt += 1
        if (attempt <= crash_retries and not handle.cancelled
                and clock() < handle.deadline):
            continue
        _kill(proc)
        return {
            "ok": False,
            "code": "record_failed",
            "error_type": "WorkerCrash",
            "message": f"recording worker died (exitcode {proc.exitcode}) "
                       f"before reporting a result",
            "attempts": attempt,
        }
