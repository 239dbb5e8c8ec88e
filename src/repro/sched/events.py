"""Structured progress events and the end-of-run scheduler report.

Every scheduler transition — a task starting on a worker, finishing,
being retried after a crash/timeout, failing for good, or being skipped
because a dependency failed for good — is emitted as
a :class:`SchedEvent`: machine-readable (``to_dict``), timestamped
relative to scheduler start, and optionally streamed to a callback as it
happens (the CLI prints them live with ``--jobs N``). The full log plus
aggregate counters and per-task wall times land in a
:class:`SchedulerReport` after the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

#: Event kinds, in lifecycle order.
TASK_STARTED = "task_started"
TASK_FINISHED = "task_finished"
TASK_RETRIED = "task_retried"
TASK_FAILED = "task_failed"
#: Never launched: a (transitive) dependency exhausted its retries.
TASK_SKIPPED = "task_skipped"


@dataclass
class SchedEvent:
    """One scheduler transition."""

    kind: str
    task_id: str
    #: seconds since the scheduler started (monotonic-relative)
    t: float
    attempt: int = 0
    pid: int | None = None
    #: task wall seconds (finish/retry/fail events)
    wall_s: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "task_id": self.task_id,
            "t": self.t,
            "attempt": self.attempt,
            "pid": self.pid,
            "wall_s": self.wall_s,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        bits = [f"[{self.t:8.3f}s]", self.kind, self.task_id]
        if self.attempt:
            bits.append(f"attempt={self.attempt}")
        if self.wall_s is not None:
            bits.append(f"wall={self.wall_s:.3f}s")
        if self.detail:
            bits.append(f"({self.detail})")
        return " ".join(bits)


class EventLog:
    """Collects :class:`SchedEvent` rows; optionally streams them live."""

    def __init__(self,
                 on_event: Callable[[SchedEvent], None] | None = None) -> None:
        self.events: list[SchedEvent] = []
        self._on_event = on_event
        self._t0 = time.monotonic()

    def emit(self, kind: str, task_id: str, **kwargs) -> SchedEvent:
        ev = SchedEvent(kind=kind, task_id=task_id,
                        t=round(time.monotonic() - self._t0, 6), **kwargs)
        self.events.append(ev)
        if self._on_event is not None:
            self._on_event(ev)
        return ev

    def count(self, kind: str) -> int:
        return sum(1 for ev in self.events if ev.kind == kind)


@dataclass
class SchedulerReport:
    """Aggregate outcome of one scheduled suite run."""

    jobs: int
    wall_s: float
    n_tasks: int
    n_records: int
    n_experiments: int
    n_retries: int = 0
    n_failed: int = 0
    #: tasks never launched because a dependency hard-failed
    n_skipped: int = 0
    #: tasks seeded as already-done from a resumed run's journal
    n_resumed: int = 0
    #: set when SIGINT/SIGTERM stopped the run after a graceful drain
    interrupted: bool = False
    #: the delivering signal number when ``interrupted``
    signum: int | None = None
    #: the suite journal's run id
    run_id: str | None = None
    #: the artifact-cache root the run's journal lives under
    cache_root: str = ""
    #: per-task wall seconds of the successful attempt
    task_wall_s: dict[str, float] = field(default_factory=dict)
    events: list[SchedEvent] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 6),
            "n_tasks": self.n_tasks,
            "n_records": self.n_records,
            "n_experiments": self.n_experiments,
            "n_retries": self.n_retries,
            "n_failed": self.n_failed,
            "n_skipped": self.n_skipped,
            "n_resumed": self.n_resumed,
            "interrupted": self.interrupted,
            "signum": self.signum,
            "run_id": self.run_id,
            "task_wall_s": {k: round(v, 6)
                            for k, v in self.task_wall_s.items()},
        }

    def summary(self) -> str:
        s = (
            f"sched: {self.n_tasks} tasks "
            f"({self.n_records} record + {self.n_experiments} experiment) "
            f"on {self.jobs} worker(s) in {self.wall_s:.2f}s"
        )
        if self.n_resumed:
            s += f"; {self.n_resumed} resumed from journal"
        if self.n_retries:
            s += f"; {self.n_retries} retried"
        if self.n_failed:
            s += f"; {self.n_failed} FAILED"
        if self.n_skipped:
            s += f"; {self.n_skipped} skipped (failed dependency)"
        if self.interrupted:
            s += f"; INTERRUPTED by signal {self.signum}"
            if self.run_id:
                s += f" ({self.resume_hint()})"
        return s

    def resume_hint(self) -> str:
        """How to pick the run up, unless its journal goes at exit."""
        from repro.engine.engine import is_temporary_root

        if not is_temporary_root(self.cache_root):
            return f"resume with --resume {self.run_id}"
        return ("it cannot be resumed: its journal was under a temporary "
                "cache root, removed at exit; pass --cache-dir or set "
                "$NVSCAVENGER_CACHE to make a run resumable")
