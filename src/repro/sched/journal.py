"""Crash-consistent write-ahead journal for suite runs.

One scheduled suite run owns an append-only JSONL file under the shared
artifact-cache root — ``<root>/runs/<run-id>/journal.jsonl`` — that
records, in order: the run header (graph fingerprint, jobs, knobs),
every task transition (``task_started`` / ``task_finished`` /
``task_failed`` / ``task_skipped``), the serialized payload of every
*finished* task, and a terminal ``run_interrupted`` or ``run_finished``
record. The file is the suite's durable state: kill the process at any
point — SIGKILL, power loss, node preemption — and
``run_suite_parallel(resume=run_id)`` replays the journal, seeds the
scheduler's ``done`` set and payload map from it, and launches only the
tasks that never finished.

Line format and crash consistency:

* each line is one JSON object ``{"crc32": N, "rec": {...}}`` where
  ``crc32`` is the CRC32 of the record's canonical JSON form — a torn
  or bit-flipped line is detectable in isolation;
* appends are atomic at the journal's granularity: the line is written,
  flushed, and fsync'd before the append returns, so a record either
  fully exists or is a detectable torn tail;
* the reader stops at the first line that is truncated, unparsable, or
  fails its CRC — everything before it is trusted, everything from it
  on is discarded — and :meth:`RunJournal.open` physically truncates
  the torn tail before appending resumes, so the file never accumulates
  garbage mid-stream;
* task payloads cross the journal as JSON when they round-trip, else as
  a base64 pickle (``ExperimentResult`` objects take the pickle path),
  so a resumed suite returns *the same objects* the interrupted run
  produced — the bit-identical-results guarantee survives the crash.

A zero-byte ``DONE`` marker is dropped next to the journal when the run
records ``run_finished``; :meth:`~repro.engine.artifacts.ArtifactCache.
gc` uses it to tell evictable completed runs from resumable ones.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import pickle
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: no cross-process lock
    fcntl = None  # type: ignore[assignment]

from repro.engine.artifacts import RUN_DONE_MARKER, RUNS_DIR
from repro.errors import JournalError
from repro.trace.fsio import OsFS, ensure_dir_chain, publish_file

#: The journal file inside one run directory.
JOURNAL_FILE = "journal.jsonl"
#: Flock file serializing journal writers across processes. The torn-
#: tail truncation in :meth:`RunJournal.open` and every append hold it:
#: without the lock, a coordinator and a late-joining worker opening
#: the same journal could race read-then-truncate against an in-flight
#: append and chop off a *good* record (or truncate at a stale offset
#: and corrupt the stream for every later reader).
JOURNAL_LOCK_FILE = "journal.lock"

#: Record kinds, in lifecycle order.
RUN_STARTED = "run_started"
RUN_RESUMED = "run_resumed"
TASK_STARTED = "task_started"
TASK_FINISHED = "task_finished"
TASK_FAILED = "task_failed"
TASK_SKIPPED = "task_skipped"
RUN_INTERRUPTED = "run_interrupted"
RUN_FINISHED = "run_finished"
#: Work-queue lifecycle records (:mod:`repro.sched.queue`).
WORKER_JOINED = "worker_joined"
LEASE_GRANTED = "lease_granted"
LEASE_REVOKED = "lease_revoked"


def run_dir(cache_root: str, run_id: str) -> str:
    """The directory holding *run_id*'s journal under *cache_root*."""
    return os.path.join(cache_root, RUNS_DIR, run_id)


def journal_path(cache_root: str, run_id: str) -> str:
    return os.path.join(run_dir(cache_root, run_id), JOURNAL_FILE)


def new_run_id(seed: Any = None) -> str:
    """A fresh, human-sortable run id (timestamp + entropy suffix)."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    entropy = hashlib.sha256(
        f"{os.getpid()}:{time.time_ns()}:{seed}".encode()
    ).hexdigest()[:6]
    return f"{stamp}-{entropy}"


# ----------------------------------------------------------------------
def _canonical(rec: dict) -> bytes:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()


def encode_line(rec: dict) -> bytes:
    """One journal line: the record wrapped with its own CRC32 (the
    canonical JSON of ``{"crc32": N, "rec": rec}``)."""
    body = _canonical(rec)
    return b'{"crc32":%d,"rec":%s}\n' % (zlib.crc32(body), body)


def encode_payload(payload: Any) -> dict:
    """Serialize a task payload for the journal.

    JSON when the value round-trips losslessly (record-task payloads:
    plain stats dicts); otherwise a base64 pickle (experiment payloads
    carry ``ExperimentResult`` dataclasses and numpy scalars, which only
    pickle preserves bit-exactly).
    """
    try:
        blob = json.dumps(payload)
        if json.loads(blob) == payload:
            return {"json": payload}
    except (TypeError, ValueError):
        pass
    return {"pickle": base64.b64encode(
        pickle.dumps(payload, protocol=4)).decode("ascii")}


def decode_payload(enc: dict) -> Any:
    if "json" in enc:
        return enc["json"]
    return pickle.loads(base64.b64decode(enc["pickle"]))


# ----------------------------------------------------------------------
@dataclass
class JournalState:
    """One journal file, read back with torn-tail detection."""

    path: str
    records: list[dict] = field(default_factory=list)
    #: byte offset after the last intact line — the truncation point
    good_bytes: int = 0
    #: True when bytes past ``good_bytes`` had to be discarded
    torn: bool = False
    torn_detail: str = ""

    def kinds(self) -> list[str]:
        return [r.get("kind", "?") for r in self.records]


def read_journal(path: str) -> JournalState:
    """Parse a journal, trusting every line up to the first bad one.

    A truncated final line (torn append), a bit-flipped line (CRC
    mismatch), or outright garbage all mark the truncation point; the
    records before it are returned intact. Missing file → empty state.
    """
    state = JournalState(path=path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return state
    offset = 0
    for raw in data.splitlines(keepends=True):
        if not raw.endswith(b"\n"):
            state.torn_detail = "torn final line (no newline)"
            break
        try:
            obj = json.loads(raw)
            crc, rec = obj["crc32"], obj["rec"]
        except (ValueError, KeyError, TypeError):
            state.torn_detail = f"unparsable line at byte {offset}"
            break
        if not isinstance(rec, dict) or zlib.crc32(_canonical(rec)) != crc:
            state.torn_detail = f"CRC mismatch at byte {offset}"
            break
        offset += len(raw)
        state.records.append(rec)
    state.good_bytes = offset
    state.torn = offset < len(data)
    return state


@dataclass
class ReplayState:
    """What a journal says about a run, distilled for the scheduler."""

    run_id: str
    fingerprint: str
    #: task ids with a journaled successful payload — never re-launched
    done: set[str] = field(default_factory=set)
    #: task_id -> decoded payload of the journaled successful attempt
    payloads: dict[str, Any] = field(default_factory=dict)
    #: task ids that exhausted retries (re-attempted on resume)
    failed: set[str] = field(default_factory=set)
    #: task ids skipped for a failed dependency (re-attempted on resume)
    skipped: set[str] = field(default_factory=set)
    finished: bool = False
    interrupted: bool = False


def replay_state(state: JournalState, run_id: str) -> ReplayState:
    """Fold a journal's records into resumable scheduler state.

    Only ``task_finished`` records seed ``done`` — failed and skipped
    tasks get a fresh chance on resume (the operator resuming is the
    signal that whatever killed them may be gone).
    """
    if not state.records:
        raise JournalError(
            f"no resumable journal for run {run_id!r} at {state.path} "
            f"(wrong --cache-dir, or the run never started?)",
            run_id=run_id, path=state.path,
        )
    head = state.records[0]
    if head.get("kind") != RUN_STARTED:
        raise JournalError(
            f"journal for run {run_id!r} does not begin with a "
            f"{RUN_STARTED} record (found {head.get('kind')!r})",
            run_id=run_id, path=state.path,
        )
    rs = ReplayState(run_id=run_id, fingerprint=head.get("fingerprint", ""))
    for rec in state.records:
        kind = rec.get("kind")
        tid = rec.get("task_id", "")
        if kind == TASK_FINISHED:
            rs.done.add(tid)
            rs.payloads[tid] = decode_payload(rec.get("payload", {}))
            rs.failed.discard(tid)
            rs.skipped.discard(tid)
        elif kind == TASK_FAILED:
            rs.failed.add(tid)
        elif kind == TASK_SKIPPED:
            rs.skipped.add(tid)
        elif kind == RUN_FINISHED:
            rs.finished = True
        elif kind == RUN_INTERRUPTED:
            rs.interrupted = True
    return rs


# ----------------------------------------------------------------------
class RunJournal:
    """Append-only, fsync'd writer over one run's journal file.

    All physical writes — the torn-tail truncation at :meth:`open` and
    every append — happen under a cross-process flock (``journal.lock``
    next to the journal, open until :meth:`close`), so two coordinators
    opening one run's journal can never interleave a truncate with an
    append or tear each other's lines.
    """

    def __init__(self, path: str, fsync: bool = True,
                 fs: OsFS | None = None) -> None:
        self.path = path
        self.fsync = fsync
        self._fs = fs if fs is not None else OsFS()
        self._fh = None
        self._lock_path = os.path.join(os.path.dirname(path) or ".",
                                       JOURNAL_LOCK_FILE)
        self._lock_fd: int | None = None

    @classmethod
    def open(cls, cache_root: str, run_id: str, fsync: bool = True,
             fs: OsFS | None = None) -> "RunJournal":
        """Open *run_id*'s journal for appending, truncating any torn
        tail a previous crash left behind (the reader would ignore it,
        but appending after garbage would poison every later line).

        The read-check-truncate sequence holds the journal flock: two
        processes opening concurrently would otherwise race the
        physical ``truncate`` — process B's stale ``good_bytes`` offset
        could chop off a record process A appended in between."""
        fs = fs if fs is not None else OsFS()
        path = journal_path(cache_root, run_id)
        # without the chain up to the cache root, every fsync'd append
        # below could still vanish with the whole run directory on power
        # loss (the crashcheck journal protocol reproduces this)
        ensure_dir_chain(os.path.dirname(path), cache_root, fs)
        jnl = cls(path, fsync=fsync, fs=fs)
        with jnl._locked():
            if fs.exists(path):
                state = read_journal(path)
                if state.torn:
                    with fs.open(path, "r+b") as fh:
                        fh.truncate(state.good_bytes)
                        fs.fsync(fh)
        return jnl

    @contextlib.contextmanager
    def _locked(self):
        if self._lock_fd is None:
            self._lock_fd = os.open(self._lock_path,
                                    os.O_CREAT | os.O_RDWR, 0o644)
        if fcntl is not None:
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(self._lock_fd, fcntl.LOCK_UN)

    def _handle(self):
        if self._fh is None:
            self._fh = self._fs.open(self.path, "ab")
            # make the journal file's directory entry durable before the
            # first append can be acknowledged — fsync(file) alone never
            # persists the name in the parent directory. Unconditional:
            # an earlier process may have created the file and died
            # before syncing its entry.
            self._fs.fsync_dir(os.path.dirname(self.path) or ".")
        return self._fh

    def append(self, kind: str, **fields) -> dict:
        """Durably append one record (under the journal flock)."""
        rec = {"kind": kind, "t": round(time.time(), 3), **fields}
        self._write(encode_line(rec))
        return rec

    def _write(self, lines: bytes) -> None:
        with self._locked():
            fh = self._handle()
            fh.write(lines)
            if self.fsync:
                self._fs.fsync(fh)
            else:
                fh.flush()

    # -- scheduler-facing convenience wrappers -------------------------
    def task_started(self, task_id: str, attempt: int) -> None:
        self.append(TASK_STARTED, task_id=task_id, attempt=attempt)

    def task_finished(self, task_id: str, attempt: int,
                      payload: dict) -> None:
        """*payload* as a result file holds it (:func:`encode_payload`)."""
        self.append(TASK_FINISHED, task_id=task_id, attempt=attempt,
                    payload=payload)

    def task_failed(self, task_id: str, attempts: int, reason: str) -> None:
        self.append(TASK_FAILED, task_id=task_id, attempts=attempts,
                    reason=reason)

    def task_skipped(self, task_id: str, root_cause: str,
                     reason: str) -> None:
        self.append(TASK_SKIPPED, task_id=task_id, root_cause=root_cause,
                    reason=reason)

    def run_interrupted(self, signum: int) -> None:
        self.append(RUN_INTERRUPTED, signum=signum)

    # -- work-queue lifecycle wrappers --------------------------------
    def worker_joined(self, worker_id: str) -> None:
        self.append(WORKER_JOINED, worker_id=worker_id)

    def task_granted(self, task_id: str, worker_id: str, epoch: int,
                     attempt: int) -> None:
        """``lease_granted`` then ``task_started`` in one write and one
        fsync: a crash keeps both, the first, or neither."""
        t = round(time.time(), 3)
        self._write(
            encode_line({"kind": LEASE_GRANTED, "t": t, "task_id": task_id,
                         "worker_id": worker_id, "epoch": epoch})
            + encode_line({"kind": TASK_STARTED, "t": t, "task_id": task_id,
                           "attempt": attempt}))

    def lease_revoked(self, task_id: str, worker_id: str, epoch: int,
                      reason: str) -> None:
        self.append(LEASE_REVOKED, task_id=task_id, worker_id=worker_id,
                    epoch=epoch, reason=reason)

    def run_finished(self, n_failed: int = 0, n_skipped: int = 0) -> None:
        self.append(RUN_FINISHED, n_failed=n_failed, n_skipped=n_skipped)
        # the marker engine gc keys eviction on: a finished run's
        # journal is forensics, an unfinished one is resumable state;
        # publish it durably — an acked run_finished whose marker
        # evaporates would make gc treat the run as resumable forever
        marker = os.path.join(os.path.dirname(self.path), RUN_DONE_MARKER)
        try:
            publish_file(marker, b"", self._fs)
        except OSError:
            pass

    def close(self) -> None:
        fh, self._fh = self._fh, None
        fd, self._lock_fd = self._lock_fd, None
        if fd is not None:
            os.close(fd)
        if fh is not None:
            fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
