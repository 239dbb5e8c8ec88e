"""The five durable protocols under crash check, as harnesses.

Each harness drives the *real* implementation — the artifact cache's
commit paths, the chunked-trace publish, the run journal, the fencing
file, the distributed work queue — through a
:class:`~repro.crashcheck.recorder.RecordingFS`, acknowledges each
durability promise with a mark, and verifies in ``recover`` that every
acked promise survives the crash state using the component's real
recovery entry point (``fsck``, ``RunJournal.open``, ``read_fence``,
manifest/result reads, ``ChunkedTraceReader``).

The invariants, per protocol:

* **artifact** — an acked commit is never corrupt (``get`` +
  ``verify`` succeed); anything uncommitted is quarantinable
  (``fsck --repair`` runs clean and never raises).
* **tv4** — a container visible at its final path is always complete
  and CRC-clean; an acked publish is visible; an unpublished one's
  leftovers are discardable by a fresh writer.
* **journal** — ``RunJournal.open`` never replays a torn tail; every
  acked (fsync'd) append replays; an acked ``run_finished`` keeps its
  DONE marker.
* **fence** — an acked epoch never regresses (torn fence files read as
  the fail-closed sentinel, which cannot regress either).
* **queue** — an acked manifest/result is always readable; a fence
  bump acked before a republish holds, so a result can never be
  claimed back at a revoked epoch.
"""

from __future__ import annotations

import hashlib
import os
from types import SimpleNamespace

import numpy as np

from repro.crashcheck.checker import ProtocolSpec
from repro.crashcheck.recorder import Mark, MarkLog, RecordingFS
from repro.errors import CrashConsistencyError
from repro.trace.record import RefBatch

#: Fail-closed sentinel :func:`repro.engine.locks.read_fence` returns
#: for a torn/garbage fence file — it outranks every real epoch.
FENCE_SENTINEL = 1 << 62


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _batch(rng: np.random.Generator, n: int, iteration: int) -> RefBatch:
    # incompressible addresses: chunks stay multi-block so the model
    # can exercise torn writes against the trace data file
    return RefBatch(
        addr=rng.integers(0, 1 << 48, size=n, dtype=np.uint64),
        is_write=rng.integers(0, 2, size=n, dtype=np.uint8).astype(bool),
        size=np.full(n, 8, np.uint8),
        oid=rng.integers(-1, 64, size=n, dtype=np.int32),
        iteration=iteration,
    )


def _fail(message: str, protocol: str) -> None:
    raise CrashConsistencyError(message, protocol=protocol)


def _empty_setup(root: str) -> None:
    """Every protocol starts from an empty root (the artifact cache's
    ``begin()`` builds its own shard chain)."""


# ----------------------------------------------------------------------
# artifact: alternating in-place commits and staged publishes
# ----------------------------------------------------------------------
_ART_COMMITS = 30
_ART_BATCHES = 4
#: Even positions commit in place, odd ones through a stage directory.
_ART_KEYS = (_key("crashcheck-artifact-inplace"),
             _key("crashcheck-artifact-staged"),
             *(_key(f"crashcheck-artifact-{i}")
               for i in range(2, _ART_COMMITS)))


def _artifact_workload(root: str, fs: RecordingFS, mark: MarkLog) -> None:
    from repro.engine.artifacts import ArtifactCache, PendingArtifact
    from repro.engine.artifacts import STAGE_MARKER, _host_tag

    cache = ArtifactCache(root, fs=fs)
    rng = np.random.default_rng(7)
    for n, key in enumerate(_ART_KEYS):
        if n % 2 == 0:
            kind = "inplace"
            pending = cache.begin(SimpleNamespace(key=key))
            assert isinstance(pending, PendingArtifact)
        else:
            # staged publish: the path a fenced recorder takes past a
            # frozen flock holder — private stage dir, one rename into
            # place
            kind = "staged"
            final = cache.dir_for(key)
            stage = f"{final}{STAGE_MARKER}1-{os.getpid()}-{_host_tag()}"
            pending = PendingArtifact(key, stage, fs=fs, final_dir=final)
        for i in range(_ART_BATCHES):
            pending.writer.append(_batch(rng, 320, i))
        pending.commit([["phase", kind, i] for i in range(4)],
                       {"key": key, "n_batches": _ART_BATCHES})
        mark("committed", key=key, kind=kind)


def _artifact_recover(root: str, acked: list[Mark]) -> None:
    from repro.engine.artifacts import ArtifactCache
    from repro.errors import TraceError

    cache = ArtifactCache(root)
    try:
        report = cache.fsck(repair=True)
    except Exception as exc:
        _fail(f"fsck raised on a reachable crash state: "
              f"{type(exc).__name__}: {exc}", "artifact")
    if not report.clean:
        _fail("fsck --repair left unquarantinable corruption: "
              + "; ".join(e.detail for e in report.corrupt), "artifact")
    for m in acked:
        if m.label != "committed":
            continue
        key = m.info["key"]
        art = cache.get(SimpleNamespace(key=key))
        if art is None:
            _fail(f"acked {m.info['kind']} commit of {key[:12]} is "
                  f"invisible after crash", "artifact")
        try:
            art.verify()
        except TraceError as exc:
            _fail(f"acked {m.info['kind']} commit of {key[:12]} is "
                  f"corrupt after crash: {exc}", "artifact")


# ----------------------------------------------------------------------
# tv4: chunked-container publish, many small containers
# ----------------------------------------------------------------------
_TV4_CONTAINERS = 56
_TV4_BATCHES = 3


def _tv4_path(root: str, n: int) -> str:
    return os.path.join(root, f"trace-{n:02d}.tv4")


def _tv4_workload(root: str, fs: RecordingFS, mark: MarkLog) -> None:
    from repro.trace.chunked import ChunkedTraceWriter

    rng = np.random.default_rng(11)
    for n in range(_TV4_CONTAINERS):
        writer = ChunkedTraceWriter(_tv4_path(root, n), fs=fs,
                                    codec=("raw", "zlib")[n % 2])
        for i in range(_TV4_BATCHES):
            # an odd reference count: raw chunks need padding
            writer.append(_batch(rng, 255, i))
        writer.close()
        mark("published", n=n)


def _tv4_recover(root: str, acked: list[Mark]) -> None:
    from repro.errors import TraceError
    from repro.trace.chunked import ChunkedTraceReader, ChunkedTraceWriter
    from repro.trace.chunked import is_chunked

    published = {m.info["n"] for m in acked if m.label == "published"}
    for n in range(_TV4_CONTAINERS):
        path = _tv4_path(root, n)
        if is_chunked(path) is None:
            if n in published:
                _fail(f"acked tv4 publish of container {n} is invisible "
                      f"after crash", "tv4")
            # not yet published: the tmp leftover (if any) must be
            # discardable by the real writer-restart path
            ChunkedTraceWriter(path).discard()
            continue
        try:
            with ChunkedTraceReader(path) as reader:
                reader.verify_stored()
                got = reader.n_batches
        except TraceError as exc:
            _fail(f"half-published v4 container {n} visible at the final "
                  f"path: {exc}", "tv4")
        if got != _TV4_BATCHES:
            _fail(f"tv4 container {n} replays {got} batches, expected "
                  f"{_TV4_BATCHES}", "tv4")


# ----------------------------------------------------------------------
# journal: append-only run journal with torn-tail recovery
# ----------------------------------------------------------------------
_JOURNAL_RUN = "crashcheck-run"
_JOURNAL_PAIRS = 260


def _journal_workload(root: str, fs: RecordingFS, mark: MarkLog) -> None:
    from repro.sched import journal as jn

    j = jn.RunJournal.open(root, _JOURNAL_RUN, fsync=True, fs=fs)
    seq = 0
    j.append(jn.RUN_STARTED, run_id=_JOURNAL_RUN, fingerprint="cc")
    mark("append", seq=seq, kind=jn.RUN_STARTED)
    seq += 1
    for i in range(_JOURNAL_PAIRS):
        tid = f"t{i:03d}"
        j.task_started(tid, attempt=0)
        mark("append", seq=seq, kind=jn.TASK_STARTED, task_id=tid)
        seq += 1
        j.task_finished(tid, attempt=0, payload=jn.encode_payload({"i": i}))
        mark("append", seq=seq, kind=jn.TASK_FINISHED, task_id=tid)
        seq += 1
    j.run_finished(n_failed=0, n_skipped=0)
    mark("finished", seq=seq)
    j.close()


def _journal_recover(root: str, acked: list[Mark]) -> None:
    from repro.engine.artifacts import RUN_DONE_MARKER
    from repro.sched import journal as jn

    # the real restart path: open (truncates any torn tail), then replay
    j = jn.RunJournal.open(root, _JOURNAL_RUN, fsync=True)
    j.close()
    path = jn.journal_path(root, _JOURNAL_RUN)
    state = jn.read_journal(path)
    if state.torn:
        _fail(f"journal still torn after RunJournal.open recovery: "
              f"{state.torn_detail}", "journal")
    appends = [m for m in acked if m.label == "append"]
    if appends:
        need = max(m.info["seq"] for m in appends) + 1
        if len(state.records) < need:
            _fail(f"journal replays {len(state.records)} records but "
                  f"{need} appends were acked", "journal")
        for m in appends:
            rec = state.records[m.info["seq"]]
            if rec.get("kind") != m.info["kind"]:
                _fail(f"acked record {m.info['seq']} replays as "
                      f"{rec.get('kind')!r}, expected {m.info['kind']!r}",
                      "journal")
        rs = jn.replay_state(state, _JOURNAL_RUN)
        done = {m.info["task_id"] for m in appends
                if m.info["kind"] == jn.TASK_FINISHED}
        missing = done - rs.done
        if missing:
            _fail(f"acked finished tasks lost on replay: "
                  f"{sorted(missing)[:3]}", "journal")
    if any(m.label == "finished" for m in acked):
        marker = os.path.join(os.path.dirname(path), RUN_DONE_MARKER)
        if not os.path.exists(marker):
            _fail("acked run_finished lost its DONE marker", "journal")


# ----------------------------------------------------------------------
# fence: monotonic epoch files
# ----------------------------------------------------------------------
_FENCE_EPOCHS = 180


def _fence_workload(root: str, fs: RecordingFS, mark: MarkLog) -> None:
    from repro.engine.locks import write_fence

    path = os.path.join(root, "fences", "task-0")
    for epoch in range(1, _FENCE_EPOCHS + 1):
        write_fence(path, epoch, fs=fs)
        mark("fenced", epoch=epoch)


def _fence_recover(root: str, acked: list[Mark]) -> None:
    from repro.engine.locks import read_fence

    path = os.path.join(root, "fences", "task-0")
    fenced = [m.info["epoch"] for m in acked if m.label == "fenced"]
    if not fenced:
        return
    epoch = read_fence(path)
    if epoch < max(fenced):
        _fail(f"fence regressed: reads epoch {epoch} after epoch "
              f"{max(fenced)} was acked", "fence")


# ----------------------------------------------------------------------
# queue: manifest / ready / lease / fence / result protocol
# ----------------------------------------------------------------------
_QUEUE_RUN = "crashcheck-queue"
_QUEUE_TASKS = 40
_QUEUE_REVOKED = 10  # how many tasks also go through a revocation cycle


def _queue_workload(root: str, fs: RecordingFS, mark: MarkLog) -> None:
    from repro.engine.locks import write_fence
    from repro.sched.queue import WorkQueue

    q = WorkQueue(root, _QUEUE_RUN, fs=fs)
    q.write_manifest({"graph": {}, "cfg": {}, "run_id": _QUEUE_RUN})
    mark("manifest")
    for i in range(_QUEUE_TASKS):
        tid = f"task-{i:02d}"
        q.publish_ready(tid, epoch=0, attempt=0, seed_offset=0)
        lease = q.try_claim({"task_id": tid, "epoch": 0, "attempt": 0},
                            "w1")
        assert lease is not None
        if i < _QUEUE_REVOKED:
            # coordinator revocation: fence the epoch off FIRST, then
            # republish and let a second worker finish at epoch 1
            write_fence(q.fence_path(tid), 1, fs=q.fs)
            mark("fenced", task_id=tid, epoch=1)
            q.publish_ready(tid, epoch=1, attempt=1, seed_offset=0)
            stale = q.try_claim({"task_id": tid, "epoch": 0, "attempt": 0},
                                "w-zombie")
            assert stale is None  # the fence refuses the revoked epoch
            lease = q.try_claim({"task_id": tid, "epoch": 1, "attempt": 1},
                                "w2")
            assert lease is not None
            q.heartbeat(lease)
            q.write_result(tid, 1, {"task_id": tid, "ok": True, "epoch": 1})
            mark("result", task_id=tid, epoch=1)
        else:
            q.heartbeat(lease)
            q.write_result(tid, 0, {"task_id": tid, "ok": True, "epoch": 0})
            mark("result", task_id=tid, epoch=0)


def _queue_recover(root: str, acked: list[Mark]) -> None:
    import json as _json

    from repro.engine.locks import read_fence
    from repro.errors import QueueError
    from repro.sched.queue import WorkQueue

    q = WorkQueue(root, _QUEUE_RUN)
    if any(m.label == "manifest" for m in acked):
        try:
            q.read_manifest()
        except QueueError as exc:
            _fail(f"acked manifest unreadable after crash: {exc}", "queue")
    for m in acked:
        if m.label == "result":
            tid, epoch = m.info["task_id"], m.info["epoch"]
            try:
                with open(q.result_path(tid, epoch)) as fh:
                    rec = _json.load(fh)
            except (OSError, ValueError) as exc:
                _fail(f"acked result {tid}@{epoch} unreadable: "
                      f"{type(exc).__name__}: {exc}", "queue")
            if rec.get("task_id") != tid:
                _fail(f"acked result {tid}@{epoch} replays wrong task "
                      f"{rec.get('task_id')!r}", "queue")
        elif m.label == "fenced":
            tid, epoch = m.info["task_id"], m.info["epoch"]
            actual = read_fence(q.fence_path(tid))
            if actual < epoch:
                _fail(f"queue fence for {tid} regressed to {actual} after "
                      f"epoch {epoch} was acked — a zombie could observe "
                      f"a result at the revoked epoch", "queue")


# ----------------------------------------------------------------------
PROTOCOLS: dict[str, ProtocolSpec] = {
    "artifact": ProtocolSpec(
        name="artifact",
        description="artifact cache commit (in-place and staged publish)",
        setup=_empty_setup, workload=_artifact_workload,
        recover=_artifact_recover),
    "tv4": ProtocolSpec(
        name="tv4",
        description="chunked trace container publish (v4)",
        setup=_empty_setup, workload=_tv4_workload, recover=_tv4_recover),
    "journal": ProtocolSpec(
        name="journal",
        description="append-only run journal with torn-tail truncation",
        setup=_empty_setup, workload=_journal_workload,
        recover=_journal_recover),
    "fence": ProtocolSpec(
        name="fence",
        description="monotonic fencing-epoch files",
        setup=_empty_setup, workload=_fence_workload,
        recover=_fence_recover),
    "queue": ProtocolSpec(
        name="queue",
        description="distributed work queue (manifest/lease/fence/result)",
        setup=_empty_setup, workload=_queue_workload,
        recover=_queue_recover),
}
