"""Content-addressed artifact cache for recorded runs.

Layout: ``<root>/<key[:2]>/<key>/`` holding three entries —

* ``refs.tv3/`` — the reference batches in the chunked columnar v3
  trace format (per-chunk CRC32 index, streamed chunk files, atomic
  directory publish; see :mod:`repro.trace.chunked`). Caches written
  before v3 hold a monolithic ``refs.npz`` instead — those still read
  fine (:attr:`Artifact.refs_path` picks whichever exists) and can be
  upgraded with ``nvscavenger trace migrate``;
* ``events.json`` — the discrete event stream interleaved with batch
  placeholders (see :mod:`repro.engine.events`);
* ``meta.json`` — the canonical spec plus run-level facts (footprint,
  instruction count, reference totals). Written **last** with an atomic
  rename, so its presence is the commit marker: an artifact missing
  meta.json (interrupted recording) is treated as absent and re-recorded.

Robustness around that layout:

* all writes go through an injectable filesystem shim
  (:class:`~repro.trace.io.OsFS` by default,
  :class:`~repro.engine.chaos.ChaosFS` under fault injection), and
  ``commit()`` fsyncs the artifact directory so the publishing renames
  are durable across power loss;
* recorders of the same key are serialized by a per-key ``flock``
  (:class:`~repro.engine.locks.KeyLock` under ``<root>/.locks/``), so a
  second process can never clear a first process's in-progress files;
* a corrupt committed artifact is **quarantined** — renamed to a sibling
  ``<key>.quarantine[.n]/`` directory with a structured log event — so
  the key reads as a miss and the engine re-records it;
* :meth:`ArtifactCache.fsck` scrubs every artifact (commit markers, batch
  CRCs, meta/event JSON, key consistency) and can repair by quarantining
  corruption and deleting partial leftovers;
* :meth:`ArtifactCache.gc` enforces a byte budget by LRU-evicting
  committed artifacts, ordered by an explicit zero-byte ``last_access``
  stamp refreshed on every cache hit (``meta.json``'s mtime is the
  fallback for pre-stamp caches; atime is never consulted because
  ``noatime``/``relatime`` mounts freeze it), never evicting a key whose
  lock is currently held;
* the root also hosts ``<root>/runs/<run-id>/`` — one write-ahead
  journal per scheduled suite run (:mod:`repro.sched.journal`). gc
  counts them against the budget and evicts *finished* runs (their
  ``DONE`` marker is present) oldest-first before touching any
  artifact, but never removes an unfinished run directory: that is the
  resumable state ``experiments --resume`` replays.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
import socket
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List

from repro.errors import CacheLockError, TraceError
from repro.trace.fsio import (
    content_digest_from_crcs,
    ensure_dir_chain,
    publish_dir,
    publish_file,
    read_json_or_none,
)
from repro.trace.io import OsFS, TraceReader, TraceWriter
from repro.trace.record import RefBatch

from repro.engine.locks import KeyLock, pid_alive
from repro.engine.spec import RunSpec

_log = logging.getLogger("repro.engine.cache")

#: The chunked v3 trace container inside an artifact directory.
REFS_TV3 = "refs.tv3"
#: The legacy monolithic trace archive (pre-v3 caches).
REFS_NPZ = "refs.npz"
#: The three entries of a committed artifact, in write order.
ARTIFACT_FILES = (REFS_TV3, "events.json", "meta.json")
#: Temporary sibling *files* a crashed recording may leave behind
#: (``refs.npz.tmp`` covers pre-v3 caches).
TMP_FILES = ("refs.npz.tmp", "events.json.tmp", "meta.json.tmp")
#: Temporary sibling *directories* a crashed v3 recording may leave.
TMP_DIRS = (REFS_TV3 + ".tmp",)
#: Sibling-directory suffix quarantined artifacts are renamed under.
QUARANTINE_SUFFIX = ".quarantine"
#: Sibling-directory marker for fenced staged recordings: a worker whose
#: key flock is blocked by a frozen (zombie) holder records into
#: ``<key>.stage.<epoch>-<pid>/`` and publishes with one atomic rename
#: after its fencing token validates.
STAGE_MARKER = ".stage."
#: A staged recording older than this is a leftover from a dead worker
#: (live fenced recorders are seconds old); fsck/gc may remove it.
STAGE_TTL_S = 3600.0
#: Zero-byte sidecar whose mtime is the artifact's last-use stamp.
#: gc's LRU ordering reads this instead of meta.json's atime, which is
#: frozen on ``noatime`` mounts and only sporadically updated under
#: ``relatime``; meta.json's *mtime* is the fallback for caches written
#: before the stamp existed.
LAST_ACCESS_FILE = "last_access"
#: Subdirectory of the cache root holding per-suite-run journals
#: (written by :mod:`repro.sched.journal`; named here so gc can manage
#: them without importing the scheduler layer).
RUNS_DIR = "runs"
#: Marker dropped in a run directory once its suite run finished —
#: a finished run's journal is forensics and gc may evict it; a run
#: directory *without* the marker is resumable state and is never
#: evicted.
RUN_DONE_MARKER = "DONE"
#: Subdirectory of a run directory holding the distributed work queue
#: (:mod:`repro.sched.queue`): ready files, leases, fences, results.
QUEUE_DIR = "queue"
#: Where the queue keeps its lease/heartbeat files, relative to
#: ``QUEUE_DIR`` — gc reads heartbeat mtimes from here to decide
#: whether a finished run still has live workers attached.
QUEUE_LEASES_DIR = "leases"
#: A finished run whose newest lease heartbeat is younger than this is
#: treated as still having workers attached (possibly zombies whose
#: fence files must survive), so gc keeps the whole run directory.
#: When the queue manifest declares a lease TTL the grace tightens to
#: ``max(60, 4 * ttl)``.
QUEUE_LEASE_GRACE_S = 900.0


#: ``<epoch>-<pid>`` (pre-host-tag stages) or ``<epoch>-<pid>-<tag>``.
_STAGE_SUFFIX_RE = re.compile(r"^(\d+)-(\d+)(?:-([0-9a-f]{8}))?$")


def _host_tag() -> str:
    """Short stable tag for this host, embedded in stage-dir names so
    fsck/gc can tell a *local* dead recorder's stage from a remote one
    (pid numbers only mean something on their own host)."""
    return hashlib.sha256(socket.gethostname().encode()).hexdigest()[:8]


def _stage_orphan_reason(name: str, age_s: float) -> str | None:
    """Why a staged recording is safe to evict, or None while it may be
    live.

    Two triggers: the TTL (any host, any format), and — much faster —
    a stage whose name carries *this* host's tag and a pid that no
    longer exists: the recorder died and its stage can never publish.
    """
    if age_s > STAGE_TTL_S:
        return f"stale fenced stage ({age_s:.0f}s old, abandoned recording)"
    suffix = name.split(STAGE_MARKER, 1)[-1]
    m = _STAGE_SUFFIX_RE.match(suffix)
    if m and m.group(3) == _host_tag() and not pid_alive(int(m.group(2))):
        return (f"orphaned fenced stage (local recorder pid {m.group(2)} "
                f"is gone)")
    return None


def _meta_self_crc(meta: dict) -> int:
    """CRC32 over meta.json's canonical form, excluding the crc field."""
    payload = {k: v for k, v in meta.items() if k != "self_crc32"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return zlib.crc32(blob)


class Artifact:
    """Handle to one committed recording."""

    def __init__(self, key: str, directory: str) -> None:
        self.key = key
        self.directory = directory
        self._meta: dict | None = None

    @property
    def refs_path(self) -> str:
        """The trace container: the v3 chunk directory when present,
        else the legacy npz archive (pre-v3 caches), else the v3 path a
        fresh recording would create."""
        tv3 = os.path.join(self.directory, REFS_TV3)
        if os.path.isdir(tv3):
            return tv3
        npz = os.path.join(self.directory, REFS_NPZ)
        if os.path.exists(npz):
            return npz
        return tv3

    @property
    def events_path(self) -> str:
        return os.path.join(self.directory, "events.json")

    @property
    def meta_path(self) -> str:
        return os.path.join(self.directory, "meta.json")

    @property
    def last_access_path(self) -> str:
        return os.path.join(self.directory, LAST_ACCESS_FILE)

    def _load_json(self, path: str, what: str):
        """Read one JSON file, mapping every failure mode — vanished
        directory, torn file, flipped bytes — to a TraceError that names
        the artifact."""
        try:
            with open(path) as fh:
                return json.load(fh)
        except FileNotFoundError as exc:
            raise TraceError(
                f"artifact {self.key[:12]}: {what} missing (deleted or "
                f"never committed): {path}", key=self.key, path=path,
            ) from exc
        except OSError as exc:
            raise TraceError(
                f"artifact {self.key[:12]}: cannot read {what}: {exc}",
                key=self.key, path=path,
            ) from exc
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            raise TraceError(
                f"artifact {self.key[:12]}: corrupt {what}: {exc}",
                key=self.key, path=path,
            ) from exc

    @property
    def meta(self) -> dict:
        if self._meta is None:
            self._meta = self._load_json(self.meta_path, "meta.json")
        return self._meta

    def events(self) -> List[list]:
        return self._load_json(self.events_path, "events.json")

    def batches(self) -> Iterator[RefBatch]:
        """Stream the recorded reference batches (checksums verified)."""
        with TraceReader(self.refs_path) as reader:
            yield from reader

    def size_bytes(self) -> int:
        """Total on-disk size of the artifact directory.

        Walks the whole tree rather than a fixed file list so the v3
        trace container's nested chunk files (and any stray tmp
        leftovers) are counted — ``engine gc`` and ``engine ls`` byte
        totals stay correct for mixed v2/v3 caches.
        """
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.directory):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return total

    def verify(self) -> int:
        """Scrub the whole artifact; returns the batch count.

        Checks the meta.json commit marker parses and names this key,
        events.json parses, and every trace batch passes its CRC32 —
        raising :class:`~repro.errors.TraceError` on the first problem.
        """
        return len(self.verify_load()[1])

    def verify_marker(self) -> dict:
        """Check the commit marker and the event log's whole-file CRC.

        Validates meta.json's self-checksum and key, and events.json
        against the ``events_crc32`` the marker declares — everything
        *except* the trace payload. Returns the (validated) meta dict.
        """
        meta = self.meta
        stored_key = meta.get("key")
        if stored_key is not None and stored_key != self.key:
            raise TraceError(
                f"artifact {self.key[:12]}: meta.json names key "
                f"{str(stored_key)[:12]} (cache entry misfiled)",
                key=self.key, path=self.meta_path,
            )
        # mandatory, not optional: a flip inside the key name
        # "self_crc32" itself would otherwise silently disable the check
        declared_self = meta.get("self_crc32")
        if declared_self is None:
            raise TraceError(
                f"artifact {self.key[:12]}: meta.json carries no "
                f"self_crc32 (pre-checksum format or mangled marker)",
                key=self.key, path=self.meta_path,
            )
        actual_self = _meta_self_crc(meta)
        if actual_self != int(declared_self):
            raise TraceError(
                f"artifact {self.key[:12]}: meta.json failed its own "
                f"checksum (stored {int(declared_self):#010x}, "
                f"computed {actual_self:#010x})",
                key=self.key, path=self.meta_path,
            )
        declared_crc = meta.get("events_crc32")
        if declared_crc is not None:
            try:
                with open(self.events_path, "rb") as fh:
                    actual_crc = zlib.crc32(fh.read())
            except OSError as exc:
                raise TraceError(
                    f"artifact {self.key[:12]}: cannot read events.json: "
                    f"{exc}", key=self.key, path=self.events_path,
                ) from exc
            if actual_crc != int(declared_crc):
                raise TraceError(
                    f"artifact {self.key[:12]}: events.json failed checksum "
                    f"verification (stored {int(declared_crc):#010x}, "
                    f"computed {actual_crc:#010x})",
                    key=self.key, path=self.events_path,
                )
        return meta

    def _check_n_batches(self, n: int, path: str) -> None:
        declared = self.meta.get("n_batches")
        if declared is not None and int(declared) != n:
            raise TraceError(
                f"artifact {self.key[:12]}: {os.path.basename(path)} holds "
                f"{n} batches but meta.json declares {declared} "
                f"(truncated trace)",
                key=self.key, path=path,
            )

    def verify_load(self) -> tuple[list, List[RefBatch]]:
        """Scrub the whole artifact and return its decoded payload.

        Performs exactly the checks :meth:`verify` does, but hands back
        ``(events, batches)`` so a caller about to replay does not decode
        the event JSON and the trace batches a second time — the scrub
        *is* the decode.
        """
        self.verify_marker()
        events = self.events()
        try:
            # iterating the reader checksums every batch/chunk
            with TraceReader(self.refs_path) as reader:
                batches = list(reader)
        except TraceError as exc:
            if exc.key is None:
                exc.key = self.key
            raise
        self._check_n_batches(len(batches), self.refs_path)
        return events, batches

    def verify_integrity(self) -> int:
        """Structural scrub without decoding the trace; returns the
        batch count.

        Checks everything :meth:`verify` does *except* that chunk
        payloads are verified by their stored CRC32s only — for a v3
        container that is a CRC pass over the mapped chunk bytes with
        no decompression and no array construction, which is what makes
        the service's warm path cheap. Legacy npz archives have no
        stored-bytes checksum, so they fall back to the full decode.
        """
        self.verify_marker()
        try:
            with TraceReader(self.refs_path) as reader:
                if hasattr(reader, "verify_stored"):
                    reader.verify_stored()
                    n = reader.n_batches
                else:
                    n = reader.verify()
        except TraceError as exc:
            if exc.key is None:
                exc.key = self.key
            raise
        self._check_n_batches(n, self.refs_path)
        return n

    def content_digest(self) -> str:
        """The run's content digest, computed from stored CRCs.

        sha256 over the event log's CRC32 plus every batch's
        format-independent payload CRC32 — read from the v3 chunk index
        (or v2's tiny ``b{i}_crc`` members) without decoding any
        payload, and equal to
        :func:`repro.service.protocol.digest_payload` of the decoded
        content. Stable across re-records of the same spec *and* across
        a v2→v3 migration.
        """
        meta = self.meta
        events_crc = meta.get("events_crc32")
        if events_crc is None:  # pre-checksum marker: hash the bytes
            try:
                with open(self.events_path, "rb") as fh:
                    events_crc = zlib.crc32(fh.read())
            except OSError as exc:
                raise TraceError(
                    f"artifact {self.key[:12]}: cannot read events.json: "
                    f"{exc}", key=self.key, path=self.events_path,
                ) from exc
        try:
            with TraceReader(self.refs_path) as reader:
                crcs = reader.payload_crcs()
        except TraceError as exc:
            if exc.key is None:
                exc.key = self.key
            raise
        return content_digest_from_crcs(int(events_crc), crcs)

    def verify_chunks(self) -> list["ChunkVerdict"]:
        """Per-chunk scrub verdicts — fsck's forensic view.

        Returns one :class:`ChunkVerdict` per batch, decoding each
        independently so a single corrupt chunk does not mask the
        intact ones around it. If the container itself is unreadable
        (missing file, corrupt index) a single index ``-1`` verdict
        describes that.
        """
        try:
            reader = TraceReader(self.refs_path)
        except TraceError as exc:
            return [ChunkVerdict(-1, "corrupt", 0,
                                 f"unreadable container: {exc}")]
        verdicts: list[ChunkVerdict] = []
        with reader:
            for i in range(reader.n_batches):
                try:
                    batch = reader.read_batch(i)
                except TraceError as exc:
                    verdicts.append(ChunkVerdict(i, "corrupt", 0, str(exc)))
                else:
                    verdicts.append(ChunkVerdict(i, "ok", len(batch)))
        return verdicts


@dataclass
class ChunkVerdict:
    """One chunk's (batch's) outcome from :meth:`Artifact.verify_chunks`."""

    index: int
    status: str  # "ok" | "corrupt"
    refs: int = 0
    detail: str = ""


class PendingArtifact:
    """An in-progress recording; :meth:`commit` publishes it atomically.

    Constructed while holding the key's cross-process lock (passed in by
    :meth:`ArtifactCache.begin`); the lock is released by ``commit`` and
    ``abort``.

    Two fencing extensions for the distributed queue:

    * ``fence`` — a :class:`~repro.engine.locks.FencingToken` validated
      at the *start* of commit (before the writer publishes anything)
      and again immediately before the commit marker lands. A stale
      token raises :class:`~repro.errors.FencedOutError` and the
      recording is discarded — a zombie worker whose lease was revoked
      can never publish over the current holder's artifact;
    * ``final_dir`` — staged mode: the recording is written into a
      private sibling stage directory (``<key>.stage.<epoch>-<pid>/``)
      and published into ``final_dir`` with one atomic rename after the
      fence validates. :meth:`ArtifactCache.begin` falls back to this
      when the key flock is blocked by a holder that is alive but
      frozen — the fence, not the flock, is then the mutual exclusion.
    """

    def __init__(
        self,
        key: str,
        directory: str,
        fs: OsFS | None = None,
        lock: KeyLock | None = None,
        fence=None,
        final_dir: str | None = None,
    ) -> None:
        self.key = key
        self.directory = directory
        self._fs = fs if fs is not None else OsFS()
        self._lock = lock
        self._fence = fence
        self._final_dir = final_dir
        self._done = False
        self._fs.makedirs(directory)
        if final_dir is None:
            # clear any partial files left by an interrupted recording
            # (safe: the key lock guarantees no live recorder owns them);
            # the v3 trace container and its tmp are directories, so
            # clean both kinds. Staged mode skips this: the stage dir is
            # freshly created and the final dir belongs to someone else
            # until the publish rename.
            for name in (ARTIFACT_FILES + (REFS_NPZ,) + TMP_FILES + TMP_DIRS
                         + (LAST_ACCESS_FILE,)):
                path = os.path.join(directory, name)
                if os.path.isdir(path):
                    self._fs.rmtree(path)
                elif self._fs.exists(path):
                    self._fs.unlink(path)
        self.writer = TraceWriter(os.path.join(directory, REFS_TV3),
                                  fs=self._fs)

    def _finish(self) -> None:
        self._done = True
        if self._lock is not None:
            self._lock.release()

    def _fence_check(self, what: str) -> None:
        if self._fence is not None:
            self._fence.check(what)

    def _refuse(self, exc: BaseException) -> None:
        """Discard the recording without touching the final directory —
        the fence says someone else owns it now."""
        try:
            self.writer.discard()
        except Exception:
            pass
        if self._final_dir is not None:
            try:
                self._fs.rmtree(self.directory)
            except OSError:
                pass
        self._finish()
        raise exc

    def _publish_stage(self, fs: OsFS) -> Artifact:
        """Atomically rename the fully-written stage into place.

        The final directory may hold the fenced-out previous holder's
        partial files; clearing them without its flock is safe exactly
        because our fence just validated — any live writer in there is
        a zombie whose own commit the fence will refuse.
        """
        final = self._final_dir
        assert final is not None
        committed = os.path.join(final, "meta.json")
        for attempt in range(2):
            if os.path.exists(committed):
                # someone else committed first: our recording is a
                # wasted duplicate, theirs is the artifact
                fs.rmtree(self.directory)
                self._finish()
                return Artifact(self.key, final)
            try:
                publish_dir(self.directory, final, fs)
                self._finish()
                return Artifact(self.key, final)
            except OSError:
                if attempt:
                    raise
                # a racer re-created the directory between our rmtree
                # and rename; loop once — either they committed (we
                # defer) or they left partials (we clear again)
        raise AssertionError("unreachable")

    def commit(self, events: list, meta: dict) -> Artifact:
        fs = self._fs
        try:
            # before the writer publishes its container: a fenced-out
            # recorder must not rename anything into the artifact dir
            self._fence_check(f"commit of artifact {self.key[:12]}")
        except Exception as exc:
            self._refuse(exc)
        self.writer.close()
        events_blob = json.dumps(events, separators=(",", ":")).encode()
        publish_file(os.path.join(self.directory, "events.json"),
                     events_blob, fs)
        # events.json has no per-record CRCs like the trace does, so the
        # commit marker carries a whole-file checksum of the exact bytes
        # written — a silent bit flip in an event value is then as
        # detectable as one in a trace batch
        meta = dict(meta, events_crc32=zlib.crc32(events_blob))
        # the marker also checksums itself (over its canonical form minus
        # this field), so a flip in any free-form meta value — not just
        # the fields verify() cross-checks — is detectable
        meta["self_crc32"] = _meta_self_crc(meta)
        try:
            # narrowest possible window: re-validate right before the
            # commit marker (in-place) or the publish rename (staged)
            self._fence_check(f"commit of artifact {self.key[:12]}")
        except Exception as exc:
            self._refuse(exc)
        # meta.json last: the commit marker
        publish_file(os.path.join(self.directory, "meta.json"),
                     json.dumps(meta, separators=(",", ":")), fs)
        # the key (or stage) directory and its shard are themselves just
        # entries in *their* parents, and an un-fsync'd mkdir can
        # evaporate in a crash, taking the whole committed artifact with
        # it: make the chain durable up to the cache root
        ensure_dir_chain(self.directory, os.path.dirname(os.path.dirname(
            self.directory)), fs)
        if self._final_dir is not None:
            return self._publish_stage(fs)
        self._finish()
        return Artifact(self.key, self.directory)

    def abort(self) -> None:
        """Best-effort cleanup; never leaves a committed-looking artifact."""
        if self._done:
            # commit or a fence refusal already settled this recording;
            # the directory may belong to the current epoch's winner now
            return
        try:
            # drop buffered batches and mark the writer closed *first*:
            # a stray later close() must not resurrect the recording, and
            # no handle may be open when we unlink (Windows refuses to
            # delete open files).
            self.writer.discard()
        except Exception:
            pass
        if self._final_dir is not None:
            # staged mode: the stage is entirely ours; drop it whole
            try:
                self._fs.rmtree(self.directory)
            except OSError:
                pass
            self._finish()
            return
        if self._fence is not None and not self._fence.valid():
            # revoked mid-record: the new epoch's holder may already have
            # published its artifact into this very directory (staged
            # rename over our partials) — cleaning "our" files now would
            # destroy the winner's commit. The writer is discarded above;
            # leave the directory to its current owner.
            self._finish()
            return
        for name in (("meta.json", "events.json", REFS_TV3, REFS_NPZ)
                     + TMP_FILES + TMP_DIRS + (LAST_ACCESS_FILE,)):
            path = os.path.join(self.directory, name)
            try:
                if os.path.isdir(path):
                    self._fs.rmtree(path)
                elif self._fs.exists(path):
                    self._fs.unlink(path)
            except OSError:
                pass
        self._finish()


@dataclass
class FsckEntry:
    """One artifact directory's scrub outcome."""

    key: str
    directory: str
    status: str  # "ok" | "partial" | "corrupt"
    detail: str = ""
    action: str = ""  # what --repair did ("quarantined", "removed", ...)


@dataclass
class FsckReport:
    """Everything ``engine fsck`` found (and repaired) in one cache."""

    root: str
    entries: list[FsckEntry] = field(default_factory=list)
    quarantined_dirs: int = 0

    def _with(self, status: str) -> list[FsckEntry]:
        return [e for e in self.entries if e.status == status]

    @property
    def ok(self) -> list[FsckEntry]:
        return self._with("ok")

    @property
    def partial(self) -> list[FsckEntry]:
        return self._with("partial")

    @property
    def corrupt(self) -> list[FsckEntry]:
        return self._with("corrupt")

    @property
    def clean(self) -> bool:
        """No corruption left in service (partial leftovers don't count:
        the commit-marker protocol already makes them invisible)."""
        return not any(not e.action for e in self.corrupt)

    def table(self) -> str:
        lines = [
            f"fsck {self.root}: {len(self.ok)} ok, "
            f"{len(self.partial)} partial, {len(self.corrupt)} corrupt, "
            f"{self.quarantined_dirs} already quarantined"
        ]
        for e in self.entries:
            if e.status == "ok" and not e.action:
                continue
            acted = f" [{e.action}]" if e.action else ""
            lines.append(f"  {e.key[:12]}  {e.status:7s} {e.detail}{acted}")
        return "\n".join(lines)


@dataclass
class GcReport:
    """Outcome of one ``engine gc`` pass."""

    root: str
    budget_bytes: int
    before_bytes: int
    after_bytes: int
    evicted: list[str] = field(default_factory=list)
    evicted_quarantine: list[str] = field(default_factory=list)
    #: finished suite-run journal dirs removed (resumable ones are kept)
    evicted_runs: list[str] = field(default_factory=list)
    skipped_in_use: list[str] = field(default_factory=list)
    #: unfinished (resumable) run dirs that were counted but never evicted
    kept_runs: list[str] = field(default_factory=list)
    #: finished run dirs kept anyway because their work queue still has
    #: live lease heartbeats — evicting them would delete the fence
    #: files that keep zombie workers from clobbering artifacts
    kept_queues: list[str] = field(default_factory=list)
    removed_partial: int = 0

    @property
    def freed_bytes(self) -> int:
        return self.before_bytes - self.after_bytes

    @property
    def over_budget(self) -> bool:
        return self.after_bytes > self.budget_bytes

    def summary(self) -> str:
        s = (
            f"gc {self.root}: {self.before_bytes} -> {self.after_bytes} bytes "
            f"(budget {self.budget_bytes}); evicted {len(self.evicted)} "
            f"artifact(s) + {len(self.evicted_quarantine)} quarantine dir(s) "
            f"+ {len(self.evicted_runs)} finished run journal(s), "
            f"removed {self.removed_partial} partial dir(s)"
        )
        if self.skipped_in_use:
            s += f"; kept {len(self.skipped_in_use)} in-use artifact(s)"
        if self.kept_runs:
            s += f"; kept {len(self.kept_runs)} resumable run journal(s)"
        if self.kept_queues:
            s += (f"; kept {len(self.kept_queues)} run(s) with live "
                  f"queue leases")
        if self.over_budget:
            s += "; still over budget (remaining artifacts are in use)"
        return s


class ArtifactCache:
    """Content-addressed store of recorded runs under one root directory."""

    def __init__(
        self,
        root: str | os.PathLike,
        fs: OsFS | None = None,
        lock_timeout: float | None = 60.0,
        fence_lock_timeout: float = 5.0,
    ) -> None:
        self.root = os.fspath(root)
        self.fs = fs if fs is not None else OsFS()
        self.lock_timeout = lock_timeout
        #: How long a *fenced* recorder waits on a key flock before
        #: concluding the holder is a frozen zombie and falling back to
        #: a staged recording. Deliberately short: the fence — not the
        #: flock — is the real mutual exclusion once leases are in play.
        self.fence_lock_timeout = fence_lock_timeout
        #: Installed by queue workers
        #: (:class:`~repro.engine.locks.FencingToken`); when set, every
        #: lock acquisition and commit is validated against the lease
        #: fence and refused with FencedOutError if the lease was
        #: revoked.
        self.fence = None
        os.makedirs(self.root, exist_ok=True)

    def dir_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key)

    def lock_for(self, key: str) -> KeyLock:
        """The cross-process lock guarding *key*'s artifact directory."""
        return KeyLock(os.path.join(self.root, ".locks", key + ".lock"),
                       fence=self.fence)

    def get(self, spec: RunSpec) -> Artifact | None:
        """The committed artifact for *spec*, or None if absent/partial."""
        key = spec.key
        directory = self.dir_for(key)
        art = Artifact(key, directory)
        try:
            if not os.path.exists(art.meta_path):
                return None
            # meta.json is the commit marker, but guard against manual
            # deletion of the payload files too
            if not (os.path.exists(art.refs_path)
                    and os.path.exists(art.events_path)):
                return None
        except OSError:
            # the directory vanished between checks (concurrent gc or rm)
            return None
        self._touch_last_access(art)
        return art

    def _touch_last_access(self, art: Artifact) -> None:
        """Stamp *art* as just-used for gc's LRU ordering.

        An explicit sidecar file is updated (created on first hit) rather
        than relying on meta.json's atime: ``noatime``/``relatime`` mounts
        freeze or throttle atime, which made eviction order effectively
        creation order there. Failure is non-fatal — a read-only cache
        still serves hits, it just cannot refresh its LRU stamps."""
        try:
            with open(art.last_access_path, "a"):
                pass
            os.utime(art.last_access_path)
        except OSError:
            pass

    def begin(self, spec: RunSpec) -> PendingArtifact | Artifact:
        """Start recording *spec* under its cross-process lock.

        If another process committed the artifact while we waited on the
        lock, the committed :class:`Artifact` is returned instead of a
        :class:`PendingArtifact` — callers must check which they got.
        Raises :class:`~repro.errors.CacheLockError` when the lock cannot
        be acquired within ``lock_timeout``.

        With a :attr:`fence` installed (queue workers), two extra rules
        apply: a stale fencing token is refused up front with
        :class:`~repro.errors.FencedOutError`, and a flock that stays
        blocked past ``fence_lock_timeout`` — the signature of a frozen
        zombie holder, whose flock SIGSTOP does *not* release — makes
        the recorder fall back to a **staged** recording in a private
        ``<key>.stage.<epoch>-<pid>/`` sibling, published by one
        fence-validated atomic rename at commit.
        """
        key = spec.key
        lock = self.lock_for(key)
        timeout = self.lock_timeout
        if self.fence is not None:
            self.fence.check(f"begin recording of artifact {key[:12]}")
            if timeout is None or timeout > self.fence_lock_timeout:
                timeout = self.fence_lock_timeout
        try:
            lock.acquire(timeout=timeout)
        except CacheLockError:
            if self.fence is None:
                raise
            # the flock holder is alive-but-stuck (a zombie keeps its
            # flock through SIGSTOP); our valid fence outranks it —
            # record into a stage and publish over it atomically
            art = self.get(spec)
            if art is not None:
                return art
            stage = (self.dir_for(key) + STAGE_MARKER
                     + f"{self.fence.epoch}-{os.getpid()}-{_host_tag()}")
            return PendingArtifact(key, stage, fs=self.fs,
                                   fence=self.fence,
                                   final_dir=self.dir_for(key))
        try:
            art = self.get(spec)
            if art is not None:
                lock.release()
                return art
            return PendingArtifact(key, self.dir_for(key), fs=self.fs,
                                   lock=lock, fence=self.fence)
        except BaseException:
            if lock.held:
                lock.release()
            raise

    def verify(self, spec: RunSpec) -> int:
        """Scrub *spec*'s artifact end to end; returns the batch count."""
        art = self.get(spec)
        if art is None:
            raise TraceError(f"no committed artifact for {spec}",
                             key=spec.key)
        return art.verify()

    # -- quarantine -----------------------------------------------------
    def quarantine(self, key: str, reason: str = "") -> str | None:
        """Move *key*'s directory aside as ``<key>.quarantine[.n]`` so the
        key reads as a cache miss; returns the destination (None if the
        directory is already gone)."""
        src = self.dir_for(key)
        if not os.path.isdir(src):
            return None
        dest = src + QUARANTINE_SUFFIX
        n = 0
        while os.path.exists(dest):
            n += 1
            dest = f"{src}{QUARANTINE_SUFFIX}.{n}"
        publish_dir(src, dest, self.fs)
        _log.warning(
            "artifact quarantined: %s",
            json.dumps({
                "event": "artifact.quarantined",
                "key": key,
                "dest": dest,
                "reason": reason,
            }),
        )
        return dest

    # -- directory walking ----------------------------------------------
    def _artifact_dirs(self) -> Iterator[tuple[str, str, bool]]:
        """Yields ``(key_or_name, path, is_quarantine)`` for every entry
        under the two-level fan-out."""
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return
        for shard in shards:
            if shard == ".locks" or len(shard) != 2:
                continue
            shard_path = os.path.join(self.root, shard)
            if not os.path.isdir(shard_path):
                continue
            for name in sorted(os.listdir(shard_path)):
                path = os.path.join(shard_path, name)
                if not os.path.isdir(path):
                    continue
                if STAGE_MARKER in name:
                    # fenced staged recordings are walked separately
                    # (_stage_dirs); they are never artifacts
                    continue
                yield name, path, QUARANTINE_SUFFIX in name

    def _stage_dirs(self) -> Iterator[tuple[str, str, float]]:
        """Yields ``(name, path, age_s)`` for every fenced staged
        recording (``<key>.stage.<epoch>-<pid>/``) under the fan-out.
        Age is seconds since the directory's mtime — a live fenced
        recorder touches its stage constantly, so anything older than
        :data:`STAGE_TTL_S` is a dead worker's leftover."""
        now = time.time()
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return
        for shard in shards:
            if shard == ".locks" or len(shard) != 2:
                continue
            shard_path = os.path.join(self.root, shard)
            if not os.path.isdir(shard_path):
                continue
            for name in sorted(os.listdir(shard_path)):
                if STAGE_MARKER not in name:
                    continue
                path = os.path.join(shard_path, name)
                if not os.path.isdir(path):
                    continue
                try:
                    age = now - os.stat(path).st_mtime
                except OSError:
                    age = STAGE_TTL_S + 1.0
                yield name, path, age

    @property
    def runs_root(self) -> str:
        """Where per-suite-run journals live (``<root>/runs``)."""
        return os.path.join(self.root, RUNS_DIR)

    def _run_dirs(self) -> Iterator[tuple[str, str, bool]]:
        """Yields ``(run_id, path, finished)`` for every suite-run
        journal directory under the cache root. ``finished`` is the
        presence of the run's ``DONE`` marker — written when the run
        recorded its terminal journal entry; a directory without it is
        an interrupted run somebody may still ``--resume``."""
        try:
            names = sorted(os.listdir(self.runs_root))
        except OSError:
            return
        for name in names:
            path = os.path.join(self.runs_root, name)
            if not os.path.isdir(path):
                continue
            yield name, path, os.path.exists(
                os.path.join(path, RUN_DONE_MARKER))

    def _queue_live(self, run_path: str) -> bool:
        """True when *run_path*'s work queue shows recent lease activity.

        A finished (DONE-marked) run can still have workers attached:
        a zombie that was SIGSTOPped past its lease expiry wakes up
        arbitrarily later, and the only thing standing between it and
        the cache is the fence files under ``queue/``. So gc refuses to
        evict a run directory while any lease heartbeat is fresher than
        the grace window (``max(60, 4 * lease_ttl_s)`` from the queue
        manifest, :data:`QUEUE_LEASE_GRACE_S` when no TTL is
        declared)."""
        qdir = os.path.join(run_path, QUEUE_DIR)
        leases = os.path.join(qdir, QUEUE_LEASES_DIR)
        try:
            names = os.listdir(leases)
        except OSError:
            return False
        grace = QUEUE_LEASE_GRACE_S
        manifest = read_json_or_none(os.path.join(qdir, "manifest.json"))
        try:
            ttl = float((manifest or {}).get("lease_ttl_s", 0.0))
            if ttl > 0.0:
                grace = max(60.0, 4.0 * ttl)
        except (TypeError, ValueError):
            pass
        now = time.time()
        for n in names:
            try:
                mtime = os.stat(os.path.join(leases, n)).st_mtime
            except OSError:
                continue
            if now - mtime < grace:
                return True
        return False

    # -- fsck -----------------------------------------------------------
    def fsck(self, repair: bool = False) -> FsckReport:
        """Scrub every artifact; optionally repair what can be repaired.

        Repair means: corrupt artifacts are quarantined (taken out of
        service, kept for forensics), partial recordings and stray
        ``*.tmp`` files are deleted. An artifact whose repair itself
        fails stays ``corrupt`` with no action — :func:`fsck` callers
        treat that as unrepairable.
        """
        report = FsckReport(root=self.root)
        for name, path, is_quarantine in self._artifact_dirs():
            if is_quarantine:
                report.quarantined_dirs += 1
                continue
            art = Artifact(name, path)
            if not os.path.exists(art.meta_path):
                entry = FsckEntry(name, path, "partial",
                                  "no meta.json commit marker")
                if repair:
                    try:
                        shutil.rmtree(path)
                        entry.action = "removed"
                    except OSError as exc:
                        entry.detail += f"; removal failed: {exc}"
                report.entries.append(entry)
                continue
            try:
                n = art.verify()
            except TraceError as exc:
                detail = str(exc)
                # chunk-granular forensics: when only the trace payload is
                # bad (the marker itself verified), name which chunks
                # survived so quarantine triage knows what is salvageable
                if getattr(exc, "batch_index", None) is not None or \
                        os.path.isdir(os.path.join(path, REFS_TV3)):
                    verdicts = art.verify_chunks()
                    bad = [v.index for v in verdicts if v.status != "ok"]
                    good = sum(1 for v in verdicts if v.status == "ok")
                    if bad:
                        detail += (f"; chunks: {good} intact, "
                                   f"{len(bad)} corrupt ({bad[:8]})")
                entry = FsckEntry(name, path, "corrupt", detail)
                if repair:
                    try:
                        if self.quarantine(name, reason=str(exc)) is not None:
                            entry.action = "quarantined"
                    except OSError as exc2:
                        entry.detail += f"; quarantine failed: {exc2}"
                report.entries.append(entry)
                continue
            entry = FsckEntry(name, path, "ok", f"{n} batches verified")
            stray = [t for t in TMP_FILES + TMP_DIRS
                     if os.path.exists(os.path.join(path, t))]
            if stray:
                entry.detail += f"; stray tmp files: {', '.join(stray)}"
                if repair:
                    for t in stray:
                        target = os.path.join(path, t)
                        try:
                            if os.path.isdir(target):
                                shutil.rmtree(target)
                            else:
                                os.unlink(target)
                        except OSError:
                            pass
                    entry.action = "removed stray tmp files"
            report.entries.append(entry)
        for name, path, age in self._stage_dirs():
            reason = _stage_orphan_reason(name, age)
            if reason is None:
                # a live fenced recorder owns this; leave it alone
                continue
            entry = FsckEntry(name, path, "partial", reason)
            if repair:
                try:
                    shutil.rmtree(path)
                    entry.action = "removed"
                except OSError as exc:
                    entry.detail += f"; removal failed: {exc}"
            report.entries.append(entry)
        return report

    # -- gc -------------------------------------------------------------
    def gc(self, max_bytes: int, protect: tuple[str, ...] = ()) -> GcReport:
        """Shrink the cache under *max_bytes* by LRU eviction.

        Partial directories (no commit marker) whose key lock is free are
        garbage and removed first. If still over budget, *finished*
        suite-run journals go next (oldest first — a completed run's
        journal is forensics, while an *unfinished* run directory is
        resumable state and is never evicted), then quarantined
        forensic copies (oldest first), then committed artifacts
        least-recently-used first: ordered by the explicit ``last_access``
        stamp :meth:`get` refreshes on every cache hit, falling back to
        ``meta.json``'s mtime for artifacts written before the stamp
        existed (atime is deliberately not consulted — it is frozen on
        ``noatime`` mounts). A key in *protect*, or whose cross-process
        lock is currently held (a recorder or scrubber is using it), is
        never evicted — the report flags when that leaves the cache over
        budget.
        """
        protected = set(protect)
        candidates: list[tuple[float, str, str, int]] = []
        q_candidates: list[tuple[float, str, str, int]] = []
        run_candidates: list[tuple[float, str, str, int]] = []
        before = 0
        removed_partial = 0
        skipped: list[str] = []
        kept_runs: list[str] = []
        kept_queues: list[str] = []
        for run_id, path, finished in self._run_dirs():
            size = sum(
                os.path.getsize(os.path.join(dp, f))
                for dp, _dn, fns in os.walk(path) for f in fns
            )
            before += size
            if not finished:
                kept_runs.append(run_id)
                continue
            if self._queue_live(path):
                # finished run, but workers (or zombies) still heartbeat
                # its queue — the fence files in there are load-bearing
                kept_queues.append(run_id)
                continue
            try:
                mtime = os.stat(path).st_mtime
            except OSError:
                mtime = 0.0
            run_candidates.append((mtime, run_id, path, size))
        for name, path, age in self._stage_dirs():
            size = sum(
                os.path.getsize(os.path.join(dp, f))
                for dp, _dn, fns in os.walk(path) for f in fns
            )
            if _stage_orphan_reason(name, age) is None:
                # a live fenced recorder owns this stage; count, keep
                before += size
                continue
            try:
                shutil.rmtree(path)
                removed_partial += 1
            except OSError:
                before += size
        for name, path, is_quarantine in self._artifact_dirs():
            size = sum(
                os.path.getsize(os.path.join(dp, f))
                for dp, _dn, fns in os.walk(path) for f in fns
            )
            if is_quarantine:
                before += size
                try:
                    mtime = os.stat(path).st_mtime
                except OSError:
                    mtime = 0.0
                q_candidates.append((mtime, name, path, size))
                continue
            in_use = False
            lock = self.lock_for(name)
            if lock.try_acquire():
                lock.release()
            else:
                in_use = True
            meta_path = os.path.join(path, "meta.json")
            if not os.path.exists(meta_path):
                if in_use:
                    before += size
                    skipped.append(name)
                    continue
                try:
                    shutil.rmtree(path)
                    removed_partial += 1
                except OSError:
                    before += size
                continue
            before += size
            if name in protected or in_use:
                skipped.append(name)
                continue
            try:
                stamp = os.stat(os.path.join(path, LAST_ACCESS_FILE)).st_mtime
            except OSError:
                try:
                    stamp = os.stat(meta_path).st_mtime
                except OSError:
                    stamp = 0.0
            candidates.append((stamp, name, path, size))

        total = before
        evicted: list[str] = []
        evicted_q: list[str] = []
        evicted_runs: list[str] = []
        run_candidates.sort()  # finished run journals first, oldest first
        q_candidates.sort()  # then quarantine forensics, oldest first
        candidates.sort()  # then committed artifacts, oldest last-use first
        for sink, pool in ((evicted_runs, run_candidates),
                           (evicted_q, q_candidates), (evicted, candidates)):
            for _ts, name, path, size in pool:
                if total <= max_bytes:
                    break
                try:
                    shutil.rmtree(path)
                except OSError:
                    continue
                total -= size
                sink.append(name)
        return GcReport(
            root=self.root,
            budget_bytes=max_bytes,
            before_bytes=before,
            after_bytes=total,
            evicted=evicted,
            evicted_quarantine=evicted_q,
            evicted_runs=evicted_runs,
            skipped_in_use=sorted(set(skipped)),
            kept_runs=kept_runs,
            kept_queues=kept_queues,
            removed_partial=removed_partial,
        )
