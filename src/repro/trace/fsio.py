"""Shared low-level plumbing: filesystem shim, durable writes, checksums.

Both trace containers — the legacy monolithic ``.npz`` archives
(:mod:`repro.trace.io`) and the chunked columnar v3 directories
(:mod:`repro.trace.chunked`) — write through the same injectable
:class:`OsFS` surface and checksum batch payloads with the same
:func:`_batch_crc` formula. Keeping those here (below both container
modules) lets the v3 code share them without importing the npz layer.

The per-batch payload CRC32 is deliberately **format-independent**: it
covers the logical column arrays plus the iteration index, so the same
batch stored in a v2 archive and in a v3 chunk carries the same
checksum, and :func:`content_digest_from_crcs` turns the ordered CRC
list into a run-level content digest that survives a v2→v3 migration
bit-for-bit.

Every durable write in the repository is composed from the four
primitives at the bottom of this module — :func:`publish_file`,
:func:`publish_dir`, :func:`ensure_dir_chain` and
:func:`read_json_or_none` — so the one omission the crash checker kept
finding (a rename or mkdir whose parent directory was never fsync'd)
cannot be written by hand. ``tests/test_durable_write_lint.py`` rejects
a direct ``os.replace``/``os.rename``/``os.fsync`` (or a shim
``replace``/``rename``) anywhere else in ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from typing import Iterable

import numpy as np


class OsFS:
    """Direct passthrough to the host filesystem.

    The writer-side durability code (the trace writers and the artifact
    cache) calls the filesystem through this small surface so a
    fault-injecting shim (:class:`repro.engine.chaos.ChaosFS`) can be
    substituted in tests. ``os`` functions are resolved at call time, so
    monkeypatching e.g. ``os.replace`` still works.
    """

    def open(self, path: str, mode: str = "wb"):
        return open(path, mode)

    def open_excl(self, path: str):
        """Create *path* exclusively (``O_CREAT | O_EXCL``) for text writing.

        Raises :class:`FileExistsError` when the path already exists —
        the loser of a creation race must be told it lost.
        """
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        try:
            return os.fdopen(fd, "w")
        except Exception:
            os.close(fd)
            raise

    def fsync(self, fh) -> None:
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def rename(self, src: str, dst: str) -> None:
        os.rename(src, dst)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def rmtree(self, path: str) -> None:
        shutil.rmtree(path)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def fsync_dir(self, path: str) -> None:
        """fsync a directory so a rename into it survives power loss.

        Platforms that cannot open directories (Windows) silently skip —
        the rename itself is still atomic there.
        """
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _batch_crc(addr: np.ndarray, is_write: np.ndarray, size: np.ndarray,
               oid: np.ndarray, iteration: int) -> int:
    """CRC32 over a batch's payload, independent of archive encoding."""
    crc = zlib.crc32(np.ascontiguousarray(addr).tobytes())
    crc = zlib.crc32(np.ascontiguousarray(is_write).tobytes(), crc)
    crc = zlib.crc32(np.ascontiguousarray(size).tobytes(), crc)
    crc = zlib.crc32(np.ascontiguousarray(oid).tobytes(), crc)
    return zlib.crc32(int(iteration).to_bytes(8, "little", signed=True), crc)


def content_digest_from_crcs(events_crc32: int,
                             payload_crcs: Iterable[int]) -> str:
    """Run-level content digest from per-part CRC32s.

    sha256 over ``le32(events_crc32)`` followed by each batch's payload
    CRC32 in order. Because the payload CRC is the format-independent
    :func:`_batch_crc`, the digest is identical whether it was computed
    from decoded content, from a v2 archive's stored ``b{i}_crc``
    members, or from a v3 chunk index — no decode required for the
    latter two.
    """
    h = hashlib.sha256()
    h.update(int(events_crc32).to_bytes(4, "little"))
    for crc in payload_crcs:
        h.update(int(crc).to_bytes(4, "little"))
    return "sha256:" + h.hexdigest()


# ----------------------------------------------------------------------
# The durable-write vocabulary. Each primitive takes the injectable *fs*
# shim, so ChaosFS and the crash checker's RecordingFS see every step.

def publish_file(path: str, data: bytes | str, fs: OsFS) -> None:
    """Durably replace the file at *path* with *data*.

    Writes ``<path>.tmp``, fsyncs it, renames it over *path*, then
    fsyncs the parent directory so the new entry survives power loss.
    The temporary is removed if any step fails. The fixed temporary
    name means one writer per path: callers serialize concurrent
    publishers of the same path (key flock, coordinator, epoch holder,
    a lock).
    """
    if isinstance(data, str):
        data = data.encode()
    tmp = path + ".tmp"
    try:
        with fs.open(tmp, "wb") as fh:
            fh.write(data)
            fs.fsync(fh)
        fs.replace(tmp, path)
        fs.fsync_dir(os.path.dirname(path) or ".")
    except BaseException:
        try:
            fs.unlink(tmp)
        except OSError:  # already renamed, never created, or fs is dead
            pass
        raise


def publish_dir(tmp: str, dst: str, fs: OsFS) -> None:
    """Durably replace directory *dst* with the fully written sibling
    directory *tmp*.

    fsyncs *tmp* first: the caller fsync'd the files in it, but the
    entries naming them live in *tmp*'s own inode, and without that
    fsync a crash after the rename could surface *dst* with members
    missing. Then removes an existing *dst*, renames *tmp* into place,
    and fsyncs the parent.
    """
    fs.fsync_dir(tmp)
    if os.path.isdir(dst):
        fs.rmtree(dst)
    fs.replace(tmp, dst)
    fs.fsync_dir(os.path.dirname(dst) or ".")


def ensure_dir_chain(path: str, root: str, fs: OsFS) -> None:
    """Create directory *path* and any missing parents, then fsync
    *path*'s parent and every directory above it up to and including
    *root*.

    A directory is only an entry in its parent: without these fsyncs a
    crash can drop a freshly made directory — and everything durably
    written into it — in one stroke. The fsyncs are unconditional, so a
    chain an earlier process created and died before syncing is
    repaired too.
    """
    level, root = os.path.abspath(path), os.path.abspath(root)
    if level == root or os.path.commonpath((level, root)) != root:
        raise ValueError(f"{root!r} is not a parent of {path!r}")
    fs.makedirs(path)
    while level != root:
        level = os.path.dirname(level)
        fs.fsync_dir(level)


def read_json_or_none(path: str) -> dict | None:
    """The JSON object stored at *path*, or None if the file is missing,
    torn, or not a JSON object (files written by :func:`publish_file`
    are never torn at their final path, so a reader that polls sees
    them whole on the next look)."""
    try:
        with open(path, "rb") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None
